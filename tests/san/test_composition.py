"""Tests for Join/Replicate composition."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmc.steady_state import steady_state_distribution
from repro.san.activities import Case, TimedActivity
from repro.san.composition import (
    FLEET_CONTAMINATED,
    FLEET_DETECTED,
    FLEET_FAILED,
    FLEET_OK,
    FleetRates,
    fleet_chain,
    fleet_digits,
    join,
    replicate,
)
from repro.san.ctmc_builder import build_ctmc
from repro.san.errors import ModelStructureError
from repro.san.gates import InputGate, OutputGate
from repro.san.model import SANModel
from repro.san.places import Place


def _worker(fail_rate: float = 1.0) -> SANModel:
    """A worker that cycles busy/idle, gated on a shared resource place."""
    places = [
        Place("idle", initial=1, capacity=1),
        Place("busy", capacity=1),
        Place("resource", initial=1, capacity=1),
    ]
    start = TimedActivity(
        "start",
        rate=fail_rate,
        input_arcs=[("idle", 1), ("resource", 1)],
        cases=[Case(output_arcs=(("busy", 1),))],
    )
    finish = TimedActivity(
        "finish",
        rate=2.0,
        input_arcs=[("busy", 1)],
        cases=[Case(output_arcs=(("idle", 1), ("resource", 1)))],
    )
    return SANModel("worker", places, [start, finish])


class TestJoin:
    def test_shared_place_merged(self):
        composed = join(
            "pair",
            {"w1": _worker(), "w2": _worker()},
            shared_places=["resource"],
        )
        names = composed.place_names()
        assert "resource" in names
        assert "w1_idle" in names and "w2_idle" in names
        assert len([n for n in names if n == "resource"]) == 1

    def test_mutual_exclusion_through_shared_place(self):
        composed = join(
            "pair",
            {"w1": _worker(), "w2": _worker()},
            shared_places=["resource"],
        )
        compiled = build_ctmc(composed)
        # The shared resource makes simultaneous busy-busy unreachable.
        both_busy = compiled.states_where(
            lambda m: m["w1_busy"] == 1 and m["w2_busy"] == 1
        )
        assert both_busy == []

    def test_join_semantics_match_manual_model(self):
        # Steady-state utilisation of worker 1 in the composed model:
        # compare against the known M/M/1-style alternation with
        # competition (validated structurally via flow balance).
        composed = join(
            "pair",
            {"w1": _worker(), "w2": _worker()},
            shared_places=["resource"],
        )
        compiled = build_ctmc(composed)
        pi = steady_state_distribution(compiled.chain)
        busy1 = compiled.probability_vector_for(lambda m: m["w1_busy"] == 1)
        busy2 = compiled.probability_vector_for(lambda m: m["w2_busy"] == 1)
        # Symmetric workers: equal utilisation.
        assert float(pi @ busy1) == pytest.approx(float(pi @ busy2), rel=1e-9)

    def test_gate_renaming_lens(self):
        # A model whose behaviour depends on a gate predicate reading a
        # local place name must survive renaming.
        places = [Place("flag", initial=1, capacity=1), Place("out", capacity=5)]
        act = TimedActivity(
            "emit",
            rate=1.0,
            input_gates=[InputGate("ig", predicate=lambda m: m["flag"] == 1)],
            cases=[Case(output_gates=(OutputGate(
                "og", lambda m: m.add("out", 1) if m["out"] < 5 else m),))],
        )
        model = SANModel("gated", places, [act])
        composed = join("two", {"g1": model, "g2": model})
        compiled = build_ctmc(composed, max_markings=10_000)
        assert compiled.num_states > 1
        # Local predicate reads renamed place transparently.
        assert composed.activity("g1_emit").enabled(composed.initial_marking())

    def test_conflicting_shared_initials_rejected(self):
        a = SANModel(
            "a",
            [Place("shared", initial=1), Place("pa", initial=1)],
            [TimedActivity("t", rate=1.0, input_arcs=[("pa", 1)],
                           cases=[Case(output_arcs=(("pa", 1),))])],
        )
        b = SANModel(
            "b",
            [Place("shared", initial=2), Place("pb", initial=1)],
            [TimedActivity("t", rate=1.0, input_arcs=[("pb", 1)],
                           cases=[Case(output_arcs=(("pb", 1),))])],
        )
        with pytest.raises(ModelStructureError, match="conflicting"):
            join("bad", {"x": a, "y": b}, shared_places=["shared"])

    def test_shared_place_in_single_submodel_rejected(self):
        with pytest.raises(ModelStructureError, match="at least two"):
            join("bad", {"only": _worker()}, shared_places=["resource"])

    def test_invalid_instance_name_rejected(self):
        with pytest.raises(ModelStructureError):
            join("bad", {"not valid": _worker()})


class TestReplicate:
    def test_replica_count_one_without_sharing_is_identity(self):
        model = _worker()
        assert replicate("same", model, 1) is model

    def test_replicas_share_common_place(self):
        composed = replicate("three", _worker(), 3, common_places=["resource"])
        names = composed.place_names()
        assert names.count("resource") == 1
        assert sum(1 for n in names if n.endswith("_idle")) == 3

    def test_zero_replicas_rejected(self):
        with pytest.raises(ModelStructureError):
            replicate("none", _worker(), 0)

    def test_replicated_state_space(self):
        composed = replicate("pair", _worker(), 2, common_places=["resource"])
        compiled = build_ctmc(composed)
        # Resource excludes concurrency: states = idle/idle+res,
        # busy/idle, idle/busy.
        assert compiled.num_states == 3


class TestFleetChain:
    def test_digits_enumerate_base4(self):
        digits = fleet_digits(2)
        assert digits.shape == (16, 2)
        # State index i has digits (i % 4, i // 4): process j is digit j.
        assert list(digits[0]) == [0, 0]
        assert list(digits[1]) == [1, 0]
        assert list(digits[4]) == [0, 1]
        assert list(digits[15]) == [3, 3]

    def test_rates_validated(self):
        with pytest.raises(ModelStructureError):
            FleetRates(contaminate=-1.0, detect=1.0, fail=1.0, repair=1.0)

    def test_single_process_matches_local_chain(self):
        rates = FleetRates(contaminate=0.3, detect=1.0, fail=0.25, repair=2.0)
        chain = fleet_chain(1, rates)
        q = chain.generator.toarray()
        expected = np.zeros((4, 4))
        expected[FLEET_OK, FLEET_CONTAMINATED] = rates.contaminate
        expected[FLEET_CONTAMINATED, FLEET_DETECTED] = rates.detect
        expected[FLEET_CONTAMINATED, FLEET_FAILED] = rates.fail
        expected[FLEET_DETECTED, FLEET_OK] = rates.repair
        np.fill_diagonal(expected, -expected.sum(axis=1))
        assert np.allclose(q, expected)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("servers", [1, 2])
    @pytest.mark.parametrize(
        "heterogeneous", [False, True], ids=["homogeneous", "heterogeneous"]
    )
    def test_generator_matches_brute_force(self, n, servers, heterogeneous):
        # The local chain, applied process by process with the shared
        # repair throttle, is the definition the vectorised assembly
        # must reproduce.
        base = FleetRates(contaminate=0.3, detect=1.1, fail=0.2, repair=1.7)
        if heterogeneous:
            rates = [
                FleetRates(
                    contaminate=0.3 + 0.25 * j,
                    detect=1.1 - 0.2 * j,
                    fail=0.2 * (j % 2),
                    repair=1.7 + 0.5 * j,
                )
                for j in range(n)
            ]
        else:
            rates = [base] * n
        chain = fleet_chain(
            n, rates if heterogeneous else base, repair_servers=servers
        )
        q = chain.generator.toarray()
        size = 4**n
        expected = np.zeros((size, size))
        for src in range(size):
            local = [(src >> (2 * j)) & 3 for j in range(n)]
            n_det = local.count(FLEET_DETECTED)
            for j in range(n):
                moves = {
                    (FLEET_OK, FLEET_CONTAMINATED): rates[j].contaminate,
                    (FLEET_CONTAMINATED, FLEET_DETECTED): rates[j].detect,
                    (FLEET_CONTAMINATED, FLEET_FAILED): rates[j].fail,
                    (FLEET_DETECTED, FLEET_OK): rates[j].repair,
                }
                for (a, b), rate in moves.items():
                    if local[j] != a:
                        continue
                    if (a, b) == (FLEET_DETECTED, FLEET_OK):
                        rate *= min(n_det, servers) / n_det
                    dst_local = list(local)
                    dst_local[j] = b
                    dst = sum(d << (2 * k) for k, d in enumerate(dst_local))
                    expected[src, dst] += rate
        np.fill_diagonal(expected, -expected.sum(axis=1))
        assert np.allclose(q, expected, rtol=1e-14, atol=0.0)

    def test_shared_repair_throttles_rate(self):
        rates = FleetRates(contaminate=0.0, detect=0.0, fail=0.0, repair=3.0)
        chain = fleet_chain(2, rates, repair_servers=1)
        q = chain.generator.toarray()
        both_detected = FLEET_DETECTED + 4 * FLEET_DETECTED
        one_detected = FLEET_DETECTED  # process 0 detected, process 1 ok
        # Two detected, one server: each repairs at rate * 1/2.
        assert q[both_detected].sum() == pytest.approx(0.0)
        assert -q[both_detected, both_detected] == pytest.approx(3.0)
        assert -q[one_detected, one_detected] == pytest.approx(3.0)

    def test_unlimited_servers_remove_throttle(self):
        rates = FleetRates(contaminate=0.0, detect=0.0, fail=0.0, repair=3.0)
        chain = fleet_chain(2, rates, repair_servers=2)
        q = chain.generator.toarray()
        both_detected = FLEET_DETECTED + 4 * FLEET_DETECTED
        assert -q[both_detected, both_detected] == pytest.approx(6.0)

    def test_initial_distribution_all_ok(self):
        rates = FleetRates(contaminate=0.1, detect=1.0, fail=0.1, repair=1.0)
        chain = fleet_chain(3, rates)
        initial = chain.initial_distribution
        assert initial[0] == 1.0
        assert initial.sum() == pytest.approx(1.0)

    def test_failed_states_absorbing(self):
        rates = FleetRates(contaminate=0.5, detect=1.0, fail=0.5, repair=2.0)
        chain = fleet_chain(2, rates)
        q = chain.generator.toarray()
        all_failed = FLEET_FAILED + 4 * FLEET_FAILED
        assert np.all(q[all_failed] == 0.0)

    def test_fleet_chain_is_sparse_csr(self):
        rates = FleetRates(contaminate=0.1, detect=1.0, fail=0.2, repair=1.0)
        chain = fleet_chain(4, rates)
        assert sp.issparse(chain.generator)
        assert chain.num_states == 4**4

"""Heterogeneous / staged-upgrade fleet composition and partial lumping.

Covers the multi-upgrade scenario surface end to end: the blocked CSR
assembly (invariant under the block size), per-process rates, the
grouped partial quotient — verified against the flat chain — and the
guarantee that asymmetric rates *refuse* the one-group count-vector
lumping instead of silently producing wrong numbers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.ctmc.errors import CTMCError
from repro.ctmc.transient import transient_grid
from repro.gsu.fleet import FleetParameters, FleetSolver
from repro.san.composition import (
    FLEET_ASSEMBLY_BLOCK_STATES,
    FleetRates,
    fleet_chain,
    fleet_generator_blocked,
    fleet_rate_matrix,
)
from repro.san.errors import ModelStructureError
from repro.san.symmetry import (
    fleet_count_states,
    fleet_group_block_map,
    fleet_group_states,
    fleet_grouped_lumped_chain,
    fleet_lumped_chain,
    fleet_rate_groups,
    reduce_fleet_grouped,
)

NEW = FleetRates(contaminate=0.05, detect=2.0, fail=0.4, repair=1.5)
OLD = FleetRates(contaminate=0.12, detect=2.0, fail=0.4, repair=1.5)
TIMES = np.array([0.3, 1.0, 3.0])


def _csr_equal(a, b) -> bool:
    a = a.copy()
    b = b.copy()
    a.sort_indices()
    b.sort_indices()
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class TestBlockedAssembly:
    @pytest.mark.parametrize("block_states", [1, 3, 17, 64])
    def test_block_size_never_changes_the_matrix(self, block_states):
        whole = fleet_generator_blocked(fleet_rate_matrix(NEW, 3), 2)
        pieces = fleet_generator_blocked(
            fleet_rate_matrix(NEW, 3), 2, block_states=block_states
        )
        assert _csr_equal(whole, pieces)

    def test_default_block_bounds_transient_memory(self):
        # The default covers a whole small fleet in one block but is
        # fixed (not O(num_states)), which is the out-of-core property.
        assert FLEET_ASSEMBLY_BLOCK_STATES == 1 << 16

    def test_heterogeneous_generator_is_a_valid_ctmc(self):
        chain = fleet_chain(4, [NEW, NEW, OLD, OLD], repair_servers=2)
        q = chain.generator
        assert q.shape == (256, 256)
        assert abs(q.sum(axis=1)).max() < 1e-12
        dense = q.toarray()
        off = dense - np.diag(np.diag(dense))
        assert off.min() >= 0.0

    def test_heterogeneous_rates_land_on_the_right_processes(self):
        # Process 0 (new, contaminate 0.05) vs process 1 (old, 0.12):
        # from the all-ok state, flat transitions go to state 4**j.
        chain = fleet_chain(2, [NEW, OLD])
        q = chain.generator.toarray()
        assert q[0, 1] == pytest.approx(NEW.contaminate)
        assert q[0, 4] == pytest.approx(OLD.contaminate)

    def test_rate_matrix_validation(self):
        with pytest.raises(ModelStructureError, match="one FleetRates"):
            fleet_rate_matrix([NEW], 2)
        with pytest.raises(ModelStructureError, match="FleetRates"):
            fleet_rate_matrix([NEW, (1, 2, 3, 4)], 2)
        for n in (0, -1):
            with pytest.raises(ModelStructureError, match="fleet size"):
                fleet_chain(n, NEW)


class TestGroupedQuotient:
    def test_rate_groups_partition_by_equality(self):
        groups = fleet_rate_groups([NEW, OLD, NEW, OLD, OLD])
        assert [members for members, _ in groups] == [(0, 2), (1, 3, 4)]
        assert groups[0][1] == NEW

    def test_group_states_product_enumeration(self):
        states = fleet_group_states([2, 1])
        assert len(states) == len(fleet_count_states(2)) * len(
            fleet_count_states(1)
        )
        assert states[0] == ((2, 0, 0, 0), (1, 0, 0, 0))

    def test_single_group_degenerates_to_full_quotient(self):
        """One rate group is the plain count-vector chain: its states
        are the count vectors and its rates the aggregate class rates
        ``ok * contaminate``, ``ctn * detect``, ``ctn * fail`` and
        ``repair * min(det, servers)``, bitwise."""
        n = 5
        states = fleet_count_states(n)
        index = {s: b for b, s in enumerate(states)}
        for servers in (1, 2, 3):
            chain = fleet_grouped_lumped_chain(
                [NEW] * n, repair_servers=servers
            )
            assert chain.labels == [(s,) for s in states]
            expected = np.zeros((len(states), len(states)))
            for b, (ok, ctn, det, fail) in enumerate(states):
                for dst, rate in (
                    ((ok - 1, ctn + 1, det, fail), ok * NEW.contaminate),
                    ((ok, ctn - 1, det + 1, fail), ctn * NEW.detect),
                    ((ok, ctn - 1, det, fail + 1), ctn * NEW.fail),
                    ((ok + 1, ctn, det - 1, fail),
                     NEW.repair * min(det, servers)),
                ):
                    if rate > 0:
                        expected[b, index[dst]] = rate
            q = chain.generator.toarray()
            assert np.array_equal(q - np.diag(np.diag(q)), expected)
            assert _csr_equal(
                fleet_lumped_chain(n, NEW, servers).generator, chain.generator
            )

    def test_block_map_requires_full_cover(self):
        groups = [((0, 2), NEW)]  # missing process 1
        with pytest.raises(Exception, match="exactly once"):
            fleet_group_block_map(groups)

    @pytest.mark.parametrize("servers", [1, 2])
    def test_grouped_quotient_verified_against_flat(self, servers):
        rates = [NEW, NEW, OLD, OLD]
        flat = fleet_chain(4, rates, repair_servers=servers)
        reduction = reduce_fleet_grouped(flat, rates)
        direct = fleet_grouped_lumped_chain(rates, repair_servers=servers)
        assert reduction.reduced_states == direct.num_states

        rows_flat = transient_grid(flat, TIMES, method="uniformization")
        bmap = fleet_group_block_map(fleet_rate_groups(rates))
        projected = np.zeros((TIMES.size, reduction.reduced_states))
        for k in range(TIMES.size):
            np.add.at(projected[k], bmap, rows_flat[k])
        rows_direct = transient_grid(direct, TIMES, method="uniformization")
        assert np.max(np.abs(projected - rows_direct)) < 1e-12

    def test_asymmetric_rates_refuse_full_lumping(self):
        """The load-bearing negative test: a heterogeneous fleet is NOT
        lumpable onto plain count vectors, and the verifying reduction
        must say so rather than return a wrong quotient."""
        flat = fleet_chain(3, [NEW, NEW, OLD])
        with pytest.raises(CTMCError, match="not lumpable"):
            reduce_fleet_grouped(flat, [NEW] * 3)

    def test_wrong_grouping_refused(self):
        # Rates claim processes 0/1 are exchangeable; the chain says no.
        flat = fleet_chain(3, [NEW, OLD, OLD])
        with pytest.raises(CTMCError, match="not lumpable"):
            reduce_fleet_grouped(flat, [NEW, NEW, OLD])


class TestStagedUpgradeScenario:
    def test_staged_lumped_vs_flat_agreement(self):
        params = FleetParameters(
            n_processes=4, n_upgraded=2, mu_legacy=5e-4, theta=10.0
        )
        phis = [0.5, 2.0, 8.0]
        y_lumped = FleetSolver(params, mode="lumped").curve(phis)
        y_flat = FleetSolver(params, mode="flat").curve(phis)
        assert np.max(np.abs(y_lumped - y_flat)) < 1e-10

    def test_staged_quotient_is_partial(self):
        params = FleetParameters(n_processes=6, n_upgraded=3, mu_legacy=5e-4)
        full = FleetParameters(n_processes=6)
        assert params.lumped_states > full.lumped_states
        assert params.lumped_states < params.flat_states

    def test_legacy_fleet_degrades_faster(self):
        base = dict(n_processes=4, theta=10.0)
        fresh = FleetSolver(FleetParameters(**base))
        staged = FleetSolver(
            FleetParameters(**base, n_upgraded=1, mu_legacy=5e-3)
        )
        assert staged.value(5.0) < fresh.value(5.0)

    def test_cli_staged_flags(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--processes", "3",
                    "--upgraded", "1",
                    "--mu-legacy", "5e-4",
                    "--phis", "0,5",
                    "--json",
                ]
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)
        assert records[0]["params"]["n_upgraded"] == 1
        assert records[0]["params"]["mu_legacy"] == 5e-4
        assert records[0]["states"] == 40  # C(1+3,3) * C(2+3,3) = 4 * 10

    def test_cli_staged_flags_must_pair(self, capsys):
        assert main(["fleet", "--processes", "3", "--upgraded", "1"]) == 2
        assert "n_upgraded and mu_legacy" in capsys.readouterr().err

    def test_serve_parse_accepts_staged_fields(self):
        # POST /fleet parses its "fleet" object with the shared parser.
        from repro.query import fleet_params

        params = fleet_params({"n_processes": 3, "n_upgraded": 1, "mu_legacy": 2e-4})
        assert params.staged
        assert params.n_upgraded == 1
        null_params = fleet_params(
            {"n_processes": 3, "n_upgraded": None, "mu_legacy": None}
        )
        assert not null_params.staged

    def test_serve_parse_rejects_bad_staged_fields(self):
        from repro.query import QueryError, fleet_params

        with pytest.raises(QueryError):
            fleet_params({"n_upgraded": 1})

"""Structural and behavioural tests for the three SAN reward models."""

import math

import pytest

from repro.gsu.models.rm_gd import build_rm_gd
from repro.gsu.models.rm_gp import build_rm_gp
from repro.gsu.models.rm_nd import build_rm_nd
from repro.gsu.parameters import PAPER_TABLE3
from repro.san.analyzers import analyze_structure, is_irreducible
from repro.san.ctmc_builder import build_ctmc
from repro.san.rewards import RewardStructure, instant_of_time, steady_state


class TestRMGdStructure:
    @pytest.fixture(scope="class")
    def compiled(self):
        return build_ctmc(build_rm_gd(PAPER_TABLE3))

    def test_state_space_is_small(self, compiled):
        assert compiled.num_states < 100
        assert compiled.graph.num_vanishing > 0  # instantaneous ATs fired

    def test_places_match_paper_figure6_roles(self):
        model = build_rm_gd(PAPER_TABLE3)
        for place in ("P1Nctn", "P1Octn", "P2ctn", "dirty_bit",
                      "detected", "failure"):
            assert place in model.place_names()

    def test_binary_state_places(self, compiled):
        report = analyze_structure(compiled.model, compiled.graph)
        for place in ("P1Nctn", "P1Octn", "P2ctn", "dirty_bit",
                      "detected", "failure"):
            low, high = report.place_bounds[place]
            assert low == 0 and high <= 1

    def test_at_pending_places_never_tangible(self, compiled):
        for marking in compiled.graph.markings:
            assert marking["P1Nat_pend"] == 0
            assert marking["P2at_pend"] == 0

    def test_failure_states_absorbing(self, compiled):
        for i, marking in enumerate(compiled.graph.markings):
            if marking["failure"] == 1:
                assert compiled.graph.total_exit_rate(i) == 0.0

    def test_initial_marking_clean(self, compiled):
        init = compiled.model.initial_marking()
        assert init["P1Nctn"] == 0 and init["failure"] == 0

    def test_detected_and_failure_disjoint_paths_exist(self, compiled):
        detected = compiled.states_where(
            lambda m: m["detected"] == 1 and m["failure"] == 0
        )
        failed_undetected = compiled.states_where(
            lambda m: m["detected"] == 0 and m["failure"] == 1
        )
        failed_after_recovery = compiled.states_where(
            lambda m: m["detected"] == 1 and m["failure"] == 1
        )
        assert detected and failed_undetected and failed_after_recovery


class TestRMGdBehaviour:
    def test_outcome_partition_at_any_time(self):
        compiled = build_ctmc(build_rm_gd(PAPER_TABLE3))
        partition = RewardStructure.from_pairs(
            "all", [(lambda m: True, 1.0)]
        )
        assert instant_of_time(
            compiled, partition, 5000.0, method="auto"
        ) == pytest.approx(1.0, abs=1e-9)

    def test_full_coverage_prevents_undetected_p1n_failures(self):
        params = PAPER_TABLE3.with_overrides(coverage=1.0 - 1e-12)
        compiled = build_ctmc(build_rm_gd(params))
        failed_undetected = RewardStructure.from_pairs(
            "fu", [(lambda m: m["failure"] == 1 and m["detected"] == 0, 1.0)]
        )
        value = instant_of_time(compiled, failed_undetected, 10_000.0,
                                method="auto")
        # Only mu_old-driven P2-believed-clean escapes remain: tiny.
        assert value < 1e-3

    def test_zero_coverage_never_detects(self):
        params = PAPER_TABLE3.with_overrides(coverage=1e-12)
        compiled = build_ctmc(build_rm_gd(params))
        detected = RewardStructure.from_pairs(
            "d", [(lambda m: m["detected"] == 1, 1.0)]
        )
        value = instant_of_time(compiled, detected, 10_000.0, method="auto")
        assert value < 1e-6

    def test_detection_probability_close_to_coverage_times_fault(self):
        compiled = build_ctmc(build_rm_gd(PAPER_TABLE3))
        detected = RewardStructure.from_pairs(
            "d", [(lambda m: m["detected"] == 1 and m["failure"] == 0, 1.0)]
        )
        phi = 7000.0
        value = instant_of_time(compiled, detected, phi, method="auto")
        approx = PAPER_TABLE3.coverage * (
            1 - math.exp(-PAPER_TABLE3.mu_new * phi)
        )
        assert value == pytest.approx(approx, rel=0.02)


class TestRMGp:
    @pytest.fixture(scope="class")
    def compiled(self):
        return build_ctmc(build_rm_gp(PAPER_TABLE3))

    def test_irreducible(self, compiled):
        assert is_irreducible(compiled.graph)

    def test_state_space_small(self, compiled):
        assert compiled.num_states < 50

    def test_busy_states_mutually_exclusive_per_process(self, compiled):
        for marking in compiled.graph.markings:
            assert marking["P1nReady"] + marking["P1nExt"] == 1
            assert (
                marking["P2Ready"] + marking["P2Ext"] + marking["P2Check"] == 1
            )
            assert marking["P1oReady"] + marking["P1oCheck"] == 1

    def test_overheads_match_paper_derived_parameters(self, compiled):
        overhead1 = RewardStructure.from_pairs(
            "o1", [(lambda m: m["P1nExt"] == 1, 1.0)]
        )
        overhead2 = RewardStructure.from_pairs(
            "o2",
            [
                (lambda m: m["P2Check"] == 1, 1.0),
                (lambda m: m["P2Ext"] == 1 and m["P2DB"] == 1, 1.0),
            ],
        )
        rho1 = 1.0 - steady_state(compiled, overhead1)
        rho2 = 1.0 - steady_state(compiled, overhead2)
        assert rho1 == pytest.approx(0.98, abs=0.005)
        assert rho2 == pytest.approx(0.95, abs=0.01)

    def test_at_busy_implies_dirty_bit(self, compiled):
        for marking in compiled.graph.markings:
            if marking["P2Ext"] == 1:
                assert marking["P2DB"] == 1


class TestRMNd:
    def test_survival_matches_exponential_approximation(self):
        compiled = build_ctmc(build_rm_nd(PAPER_TABLE3, PAPER_TABLE3.mu_new))
        alive = RewardStructure.from_pairs(
            "alive", [(lambda m: m["failure"] == 0, 1.0)]
        )
        theta = PAPER_TABLE3.theta
        value = instant_of_time(compiled, alive, theta, method="auto")
        assert value == pytest.approx(math.exp(-PAPER_TABLE3.mu_new * theta),
                                      rel=0.01)

    def test_old_rate_system_nearly_reliable(self):
        compiled = build_ctmc(build_rm_nd(PAPER_TABLE3, PAPER_TABLE3.mu_old))
        alive = RewardStructure.from_pairs(
            "alive", [(lambda m: m["failure"] == 0, 1.0)]
        )
        value = instant_of_time(compiled, alive, 10_000.0, method="auto")
        assert value > 0.999

    def test_failure_absorbing(self):
        compiled = build_ctmc(build_rm_nd(PAPER_TABLE3, PAPER_TABLE3.mu_new))
        for i, marking in enumerate(compiled.graph.markings):
            if marking["failure"] == 1:
                assert compiled.graph.total_exit_rate(i) == 0.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            build_rm_nd(PAPER_TABLE3, 0.0)

    def test_state_count(self):
        compiled = build_ctmc(build_rm_nd(PAPER_TABLE3, PAPER_TABLE3.mu_new))
        assert compiled.num_states <= 8

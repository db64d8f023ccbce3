"""End-to-end integration tests crossing all layers.

SAN model definition -> reachability -> CTMC -> reward variables ->
translation pipeline -> performability index, plus the protocol
simulation cross-check.
"""

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import GSUParameters, PAPER_TABLE3
from repro.gsu.performability import evaluate_index
from repro.gsu.validation import (
    SCALED_VALIDATION_PARAMS,
    validate_constituents,
)
from repro.mdcd.scenario import run_replications


class TestFullPipeline:
    def test_paper_configuration_end_to_end(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        evaluation = evaluate_index(PAPER_TABLE3, 7000.0, solver=solver)
        # Pipeline-level invariants.
        assert evaluation.worth.ideal == 20_000.0
        assert 0 < evaluation.worth.unguarded < evaluation.worth.ideal
        assert 0 < evaluation.worth.guarded < evaluation.worth.ideal
        assert evaluation.value > 1.0

    def test_index_continuous_near_zero(self):
        # Y(phi) must approach 1 smoothly as phi -> 0 (no discontinuity
        # between the degenerate and general aggregation branches).
        solver = ConstituentSolver(PAPER_TABLE3)
        y_small = evaluate_index(PAPER_TABLE3, 1.0, solver=solver).value
        assert y_small == pytest.approx(1.0, abs=0.005)

    def test_monotone_degradation_reduction_to_optimum(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        values = [
            evaluate_index(PAPER_TABLE3, phi, solver=solver).value
            for phi in (0.0, 2000.0, 4000.0, 6000.0, 7000.0)
        ]
        assert values == sorted(values)

    def test_perfect_coverage_dominates_low_coverage(self):
        high = ConstituentSolver(PAPER_TABLE3.with_overrides(coverage=0.99))
        low = ConstituentSolver(PAPER_TABLE3.with_overrides(coverage=0.30))
        phi = 6000.0
        y_high = evaluate_index(high.params, phi, solver=high).value
        y_low = evaluate_index(low.params, phi, solver=low).value
        assert y_high > y_low

    def test_negligible_fault_rate_makes_guarding_pointless(self):
        params = PAPER_TABLE3.with_overrides(mu_new=1e-7)
        solver = ConstituentSolver(params)
        y = evaluate_index(params, 7000.0, solver=solver).value
        # Almost nothing to protect against: Y stays near (or below) 1.
        assert y < 1.05


@pytest.mark.slow
class TestSimulationAgreement:
    def test_constituents_validated_against_protocol(self):
        report = validate_constituents(
            SCALED_VALIDATION_PARAMS, phi=10.0, replications=250, seed=17
        )
        assert report.all_consistent, "\n" + report.summary()

    def test_validation_at_short_phi(self):
        report = validate_constituents(
            SCALED_VALIDATION_PARAMS,
            phi=3.0,
            replications=500,
            seed=23,
            confidence=0.999,
        )
        assert report.all_consistent, "\n" + report.summary()

    def test_simulated_worth_tracks_analytic_expectation(self):
        # E[W_phi] from the translation vs the protocol's accrued worth.
        # The analytic value applies the gamma discount to S2 paths (an
        # analysis-level construct the raw simulation does not accrue),
        # so compare against the *undiscounted* aggregate.
        params = SCALED_VALIDATION_PARAMS
        phi = 10.0
        solver = ConstituentSolver(params)
        evaluation = evaluate_index(params, phi, solver=solver)
        undiscounted = evaluation.y_s1 + evaluation.y_s2 / evaluation.gamma
        results = run_replications(params, phi, replications=400, seed=29)
        sim_worth = sum(r.worth for r in results) / len(results)
        assert sim_worth == pytest.approx(undiscounted, rel=0.10)


class TestScaledScenarios:
    def test_different_scales_same_qualitative_story(self):
        # A 10x-faster world (all rates scaled up, horizons scaled down)
        # must produce the same Y: the index is scale-invariant.
        base = GSUParameters(
            theta=1000.0, lam=600.0, mu_new=1e-3, mu_old=1e-7,
            coverage=0.95, p_ext=0.1, alpha=3000.0, beta=3000.0,
        )
        scaled = GSUParameters(
            theta=100.0, lam=6000.0, mu_new=1e-2, mu_old=1e-6,
            coverage=0.95, p_ext=0.1, alpha=30_000.0, beta=30_000.0,
        )
        y_base = evaluate_index(base, 500.0).value
        y_scaled = evaluate_index(scaled, 50.0).value
        assert y_base == pytest.approx(y_scaled, rel=1e-6)

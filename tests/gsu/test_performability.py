"""Tests for the performability index Y and its translation pipeline."""

import math

import pytest

from repro.core.constituent import EvaluationContext
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import (
    aggregate_breakdown,
    build_translation_pipeline,
    evaluate_batch,
    evaluate_index,
)


@pytest.fixture(scope="module")
def solver() -> ConstituentSolver:
    return ConstituentSolver(PAPER_TABLE3)


class TestPipelineStructure:
    def test_pipeline_validates(self):
        pipeline = build_translation_pipeline()
        assert len(pipeline.measures) == 9
        assert len(pipeline.stages) == 6

    def test_measure_model_assignment_matches_figure3(self):
        pipeline = build_translation_pipeline()
        by_model = {}
        for measure in pipeline.measures:
            by_model.setdefault(measure.model_key, set()).add(measure.name)
        assert by_model["RMGd"] == {
            "p_gd_phi_a1", "int_h", "int_tau_h", "int_hf"
        }
        assert by_model["RMGp"] == {"rho1", "rho2"}
        assert by_model["RMNd_new"] == {"p_nd_theta", "p_nd_theta_minus_phi"}
        assert by_model["RMNd_old"] == {"int_f"}

    def test_pipeline_dot_and_description(self):
        pipeline = build_translation_pipeline()
        dot = pipeline.to_dot()
        for name in ("int_h", "rho1", "coordinate_translation"):
            assert name in dot
        assert "Eqs. (19)-(21)" in pipeline.describe()


class TestEvaluation:
    def test_phi_zero_gives_y_one(self, solver):
        ev = evaluate_index(PAPER_TABLE3, 0.0, solver=solver)
        assert ev.value == pytest.approx(1.0)
        assert ev.worth.guarded == pytest.approx(ev.worth.unguarded)
        assert ev.y_s2 == 0.0

    def test_ideal_worth_is_two_theta(self, solver):
        ev = evaluate_index(PAPER_TABLE3, 3000.0, solver=solver)
        assert ev.worth.ideal == pytest.approx(2 * PAPER_TABLE3.theta)

    def test_unguarded_worth_constant_in_phi(self, solver):
        w1 = evaluate_index(PAPER_TABLE3, 1000.0, solver=solver).worth.unguarded
        w2 = evaluate_index(PAPER_TABLE3, 9000.0, solver=solver).worth.unguarded
        assert w1 == pytest.approx(w2)

    def test_gamma_in_unit_interval(self, solver):
        for phi in (1000.0, 5000.0, 10_000.0):
            ev = evaluate_index(PAPER_TABLE3, phi, solver=solver)
            assert 0.0 <= ev.gamma <= 1.0

    def test_constituents_exposed(self, solver):
        ev = evaluate_index(PAPER_TABLE3, 5000.0, solver=solver)
        assert set(ev.constituents) == {
            "p_nd_theta", "p_gd_phi_a1", "p_nd_theta_minus_phi",
            "rho1", "rho2", "int_h", "int_tau_h", "int_hf", "int_f",
        }
        for value in ev.constituents.values():
            assert math.isfinite(value)

    def test_worth_decomposition_consistent(self, solver):
        ev = evaluate_index(PAPER_TABLE3, 5000.0, solver=solver)
        assert ev.worth.guarded == pytest.approx(ev.y_s1 + ev.y_s2)

    def test_invalid_phi_rejected(self, solver):
        with pytest.raises(ValueError):
            evaluate_index(PAPER_TABLE3, -5.0, solver=solver)


class TestPaperHeadlineNumbers:
    def test_optimum_at_7000(self, solver):
        values = {
            phi: evaluate_index(PAPER_TABLE3, phi, solver=solver).value
            for phi in (5000.0, 6000.0, 7000.0, 8000.0, 9000.0)
        }
        assert max(values, key=values.get) == 7000.0

    def test_y_magnitude_matches_paper_range(self, solver):
        y = evaluate_index(PAPER_TABLE3, 7000.0, solver=solver).value
        # Paper Figure 9 peaks between ~1.45 and ~1.6.
        assert 1.4 < y < 1.6

    def test_y_above_one_for_all_positive_phi(self, solver):
        for phi in (1000.0, 4000.0, 10_000.0):
            assert evaluate_index(PAPER_TABLE3, phi, solver=solver).value > 1.0


class TestSweep:
    def test_sweep_shares_models(self, solver):
        evs = evaluate_batch(PAPER_TABLE3, [0.0, 2000.0, 4000.0], solver=solver)
        assert [e.phi for e in evs] == [0.0, 2000.0, 4000.0]

    def test_sweep_without_solver(self):
        evs = evaluate_batch(PAPER_TABLE3, [0.0, 10_000.0])
        assert len(evs) == 2


class TestAggregation:
    def test_breakdown_keys(self):
        values = {
            "p_nd_theta": 0.4, "p_gd_phi_a1": 0.5,
            "p_nd_theta_minus_phi": 0.7, "rho1": 0.98, "rho2": 0.95,
            "int_h": 0.45, "int_tau_h": 5000.0, "int_hf": 0.0,
            "int_f": 0.0001,
        }
        breakdown = aggregate_breakdown(
            values, {"theta": 10_000.0, "phi": 7000.0}
        )
        assert set(breakdown) == {
            "Y", "E_WI", "E_W0", "E_Wphi", "Y_S1", "Y_S2", "gamma"
        }
        assert breakdown["E_WI"] == 20_000.0
        assert breakdown["gamma"] == pytest.approx(0.5)

    def test_infinite_y_when_denominator_vanishes(self):
        # Construct values that make E[W_phi] reach E[W_I].
        values = {
            "p_nd_theta": 0.4, "p_gd_phi_a1": 1.0,
            "p_nd_theta_minus_phi": 1.0, "rho1": 1.0, "rho2": 1.0,
            "int_h": 0.0, "int_tau_h": 0.0, "int_hf": 0.0, "int_f": 0.0,
        }
        breakdown = aggregate_breakdown(
            values, {"theta": 10_000.0, "phi": 10_000.0}
        )
        assert math.isinf(breakdown["Y"])

    def test_context_memo_shared_across_measures(self, solver):
        pipeline = build_translation_pipeline()
        ctx = EvaluationContext(
            solver.models(), {"phi": 5000.0, "theta": PAPER_TABLE3.theta}
        )
        pipeline.evaluate(ctx)
        baseline = ctx.cache_size
        pipeline.evaluate(ctx)
        assert ctx.cache_size == baseline  # everything memoised

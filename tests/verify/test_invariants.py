"""Tests for the metamorphic invariants of the analytic solution."""

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.verify.invariants import (
    check_all,
    check_constituents,
    check_cutoff_continuity,
    check_worth,
)


@pytest.fixture
def analytic(scaled_params):
    phis = (2.0, 8.0, 16.0)
    solver = ConstituentSolver(scaled_params)
    rows = solver.batch(list(phis))
    return {phi: row for phi, row in zip(phis, rows)}


class TestConstituentInvariants:
    def test_analytic_solution_passes(self, analytic):
        for phi, row in analytic.items():
            checks = check_constituents(row, phi)
            assert all(c.passed for c in checks), [
                c.name for c in checks if not c.passed
            ]

    def test_probability_out_of_bounds_detected(self, analytic):
        row = dict(analytic[8.0])
        row["int_h"] = 1.2
        by_name = {c.name: c for c in check_constituents(row, 8.0)}
        assert not by_name["probability_bounds"].passed
        assert "int_h" in by_name["probability_bounds"].detail

    def test_detection_time_above_phi_detected(self, analytic):
        row = dict(analytic[8.0])
        row["int_tau_h"] = 9.5
        by_name = {c.name: c for c in check_constituents(row, 8.0)}
        assert not by_name["detection_time_bounds"].passed

    def test_detection_partition_overflow_detected(self, analytic):
        row = dict(analytic[8.0])
        row["p_gd_phi_a1"] = 0.8
        row["int_h"] = 0.5
        by_name = {c.name: c for c in check_constituents(row, 8.0)}
        assert not by_name["detection_partition"].passed

    def test_overhead_conservation_violation_detected(self, analytic):
        row = dict(analytic[8.0])
        row["rho1"], row["rho2"] = 0.2, 0.3
        by_name = {c.name: c for c in check_constituents(row, 8.0)}
        assert not by_name["overhead_conservation"].passed

    def test_survival_monotonicity_violation_detected(self, analytic):
        row = dict(analytic[8.0])
        row["p_nd_theta"], row["p_nd_theta_minus_phi"] = (
            row["p_nd_theta_minus_phi"],
            row["p_nd_theta"],
        )
        by_name = {c.name: c for c in check_constituents(row, 8.0)}
        assert not by_name["survival_monotonicity"].passed


class TestWorthInvariants:
    def test_analytic_solution_passes(self, analytic, scaled_params):
        for phi, row in analytic.items():
            checks = check_worth(row, scaled_params, phi)
            assert all(c.passed for c in checks)


class TestCutoffContinuity:
    def test_continuous_at_cutoff(self, scaled_params):
        checks = check_cutoff_continuity(scaled_params)
        assert [c.name for c in checks] == [
            "cutoff_continuity_worth",
            "cutoff_continuity_index",
        ]
        assert all(c.passed for c in checks)

    def test_paper_params_continuous_at_cutoff(self, paper_params):
        assert all(c.passed for c in check_cutoff_continuity(paper_params))


class TestCheckAll:
    def test_full_sweep_passes_and_counts(self, analytic, scaled_params):
        checks = check_all(analytic, scaled_params)
        # 5 constituent + 2 worth checks per phi, plus 2 cutoff checks.
        assert len(checks) == 7 * len(analytic) + 2
        assert all(c.passed for c in checks)
        assert all(isinstance(c.to_dict(), dict) for c in checks)

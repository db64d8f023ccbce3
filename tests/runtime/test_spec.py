"""Tests for campaign specs, grids, and the task planner."""

import pytest

from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.spec import (
    FIGURE_CAMPAIGNS,
    CampaignSpec,
    CurveSpec,
    default_grid,
    figure_campaign,
    params_from_dict,
    params_to_dict,
)
from repro.runtime.tasks import CACHE_KEY_SCHEMA_VERSION, plan_campaign


class TestDefaultGrid:
    def test_paper_grid(self):
        grid = default_grid(10_000.0)
        assert grid[0] == 0.0
        assert grid[-1] == 10_000.0
        assert len(grid) == 11

    def test_non_divisible_step(self):
        assert default_grid(10.0, step=3.0) == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_no_drift_near_duplicate(self):
        # Repeated accumulation of 0.1 lands at 0.9999999999999999 — an
        # integer-multiple grid must not emit that near-duplicate of the
        # endpoint.
        grid = default_grid(1.0, step=0.1)
        assert grid[-1] == 1.0
        assert len(grid) == 11
        assert all(
            grid[i + 1] - grid[i] > 0.05 for i in range(len(grid) - 1)
        ), grid

    def test_integer_multiples_exact(self):
        grid = default_grid(100_000.0, step=1000.0)
        assert grid == [float(i * 1000) for i in range(101)]

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            default_grid(10.0, step=0.0)

    def test_step_larger_than_theta(self):
        assert default_grid(500.0, step=1000.0) == [0.0, 500.0]


class TestParamsRoundTrip:
    def test_round_trip_exact(self):
        params = PAPER_TABLE3.with_overrides(mu_new=0.5e-4, coverage=0.73)
        assert params_from_dict(params_to_dict(params)) == params

    def test_unknown_field_rejected(self):
        data = params_to_dict(PAPER_TABLE3)
        data["bogus"] = 1.0
        with pytest.raises(ValueError, match="bogus"):
            params_from_dict(data)


class TestCampaignSpec:
    def test_json_round_trip(self):
        spec = figure_campaign("FIG12")
        restored = CampaignSpec.from_json(spec.to_json())
        assert restored == spec

    def test_solver_options_canonicalised(self):
        spec = CampaignSpec(
            name="x",
            curves=(CurveSpec(label="c", params=PAPER_TABLE3),),
            solver_options=(("b", "2"), ("a", "1")),
        )
        assert spec.solver_options == (("a", "1"), ("b", "2"))

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", curves=())

    def test_with_step_respects_explicit_grids(self):
        explicit = CurveSpec(
            label="e", params=PAPER_TABLE3, phis=(0.0, 1.0)
        )
        implicit = CurveSpec(label="i", params=PAPER_TABLE3)
        spec = CampaignSpec(name="x", curves=(explicit, implicit))
        coarse = spec.with_step(5000.0)
        assert coarse.curves[0].grid() == (0.0, 1.0)
        assert coarse.curves[1].grid() == (0.0, 5000.0, 10_000.0)

    def test_figure_campaigns_cover_all_figures(self):
        assert set(FIGURE_CAMPAIGNS) == {"FIG9", "FIG10", "FIG11", "FIG12"}
        assert figure_campaign("FIG9").num_points == 22
        with pytest.raises(KeyError):
            figure_campaign("TAB1")


class TestPlanner:
    def test_plan_order_is_curve_major_and_indexed(self):
        tasks = plan_campaign(figure_campaign("FIG9"))
        assert [t.index for t in tasks] == list(range(22))
        assert [t.curve_index for t in tasks] == [0] * 11 + [1] * 11
        assert [t.phi for t in tasks[:3]] == [0.0, 1000.0, 2000.0]
        assert tasks[0].label == "mu_new = 0.0001"

    def test_plan_validates_phis(self):
        spec = CampaignSpec(
            name="bad",
            curves=(
                CurveSpec(
                    label="c", params=PAPER_TABLE3, phis=(0.0, 20_000.0)
                ),
            ),
        )
        with pytest.raises(ValueError, match="phi"):
            plan_campaign(spec)

    def test_cache_key_is_deterministic_and_input_only(self):
        tasks = plan_campaign(figure_campaign("FIG9"))
        again = plan_campaign(figure_campaign("FIG9"))
        assert [t.cache_key() for t in tasks] == [t.cache_key() for t in again]
        # Keys ignore position/label: a task moved to another campaign
        # position hashes identically (content addressing).
        from dataclasses import replace

        moved = replace(tasks[3], index=99, curve_index=7, label="renamed")
        assert moved.cache_key() == tasks[3].cache_key()

    def test_cache_key_changes_with_schema_version(self):
        task = plan_campaign(figure_campaign("FIG9"))[0]
        assert task.cache_key() == task.cache_key(CACHE_KEY_SCHEMA_VERSION)
        assert task.cache_key(CACHE_KEY_SCHEMA_VERSION + 1) != task.cache_key()

    def test_cache_key_changes_with_phi_and_solver_options(self):
        tasks = plan_campaign(figure_campaign("FIG9"))
        assert tasks[0].cache_key() != tasks[1].cache_key()
        from dataclasses import replace

        optioned = replace(tasks[0], solver_options=(("method", "krylov"),))
        assert optioned.cache_key() != tasks[0].cache_key()

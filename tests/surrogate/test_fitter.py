"""Fitting + certification tests over a small real box.

The shared session fit (see ``conftest.py``) runs genuine solver
evaluations through the campaign runtime, so these tests cover the
whole pipeline: task planning, tensor assembly, certification
bookkeeping, and cache-backed refits.
"""

import numpy as np
import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.cache import ResultCache
from repro.runtime.tasks import SurrogateFitTask
from repro.surrogate import AxisSpec, SurrogateSpec, fit_surrogate, smoke_spec
from repro.surrogate.artifact import save_surrogate, surrogate_digest
from repro.surrogate.chebyshev import holdout_nodes
from repro.surrogate.fitter import BOUND_FLOOR, DEFAULT_SAFETY_FACTOR
from repro.surrogate.model import MEASURE_NAMES


class TestFitReport:
    def test_task_and_point_counts(self, fit_report, small_spec):
        phi_axis, cov_axis = small_spec.axes
        fit_levers = cov_axis.degree + 1
        hold_levers = holdout_nodes(cov_axis.degree).size
        hold_phis = holdout_nodes(phi_axis.degree).size
        assert fit_report.node_tasks == fit_levers + hold_levers + 16
        assert fit_report.holdout_points == (
            (fit_levers + hold_levers) * hold_phis
        )
        assert fit_report.spot_points == 16
        assert fit_report.cached_nodes == 0
        assert fit_report.wall_seconds > 0.0
        assert 0.0 < fit_report.solve_seconds <= fit_report.wall_seconds

    def test_bounds_are_safety_scaled_residuals(self, fit_report):
        model = fit_report.model
        for name in MEASURE_NAMES:
            residual = fit_report.residuals[name]
            assert residual >= 0.0
            assert model.bounds[name] == pytest.approx(
                max(BOUND_FLOOR, DEFAULT_SAFETY_FACTOR * residual)
            )
            assert model.scales[name] >= 1.0

    def test_meta_records_fit_provenance(self, fit_report, model):
        fit_meta = model.meta["fit"]
        assert fit_meta["node_tasks"] == fit_report.node_tasks
        assert fit_meta["holdout_points"] == fit_report.holdout_points
        assert fit_meta["safety"] == DEFAULT_SAFETY_FACTOR
        assert model.meta["residuals"] == fit_report.residuals
        # Run facts stay on the report, out of the artifact's digest.
        assert set(fit_report.templates) == {"compiles", "restamps", "fallbacks"}
        assert not {
            "cached_nodes", "wall_seconds", "solve_seconds", "templates"
        } & set(fit_meta)


class TestFitAccuracy:
    def test_fresh_points_within_certified_bounds(self, model, small_spec):
        rng = np.random.default_rng(11)
        phi_axis, cov_axis = small_spec.axes
        for _ in range(5):
            coverage = rng.uniform(cov_axis.lo, cov_axis.hi)
            params = small_spec.params_at({"coverage": float(coverage)})
            phis = rng.uniform(phi_axis.lo, phi_axis.hi, size=4)
            exact = ConstituentSolver(params).batch([float(p) for p in phis])
            for phi, entry in zip(phis, exact):
                approx = model.constituents(params, float(phi))
                for name in MEASURE_NAMES:
                    err = abs(approx[name] - entry[name])
                    assert err <= model.abs_bound(name), (
                        f"{name} off by {err:.3e} at phi={phi:.4f}, "
                        f"coverage={coverage:.4f} (bound "
                        f"{model.abs_bound(name):.3e})"
                    )


class TestCachedRefit:
    def test_refit_is_fully_cached(self, tmp_path):
        spec = SurrogateSpec(
            params=PAPER_TABLE3,
            axes=(AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 4),),
        )
        cache = ResultCache(root=tmp_path / "cache")
        first = fit_surrogate(spec, cache=cache, spot_checks=2)
        assert first.cached_nodes == 0
        second = fit_surrogate(spec, cache=cache, spot_checks=2)
        assert second.cached_nodes == second.node_tasks
        # Identical inputs, identical certified artifact.
        assert np.array_equal(first.model.coeffs, second.model.coeffs)
        assert first.model.bounds == second.model.bounds

    def test_cold_and_warm_smoke_fits_share_a_digest(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        cold = fit_surrogate(smoke_spec(), cache=cache)
        warm = fit_surrogate(smoke_spec(), cache=cache)
        assert cold.cached_nodes == 0
        assert warm.cached_nodes == warm.node_tasks
        assert surrogate_digest(cold.model) == surrogate_digest(warm.model)
        assert save_surrogate(cold.model, tmp_path / "a").name == (
            save_surrogate(warm.model, tmp_path / "b").name
        )


class TestFitTaskKeys:
    def test_keys_are_stable_and_input_sensitive(self, small_spec):
        params = small_spec.params
        a = SurrogateFitTask(index=0, params=params, phis=(0.0, 1.0))
        b = SurrogateFitTask(index=7, params=params, phis=(0.0, 1.0))
        c = SurrogateFitTask(index=0, params=params, phis=(0.0, 2.0))
        d = SurrogateFitTask(
            index=0,
            params=small_spec.params_at({"coverage": 0.9}),
            phis=(0.0, 1.0),
        )
        # Keyed by inputs only: the plan position never splits the cache.
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert a.cache_key() != d.cache_key()
        assert len(a.cache_key()) == 64


class TestSpecValidation:
    def test_dead_axis_name_rejected(self):
        with pytest.raises(ValueError, match="not a fit lever"):
            SurrogateSpec(
                params=PAPER_TABLE3,
                axes=(
                    AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 4),
                    AxisSpec("theta", 1.0, 2.0, 2),
                ),
            )

    def test_phi_must_lead(self):
        with pytest.raises(ValueError, match="first axis"):
            SurrogateSpec(
                params=PAPER_TABLE3,
                axes=(AxisSpec("coverage", 0.8, 0.9, 2),),
            )

    def test_phi_range_must_fit_theta(self):
        with pytest.raises(ValueError, match="leaves"):
            SurrogateSpec(
                params=PAPER_TABLE3,
                axes=(
                    AxisSpec("phi", 0.0, PAPER_TABLE3.theta * 2.0, 4),
                ),
            )

"""Fitting + certification tests over a small real box.

The shared session fit (see ``conftest.py``) runs genuine solver
evaluations through the campaign runtime, so these tests cover the
whole pipeline: task planning, tensor assembly, certification
bookkeeping, and cache-backed refits.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.cache import ResultCache
from repro.runtime.tasks import SurrogateFitTask
from repro.surrogate import AxisSpec, SurrogateSpec, fit_surrogate, smoke_spec
from repro.surrogate.artifact import save_surrogate, surrogate_digest
from repro.surrogate.chebyshev import holdout_nodes, stacked_eval, tensor_fit
from repro.surrogate.fitter import (
    BOUND_FLOOR,
    DEFAULT_SAFETY_FACTOR,
    _axis_raw_nodes,
    _certify,
    _plan_tasks,
    _values_tensor,
    check_fit_inputs,
)
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


# ----------------------------------------------------------------------
# Grouped certification against the per-point loop it replaced
# ----------------------------------------------------------------------
def _certify_loop(spec, coeffs, scale_vec, outcomes, layout, fit_nodes):
    """The per-point reference: one ``stacked_eval`` per point."""
    worst = np.zeros(len(MEASURE_NAMES))
    holdout_points = 0
    spot_points = 0

    def check(unit_coords, exact_entry):
        approx = stacked_eval(coeffs, unit_coords)
        exact = np.array([exact_entry[name] for name in MEASURE_NAMES])
        return np.abs(approx - exact)

    def unit_of(axis_index, raw):
        axis = spec.axes[axis_index]
        return float(2.0 * (raw - axis.lo) / (axis.hi - axis.lo) - 1.0)

    n_phi = len(layout["phi_fit"])
    for task_index, combo in layout["fit"]:
        record = outcomes[task_index].record
        lever_units = tuple(
            unit_of(i + 1, fit_nodes[i + 1][combo[i]]) for i in range(len(combo))
        )
        for phi_i, phi in enumerate(layout["phi_hold"]):
            entry = record["constituents"][n_phi + phi_i]
            coords = (unit_of(0, phi),) + lever_units
            worst = np.maximum(worst, check(coords, entry) / scale_vec)
            holdout_points += 1
    for task_index, lever_values in layout["holdout"]:
        record = outcomes[task_index].record
        lever_units = tuple(
            unit_of(i + 1, lever_values[axis.name])
            for i, axis in enumerate(spec.lever_axes())
        )
        for phi_i, phi in enumerate(layout["phi_hold"]):
            entry = record["constituents"][phi_i]
            coords = (unit_of(0, phi),) + lever_units
            worst = np.maximum(worst, check(coords, entry) / scale_vec)
            holdout_points += 1
    for task_index, lever_values, phis in layout["spots"]:
        record = outcomes[task_index].record
        lever_units = tuple(
            unit_of(i + 1, lever_values[axis.name])
            for i, axis in enumerate(spec.lever_axes())
        )
        for phi_i, phi in enumerate(phis):
            entry = record["constituents"][phi_i]
            coords = (unit_of(0, phi),) + lever_units
            worst = np.maximum(worst, check(coords, entry) / scale_vec)
            spot_points += 1
    return worst, holdout_points, spot_points


_CERT_SPECS = {
    "phi-only": (AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 12),),
    "one-lever": (
        AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 16),
        AxisSpec("coverage", 0.8, 0.995, 4),
    ),
    "two-levers": (
        AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 16),
        AxisSpec("coverage", 0.8, 0.995, 4),
        AxisSpec("lam", 900.0, 1500.0, 3),
    ),
}


class TestGroupedCertification:
    @pytest.mark.parametrize("name", sorted(_CERT_SPECS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residuals_equal_the_per_point_loop_bitwise(self, name, seed):
        spec = SurrogateSpec(params=PAPER_TABLE3, axes=_CERT_SPECS[name])
        fit_nodes = _axis_raw_nodes(spec, "fit")
        hold_nodes = _axis_raw_nodes(spec, "holdout")
        tasks, layout = _plan_tasks(spec, fit_nodes, hold_nodes, 16, 7)
        rng = np.random.default_rng(seed)
        outcomes = [
            SimpleNamespace(record={"constituents": [
                dict(zip(MEASURE_NAMES, rng.uniform(-2.0, 5e3, 9).tolist()))
                for _ in task.phis
            ]})
            for task in tasks
        ]
        values = _values_tensor(spec, outcomes, layout)
        coeffs = np.stack([tensor_fit(v, spec.degrees) for v in values])
        scale_vec = rng.uniform(1.0, 1e4, len(MEASURE_NAMES))

        grouped = _certify(spec, coeffs, scale_vec, outcomes, layout, fit_nodes)
        loop = _certify_loop(spec, coeffs, scale_vec, outcomes, layout, fit_nodes)
        assert grouped[1:] == loop[1:]
        assert grouped[0].tobytes() == loop[0].tobytes()


class TestFitInputCheck:
    def test_unreferenced_lever_rejected(self):
        # At p_ext = 1 no internal message is sent, so no rate
        # references beta: a beta axis would interpolate a constant.
        spec = SurrogateSpec(
            params=PAPER_TABLE3.with_overrides(p_ext=1.0),
            axes=(
                AxisSpec("phi", 0.0, PAPER_TABLE3.theta, 4),
                AxisSpec("beta", 500.0, 700.0, 2),
            ),
        )
        with pytest.raises(ValueError, match="not referenced"):
            check_fit_inputs(spec, DEFAULT_SAFETY_FACTOR)

    def test_templates_compile_once_per_parameter_set(self, monkeypatch):
        from repro.surrogate import fitter

        compiles = []
        real = fitter.compile_parametric

        def counting(*args, **kwargs):
            compiles.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fitter, "compile_parametric", counting)
        fitter._referenced_parameters.cache_clear()
        params = PAPER_TABLE3.with_overrides(alpha=611.0)
        spec = SurrogateSpec(
            params=params,
            axes=(
                AxisSpec("phi", 0.0, params.theta, 4),
                AxisSpec("coverage", 0.85, 0.95, 2),
            ),
        )
        check_fit_inputs(spec, DEFAULT_SAFETY_FACTOR)
        assert len(compiles) == 4
        check_fit_inputs(spec, DEFAULT_SAFETY_FACTOR)
        assert len(compiles) == 4

    def test_safety_below_one_rejected(self, small_spec):
        with pytest.raises(ValueError, match="safety factor"):
            check_fit_inputs(small_spec, 0.5)

"""Fit and certify a surrogate over a declared parameter box.

The fitter evaluates the nine constituent measures exactly at the
tensor product of Chebyshev-Gauss-Lobatto nodes, interpolates each
measure, and *certifies* the fit: residuals at held-out Clenshaw-Curtis
nodes (which never coincide with fit nodes) plus deterministic random
spot checks against the exact solver yield a per-measure sup-norm bound
— the observed worst scaled residual times a safety factor — stored in
the artifact and propagated to every downstream consumer.

All exact solves go through the campaign runtime as ``surrogate.fit``
tasks, so fitting is content-addressed-cached, parallel across lever
nodes, and resumable after interruption for free.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.gsu.parameters import GSUParameters
from repro.gsu.templates import shared_cache
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import RuntimeConfig, get_config
from repro.runtime.executor import TaskOutcome, execute_surrogate_tasks
from repro.runtime.tasks import SurrogateFitTask
from repro.san.parametric import ParametricError, compile_parametric
from repro.surrogate.chebyshev import (
    basis,
    cgl_nodes,
    from_unit,
    holdout_nodes,
    tensor_fit,
)
from repro.surrogate.model import MEASURE_NAMES, SurrogateModel
from repro.surrogate.spec import SurrogateSpec

#: Multiplier applied to the worst observed scaled residual to obtain
#: the certified bound.  Chebyshev coefficient decay makes the holdout
#: residual a faithful sup-norm estimate; the factor absorbs the gap
#: between "worst sampled" and "worst anywhere in the box".
DEFAULT_SAFETY_FACTOR = 4.0

#: Floor on certified bounds: even an interpolant that nails every
#: certification point to rounding cannot honestly claim better than a
#: few ulps of the aggregation arithmetic.
BOUND_FLOOR = 1e-14

#: Random in-box spot checks per fit (deterministic seed).
DEFAULT_SPOT_CHECKS = 16

DEFAULT_SPOT_SEED = 7


@dataclass
class FitReport:
    """Everything one fit produced, certification included.

    Attributes
    ----------
    model:
        The fitted, certified surrogate.
    node_tasks / cached_nodes:
        Exact solves planned and the subset served from cache.
    holdout_points / spot_points:
        Certification sample counts (held-out CC nodes / random spots).
    residuals:
        Worst *scaled* residual per measure over all certification
        points (before the safety factor).
    wall_seconds / solve_seconds:
        End-to-end fit time and the solver share of it.
    templates:
        This fit's SAN template-cache counters (compiles, restamps,
        fallbacks).
    """

    model: SurrogateModel
    node_tasks: int
    cached_nodes: int
    holdout_points: int
    spot_points: int
    residuals: dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    solve_seconds: float = 0.0
    templates: dict[str, int] = field(default_factory=dict)


def check_fit_inputs(spec: SurrogateSpec, safety: float) -> None:
    """Reject a safety factor below 1 and box axes no model's rate
    expressions reference.

    Every non-phi axis name must appear in at least one of the four
    templates' parameter sets (:func:`_referenced_parameters`); a dead
    axis would silently spend a whole tensor dimension interpolating a
    constant.
    """
    if safety < 1.0:
        raise ValueError(f"safety factor must be >= 1, got {safety}")
    lever_axes = spec.lever_axes()
    if not lever_axes:
        return
    referenced = _referenced_parameters(spec.params)
    if referenced is None:  # pragma: no cover - defensive
        return  # cannot prove deadness; let the fit proceed
    # theta enters through solve horizons rather than rates, and phi is
    # the evaluation time itself; only lever axes need rate references.
    for axis in lever_axes:
        if axis.name not in referenced:
            raise ValueError(
                f"axis {axis.name!r} is not referenced by any model's "
                f"rate expressions (referenced: {sorted(referenced)}); "
                "a fit over it would interpolate a constant"
            )


@functools.lru_cache(maxsize=32)
def _referenced_parameters(params: GSUParameters) -> frozenset[str] | None:
    """Parameter names the four symbolic templates' rates reference at
    ``params``, or ``None`` when a template cannot be compiled.

    Compiling the templates costs milliseconds and their anchor decides
    which zero-probability cases are pruned (at ``p_ext = 1`` nothing
    references ``beta``), so the answer is memoized per parameter set
    for the life of the process.
    """
    from repro.gsu.templates import (
        _BUILDERS,
        SymbolicGSUParameters,
        param_env,
    )

    referenced: set[str] = set()
    env = param_env(params)
    for builder in _BUILDERS.values():
        try:
            template = compile_parametric(builder(SymbolicGSUParameters()), env)
        except ParametricError:  # pragma: no cover - defensive
            return None
        referenced |= template.parameter_names()
    return frozenset(referenced)


def _axis_raw_nodes(spec: SurrogateSpec, which: str) -> list[np.ndarray]:
    """Per-axis raw-coordinate node grids (``fit`` or ``holdout``)."""
    maker = cgl_nodes if which == "fit" else holdout_nodes
    return [
        from_unit(maker(axis.degree), axis.lo, axis.hi)
        for axis in spec.axes
    ]


def _plan_tasks(
    spec: SurrogateSpec,
    fit_nodes: list[np.ndarray],
    hold_nodes: list[np.ndarray],
    spot_checks: int,
    seed: int,
) -> tuple[list[SurrogateFitTask], dict[str, object]]:
    """All exact-solve tasks of one fit, grouped per lever point.

    Three families share the ``surrogate.fit`` namespace:

    * *fit nodes*: at every lever-node combination, one task solving
      the phi fit grid **plus** the phi holdout grid (the extra phis
      ride along in the same batched pass, so phi-direction residuals
      at fit lever points are nearly free);
    * *holdout nodes*: at every held-out lever combination, the phi
      holdout grid — probing interpolation error in every direction at
      points sharing no coordinate with the fit grid;
    * *spot checks*: uniform random in-box points (deterministic seed),
      one task per distinct lever coordinate.
    """
    lever_axes = spec.lever_axes()
    phi_fit = [float(p) for p in fit_nodes[0]]
    phi_hold = [float(p) for p in hold_nodes[0]]

    tasks: list[SurrogateFitTask] = []
    layout: dict[str, object] = {
        "fit": [],       # (task_index, lever_index_combo)
        "holdout": [],   # (task_index, lever_values)
        "spots": [],     # (task_index, lever_values, phis)
        "phi_fit": phi_fit,
        "phi_hold": phi_hold,
    }

    def add(params, phis) -> int:
        tasks.append(
            SurrogateFitTask(
                index=len(tasks), params=params, phis=tuple(phis)
            )
        )
        return tasks[-1].index

    lever_fit_grids = [grid.tolist() for grid in fit_nodes[1:]]
    for combo in itertools.product(
        *(range(len(grid)) for grid in lever_fit_grids)
    ):
        values = {
            axis.name: lever_fit_grids[i][combo[i]]
            for i, axis in enumerate(lever_axes)
        }
        index = add(spec.params_at(values), phi_fit + phi_hold)
        layout["fit"].append((index, combo))

    lever_hold_grids = [grid.tolist() for grid in hold_nodes[1:]]
    for combo in itertools.product(*lever_hold_grids):
        values = {
            axis.name: combo[i] for i, axis in enumerate(lever_axes)
        }
        index = add(spec.params_at(values), phi_hold)
        layout["holdout"].append((index, values))

    if spot_checks > 0:
        rng = np.random.default_rng(seed)
        dims = len(spec.axes)
        points = rng.uniform(size=(spot_checks, dims))
        raw = [
            [
                from_unit(2.0 * points[p, i] - 1.0, axis.lo, axis.hi)
                for i, axis in enumerate(spec.axes)
            ]
            for p in range(spot_checks)
        ]
        if lever_axes:
            for point in raw:
                values = {
                    axis.name: point[i + 1]
                    for i, axis in enumerate(lever_axes)
                }
                index = add(spec.params_at(values), [point[0]])
                layout["spots"].append((index, values, [point[0]]))
        else:
            phis = [point[0] for point in raw]
            index = add(spec.params, phis)
            layout["spots"].append((index, {}, phis))

    return tasks, layout


def _values_tensor(
    spec: SurrogateSpec,
    outcomes: list[TaskOutcome],
    layout: dict[str, object],
) -> np.ndarray:
    """Assemble the stacked fit-grid tensor ``(9, n_1+1, ..., n_d+1)``."""
    shape = (len(MEASURE_NAMES),) + tuple(d + 1 for d in spec.degrees)
    values = np.empty(shape)
    n_phi = len(layout["phi_fit"])
    for task_index, combo in layout["fit"]:
        entries = outcomes[task_index].record["constituents"][:n_phi]
        for phi_i, entry in enumerate(entries):
            for m, name in enumerate(MEASURE_NAMES):
                values[(m, phi_i) + combo] = entry[name]
    return values


def _certify(
    spec: SurrogateSpec,
    coeffs: np.ndarray,
    scale_vec: np.ndarray,
    outcomes: list[TaskOutcome],
    layout: dict[str, object],
    fit_nodes: list[np.ndarray],
) -> tuple[np.ndarray, int, int]:
    """Worst scaled residual per measure over the certification points,
    with the holdout and spot point counts.

    The points are the phi holdouts riding in fit tasks, the held-out
    lever tensor and the random spots.  Each point's value is
    :func:`stacked_eval`'s, computed in the same order: the lever axes
    of a task are contracted once for all its points, and each point's
    phi basis row (one block per phi set) then takes one stacked
    matrix-vector product, the same BLAS call as ``stacked_eval``'s
    last step.  So every residual is bitwise the per-point one.
    """
    phi_degree = spec.degrees[0]

    def unit_of(axis_index: int, raw: float) -> float:
        axis = spec.axes[axis_index]
        return float(
            2.0 * (raw - axis.lo) / (axis.hi - axis.lo) - 1.0
        )

    def phi_basis(phis) -> np.ndarray:
        return np.stack([basis(unit_of(0, phi), phi_degree) for phi in phis])

    def task_worst(lever_units, bases, entries) -> np.ndarray:
        reduced = coeffs
        for x in reversed(lever_units):
            reduced = reduced @ basis(x, reduced.shape[-1] - 1)
        approx = (reduced @ bases[:, :, None])[:, :, 0]
        exact = np.array(
            [[entry[name] for name in MEASURE_NAMES] for entry in entries]
        )
        return (np.abs(approx - exact) / scale_vec).max(axis=0)

    def lever_units_at(lever_values) -> tuple[float, ...]:
        return tuple(
            unit_of(i + 1, lever_values[axis.name])
            for i, axis in enumerate(spec.lever_axes())
        )

    worst = np.zeros(len(MEASURE_NAMES))
    hold_basis = phi_basis(layout["phi_hold"])
    n_hold = len(layout["phi_hold"])
    n_phi = len(layout["phi_fit"])

    for task_index, combo in layout["fit"]:
        entries = outcomes[task_index].record["constituents"][n_phi:]
        lever_units = tuple(
            unit_of(i + 1, fit_nodes[i + 1][combo[i]])
            for i in range(len(combo))
        )
        worst = np.maximum(worst, task_worst(lever_units, hold_basis, entries))

    for task_index, lever_values in layout["holdout"]:
        entries = outcomes[task_index].record["constituents"][:n_hold]
        worst = np.maximum(
            worst, task_worst(lever_units_at(lever_values), hold_basis, entries)
        )
    holdout_points = (len(layout["fit"]) + len(layout["holdout"])) * n_hold

    spot_points = 0
    for task_index, lever_values, phis in layout["spots"]:
        entries = outcomes[task_index].record["constituents"][: len(phis)]
        worst = np.maximum(
            worst,
            task_worst(lever_units_at(lever_values), phi_basis(phis), entries),
        )
        spot_points += len(phis)

    return worst, holdout_points, spot_points


def fit_surrogate(
    spec: SurrogateSpec,
    config: RuntimeConfig | None = None,
    cache: ResultCache | None = None,
    spot_checks: int = DEFAULT_SPOT_CHECKS,
    seed: int = DEFAULT_SPOT_SEED,
    safety: float = DEFAULT_SAFETY_FACTOR,
) -> FitReport:
    """Fit and certify a surrogate over ``spec``'s box.

    Exact solves run through :func:`execute_surrogate_tasks` under the
    given (or installed) :class:`RuntimeConfig` — backend, jobs, and
    cache all apply, so repeated fits of overlapping boxes reuse node
    solves and an interrupted fit resumes where it stopped.
    """
    check_fit_inputs(spec, safety)
    config = config if config is not None else get_config()
    if cache is None:
        cache = config.make_cache()

    wall_start = time.perf_counter()
    fit_nodes = _axis_raw_nodes(spec, "fit")
    hold_nodes = _axis_raw_nodes(spec, "holdout")
    tasks, layout = _plan_tasks(spec, fit_nodes, hold_nodes, spot_checks, seed)
    templates_before = shared_cache().stats.snapshot()
    outcomes = execute_surrogate_tasks(
        tasks, backend=config.backend, jobs=config.jobs, cache=cache
    )
    solve_seconds = sum(outcome.seconds for outcome in outcomes)

    values = _values_tensor(spec, outcomes, layout)
    coeffs = np.stack(
        [tensor_fit(values[m], spec.degrees) for m in range(len(MEASURE_NAMES))]
    )

    # Scales: certified bounds are on unit-scaled measures so a 1e-6
    # bound means six digits whether the measure is a probability or a
    # thousands-of-hours integral like int_tau_h.
    flat = values.reshape(len(MEASURE_NAMES), -1)
    scales = {
        name: float(max(1.0, np.max(np.abs(flat[m]))))
        for m, name in enumerate(MEASURE_NAMES)
    }

    # Certification: worst scaled residual over every exact point that
    # is not a fit node.
    scale_vec = np.array([scales[name] for name in MEASURE_NAMES])
    worst, holdout_points, spot_points = _certify(
        spec, coeffs, scale_vec, outcomes, layout, fit_nodes
    )

    residuals = {
        name: float(worst[m]) for m, name in enumerate(MEASURE_NAMES)
    }
    bounds = {
        name: float(max(BOUND_FLOOR, safety * residual))
        for name, residual in residuals.items()
    }

    wall_seconds = time.perf_counter() - wall_start
    cached_nodes = sum(1 for outcome in outcomes if outcome.cached)
    template_stats = shared_cache().stats.delta(templates_before)
    model = SurrogateModel(
        spec=spec,
        coeffs=coeffs,
        bounds=bounds,
        scales=scales,
        # Only what determines the surrogate goes into its meta (and so
        # its digest); how this run went is on the FitReport.
        meta={
            "fit": {
                "node_tasks": len(tasks),
                "holdout_points": holdout_points,
                "spot_points": spot_points,
                "safety": float(safety),
                "spot_seed": int(seed),
            },
            "residuals": residuals,
        },
    )
    return FitReport(
        model=model,
        node_tasks=len(tasks),
        cached_nodes=cached_nodes,
        holdout_points=holdout_points,
        spot_points=spot_points,
        residuals=residuals,
        wall_seconds=wall_seconds,
        solve_seconds=solve_seconds,
        templates=template_stats.to_dict(),
    )

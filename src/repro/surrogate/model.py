"""The fitted surrogate: microsecond evaluation with certified bounds.

A :class:`SurrogateModel` holds one stacked Chebyshev coefficient tensor
(nine measures sharing the node grid), per-measure certified sup-norm
bounds, and the spec it was fitted to.  Evaluation is a handful of
vector operations — no solver, no template re-stamp — and refuses to
extrapolate: any query outside the fitted box (or at off-axis
parameters that differ from the base point) raises
:class:`OutOfDomainError` so callers fall back to the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import (
    PerformabilityEvaluation,
    _evaluation_from_constituents,
    aggregate_grid,
    aggregate_partials,
)
from repro.gsu.templates import PARAM_FIELDS
from repro.surrogate.chebyshev import (
    basis_many,
    derivative_tensor,
    stacked_eval,
    to_unit,
)
from repro.surrogate.spec import SurrogateSpec

#: The nine constituent measures, in stacked-tensor row order.  This is
#: the canonical record order of :meth:`ConstituentSolver.batch` and is
#: part of the artifact format — reordering is a schema break.
MEASURE_NAMES = (
    "p_nd_theta",
    "p_gd_phi_a1",
    "p_nd_theta_minus_phi",
    "rho1",
    "rho2",
    "int_h",
    "int_tau_h",
    "int_hf",
    "int_f",
)


#: Lever-contraction cache entries kept per model (FIFO).  One entry is
#: a ``(9, n_phi + 1)`` float matrix — ~2.4 KiB on the table3 box — so
#: 256 entries cost well under a megabyte and cover a whole benchmark
#: sweep of distinct lever points without thrashing.
_REDUCED_CACHE_CAPACITY = 256


def _unit_basis(orders: np.ndarray, u: float) -> np.ndarray:
    """Chebyshev basis at one unit coordinate, scalar-math flavoured.

    Same trigonometric form as :func:`repro.surrogate.chebyshev.basis`
    but clips and takes ``arccos`` in plain Python floats — on the
    microsecond path the numpy scalar ops there cost more than the
    whole contraction.  ``math.acos`` can differ from ``np.arccos`` by
    one ulp, which the certified bounds (>= 1e-14) dwarf.
    """
    if u < -1.0:
        u = -1.0
    elif u > 1.0:
        u = 1.0
    return np.cos(orders * math.acos(u))


class OutOfDomainError(ValueError):
    """A query point the surrogate refuses to answer.

    Raised instead of silently extrapolating: outside the fitted box
    the Chebyshev series diverges geometrically and the certified bound
    says nothing.  Callers (serve tier, synthesis evaluator) catch this
    and route to the exact solver.
    """


@dataclass
class SurrogateModel:
    """A fitted, certified tensor-product Chebyshev surrogate.

    Attributes
    ----------
    spec:
        The fit domain (base parameters + box axes).
    coeffs:
        Stacked coefficient tensor, shape ``(9, n_1 + 1, ..., n_d + 1)``
        in :data:`MEASURE_NAMES` row order.
    bounds:
        Certified *scaled* sup-norm bound per measure: holdout/spot
        residual over ``max(1, sup|m|)``, times the certification
        safety factor.
    scales:
        The per-measure scale ``max(1, sup|m|)`` over the fit grid —
        multiply a scaled bound by it for an absolute error bound.
    meta:
        Fit provenance (node/holdout/spot counts, wall seconds, solver
        stats, artifact digest once serialized).
    """

    spec: SurrogateSpec
    coeffs: np.ndarray
    bounds: dict[str, float]
    scales: dict[str, float]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        expected = (len(MEASURE_NAMES),) + tuple(
            d + 1 for d in self.spec.degrees
        )
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient tensor shape {self.coeffs.shape} does not "
                f"match spec {expected}"
            )
        missing = set(MEASURE_NAMES) - set(self.bounds)
        if missing:
            raise ValueError(f"bounds missing measures: {sorted(missing)}")
        # Precomputed per-axis box maps and membership data for the hot
        # path (attribute lookups hoisted out of every evaluation).
        self._axis_names = self.spec.axis_names
        # Plain-float bounds: the per-point paths compare and map
        # coordinates one at a time, where numpy scalars cost 10x.
        self._lo = tuple(float(axis.lo) for axis in self.spec.axes)
        self._hi = tuple(float(axis.hi) for axis in self.spec.axes)
        self._pinned = tuple(
            (name, getattr(self.spec.params, name))
            for name in PARAM_FIELDS
            if name not in self._axis_names
        )
        # One C-level multi-attribute fetch replaces a Python getattr
        # loop on the per-point membership check (the microsecond path).
        pinned_names = tuple(name for name, _ in self._pinned)
        self._pinned_values = tuple(value for _, value in self._pinned)
        self._pinned_get = (
            attrgetter(*pinned_names)
            if len(pinned_names) > 1
            else (attrgetter(pinned_names[0]) if pinned_names else None)
        )
        self._pinned_single = len(pinned_names) == 1
        # Flattened views for the microsecond contraction path: the
        # trailing-axis matmuls of stacked_eval become plain gemv calls
        # on 2-D reshapes of the (C-contiguous) coefficient tensor.
        self._sizes = tuple(d + 1 for d in self.spec.degrees)
        self._flat = self.coeffs.reshape(-1, self._sizes[-1])
        self._ax_orders = [
            np.arange(size, dtype=float) for size in self._sizes
        ]
        self._deriv_cache: dict[int, np.ndarray] = {}
        self._abs_bounds = np.array(
            [self.bounds[m] * self.scales[m] for m in MEASURE_NAMES]
        )
        self._worst_bound = max(self.bounds[m] for m in MEASURE_NAMES)
        # Lever-contracted coefficient matrices, keyed by the unit
        # coordinates of the non-phi axes.  A phi sweep at one parameter
        # set (the serve workload, the optimizer's line search) then
        # costs one phi-basis matmul per grid instead of a full tensor
        # contraction per point.
        self._reduced_cache: dict[tuple[float, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Domain membership
    # ------------------------------------------------------------------
    def contains(self, params: GSUParameters, phi: float) -> bool:
        """Whether a query point lies inside the fitted domain.

        Off-axis parameters must match the base point *exactly* (the
        fit holds them constant; a different ``mu_new`` is a different
        surface, not a nearby one), and every axis coordinate must lie
        inside its declared range.
        """
        if self._pinned_get is not None:
            fetched = self._pinned_get(params)
            if self._pinned_single:
                if fetched != self._pinned_values[0]:
                    return False
            elif fetched != self._pinned_values:
                return False
        for i, name in enumerate(self._axis_names):
            value = phi if name == "phi" else getattr(params, name)
            if not self._lo[i] <= value <= self._hi[i]:
                return False
        return True

    def covers(self, params: GSUParameters, phis: Sequence[float]) -> bool:
        """Whether a whole phi grid of one parameter set is in-box.

        Equivalent to ``all(contains(params, phi) for phi in phis)``
        but checks the parameter set once and the grid by its extremes
        — the serving tier's per-request membership probe.
        """
        if not phis:
            return False
        if not self.contains(params, min(phis)):
            return False
        return self._lo[0] <= max(phis) <= self._hi[0]

    def _unit_coords(
        self, params: GSUParameters, phi: float
    ) -> tuple[float, ...]:
        """Unit-cube coordinates of a query, or :class:`OutOfDomainError`.

        Membership check and affine map fused into one pass — this runs
        per point on the microsecond path.
        """
        if self._pinned_get is not None:
            fetched = self._pinned_get(params)
            mismatch = (
                fetched != self._pinned_values[0]
                if self._pinned_single
                else fetched != self._pinned_values
            )
            if mismatch:
                raise OutOfDomainError(
                    f"point (phi={phi!r}, params={params!r}) is outside "
                    f"the fitted box over {self._axis_names} with pinned "
                    f"{dict(self._pinned)}"
                )
        coords = []
        for i, name in enumerate(self._axis_names):
            value = phi if name == "phi" else getattr(params, name)
            lo = self._lo[i]
            hi = self._hi[i]
            if not lo <= value <= hi:
                raise OutOfDomainError(
                    f"{name}={value!r} outside the fitted [{lo}, {hi}]"
                )
            coords.append((2.0 * value - (lo + hi)) / (hi - lo))
        return tuple(coords)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _reduced_for(self, lever_units: tuple[float, ...]) -> np.ndarray:
        """The ``(9, n_phi + 1)`` matrix with lever axes contracted out.

        Contraction order matches :func:`stacked_eval` (trailing axis
        first) on flattened 2-D views, so each step is one gemv; the
        result agrees with the direct tensor path to the last ulp (the
        basis here uses scalar ``acos``, see :func:`_unit_basis`).
        Entries are evicted FIFO so a sweep over many distinct lever
        points degrades to the direct path instead of thrashing.
        """
        reduced = self._reduced_cache.get(lever_units)
        if reduced is None:
            reduced = self._flat
            for i in range(len(self._sizes) - 1, 0, -1):
                reduced = (
                    reduced @ _unit_basis(self._ax_orders[i], lever_units[i - 1])
                ).reshape(-1, self._sizes[i - 1])
            if len(self._reduced_cache) >= _REDUCED_CACHE_CAPACITY:
                self._reduced_cache.pop(next(iter(self._reduced_cache)))
            self._reduced_cache[lever_units] = reduced
        return reduced

    def _grid_raw(
        self, params: GSUParameters, phis: np.ndarray
    ) -> np.ndarray:
        """Measure values ``(p, 9)`` over a phi grid of one parameter set."""
        if params is not self.spec.params:
            for name, pinned in self._pinned:
                if getattr(params, name) != pinned:
                    raise OutOfDomainError(
                        f"off-axis parameter {name}={getattr(params, name)!r} "
                        f"differs from the fitted base {pinned!r}"
                    )
        lever_units = []
        for i, name in enumerate(self._axis_names):
            if name == "phi":
                continue
            value = getattr(params, name)
            if not self._lo[i] <= value <= self._hi[i]:
                raise OutOfDomainError(
                    f"{name}={value!r} outside the fitted "
                    f"[{self._lo[i]}, {self._hi[i]}]"
                )
            lever_units.append(to_unit(value, self._lo[i], self._hi[i]))
        if phis.size and not (
            self._lo[0] <= phis.min() and phis.max() <= self._hi[0]
        ):
            raise OutOfDomainError(
                f"phi grid [{phis.min()}, {phis.max()}] outside the "
                f"fitted [{self._lo[0]}, {self._hi[0]}]"
            )
        reduced = self._reduced_for(tuple(lever_units))
        units = (2.0 * phis - (self._lo[0] + self._hi[0])) / (
            self._hi[0] - self._lo[0]
        )
        return basis_many(units, reduced.shape[-1] - 1) @ reduced.T

    def constituents(
        self, params: GSUParameters, phi: float
    ) -> dict[str, float]:
        """All nine measures at one point (the microsecond path)."""
        coords = self._unit_coords(params, phi)
        reduced = self._reduced_for(coords[1:])
        raw = reduced @ _unit_basis(self._ax_orders[0], coords[0])
        return dict(zip(MEASURE_NAMES, raw.tolist()))

    def constituents_grid(
        self, params: GSUParameters, phis: Sequence[float]
    ) -> list[dict[str, float]]:
        """Nine measures at many phis of one parameter set (serve grids)."""
        phis = np.asarray([float(phi) for phi in phis])
        if not phis.size:
            return []
        raw = self._grid_raw(params, phis)
        return [dict(zip(MEASURE_NAMES, row)) for row in raw.tolist()]

    def evaluate(
        self, params: GSUParameters, phi: float
    ) -> PerformabilityEvaluation:
        """Full ``Y(phi)`` evaluation from surrogate constituents."""
        return _evaluation_from_constituents(
            params, float(phi), self.constituents(params, phi)
        )

    def evaluate_grid(
        self, params: GSUParameters, phis: Sequence[float]
    ) -> list[PerformabilityEvaluation]:
        """Batched :meth:`evaluate` over a phi grid."""
        return [
            _evaluation_from_constituents(params, float(phi), values)
            for phi, values in zip(phis, self.constituents_grid(params, phis))
        ]

    def grid_records(
        self, params: GSUParameters, phis: Sequence[float]
    ) -> tuple[list[dict], list[float]]:
        """Evaluation records plus per-point ``Y`` error bounds, batched.

        The serving tier's hot path: one lever contraction, one
        phi-basis matmul, and one vectorized aggregation produce the
        same record schema as the exact path
        (:func:`repro.runtime.records.record_from_evaluation`) for a
        whole grid, with the first-order certified bound on each
        point's ``Y`` riding along.
        """
        phis_arr = np.asarray([float(phi) for phi in phis])
        if not phis_arr.size:
            return [], []
        raw = self._grid_raw(params, phis_arr)
        columns = {
            name: raw[:, i] for i, name in enumerate(MEASURE_NAMES)
        }
        agg = aggregate_grid(columns, phis_arr, params.theta)
        sensitivity = np.stack(
            [np.abs(agg["dY_dm"][name]) for name in MEASURE_NAMES]
        )
        bounds = np.where(
            np.isfinite(agg["y"]),
            self._abs_bounds @ sensitivity,
            np.inf,
        )
        y = agg["y"].tolist()
        y_s1 = agg["y_s1"].tolist()
        y_s2 = agg["y_s2"].tolist()
        gamma = agg["gamma"].tolist()
        e_w0 = agg["e_w0"].tolist()
        e_wphi = agg["e_wphi"].tolist()
        e_wi = agg["e_wi"]
        records = [
            {
                "phi": phi,
                "value": y[i],
                "y_s1": y_s1[i],
                "y_s2": y_s2[i],
                "gamma": gamma[i],
                "worth": {
                    "ideal": e_wi,
                    "unguarded": e_w0[i],
                    "guarded": e_wphi[i],
                },
                "constituents": dict(zip(MEASURE_NAMES, row)),
            }
            for i, (phi, row) in enumerate(
                zip(phis_arr.tolist(), raw.tolist())
            )
        ]
        return records, bounds.tolist()

    # ------------------------------------------------------------------
    # Analytic derivatives
    # ------------------------------------------------------------------
    def _deriv_stacked(self, axis: int) -> np.ndarray:
        """The stacked derivative tensor along one box axis (cached)."""
        cached = self._deriv_cache.get(axis)
        if cached is None:
            cached = derivative_tensor(self.coeffs, axis)
            self._deriv_cache[axis] = cached
        return cached

    def partials(
        self, params: GSUParameters, phi: float
    ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
        """Measure values plus raw-coordinate partials along each axis.

        Returns ``(values, by_axis)`` with ``by_axis[axis_name][measure]
        = d measure / d axis`` in raw (unscaled) coordinates — the
        Chebyshev derivative in unit coordinates times the chain-rule
        factor ``2 / (hi - lo)``.
        """
        coords = self._unit_coords(params, phi)
        values = dict(
            zip(MEASURE_NAMES, stacked_eval(self.coeffs, coords).tolist())
        )
        by_axis: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self._axis_names):
            scale = 2.0 / (self._hi[i] - self._lo[i])
            raw = stacked_eval(self._deriv_stacked(i), coords) * scale
            by_axis[name] = dict(zip(MEASURE_NAMES, raw.tolist()))
        return values, by_axis

    def y_and_gradient(
        self, params: GSUParameters, phi: float
    ) -> tuple[float, dict[str, float]]:
        """``Y`` and its analytic gradient along every box axis.

        Chains the aggregation partials through the per-measure
        Chebyshev derivatives; the ``phi`` component adds the explicit
        ``phi`` dependence of the aggregation formula.
        """
        values, by_axis = self.partials(params, phi)
        y, dY_dm, dY_dphi_explicit = aggregate_partials(
            values, {"phi": float(phi), "theta": params.theta}
        )
        gradient: dict[str, float] = {}
        for name, measure_partials in by_axis.items():
            total = sum(
                dY_dm[m] * measure_partials[m] for m in MEASURE_NAMES
            )
            if name == "phi":
                total += dY_dphi_explicit
            gradient[name] = total
        return y, gradient

    # ------------------------------------------------------------------
    # Certification
    # ------------------------------------------------------------------
    def y_error_bound(self, params: GSUParameters, phi: float) -> float:
        """First-order bound on ``|Y_surrogate - Y_exact|`` at a point.

        Propagates the certified per-measure absolute bounds through
        the aggregation sensitivities: ``sum_i |dY/dm_i| * bound_i``.
        Infinite when the denominator of ``Y`` is at or past its pole.
        """
        values = self.constituents(params, phi)
        y, dY_dm, _ = aggregate_partials(
            values, {"phi": float(phi), "theta": params.theta}
        )
        if not np.isfinite(y):
            return float("inf")
        return float(
            sum(
                abs(dY_dm[m]) * self._abs_bounds[i]
                for i, m in enumerate(MEASURE_NAMES)
            )
        )

    @property
    def worst_bound(self) -> float:
        """The largest certified scaled bound across the nine measures."""
        return self._worst_bound

    def bound_for(self, measure: str) -> float:
        """Certified scaled bound of one measure."""
        return self.bounds[measure]

    def abs_bound(self, measure: str) -> float:
        """Certified *absolute* bound of one measure (scaled x scale)."""
        return float(self.bounds[measure] * self.scales[measure])

    def meets(self, max_error: float | None) -> bool:
        """Whether the certification satisfies a caller's error demand.

        ``None`` means no demand.  The comparison is against the worst
        certified scaled measure bound — the serving tier's contract.
        """
        return max_error is None or self.worst_bound <= max_error


def record_from_surrogate(
    model: SurrogateModel, params: GSUParameters, phi: float
) -> dict:
    """A standard evaluation record computed from the surrogate.

    Identical schema to the exact path's records (so serve responses
    and caches interoperate); callers add provenance separately.
    """
    from repro.runtime.records import record_from_evaluation

    return record_from_evaluation(model.evaluate(params, phi))

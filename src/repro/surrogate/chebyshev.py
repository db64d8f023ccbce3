"""Tensor-product Chebyshev interpolation primitives.

The surrogate works on the unit cube: every box axis is mapped to
``x in [-1, 1]`` and each measure is interpolated at the tensor product
of Chebyshev-Gauss-Lobatto (CGL) nodes, where polynomial interpolation
is provably well conditioned (Lebesgue constant ``O(log n)``).  For the
analytic measures here the coefficients decay geometrically, so the
certified residual on held-out Clenshaw-Curtis nodes is a faithful
sup-norm estimate over the whole box.

Everything is plain numpy: fitting goes through cascaded
``chebfit`` least-squares solves (exact interpolation at CGL nodes),
evaluation contracts a stacked coefficient tensor with per-axis basis
vectors ``T_k(x) = cos(k arccos x)``, and derivatives use the Chebyshev
derivative recurrence (``chebder``) once per axis.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "cgl_nodes",
    "holdout_nodes",
    "tensor_fit",
    "basis",
    "basis_many",
    "stacked_eval",
    "derivative_tensor",
    "to_unit",
    "from_unit",
]


def cgl_nodes(degree: int) -> np.ndarray:
    """The ``degree + 1`` Chebyshev-Gauss-Lobatto nodes on ``[-1, 1]``.

    Returned in descending order ``1 = x_0 > x_1 > ... > x_n = -1``
    (the natural ``cos(pi k / n)`` ordering).  ``degree == 0`` degrades
    to the single node ``0`` (a constant axis).
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree == 0:
        return np.zeros(1)
    return np.cos(np.pi * np.arange(degree + 1) / degree)


#: Per-axis ceiling on certification nodes.  Every holdout point is an
#: exact solve, and the whole point of the surrogate is that fitting it
#: costs less than the campaign it replaces — an even subsample of the
#: interior fine grid keeps endpoint-to-endpoint coverage while bounding
#: that cost (the safety factor absorbs the thinner sampling).
HOLDOUT_CAP = 16


def holdout_nodes(degree: int, cap: int | None = HOLDOUT_CAP) -> np.ndarray:
    """Held-out Clenshaw-Curtis nodes for certifying a degree-n fit.

    The *interior* CGL nodes of the smallest finer grid whose degree is
    coprime to ``degree``: ``cos(pi k / n) == cos(pi j / m)`` for
    interior indices requires ``k m == j n``, impossible when
    ``gcd(n, m) == 1``, so (endpoints excluded) every returned point
    probes genuine interpolation error.  When the interior grid exceeds
    ``cap`` it is subsampled evenly (disjointness from the fit grid is
    preserved under subsetting).  A degree-0 (constant) axis has no
    meaningful holdout and returns the centre point.
    """
    if degree <= 0:
        return np.zeros(1)
    fine_degree = degree + 3
    while math.gcd(fine_degree, degree) != 1:
        fine_degree += 1
    fine = cgl_nodes(fine_degree)
    interior = fine[1:-1]
    if cap is not None and interior.size > cap:
        keep = np.round(np.linspace(0, interior.size - 1, cap)).astype(int)
        interior = interior[keep]
    return interior


def to_unit(value, lo: float, hi: float):
    """Map a raw coordinate in ``[lo, hi]`` to ``x in [-1, 1]``."""
    return 2.0 * (value - lo) / (hi - lo) - 1.0


def from_unit(x, lo: float, hi: float):
    """Inverse of :func:`to_unit`."""
    return lo + (hi - lo) * (x + 1.0) * 0.5


def tensor_fit(values: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Fit a tensor-product Chebyshev series to CGL-sampled values.

    ``values`` has shape ``(n_1 + 1, ..., n_d + 1)``: axis ``i`` sampled
    at ``cgl_nodes(degrees[i])`` in that exact (descending) order.  The
    fit cascades one-dimensional ``chebfit`` solves axis by axis — at
    CGL nodes with matching degree the least-squares system is square,
    so this is exact interpolation up to rounding.  Returns the
    coefficient tensor with the same shape (coefficient order ``T_0,
    T_1, ...`` along every axis).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != len(degrees):
        raise ValueError(
            f"values has {values.ndim} axes but {len(degrees)} degrees given"
        )
    expected = tuple(d + 1 for d in degrees)
    if values.shape != expected:
        raise ValueError(
            f"values shape {values.shape} != nodes shape {expected}"
        )
    coeffs = values
    for axis, degree in enumerate(degrees):
        moved = np.moveaxis(coeffs, axis, 0)
        flat = moved.reshape(degree + 1, -1)
        if degree == 0:
            fitted = flat
        else:
            fitted = _cheb.chebfit(cgl_nodes(degree), flat, degree)
        coeffs = np.moveaxis(fitted.reshape(moved.shape), 0, axis)
    return np.ascontiguousarray(coeffs)


def basis(x: float, degree: int) -> np.ndarray:
    """The Chebyshev basis vector ``(T_0(x), ..., T_n(x))``.

    Uses the trigonometric form ``T_k(x) = cos(k arccos x)`` — one
    ``arccos`` plus a vectorized ``cos``, faster and better conditioned
    near the endpoints than the three-term recurrence in Python.
    ``x`` is clipped to ``[-1, 1]`` to absorb last-ulp round-off from
    the affine box map.
    """
    angle = np.arccos(min(1.0, max(-1.0, x)))
    return np.cos(_orders(degree) * angle)


#: Cached ``arange(degree + 1)`` vectors — ``basis`` runs per evaluation
#: point on the microsecond path, so even the arange allocation shows.
_ORDERS_CACHE: dict[int, np.ndarray] = {}


def _orders(degree: int) -> np.ndarray:
    orders = _ORDERS_CACHE.get(degree)
    if orders is None:
        orders = np.arange(degree + 1, dtype=float)
        _ORDERS_CACHE[degree] = orders
    return orders


def basis_many(xs: np.ndarray, degree: int) -> np.ndarray:
    """Basis vectors for many points at once, shape ``(len(xs), n + 1)``."""
    angles = np.arccos(np.clip(np.asarray(xs, dtype=float), -1.0, 1.0))
    return np.cos(np.outer(angles, _orders(degree)))


def stacked_eval(stacked: np.ndarray, coords: tuple[float, ...]) -> np.ndarray:
    """Evaluate a stacked coefficient tensor at one unit-cube point.

    ``stacked`` has shape ``(m, n_1 + 1, ..., n_d + 1)`` — ``m``
    measures sharing the node grid.  Contracts the trailing axes one by
    one with per-axis basis vectors (each step is a matmul over the last
    axis), returning the ``(m,)`` vector of measure values.  This is the
    hot path: ~10 microseconds for nine measures on a 2-D degree-(32,
    10) tensor.
    """
    result = stacked
    for x in reversed(coords):
        result = result @ basis(x, result.shape[-1] - 1)
    return result


def derivative_tensor(stacked: np.ndarray, axis: int) -> np.ndarray:
    """Differentiate a stacked tensor along one box axis (unit coords).

    ``axis`` indexes the box dimensions (0-based, excluding the leading
    measure axis).  Uses the Chebyshev derivative recurrence; the result
    is zero-padded back to the original shape so derivative tensors can
    be stacked and evaluated with the same :func:`stacked_eval` path.
    Callers apply the chain-rule factor ``2 / (hi - lo)`` to get raw-
    coordinate partials.
    """
    tensor_axis = axis + 1
    n = stacked.shape[tensor_axis] - 1
    if n == 0:
        return np.zeros_like(stacked)
    der = _cheb.chebder(stacked, m=1, axis=tensor_axis)
    pad = [(0, 0)] * stacked.ndim
    pad[tensor_axis] = (0, stacked.shape[tensor_axis] - der.shape[tensor_axis])
    return np.ascontiguousarray(np.pad(der, pad))

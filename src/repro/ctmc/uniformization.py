"""Uniformization (Jensen's method) building blocks: Fox–Glynn Poisson
truncation and the uniformized DTMC.

Uniformization converts the transient solution of a CTMC into a weighted
sum of DTMC powers:

    pi(t) = sum_{k=0}^inf  PoissonPMF(k; Lambda * t) * pi(0) P^k

where ``P = I + Q / Lambda`` is the uniformized DTMC and ``Lambda`` is any
rate at least the largest exit rate.  The Fox–Glynn algorithm computes the
Poisson weights stably and picks truncation points so the neglected mass
is below a requested tolerance.

This module holds the Poisson helpers (:func:`fox_glynn_weights`,
:func:`accrual_right_point`, :func:`poisson_excess_mean`,
:func:`poisson_survival`), the
bounded-truncation guard and :func:`uniformize`.  The one Jensen walk
that sums the series lives in :mod:`repro.ctmc.streaming`; every
``method="uniformization"`` solve runs it.  This is the transient engine
used by UltraSAN/Möbius-style tools and the one this reproduction
relies on for every non-stiff constituent measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ctmc import config
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import as_csr, uniformization_rate, validate_generator


def _check_window_bound(right: int) -> None:
    """Bounded truncation: refuse pathologically long Jensen series.

    The Fox–Glynn window length is ``O(Lambda * t)``; for a stiff problem
    that can mean millions of matrix-vector products per segment.  The
    ``auto`` dispatch routes such problems to the matrix-exponential
    backends, but a direct ``method="uniformization"`` request fails
    fast here instead of silently burning hours.  Bound configurable via
    ``REPRO_MAX_UNIFORMIZATION_TERMS``.
    """
    limit = config.limits().max_uniformization_terms
    if right > limit:
        raise CTMCError(
            f"uniformization series needs {right} terms, above the "
            f"MAX_UNIFORMIZATION_TERMS bound of {limit}; use method 'auto' "
            "or a matrix-exponential backend for this stiffness ('spectral', "
            "'dense-expm' or 'krylov' for transient solves, "
            "'augmented-expm' or 'augmented-krylov' for accumulated ones), "
            "or raise REPRO_MAX_UNIFORMIZATION_TERMS"
        )


@dataclass(frozen=True)
class PoissonWindow:
    """Truncated Poisson weights from Fox–Glynn.

    Attributes
    ----------
    left:
        First retained term index ``L``.
    right:
        Last retained term index ``R`` (inclusive).
    weights:
        ``weights[k - left]`` approximates ``PoissonPMF(k; m)`` for
        ``left <= k <= right``; the weights sum to at most 1 and to at
        least ``1 - tolerance``.
    mean:
        The Poisson mean ``m = Lambda * t`` the window was built for.
    """

    left: int
    right: int
    weights: np.ndarray
    mean: float

    @property
    def total_mass(self) -> float:
        """Sum of retained weights (``>= 1 - tolerance``)."""
        return float(self.weights.sum())

    @property
    def truncated_mass(self) -> float:
        """Poisson mass outside ``[left, right]`` — the left *and* right
        truncation error combined.  The L1 error of the renormalised
        Jensen sum is at most ``2 * truncated_mass`` (one factor for the
        dropped terms, one for scaling the retained ones up by
        ``1 / total_mass``)."""
        return max(0.0, 1.0 - self.total_mass)


def _poisson(mean: float):
    """Frozen ``scipy.stats.poisson(mean)``.

    The one place the solvers touch :mod:`scipy.stats`.  It is imported
    here, on the first uniformization solve, because importing it costs
    about as much as the rest of the CLI's start-up and no other solve
    path needs it.
    """
    from scipy import stats

    return stats.poisson(mean)


def poisson_survival(mean: float, right: int) -> np.ndarray:
    """``P(N > k)`` for ``N ~ Poisson(mean)`` and ``k = 0, ..., right``."""
    return _poisson(mean).sf(np.arange(right + 1))


def poisson_excess_mean(mean: float, m: int) -> float:
    """``E[(N - m)^+]`` for ``N ~ Poisson(mean)``, in closed form.

    Uses the identity ``k * pmf(k) = mean * pmf(k - 1)``:

        E[(N - m)^+] = mean * sf(m - 1) - m * sf(m)

    This is exactly the tail ``sum_{k >= m} sf(k)`` of the Poisson
    survival series — the quantity the integrated-uniformization
    truncation neglects — so it certifies the accumulated-reward
    accrual error: truncating the survival series after term ``R``
    leaves an absolute error of at most
    ``(max|r| / Lambda) * poisson_excess_mean(mean, R + 1)``.
    """
    if m <= 0:
        return float(mean)
    dist = _poisson(mean)
    return float(max(0.0, mean * dist.sf(m - 1) - m * dist.sf(m)))


def accrual_right_point(mean: float, tolerance: float) -> int:
    """Truncation point of the Poisson *survival* series for accrual.

    Picks the smallest practical ``R`` such that the neglected tail
    ``sum_{k > R} sf(k) = E[(N - R - 1)^+]`` is below
    ``tolerance * max(mean, 1)``.  Dividing by ``Lambda`` (the series
    prefactor) this bounds the accumulated-reward error by
    ``tolerance * max|r| * max(t, 1 / Lambda)`` — a *scale-relative*
    bound, unlike the old ``sf(R) < tolerance`` criterion, which only
    bounded the first neglected term and silently under-reported the
    accrued tail for long horizons.
    """
    tolerance = max(tolerance, 1e-15)
    dist = _poisson(mean)
    right = int(dist.ppf(1.0 - tolerance))
    target = tolerance * max(mean, 1.0)
    while poisson_excess_mean(mean, right + 1) > target:
        right += 1
    return right


def fox_glynn_weights(mean: float, tolerance: float = 1e-12) -> PoissonWindow:
    """Compute truncated Poisson(``mean``) weights.

    For numerical robustness we evaluate the probability mass function in
    log space through :mod:`scipy.stats` rather than via the classical
    recurrence; the *truncation-point selection* follows Fox–Glynn: centre
    the window on the mode and expand until the captured mass reaches
    ``1 - tolerance``.

    Parameters
    ----------
    mean:
        The Poisson mean ``Lambda * t`` (must be non-negative).
    tolerance:
        Upper bound on the total neglected probability mass.  Values
        below 1e-12 are clamped: summing thousands of pmf terms in
        double precision cannot guarantee tighter mass capture.
    """
    if mean < 0:
        raise CTMCError(f"Poisson mean must be non-negative, got {mean}")
    tolerance = max(tolerance, 1e-12)
    if mean == 0.0:
        return PoissonWindow(left=0, right=0, weights=np.array([1.0]), mean=0.0)

    dist = _poisson(mean)
    # Quantile-based truncation: captured mass outside [left, right] is
    # below tolerance by construction of the inverse CDF.
    left = int(dist.ppf(tolerance / 2.0))
    right = int(dist.ppf(1.0 - tolerance / 2.0))
    # Guard: ppf can be conservative for tiny means; widen until the mass
    # criterion provably holds.
    while left > 0 and dist.cdf(left - 1) > tolerance / 2.0:
        left -= 1
    while dist.sf(right) > tolerance / 2.0:
        right += 1
    ks = np.arange(left, right + 1)
    weights = dist.pmf(ks)
    return PoissonWindow(left=left, right=right, weights=weights, mean=mean)


def uniformize(q, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Return the uniformized DTMC ``P = I + Q / Lambda`` and ``Lambda``.

    Parameters
    ----------
    q:
        A valid CTMC generator.
    rate:
        Optional uniformization constant; must satisfy
        ``rate >= max_i |q_ii|``.  When omitted a slightly padded maximum
        exit rate is used (keeping ``P`` aperiodic).
    """
    q = validate_generator(as_csr(q))
    max_exit = float(np.max(-q.diagonal()))
    if rate is None:
        rate = uniformization_rate(q)
    elif rate < max_exit:
        raise CTMCError(
            f"uniformization rate {rate} below max exit rate {max_exit}"
        )
    if rate <= 0:
        raise CTMCError("uniformization rate must be positive")
    n = q.shape[0]
    p = sp.identity(n, format="csr") + q.multiply(1.0 / rate)
    p = p.tocsr()
    # Clip tiny negative round-off on the diagonal.
    p.data[p.data < 0] = np.where(
        p.data[p.data < 0] > -1e-12, 0.0, p.data[p.data < 0]
    )
    return p, rate


def _validate_time_grid(times) -> np.ndarray:
    """Validate a 1-D, non-negative, non-decreasing time grid."""
    grid = np.asarray(list(times), dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise CTMCError("need a non-empty 1-D grid of time points")
    if np.any(grid < 0):
        raise CTMCError("time points must be non-negative")
    if np.any(np.diff(grid) < 0):
        raise CTMCError("time grid must be non-decreasing")
    return grid

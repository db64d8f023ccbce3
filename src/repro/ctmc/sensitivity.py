"""Finite-difference sensitivity of reward measures to model parameters.

The paper's evaluation is a sensitivity study in disguise: Figures 9-12
vary ``mu_new``, ``alpha``/``beta``, ``c``, and ``theta`` and observe the
optimal guarded-operation duration.  This module provides the generic
numerical machinery: given a function ``parameter value -> measure``, it
estimates local derivatives and elasticities with central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class SensitivityResult:
    """Local sensitivity of a measure to one parameter.

    Attributes
    ----------
    parameter_value:
        The point the derivative is taken at.
    measure_value:
        The measure evaluated at ``parameter_value``.
    derivative:
        Central-difference estimate of ``d measure / d parameter``.
    elasticity:
        Dimensionless relative sensitivity
        ``(d measure / measure) / (d parameter / parameter)``.
    """

    parameter_value: float
    measure_value: float
    derivative: float
    elasticity: float


def finite_difference_sensitivity(
    measure: Callable[[float], float],
    at: float,
    relative_step: float = 1e-4,
    bounds: tuple[float, float] | None = None,
) -> SensitivityResult:
    """Estimate the local sensitivity of ``measure`` at parameter ``at``.

    Uses a central difference with step ``relative_step * |at|`` (or
    ``relative_step`` itself when ``at`` is zero, so the step never
    collapses).  ``measure`` is called three times (at, at-h, at+h).

    ``bounds`` optionally declares the parameter's valid domain as a
    ``(lower, upper)`` pair.  When a probe point would leave the domain
    (a rate going negative, a coverage above 1) the estimate falls back
    to the one-sided difference on the in-domain side; when *both* probes
    would leave, the step shrinks to the widest symmetric step that fits.
    In the interior — both probes within bounds — the arithmetic is the
    exact central-difference computation of the unbounded call.
    """
    if relative_step <= 0:
        raise ValueError(f"relative_step must be positive, got {relative_step}")
    h = relative_step * abs(at) if at != 0.0 else relative_step
    if bounds is not None:
        lower, upper = bounds
        if not lower <= at <= upper:
            raise ValueError(
                f"point {at} outside declared bounds [{lower}, {upper}]"
            )
        if at - h < lower and at + h > upper:
            # Cramped on both sides: the widest symmetric step that fits.
            h = min(at - lower, upper - at)
            if h <= 0.0:
                raise ValueError(
                    f"bounds [{lower}, {upper}] leave no room to step "
                    f"from {at}"
                )
        elif at + h > upper:
            # Backward difference on the in-domain side.
            centre = measure(at)
            lo = measure(at - h)
            derivative = (centre - lo) / h
            return _result(at, centre, derivative)
        elif at - h < lower:
            # Forward difference on the in-domain side.
            centre = measure(at)
            hi = measure(at + h)
            derivative = (hi - centre) / h
            return _result(at, centre, derivative)
    centre = measure(at)
    lo = measure(at - h)
    hi = measure(at + h)
    derivative = (hi - lo) / (2.0 * h)
    return _result(at, centre, derivative)


def _result(at: float, centre: float, derivative: float) -> SensitivityResult:
    """Package a derivative estimate with its elasticity."""
    if centre != 0.0 and at != 0.0:
        elasticity = derivative * at / centre
    else:
        elasticity = float("nan")
    return SensitivityResult(
        parameter_value=at,
        measure_value=centre,
        derivative=derivative,
        elasticity=elasticity,
    )


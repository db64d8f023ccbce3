"""Optimal guarded-operation duration search.

The paper reads the optimum off a coarse sweep (step 1000 over
``[0, theta]``); :func:`find_optimal_phi` reproduces that and optionally
refines the optimum with golden-section search between the coarse
neighbours of the best grid point.  :func:`pick_optimum` is that rule on
an already evaluated grid — ``repro optimal`` and ``POST /optimal``
both answer through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import (
    PerformabilityEvaluation,
    evaluate_batch,
    evaluate_index,
)

#: Golden ratio constant for the section search.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimalDuration:
    """Result of an optimal-``phi`` search.

    Attributes
    ----------
    phi:
        The best guarded-operation duration found.
    y:
        The performability index at the optimum.
    beneficial:
        Whether guarded operation pays off at all (``max Y > 1``).
    sweep:
        The coarse-grid evaluations, in ``phi`` order.
    """

    phi: float
    y: float
    beneficial: bool
    sweep: tuple[PerformabilityEvaluation, ...]

    def grid_optimum(self) -> PerformabilityEvaluation:
        """The best point of the coarse sweep."""
        return max(self.sweep, key=lambda e: e.value)


def find_optimal_phi(
    params: GSUParameters,
    step: float = 1000.0,
    refine: bool = False,
    refine_tolerance: float = 10.0,
    solver: ConstituentSolver | None = None,
    jobs: int | None = None,
    backend: str | None = None,
    cache=None,
) -> OptimalDuration:
    """Locate the ``phi`` maximising ``Y`` over ``[0, theta]``.

    Parameters
    ----------
    params:
        The study parameters.
    step:
        Coarse grid step (the paper uses 1000-hour steps).
    refine:
        When true, run a golden-section search between the coarse
        neighbours of the grid optimum (see :func:`pick_optimum`).
    refine_tolerance:
        Bracket width (hours) at which refinement stops.
    solver:
        Optional shared solver; forces the direct in-process path.
        Otherwise the coarse grid routes through the campaign runtime
        (honouring the installed runtime configuration and any
        ``jobs``/``backend``/``cache`` overrides) — refinement is a
        sequential bracket search and always runs in-process.
    jobs / backend / cache:
        Runtime overrides for the coarse grid, forwarded to
        :func:`~repro.runtime.campaign.run_campaign`.
    """
    # Lazy imports: the runtime's executor evaluates the index, which
    # lives beside this module.
    from repro.runtime.spec import CampaignSpec, CurveSpec, default_grid

    grid = default_grid(params.theta, step=step)
    if solver is not None:
        # Batched: one solver pass per model serves the whole coarse grid.
        evaluations = evaluate_batch(params, grid, solver=solver)
    else:
        # Route the coarse grid through the campaign runtime.
        from repro.runtime.campaign import run_campaign

        spec = CampaignSpec(
            name="optimal-phi",
            curves=(
                CurveSpec(label="optimal-phi", params=params, phis=tuple(grid)),
            ),
        )
        result = run_campaign(spec, backend=backend, jobs=jobs, cache=cache)
        evaluations = [point.evaluation for point in result.sweeps[0].points]
    best_phi, best_y, _ = pick_optimum(
        params,
        [e.phi for e in evaluations],
        [e.value for e in evaluations],
        refine,
        refine_tolerance,
        solver,
    )
    return OptimalDuration(
        phi=best_phi,
        y=best_y,
        beneficial=best_y > 1.0,
        sweep=tuple(evaluations),
    )


def pick_optimum(
    params: GSUParameters,
    phis: Sequence[float],
    values: Sequence[float],
    refine: bool = False,
    tolerance: float = 10.0,
    solver: ConstituentSolver | None = None,
) -> tuple[float, float, bool]:
    """The optimum ``(phi, Y, refined)`` of an evaluated ``phi`` grid.

    Without ``refine`` it is the grid argmax.  With ``refine``, a
    golden-section search runs between the argmax's coarse neighbours,
    down to a ``tolerance``-hour bracket.  An argmax at a grid endpoint
    still has one neighbour: the one-sided bracket ``[phi_0, phi_1]``
    (or ``[phi_{n-1}, phi_n]``) is refined instead of skipped, since on
    a coarse grid the true optimum can sit well inside it.  ``refined``
    says whether the search beat the grid.
    """
    best = max(range(len(values)), key=values.__getitem__)
    best_phi, best_y = phis[best], values[best]
    if not refine or len(phis) < 2:
        return best_phi, best_y, False
    if solver is None:
        solver = ConstituentSolver(params)
    phi, y = _golden_section(
        lambda p: evaluate_index(params, p, solver=solver).value,
        phis[max(best - 1, 0)],
        phis[min(best + 1, len(phis) - 1)],
        tolerance,
    )
    if y > best_y:
        return phi, y, True
    return best_phi, best_y, False


def _golden_section(objective, lo: float, hi: float, tolerance: float):
    """Golden-section maximisation of a unimodal function on [lo, hi].

    Returns the best ``(x, objective(x))`` actually evaluated — never a
    fresh midpoint evaluation, which could report a worse point than one
    the search already computed (and would cost one extra solve).
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while (b - a) > tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f

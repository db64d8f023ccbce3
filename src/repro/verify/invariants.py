"""Metamorphic invariants of the analytic solution.

These checks need no simulation and no reference values: they assert
relations the paper's model structure forces on any *correct* solver
output, so they catch sign errors, swapped measures, and broken
aggregation even where a statistical test would be blind.

* **Probability bounds** — every probability-valued constituent lies in
  ``[0, 1]``; the detection-time integral lies in ``[0, phi]``.
* **Detection partition** — at time ``phi`` the ``RMGd`` process is in
  exactly one of four disjoint classes: no error (``p_gd_phi_a1``),
  detected-and-alive (``int_h``), detected-then-failed (``int_hf``), or
  undetected failure — so the three computed masses sum to at most one.
* **Overhead conservation** — each forward-progress fraction ``rho_i``
  lies in ``[0, 1]`` and the overhead fractions satisfy
  ``(1 - rho1) + (1 - rho2) <= 1``: the two processes' safeguard
  activities (AT validation, checkpointing) are serialised on the
  protocol's critical path, so their busy fractions cannot jointly
  exceed the whole.  (This is the model-consistent form of the
  ``rho1 + rho2 <= 1`` conservation idea: with per-process overheads of
  a few percent, ``rho1 + rho2`` is close to 2 by construction, and the
  ``Y_S1`` worth term ``rho_sum * phi + 2 (theta - phi)`` indeed assumes
  ``rho_sum <= 2``, which is implied.)
* **Survival monotonicity** — ``P(survive theta) <= P(survive
  theta - phi)``: survival probabilities decrease with horizon.
* **Worth dominance** — ``E[W_phi] <= E[W_I]`` and ``E[W_0] <= E[W_I]``:
  no strategy beats the ideal worth ``2 theta``.
* **Cutoff continuity** — ``E[W_phi] -> E[W_0]`` and ``Y -> 1`` as
  ``phi -> 0+``: the sample-path decomposition at the cutoff must not
  introduce a jump at the boundary where the guarded phase vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import aggregate_breakdown, evaluate_batch

#: Absolute tolerance for exact algebraic relations evaluated in floats.
DEFAULT_TOLERANCE = 1e-9

#: Bound on ``|dE[W_phi]/dphi|`` near ``phi = 0`` used by the continuity
#: check, in worth units per hour: the derivative of
#: ``(rho_sum * phi + 2 (theta - phi)) * p_s1`` plus the ``Y_S2`` terms
#: is dominated by ``|rho_sum - 2| + 2 theta * d(int_h)/dphi + ...``,
#: all bounded by small multiples of the per-hour event probabilities —
#: 4.0 is a generous envelope for every profile in use.
CONTINUITY_SLOPE_BOUND = 4.0

#: Names of the probability-valued constituents (everything but the
#: detection-time integral ``int_tau_h``).
PROBABILITY_MEASURES = (
    "p_nd_theta",
    "p_gd_phi_a1",
    "p_nd_theta_minus_phi",
    "rho1",
    "rho2",
    "int_h",
    "int_hf",
    "int_f",
)


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant at one evaluation point."""

    name: str
    phi: float | None
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "phi": self.phi,
            "passed": self.passed,
            "detail": self.detail,
        }


def _check(name: str, phi: float | None, passed: bool, detail: str) -> InvariantCheck:
    return InvariantCheck(name=name, phi=phi, passed=bool(passed), detail=detail)


def check_constituents(
    constituents: Mapping[str, float],
    phi: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[InvariantCheck]:
    """Structural invariants of one solved constituent set."""
    checks: list[InvariantCheck] = []

    bad = [
        name
        for name in PROBABILITY_MEASURES
        if not -tolerance <= constituents[name] <= 1.0 + tolerance
    ]
    checks.append(
        _check(
            "probability_bounds",
            phi,
            not bad,
            "all probability measures in [0, 1]"
            if not bad
            else f"out of [0, 1]: {bad}",
        )
    )

    tau = constituents["int_tau_h"]
    checks.append(
        _check(
            "detection_time_bounds",
            phi,
            -tolerance <= tau <= phi + tolerance,
            f"int_tau_h = {tau:.6g} within [0, phi={phi:g}]",
        )
    )

    partition = (
        constituents["p_gd_phi_a1"]
        + constituents["int_h"]
        + constituents["int_hf"]
    )
    checks.append(
        _check(
            "detection_partition",
            phi,
            partition <= 1.0 + tolerance,
            f"p_gd_phi_a1 + int_h + int_hf = {partition:.9g} <= 1",
        )
    )

    overhead = (1.0 - constituents["rho1"]) + (1.0 - constituents["rho2"])
    checks.append(
        _check(
            "overhead_conservation",
            phi,
            -tolerance <= overhead <= 1.0 + tolerance,
            f"(1-rho1) + (1-rho2) = {overhead:.6g} in [0, 1]",
        )
    )

    checks.append(
        _check(
            "survival_monotonicity",
            phi,
            constituents["p_nd_theta"]
            <= constituents["p_nd_theta_minus_phi"] + tolerance,
            f"p_nd_theta = {constituents['p_nd_theta']:.9g} <= "
            f"p_nd_theta_minus_phi = {constituents['p_nd_theta_minus_phi']:.9g}",
        )
    )
    return checks


def check_worth(
    constituents: Mapping[str, float],
    params: GSUParameters,
    phi: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[InvariantCheck]:
    """Worth-level invariants of the aggregated breakdown at ``phi``."""
    breakdown = aggregate_breakdown(
        dict(constituents), {"phi": phi, "theta": params.theta}
    )
    scale = tolerance * max(1.0, breakdown["E_WI"])
    checks = [
        _check(
            "worth_dominance",
            phi,
            breakdown["E_Wphi"] <= breakdown["E_WI"] + scale
            and breakdown["E_W0"] <= breakdown["E_WI"] + scale,
            f"E_Wphi = {breakdown['E_Wphi']:.6g}, E_W0 = "
            f"{breakdown['E_W0']:.6g} <= E_WI = {breakdown['E_WI']:.6g}",
        ),
        _check(
            "gamma_bounds",
            phi,
            -tolerance <= breakdown["gamma"] <= 1.0 + tolerance,
            f"gamma = {breakdown['gamma']:.6g} in [0, 1]",
        ),
    ]
    return checks


def check_cutoff_continuity(
    params: GSUParameters,
    epsilon: float | None = None,
) -> list[InvariantCheck]:
    """``E[W_phi]`` and ``Y`` must be continuous across ``phi -> 0+``.

    Evaluates the full pipeline at ``phi = 0`` (where the decomposition
    degenerates to the unguarded worth by definition) and at a small
    ``epsilon``, and checks the difference against a first-order budget
    ``CONTINUITY_SLOPE_BOUND * epsilon`` (scaled into ``Y`` units by the
    worth denominator).  A discontinuity at the cutoff would mean the
    sample-path decomposition (Eqs. 10-14) double-counts or drops mass
    at the boundary.
    """
    if epsilon is None:
        epsilon = 1e-4 * params.theta
    at_zero, at_eps = evaluate_batch(params, [0.0, float(epsilon)])

    budget_e = CONTINUITY_SLOPE_BOUND * epsilon
    delta_e = abs(at_eps.worth.guarded - at_zero.worth.unguarded)
    denominator = at_zero.worth.ideal - at_zero.worth.unguarded
    budget_y = (
        2.0 * budget_e / denominator if denominator > 0 else float("inf")
    )
    delta_y = abs(at_eps.value - 1.0)
    return [
        _check(
            "cutoff_continuity_worth",
            float(epsilon),
            delta_e <= budget_e,
            f"|E_Wphi(eps) - E_W0| = {delta_e:.3g} <= {budget_e:.3g}",
        ),
        _check(
            "cutoff_continuity_index",
            float(epsilon),
            delta_y <= budget_y,
            f"|Y(eps) - 1| = {delta_y:.3g} <= {budget_y:.3g}",
        ),
    ]


def check_all(
    analytic_by_phi: Mapping[float, Mapping[str, float]],
    params: GSUParameters,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[InvariantCheck]:
    """Every invariant over a solved phi grid, plus the cutoff checks."""
    checks: list[InvariantCheck] = []
    for phi in sorted(analytic_by_phi):
        constituents = analytic_by_phi[phi]
        checks.extend(check_constituents(constituents, phi, tolerance))
        checks.extend(check_worth(constituents, params, phi, tolerance))
    checks.extend(check_cutoff_continuity(params))
    return checks


def worth_dominance_over(
    phis: Sequence[float],
    analytic_by_phi: Mapping[float, Mapping[str, float]],
    params: GSUParameters,
) -> bool:
    """Convenience: ``E[W_phi] <= E[W_I]`` across a whole grid."""
    for phi in phis:
        breakdown = aggregate_breakdown(
            dict(analytic_by_phi[phi]), {"phi": phi, "theta": params.theta}
        )
        if breakdown["E_Wphi"] > breakdown["E_WI"] + 1e-9 * breakdown["E_WI"]:
            return False
    return True

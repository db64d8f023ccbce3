"""Conformance checking of the analytic distribution measures.

Same philosophy as :mod:`repro.verify.conformance`: every analytic
claim is confronted with an independent trajectory simulation, and the
whole verdict family is judged at a Šidák-adjusted per-test level so a
correct implementation passes the entire matrix with at least the
requested family-wise confidence.

For a distribution the natural checks are *binomial*: if the analytic
quantile ``w_q`` is right, the number of simulated accumulated-reward
samples at or below ``w_q`` is ``Binomial(n, F(w_q))``; if the analytic
exceedance ``P(W > y)`` is right, the count above ``y`` is
``Binomial(n, tail(y))``.  Atoms (the point masses at ``0`` and at the
maximal value) widen the acceptance band: ties at an atom may land on
either side of the threshold, so the band spans
``[ppf(alpha/2, n, p - atom), ppf(1 - alpha/2, n, p)]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gsu.measures import (
    RS_INT_TAU_H,
    RS_OVERHEAD_2,
    ConstituentSolver,
)
from repro.gsu.parameters import GSUParameters
from repro.synth.distribution import accumulated_distribution
from repro.verify.conformance import DEFAULT_VERIFY_SEED, sidak_confidence
from repro.verify.estimators import block_rng
from repro.verify.simulate import simulate_transient

#: Validated distribution measures: accumulated reward of the Table 1
#: guarded-operation structure on ``RMGd`` (a no-return indicator — the
#: exact transient route applies even on the paper's stiff parameters)
#: and the Table 2 P2 overhead structure on ``RMGp`` (re-enterable —
#: exercises the beta-mixture route).
DISTRIBUTION_MEASURES = ("guarded-op", "overhead2")


@dataclass(frozen=True)
class DistributionVerdict:
    """One binomial check of the analytic distribution.

    ``check`` is ``"quantile"`` (threshold = analytic ``w_q``, count =
    samples at or below it) or ``"tail"`` (threshold = ``y``, count =
    samples strictly above it).  ``accept_lo``/``accept_hi`` is the
    Šidák-adjusted acceptance band on the count.
    """

    measure: str
    check: str
    level: float
    threshold: float
    p_lo: float
    p_hi: float
    count: int
    replications: int
    accept_lo: int
    accept_hi: int

    @property
    def passed(self) -> bool:
        return self.accept_lo <= self.count <= self.accept_hi

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "check": self.check,
            "level": self.level,
            "threshold": self.threshold,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "count": self.count,
            "replications": self.replications,
            "accept_lo": self.accept_lo,
            "accept_hi": self.accept_hi,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class DistributionReport:
    """All verdicts of one measure's distribution conformance run."""

    measure: str
    method: str
    horizon: float
    replications: int
    confidence: float
    family: int
    verdicts: tuple[DistributionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "method": self.method,
            "horizon": self.horizon,
            "replications": self.replications,
            "confidence": self.confidence,
            "family": self.family,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def _measure_context(params: GSUParameters, measure: str):
    """``(chain, rates, default_horizon)`` of one validated measure."""
    solver = ConstituentSolver(params)
    if measure == "guarded-op":
        compiled = solver.rm_gd
        rates = RS_INT_TAU_H.rate_vector(compiled)
        horizon = params.theta / 4.0
    elif measure == "overhead2":
        compiled = solver.rm_gp
        rates = RS_OVERHEAD_2.rate_vector(compiled)
        # Pick the horizon, not the stiffness: ~24 expected uniformized
        # jumps keeps the beta-mixture series short on any parameter
        # scale (the paper's 6000/h rates included).
        max_exit = float(np.max(compiled.chain.exit_rates(), initial=1.0))
        horizon = 24.0 / max_exit
    else:
        raise ValueError(
            f"unknown distribution measure {measure!r}; expected one of "
            f"{DISTRIBUTION_MEASURES}"
        )
    return compiled.chain, rates, horizon


def distribution_conformance(
    params: GSUParameters,
    measure: str = "guarded-op",
    horizon: float | None = None,
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.9),
    tails: tuple[float, ...] = (0.25, 0.75),
    replications: int = 400,
    confidence: float = 0.99,
    seed: int = DEFAULT_VERIFY_SEED,
    family: int | None = None,
    method: str = "auto",
    block: int = 0,
) -> DistributionReport:
    """Check analytic quantiles and exceedances against simulation.

    ``tails`` are fractions of the maximal accumulated value; ``family``
    overrides the Šidák family size when the caller folds these verdicts
    into a larger matrix.
    """
    chain, rates, default_horizon = _measure_context(params, measure)
    t = float(horizon) if horizon is not None else default_horizon
    if t <= 0.0:
        raise ValueError(f"horizon must be positive, got {t}")

    dist = accumulated_distribution(chain, rates, t, method=method)
    rng = block_rng(seed, f"synth.{measure}", block)
    sample = simulate_transient(
        chain, [t], replications, rng, reward_vectors={"W": rates}
    )
    samples = sample.integral_samples("W", t)

    count_checks = len(quantiles) + len(tails)
    if count_checks == 0:
        raise ValueError("need at least one quantile or tail check")
    family_size = family if family is not None else count_checks
    alpha = 1.0 - sidak_confidence(confidence, family_size)
    atol = 1e-9 * max(dist.maximum, 1.0)

    from scipy.stats import binom

    verdicts = []
    for q in quantiles:
        w_q = dist.quantile(q)
        p_hi = dist.cdf(w_q)
        p_lo = max(p_hi - dist.atom(w_q), 0.0)
        count = int(np.count_nonzero(samples <= w_q + atol))
        verdicts.append(
            DistributionVerdict(
                measure=measure,
                check="quantile",
                level=float(q),
                threshold=float(w_q),
                p_lo=p_lo,
                p_hi=p_hi,
                count=count,
                replications=replications,
                accept_lo=int(binom.ppf(alpha / 2.0, replications, p_lo))
                if p_lo > 0.0
                else 0,
                accept_hi=int(binom.ppf(1.0 - alpha / 2.0, replications, p_hi)),
            )
        )
    for frac in tails:
        y = float(frac) * dist.maximum
        tail = dist.tail(y)
        p_hi = min(tail + dist.atom(y), 1.0)
        count = int(np.count_nonzero(samples > y + atol))
        verdicts.append(
            DistributionVerdict(
                measure=measure,
                check="tail",
                level=float(frac),
                threshold=y,
                p_lo=tail,
                p_hi=p_hi,
                count=count,
                replications=replications,
                accept_lo=int(binom.ppf(alpha / 2.0, replications, tail))
                if tail > 0.0
                else 0,
                accept_hi=int(binom.ppf(1.0 - alpha / 2.0, replications, p_hi)),
            )
        )

    return DistributionReport(
        measure=measure,
        method=dist.method,
        horizon=t,
        replications=replications,
        confidence=confidence,
        family=family_size,
        verdicts=tuple(verdicts),
    )


def synthesis_conformance(
    params: GSUParameters,
    phi: float | None = None,
    measures: tuple[str, ...] = DISTRIBUTION_MEASURES,
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.9),
    tails: tuple[float, ...] = (0.25, 0.75),
    replications: int = 400,
    confidence: float = 0.99,
    seed: int = DEFAULT_VERIFY_SEED,
) -> tuple[DistributionReport, ...]:
    """Run every distribution measure as one Šidák family.

    ``phi`` sets the guarded-op horizon (clamped away from zero so a
    ``phi = 0`` optimum still yields a non-degenerate check); the
    overhead measure keeps its scale-adapted default horizon.
    """
    per_measure = len(quantiles) + len(tails)
    family = per_measure * len(measures)
    reports = []
    for measure in measures:
        horizon = None
        if measure == "guarded-op" and phi is not None:
            horizon = max(float(phi), 1e-3 * params.theta)
        reports.append(
            distribution_conformance(
                params,
                measure=measure,
                horizon=horizon,
                quantiles=quantiles,
                tails=tails,
                replications=replications,
                confidence=confidence,
                seed=seed,
                family=family,
            )
        )
    return tuple(reports)

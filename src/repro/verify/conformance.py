"""Conformance checking: analytic reward solutions vs simulated CIs.

The core question of the verification subsystem: for every constituent
measure, at every requested ``phi``, does the analytic reward solution
fall inside the confidence interval of an independent trajectory
simulation?  And do the *composed* quantities — ``E[W_phi]`` and
``Y(phi)`` assembled through
:func:`repro.gsu.performability.aggregate_breakdown` — agree once the
constituent uncertainties are propagated?

Three verdict mechanisms:

* **CI containment** — the standard check: analytic value inside the
  Student-t interval of the pooled replications.
* **Rare-event bound** — when an indicator estimand saw zero (or all)
  successes, the sample variance is zero and the t-interval collapses to
  a point.  The one-sided ``(1-confidence)`` binomial bound
  ``p <= -ln(1-confidence)/n`` (the "rule of three" generalised) is used
  instead: the analytic value must lie below it (resp. above ``1 -``
  bound).
* **Delta method** — composed quantities get a first-order propagated
  half-width: ``sqrt(sum_i (dF/dm_i * hw_i)^2)`` with numerically
  differentiated sensitivities of the aggregation formula, evaluated at
  the simulated constituent means.  The per-measure half-widths are
  t-intervals, so the composed interval is approximate (linearisation +
  RSS of dependent-free terms) — adequate here because the aggregation
  is smooth and the constituent estimators are independent by
  construction (disjoint models or disjoint RNG streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.des.stats import ConfidenceInterval
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.gsu.performability import aggregate_breakdown
from repro.gsu.validation import SCALED_VALIDATION_PARAMS
from repro.verify.estimators import (
    MEASURE_SPECS,
    MomentSummary,
)

#: Default root seed for verification campaigns (any fixed value works;
#: this one is pinned so published verdict matrices are reproducible).
DEFAULT_VERIFY_SEED = 20020623


@dataclass(frozen=True)
class VerifyProfile:
    """One named verification configuration.

    Attributes
    ----------
    name:
        Profile identifier (CLI ``--profile``).
    params:
        The parameter set whose analytic solutions are checked.
    phis:
        Guarded-operation durations at which the phi-dependent measures
        and the composed quantities are verified (all in ``(0, theta)``).
    replications:
        Total independent replications per model (split into blocks).
    block_size:
        Replications per block — the scheduling/caching granule.
    steady_horizon / steady_warmup:
        Observation window of the ``RMGp`` steady-state estimator.
    confidence:
        Family-wise confidence of the whole verdict matrix (0.99 by
        default; 0.95 available via ``--confidence``).  Individual
        verdicts are judged at the Šidák-adjusted per-test level (see
        :func:`sidak_confidence`), so a correct implementation passes
        the *entire* matrix with at least this probability.
    seed:
        Root seed for the replication streams.
    """

    name: str
    params: GSUParameters
    phis: tuple[float, ...]
    replications: int
    block_size: int
    steady_horizon: float
    steady_warmup: float
    confidence: float = 0.99
    seed: int = DEFAULT_VERIFY_SEED

    def __post_init__(self):
        if not self.phis:
            raise ValueError("profile needs at least one phi")
        for phi in self.phis:
            if not 0.0 < phi < self.params.theta:
                raise ValueError(
                    f"profile phis must lie in (0, theta), got {phi}"
                )
        if self.replications < 2:
            raise ValueError("need at least two replications")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if not 0.5 <= self.confidence < 1.0:
            raise ValueError(f"confidence must be in [0.5, 1), got {self.confidence}")

    @property
    def num_blocks(self) -> int:
        """Blocks per model (the last may be short)."""
        return -(-self.replications // self.block_size)

    def block_sizes(self) -> tuple[int, ...]:
        """Replications of each block (sums to ``replications``)."""
        full, rest = divmod(self.replications, self.block_size)
        sizes = [self.block_size] * full
        if rest:
            sizes.append(rest)
        return tuple(sizes)

    def with_overrides(self, **changes) -> "VerifyProfile":
        return replace(self, **changes)


#: Named verification profiles.
#:
#: ``table3`` — the paper's exact parameter assignment.  The active
#: ``RMGd`` states jump at ~2400/h, so the trajectory cost is set by the
#: largest ``phi``: the default grid tops out at 2000 h (~5M jump epochs
#: per block, about half a minute each); wider grids are a ``--phis``
#: override away.  ``scaled`` — the fast-dynamics parameter set used by
#: the protocol-level validation study; whole profile runs in seconds,
#: which is what CI smoke and tier-1 tests exercise.
VERIFY_PROFILES: dict[str, VerifyProfile] = {
    "table3": VerifyProfile(
        name="table3",
        params=PAPER_TABLE3,
        phis=(250.0, 500.0, 1000.0, 1500.0, 2000.0),
        replications=192,
        block_size=48,
        steady_horizon=0.25,
        steady_warmup=0.05,
    ),
    "scaled": VerifyProfile(
        name="scaled",
        params=SCALED_VALIDATION_PARAMS,
        phis=(2.0, 5.0, 8.0, 12.0, 16.0),
        replications=512,
        block_size=128,
        steady_horizon=5.0,
        steady_warmup=0.5,
    ),
}


def resolve_profile(
    name: str,
    phis: Sequence[float] | None = None,
    replications: int | None = None,
    seed: int | None = None,
    confidence: float | None = None,
) -> VerifyProfile:
    """A named profile with optional CLI overrides applied."""
    try:
        profile = VERIFY_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown verify profile {name!r}; expected one of "
            f"{sorted(VERIFY_PROFILES)}"
        ) from None
    changes: dict = {}
    if phis is not None:
        changes["phis"] = tuple(float(p) for p in phis)
    if replications is not None:
        changes["replications"] = int(replications)
        changes["block_size"] = min(profile.block_size, int(replications))
    if seed is not None:
        changes["seed"] = int(seed)
    if confidence is not None:
        changes["confidence"] = float(confidence)
    return profile.with_overrides(**changes) if changes else profile


def verdict_family_size(phis: Sequence[float]) -> int:
    """Number of statistical verdicts one verification run produces.

    Phi-independent measures are judged once, phi-dependent ones per
    ``phi``, and the two composed quantities per ``phi``.
    """
    independent = sum(1 for spec in MEASURE_SPECS if spec.time in (None, "theta"))
    dependent = len(MEASURE_SPECS) - independent
    return independent + (dependent + 2) * len(phis)


def sidak_confidence(confidence: float, count: int) -> float:
    """Per-verdict confidence giving family-wise ``confidence`` overall.

    A verification run makes ``count`` simultaneous statistical checks;
    judging each at the raw profile confidence would fail a *correct*
    implementation with probability ``1 - confidence**count`` (~25% for
    33 checks at 99%).  The Šidák adjustment ``confidence**(1/count)``
    makes the probability that every check passes at least
    ``confidence`` under independence — and the shared-trajectory
    correlation between same-model verdicts only makes the family more
    conservative.
    """
    if count < 1:
        raise ValueError("need at least one verdict in the family")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return confidence ** (1.0 / count)


def rare_event_bound(count: int, confidence: float) -> float:
    """One-sided binomial bound when zero successes were observed.

    ``P(no successes in n trials) <= 1 - confidence`` gives
    ``p <= -ln(1 - confidence) / n`` — the classical "rule of three"
    (``3/n`` at 95%; ``~4.6/n`` at 99%).
    """
    if count < 1:
        raise ValueError("need at least one trial")
    return -math.log(1.0 - confidence) / count


@dataclass(frozen=True)
class MeasureVerdict:
    """One (measure, phi) conformance outcome.

    ``phi`` is ``None`` for phi-independent measures (``rho1``, ``rho2``,
    ``p_nd_theta``).  ``interval`` is in the *constituent's* domain (the
    complement transform already applied).  ``method`` records which
    verdict mechanism applied: ``"ci"`` or ``"rare-event"``.
    """

    measure: str
    phi: float | None
    analytic: float
    interval: ConfidenceInterval
    passed: bool
    method: str

    def to_dict(self) -> dict:
        return {
            "measure": self.measure,
            "phi": self.phi,
            "analytic": self.analytic,
            "simulated": self.interval.mean,
            "half_width": self.interval.half_width,
            "confidence": self.interval.confidence,
            "replications": self.interval.samples,
            "method": self.method,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ComposedVerdict:
    """Agreement of one composed quantity at one ``phi``."""

    quantity: str
    phi: float
    analytic: float
    simulated: float
    half_width: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "phi": self.phi,
            "analytic": self.analytic,
            "simulated": self.simulated,
            "half_width": self.half_width,
            "passed": self.passed,
        }


def _summary_for(
    merged: Mapping[tuple[str, str, float | None], MomentSummary],
    spec,
    phi: float,
    theta: float,
) -> tuple[float | None, MomentSummary]:
    t = spec.observation_time(phi, theta)
    key = (spec.model_key, spec.sample, t)
    if key not in merged:
        raise KeyError(
            f"no simulated samples for {spec.name} "
            f"(model {spec.model_key}, estimand {spec.sample!r}, t={t})"
        )
    return t, merged[key]


def measure_verdict(
    spec,
    summary: MomentSummary,
    analytic: float,
    confidence: float,
    phi: float | None,
) -> MeasureVerdict:
    """Judge one constituent measure against its pooled summary."""
    raw = summary.interval(confidence)
    mean = spec.transform(raw.mean)
    interval = ConfidenceInterval(mean, raw.half_width, confidence, raw.samples)
    if spec.indicator and summary.m2 == 0.0 and summary.mean in (0.0, 1.0):
        # Degenerate indicator sample: all replications agreed, the
        # t-interval collapses; use the one-sided binomial bound on the
        # *unobserved* side instead.
        bound = rare_event_bound(summary.count, confidence)
        if mean in (0.0, 1.0):
            passed = (
                analytic <= bound if mean == 0.0 else analytic >= 1.0 - bound
            )
            half = bound
            interval = ConfidenceInterval(mean, half, confidence, summary.count)
            return MeasureVerdict(
                measure=spec.name,
                phi=phi,
                analytic=analytic,
                interval=interval,
                passed=bool(passed),
                method="rare-event",
            )
    # Tiny absolute slack so exact agreement (e.g. survival == 1.0 with
    # zero variance before any fault is possible) never fails on ulps.
    slack = 1e-12 * max(1.0, abs(analytic))
    passed = interval.low - slack <= analytic <= interval.high + slack
    return MeasureVerdict(
        measure=spec.name,
        phi=phi,
        analytic=analytic,
        interval=interval,
        passed=bool(passed),
        method="ci",
    )


def constituent_verdicts(
    merged: Mapping[tuple[str, str, float | None], MomentSummary],
    analytic_by_phi: Mapping[float, Mapping[str, float]],
    theta: float,
    confidence: float,
) -> list[MeasureVerdict]:
    """All (measure, phi) verdicts for one verification run.

    Phi-independent measures (``time`` of ``None`` or ``"theta"``) are
    judged once with ``phi=None``; phi-dependent ones once per ``phi``.
    """
    phis = sorted(analytic_by_phi)
    verdicts: list[MeasureVerdict] = []
    for spec in MEASURE_SPECS:
        if spec.time in (None, "theta"):
            reference_phi = phis[0]
            _, summary = _summary_for(merged, spec, reference_phi, theta)
            analytic = analytic_by_phi[reference_phi][spec.name]
            verdicts.append(
                measure_verdict(spec, summary, analytic, confidence, None)
            )
            continue
        for phi in phis:
            _, summary = _summary_for(merged, spec, phi, theta)
            analytic = analytic_by_phi[phi][spec.name]
            verdicts.append(
                measure_verdict(spec, summary, analytic, confidence, phi)
            )
    return verdicts


def simulated_constituents(
    merged: Mapping[tuple[str, str, float | None], MomentSummary],
    phi: float,
    theta: float,
    confidence: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Simulated means and half-widths of all nine measures at ``phi``.

    Half-widths of degenerate indicator estimands fall back to the
    rare-event bound so the composed interval never understates the
    uncertainty of an all-zero sample.
    """
    means: dict[str, float] = {}
    halves: dict[str, float] = {}
    for spec in MEASURE_SPECS:
        _, summary = _summary_for(merged, spec, phi, theta)
        interval = summary.interval(confidence)
        means[spec.name] = spec.transform(interval.mean)
        half = interval.half_width
        if spec.indicator and summary.m2 == 0.0 and interval.mean in (0.0, 1.0):
            half = rare_event_bound(summary.count, confidence)
        halves[spec.name] = half
    return means, halves


def composed_verdicts(
    merged: Mapping[tuple[str, str, float | None], MomentSummary],
    analytic_by_phi: Mapping[float, Mapping[str, float]],
    theta: float,
    confidence: float,
) -> list[ComposedVerdict]:
    """Delta-method agreement of ``E[W_phi]`` and ``Y`` at every phi."""
    verdicts: list[ComposedVerdict] = []
    for phi in sorted(analytic_by_phi):
        means, halves = simulated_constituents(merged, phi, theta, confidence)
        context = {"phi": phi, "theta": theta}
        sim = aggregate_breakdown(means, context)
        analytic = aggregate_breakdown(dict(analytic_by_phi[phi]), context)
        for quantity in ("E_Wphi", "Y"):
            gradient = _gradient(means, context, quantity)
            half = math.sqrt(
                sum(
                    (gradient[name] * halves[name]) ** 2
                    for name in gradient
                )
            )
            difference = abs(analytic[quantity] - sim[quantity])
            slack = 1e-9 * max(1.0, abs(analytic[quantity]))
            verdicts.append(
                ComposedVerdict(
                    quantity=quantity,
                    phi=phi,
                    analytic=analytic[quantity],
                    simulated=sim[quantity],
                    half_width=half,
                    passed=bool(difference <= half + slack),
                )
            )
    return verdicts


def _gradient(
    means: Mapping[str, float], context: Mapping[str, float], quantity: str
) -> dict[str, float]:
    """Central-difference sensitivities of one composed quantity."""
    gradient: dict[str, float] = {}
    base = dict(means)
    for name in base:
        delta = max(1e-7, 1e-4 * abs(base[name]))
        up = dict(base)
        down = dict(base)
        up[name] = base[name] + delta
        down[name] = base[name] - delta
        high = aggregate_breakdown(up, context)[quantity]
        low = aggregate_breakdown(down, context)[quantity]
        gradient[name] = (high - low) / (2.0 * delta)
    return gradient

"""The ``repro verify`` driver: plan, simulate, judge, archive.

One verification run is four stages:

1. **Plan** — the profile's replication budget is split into blocks
   (:class:`~repro.runtime.tasks.VerificationTask`), one set per base
   model, each block carrying its seed and block index so the RNG
   stream — and therefore the cache key — is fully determined.
2. **Simulate** — blocks execute through the campaign runtime
   (:func:`~repro.runtime.executor.execute_verify_tasks`): serial,
   thread, or process backend, with the content-addressed result cache
   serving repeated blocks bit-identically.
3. **Judge** — block moments are pooled, the analytic solution is
   computed once per ``phi``, and three verdict families are produced:
   per-measure CI containment, delta-method agreement of the composed
   ``E[W_phi]`` / ``Y``, and the metamorphic invariants of the analytic
   solution itself.
4. **Archive** — a ``verify-<profile>-<stamp>/`` run directory with a
   provenance manifest (seed, tasks, cache statistics, code version)
   and the full verdict matrix as ``verdicts.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from repro.gsu.measures import ConstituentSolver
from repro.runtime.artifacts import MANIFEST_VERSION, _unique_run_dir, code_version
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.campaign import get_config
from repro.runtime.executor import TaskOutcome, execute_verify_tasks
from repro.runtime.tasks import VerificationTask
from repro.verify.conformance import (
    ComposedVerdict,
    MeasureVerdict,
    VerifyProfile,
    composed_verdicts,
    constituent_verdicts,
    resolve_profile,
    sidak_confidence,
    verdict_family_size,
)
from repro.verify.estimators import MODEL_KEYS, merge_block_records
from repro.verify.invariants import InvariantCheck, check_all


@dataclass(frozen=True)
class VerifyArtifacts:
    """Locations of one verification run's artifacts."""

    run_dir: Path
    manifest_path: Path
    verdicts_path: Path


@dataclass(frozen=True)
class ConformanceReport:
    """Everything produced by one verification run.

    Attributes
    ----------
    profile:
        The resolved profile that ran.
    measures:
        Per-(measure, phi) conformance verdicts, spec order.
    composed:
        Delta-method verdicts for ``E[W_phi]`` and ``Y`` per phi.
    invariants:
        Metamorphic invariant checks of the analytic solution.
    outcomes:
        Per-block execution records, plan order.
    cache_stats:
        This run's cache counters (``None`` when caching was off).
    wall_seconds:
        End-to-end wall time.
    artifacts:
        Artifact locations (``None`` when artifacts were off).
    """

    profile: VerifyProfile
    measures: tuple[MeasureVerdict, ...]
    composed: tuple[ComposedVerdict, ...]
    invariants: tuple[InvariantCheck, ...]
    outcomes: tuple[TaskOutcome, ...]
    cache_stats: CacheStats | None
    wall_seconds: float
    artifacts: VerifyArtifacts | None

    @property
    def passed(self) -> bool:
        """True when every verdict and every invariant passed."""
        return (
            all(v.passed for v in self.measures)
            and all(v.passed for v in self.composed)
            and all(c.passed for c in self.invariants)
        )

    @property
    def failures(self) -> list[str]:
        """Human-readable labels of everything that failed."""
        labels: list[str] = []
        for verdict in self.measures:
            if not verdict.passed:
                at = "" if verdict.phi is None else f" @ phi={verdict.phi:g}"
                labels.append(f"measure {verdict.measure}{at}")
        for verdict in self.composed:
            if not verdict.passed:
                labels.append(f"composed {verdict.quantity} @ phi={verdict.phi:g}")
        for check in self.invariants:
            if not check.passed:
                at = "" if check.phi is None else f" @ phi={check.phi:g}"
                labels.append(f"invariant {check.name}{at}")
        return labels

    @property
    def simulation_seconds(self) -> float:
        """Total time spent inside the trajectory simulator."""
        return sum(outcome.seconds for outcome in self.outcomes)

    @property
    def blocks_computed(self) -> int:
        """Blocks actually simulated (not served from cache)."""
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    def verdict_matrix(self) -> dict:
        """The JSON-ready verdict matrix (what ``verdicts.json`` holds)."""
        return {
            "profile": self.profile.name,
            "confidence": self.profile.confidence,
            "per_test_confidence": sidak_confidence(
                self.profile.confidence, verdict_family_size(self.profile.phis)
            ),
            "seed": self.profile.seed,
            "replications": self.profile.replications,
            "phis": list(self.profile.phis),
            "passed": self.passed,
            "measures": [v.to_dict() for v in self.measures],
            "composed": [v.to_dict() for v in self.composed],
            "invariants": [c.to_dict() for c in self.invariants],
        }


def plan_verify_tasks(profile: VerifyProfile) -> tuple[VerificationTask, ...]:
    """Expand a profile into its ordered verification blocks.

    Model-major, block order within each model.  Every block carries the
    profile seed and its own block index, which together select its RNG
    stream — so the plan (and each block's cache key) is a pure function
    of the profile.
    """
    tasks: list[VerificationTask] = []
    for model_key in MODEL_KEYS:
        steady = model_key == "RMGp"
        for block, size in enumerate(profile.block_sizes()):
            tasks.append(
                VerificationTask(
                    index=len(tasks),
                    model_key=model_key,
                    kind="steady" if steady else "transient",
                    params=profile.params,
                    phis=tuple(float(p) for p in profile.phis),
                    replications=size,
                    block=block,
                    seed=profile.seed,
                    steady_horizon=profile.steady_horizon if steady else None,
                    steady_warmup=profile.steady_warmup if steady else None,
                )
            )
    return tuple(tasks)


def analytic_solutions(profile: VerifyProfile) -> dict[float, dict[str, float]]:
    """The analytic constituent solutions at every profile phi."""
    solver = ConstituentSolver(profile.params)
    rows = solver.batch([float(p) for p in profile.phis])
    return {float(phi): row for phi, row in zip(profile.phis, rows)}


def surrogate_solutions(
    profile: VerifyProfile, surrogate
) -> dict[float, dict[str, float]]:
    """Surrogate-answered constituents at every profile phi.

    Substituting these for :func:`analytic_solutions` re-validates the
    surrogate end to end: its answers must sit inside the simulated
    confidence intervals under the same Šidák family-wise verdicts the
    exact solution is held to.  Raises
    :class:`~repro.surrogate.model.OutOfDomainError` when the profile
    strays outside the fitted box — a surrogate is never conformance-
    checked on points it would refuse to serve.
    """
    rows = surrogate.constituents_grid(
        profile.params, [float(p) for p in profile.phis]
    )
    return {float(phi): row for phi, row in zip(profile.phis, rows)}


def write_verify_artifacts(
    root: Path | str,
    profile: VerifyProfile,
    report: "ConformanceReport",
    backend: str,
    jobs: int,
    cache: ResultCache | None = None,
) -> VerifyArtifacts:
    """Write the manifest and verdict matrix for one verification run."""
    run_dir = _unique_run_dir(Path(root), f"verify-{profile.name}")
    run_dir.mkdir(parents=True, exist_ok=False)

    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "verify",
        "profile": {
            "name": profile.name,
            "phis": list(profile.phis),
            "replications": profile.replications,
            "block_size": profile.block_size,
            "steady_horizon": profile.steady_horizon,
            "steady_warmup": profile.steady_warmup,
            "confidence": profile.confidence,
            "seed": profile.seed,
        },
        "code_version": code_version(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backend": backend,
        "jobs": jobs,
        "wall_seconds": report.wall_seconds,
        "simulation_seconds": report.simulation_seconds,
        "passed": report.passed,
        "cache": {
            "enabled": cache is not None,
            "dir": str(cache.root) if cache is not None else None,
            "schema_version": cache.schema_version if cache is not None else None,
            **(
                (report.cache_stats or cache.stats).to_dict()
                if cache is not None
                else {}
            ),
        },
        "tasks": [
            {
                "index": outcome.task.index,
                "model": outcome.task.model_key,
                "kind": outcome.task.kind,
                "block": outcome.task.block,
                "replications": outcome.task.replications,
                "seed": outcome.task.seed,
                "key": outcome.key or outcome.task.cache_key(),
                "seconds": outcome.seconds,
                "cached": outcome.cached,
            }
            for outcome in report.outcomes
        ],
    }

    manifest_path = run_dir / "manifest.json"
    verdicts_path = run_dir / "verdicts.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    verdicts_path.write_text(
        json.dumps(report.verdict_matrix(), indent=2, sort_keys=True) + "\n"
    )
    return VerifyArtifacts(
        run_dir=run_dir, manifest_path=manifest_path, verdicts_path=verdicts_path
    )


def run_verify(
    profile: VerifyProfile | str,
    phis: Sequence[float] | None = None,
    replications: int | None = None,
    seed: int | None = None,
    confidence: float | None = None,
    backend: str | None = None,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    cache_dir: Path | str | None = None,
    no_cache: bool = False,
    artifacts_dir: Path | str | None = None,
    surrogate=None,
) -> ConformanceReport:
    """Run one full verification campaign and return its report.

    ``profile`` may be a profile name (with optional ``phis`` /
    ``replications`` / ``seed`` / ``confidence`` overrides) or an
    already-resolved :class:`VerifyProfile`.  Execution options default
    to the installed :class:`~repro.runtime.campaign.RuntimeConfig`,
    exactly like :func:`~repro.runtime.campaign.run_campaign`.

    ``surrogate`` swaps the analytic solution for the surrogate's
    answers: the verdict matrix then certifies the *surrogate* against
    simulation at the same family-wise confidence.
    """
    if isinstance(profile, str):
        profile = resolve_profile(
            profile,
            phis=phis,
            replications=replications,
            seed=seed,
            confidence=confidence,
        )
    config = get_config()
    backend = backend if backend is not None else config.backend
    jobs = jobs if jobs is not None else config.jobs
    if artifacts_dir is None:
        artifacts_dir = config.artifacts_dir
    if no_cache:
        cache = None
    elif cache is None:
        if cache_dir is not None:
            cache = ResultCache(root=Path(cache_dir))
        else:
            cache = config.make_cache()

    stats_before = replace(cache.stats) if cache is not None else None
    start = time.perf_counter()
    tasks = plan_verify_tasks(profile)
    outcomes = execute_verify_tasks(tasks, backend=backend, jobs=jobs, cache=cache)
    merged = merge_block_records([outcome.record for outcome in outcomes])
    if surrogate is not None:
        analytic_by_phi = surrogate_solutions(profile, surrogate)
    else:
        analytic_by_phi = analytic_solutions(profile)

    # The profile confidence is family-wise: every statistical verdict
    # is judged at the Šidák-adjusted per-test level so the whole
    # verdict matrix false-fails with probability at most
    # ``1 - confidence``, independent of how many phis are checked.
    theta = profile.params.theta
    per_test = sidak_confidence(
        profile.confidence, verdict_family_size(profile.phis)
    )
    measures = constituent_verdicts(merged, analytic_by_phi, theta, per_test)
    composed = composed_verdicts(merged, analytic_by_phi, theta, per_test)
    invariants = check_all(analytic_by_phi, profile.params)
    wall_seconds = time.perf_counter() - start

    run_stats = None
    if cache is not None:
        run_stats = CacheStats(
            hits=cache.stats.hits - stats_before.hits,
            misses=cache.stats.misses - stats_before.misses,
            corrupt=cache.stats.corrupt - stats_before.corrupt,
            writes=cache.stats.writes - stats_before.writes,
        )

    report = ConformanceReport(
        profile=profile,
        measures=tuple(measures),
        composed=tuple(composed),
        invariants=tuple(invariants),
        outcomes=tuple(outcomes),
        cache_stats=run_stats,
        wall_seconds=wall_seconds,
        artifacts=None,
    )
    if artifacts_dir is not None:
        artifacts = write_verify_artifacts(
            artifacts_dir, profile, report, backend=backend, jobs=jobs, cache=cache
        )
        report = replace(report, artifacts=artifacts)
    return report


def summarize_report(report: ConformanceReport) -> str:
    """A terminal-friendly summary table of one verification run."""
    lines: list[str] = []
    profile = report.profile
    lines.append(
        f"verify profile={profile.name} seed={profile.seed} "
        f"replications={profile.replications} "
        f"confidence={profile.confidence:.0%}"
    )
    lines.append(
        f"blocks: {len(report.outcomes)} total, "
        f"{report.blocks_computed} simulated, "
        f"{len(report.outcomes) - report.blocks_computed} cached "
        f"({report.simulation_seconds:.1f}s simulation, "
        f"{report.wall_seconds:.1f}s wall)"
    )
    header = f"{'measure':<22} {'phi':>8} {'analytic':>12} {'simulated':>12} {'half':>10} {'method':>10} verdict"
    lines.append(header)
    for verdict in report.measures:
        phi = "-" if verdict.phi is None else f"{verdict.phi:g}"
        lines.append(
            f"{verdict.measure:<22} {phi:>8} {verdict.analytic:>12.6g} "
            f"{verdict.interval.mean:>12.6g} {verdict.interval.half_width:>10.3g} "
            f"{verdict.method:>10} {'pass' if verdict.passed else 'FAIL'}"
        )
    for verdict in report.composed:
        lines.append(
            f"{verdict.quantity:<22} {verdict.phi:>8g} {verdict.analytic:>12.6g} "
            f"{verdict.simulated:>12.6g} {verdict.half_width:>10.3g} "
            f"{'delta':>10} {'pass' if verdict.passed else 'FAIL'}"
        )
    failed_invariants = [c for c in report.invariants if not c.passed]
    lines.append(
        f"invariants: {len(report.invariants) - len(failed_invariants)}"
        f"/{len(report.invariants)} passed"
    )
    for check in failed_invariants:
        lines.append(f"  FAIL {check.name}: {check.detail}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


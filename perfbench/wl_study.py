"""The ``study`` workload: one seeded design study, run as an analyst would.

Each cycle is the four phases of a parameter study, through the
program's public library entry points, with the runtime configuration
the CLI uses for ``--jobs nproc`` (``backend="process"``):

1. a cold :func:`repro.runtime.campaign.run_campaign` over seeded
   six-lever parameter points x a 21-point ``phi`` grid, writing a fresh
   on-disk cache;
2. a replay of the same campaign from that cache;
3. :func:`repro.surrogate.fitter.fit_surrogate` over a
   (phi, coverage, lam) box;
4. :func:`repro.synth.driver.run_synthesis` over phi, coverage and lam,
   driven by the fitted surrogate.

Cycles repeat (each with fresh points from the seed and fresh caches)
until the measured seconds are used; every timing is the median over
cycles.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from pathlib import Path

import common

#: Parameter points per cold campaign, and its phi grid step (21 points).
#: A 150-point campaign takes 3-5 s, so a run would hold too few cycles
#: for a steady median; 25 points take 0.5-0.8 s.
CURVES = 25
PHI_STEP = 500.0
#: Surrogate box: Chebyshev degrees along phi, coverage and lam.
FIT_DEGREES = (16, 4, 3)
COVERAGE_BOX = (0.80, 0.995)
LAM_BOX = (900.0, 1500.0)
#: Campaign curves per cycle re-solved directly as an answer check.
CHECKED_CURVES = 2
SETUP_REPEATS = 5
SETUP_CODE = (
    "import repro.cli, repro.runtime.campaign, repro.surrogate.fitter, "
    "repro.synth.driver\n"
    "from repro.gsu.templates import warm_templates\n"
    "warm_templates()\n"
)


def _spec(seed: int, index: int):
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.runtime.spec import CampaignSpec, CurveSpec, default_grid

    rng = random.Random(f"study-{seed}-{index}")
    grid = tuple(default_grid(PAPER_TABLE3.theta, step=PHI_STEP))
    curves = tuple(
        CurveSpec(
            label=f"point-{i}",
            params=PAPER_TABLE3.with_overrides(**common.random_levers(rng)),
            phis=grid,
        )
        for i in range(CURVES)
    )
    return CampaignSpec(name=f"study-{seed}-{index}", curves=curves), rng


def _fit_spec():
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.surrogate.spec import AxisSpec, SurrogateSpec

    base = PAPER_TABLE3
    phi_deg, coverage_deg, lam_deg = FIT_DEGREES
    return SurrogateSpec(
        params=base,
        axes=(
            AxisSpec("phi", 0.0, base.theta, phi_deg),
            AxisSpec("coverage", *COVERAGE_BOX, coverage_deg),
            AxisSpec("lam", *LAM_BOX, lam_deg),
        ),
    )


def _cycle(seed: int, index: int, work: Path) -> dict:
    """One cold campaign + replay + fit + synthesis; timings and results."""
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.runtime import campaign
    from repro.runtime.cache import ResultCache
    from repro.surrogate import fitter
    from repro.synth import driver
    from repro.synth.levers import resolve_levers
    from repro.synth.objective import SynthesisProblem
    from repro.synth.optimizer import SynthesisConfig

    jobs = os.cpu_count() or 1
    spec, rng = _spec(seed, index)
    cache_dir = work / f"campaign-{index}"

    start = time.perf_counter()
    cold = campaign.run_campaign(spec, backend="process", jobs=jobs,
                                 cache_dir=cache_dir)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    replay = campaign.run_campaign(spec, backend="process", jobs=jobs,
                                   cache_dir=cache_dir)
    replay_s = time.perf_counter() - start

    start = time.perf_counter()
    fit = fitter.fit_surrogate(
        _fit_spec(),
        config=campaign.RuntimeConfig(backend="process", jobs=jobs),
        cache=ResultCache(root=work / f"fit-{index}"),
    )
    fit_s = time.perf_counter() - start

    levers = resolve_levers(
        PAPER_TABLE3, ["phi", "coverage", "lam"],
        bounds={"coverage": COVERAGE_BOX, "lam": LAM_BOX},
    )
    start = time.perf_counter()
    synthesis = driver.run_synthesis(
        SynthesisProblem(params=PAPER_TABLE3, levers=levers),
        SynthesisConfig(),
        cache=ResultCache(root=work / f"synth-{index}"),
        surrogate=fit.model,
    )
    synth_s = time.perf_counter() - start

    points = len(cold.outcomes)
    return {
        "spec": spec,
        "rng": rng,
        "cold": cold,
        "replay": replay,
        "fit": fit,
        "synthesis": synthesis,
        "levers": levers,
        "timings": {
            "cold_s": cold_s,
            "replay_s": replay_s,
            "fit_s": fit_s,
            "synth_s": synth_s,
            "points": points,
            "points_per_s": points / cold_s,
            "replay_points_per_s": points / replay_s,
            "cycle_ms": (cold_s + replay_s + fit_s + synth_s) * 1e3,
        },
    }


def _check(cycle: dict) -> tuple[int, int, dict]:
    """Answer checks; returns (operations, mismatches, details).

    * every replayed record equals its cold record bitwise, and every
      replayed point came from the cache;
    * ``CHECKED_CURVES`` seeded curves equal a direct
      ``ConstituentSolver(params).batch`` over the same grid, bitwise;
    * the fit is certified (finite bound) and the synthesis optimum's
      reported ``Y`` equals a direct exact evaluation at that point.
    """
    from repro.gsu.measures import ConstituentSolver
    from repro.gsu.performability import evaluate_batch

    cold, replay = cycle["cold"], cycle["replay"]
    wrong = 0
    for a, b in zip(cold.outcomes, replay.outcomes):
        if a.record != b.record or not b.cached:
            wrong += 1
    if replay.tasks_computed:
        wrong += 1

    curves = cycle["rng"].sample(range(len(cold.sweeps)), CHECKED_CURVES)
    for index in curves:
        sweep = cold.sweeps[index]
        direct = ConstituentSolver(sweep.params).batch(
            [point.phi for point in sweep.points]
        )
        for point, constituents in zip(sweep.points, direct):
            if dict(point.evaluation.constituents) != constituents:
                wrong += 1

    fit = cycle["fit"]
    bound = fit.model.worst_bound
    if not 0.0 < bound < 1e-4:
        wrong += 1
    synthesis = cycle["synthesis"]
    optimum = cycle["levers"]
    point = dict(zip((lever.name for lever in optimum), synthesis.point))
    params = synthesis.problem.params.with_overrides(
        **{k: v for k, v in point.items() if k != "phi"}
    )
    direct_y = evaluate_batch(params, [point["phi"]])[0].value
    if direct_y != synthesis.y:
        wrong += 1
    operations = 2 * len(cold.outcomes) + 2
    return operations, wrong, {"bound": bound, "optimum": point,
                               "y": synthesis.y}


def _cycles(seed: int, seconds: float, work: Path, first: int,
            installation=None) -> list[dict]:
    """Cycles until ``seconds`` have passed; each checked, then discarded.

    Only timings and check results are kept: a cycle's caches are
    deleted as soon as it is checked, so memory and disk use stay flat,
    and the disk is settled (:func:`common.settle_disk`) before the next
    cycle.  Checks, deletion and settling are untimed.  The checks run
    with the span wrappers (``installation``) removed.
    """
    cycles, start = [], time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        index = first + len(cycles)
        cycle = _cycle(seed, index, work)
        if installation is not None:
            installation.uninstall()
        operations, wrong, info = _check(cycle)
        if installation is not None:
            installation.install()
        for path in work.glob(f"*-{index}"):
            shutil.rmtree(path, ignore_errors=True)
        common.settle_disk()
        cycles.append({"timings": cycle["timings"], "operations": operations,
                       "wrong": wrong, **info})
    return cycles


def run(seed: int, seconds: float, traced: bool, work: Path) -> dict:
    setups = [common.timed_python(SETUP_CODE) for _ in range(SETUP_REPEATS)]
    common.require_program()
    from repro.gsu.templates import warm_templates

    warm_templates()

    untraced = _cycles(seed, seconds / 2 if traced else seconds, work, 0)
    traced_cycles = []
    if traced:
        from tracing import Installation, Recorder, load_spans

        recorder, flush_dir = Recorder(), work / "spans"
        flush_dir.mkdir()
        installation = Installation(recorder, flush_dir).install()
        try:
            traced_cycles = _cycles(seed, seconds / 2, work, len(untraced),
                                    installation)
        finally:
            installation.uninstall()
        spans = load_spans(recorder, flush_dir)

    cycles = untraced + traced_cycles
    attempted = sum(c["operations"] for c in cycles)
    wrong = sum(c["wrong"] for c in cycles)
    details = [
        {**c["timings"], **{k: v for k, v in c.items() if k != "timings"}}
        for c in cycles
    ]

    def figures(cycles):
        return {
            name: statistics.median(c["timings"][name] for c in cycles)
            for name in ("points_per_s", "replay_points_per_s", "fit_s",
                         "synth_s", "cycle_ms")
        }

    main = figures(untraced)
    report = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "points_per_s": main["points_per_s"],
            "latency_ms": main["cycle_ms"],
        },
        "extra": {
            "replay_points_per_s": main["replay_points_per_s"],
            "fit_s": main["fit_s"],
            "synth_s": main["synth_s"],
            "failed_share": wrong / attempted,
        },
        "attempted": attempted,
        "failed": wrong,
        "wrong": wrong,
        "details": {"setup_samples_s": setups, "cycles": details},
    }
    if traced:
        from tracing import layer_metrics, self_time_table

        layers = layer_metrics(spans)
        again = figures(traced_cycles)
        layers["loadgen.late_ms_p99"] = 0.0
        layers["overhead.latency_ms"] = again["cycle_ms"] - main["cycle_ms"]
        layers["overhead.points_per_s"] = again["points_per_s"] - main["points_per_s"]
        report["layers"] = layers
        report["details"]["self_time"] = self_time_table(spans)
        report["spans"] = spans
    return report

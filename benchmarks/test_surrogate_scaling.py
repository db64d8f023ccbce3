"""Surrogate scaling benchmark: fit once, answer any point in microseconds.

The surrogate claim (``repro.surrogate``): the nine constituent
measures over the Table 3 design box are smooth enough that one
Chebyshev tensor fit replaces the exact solver for every downstream
consumer that can live with a certified ~1e-6 bound.  Four gates:

1. **Point evaluation** — a warm surrogate 9-measure evaluation is at
   least :data:`POINT_EVAL_SPEEDUP` times faster than the warm
   parametric-template exact path (compiled templates, re-stamped
   rates, batched single-point solve).
2. **Serving** — server-side warm ``/evaluate`` p50 through the
   surrogate tier beats the memory-LRU warm p50 by at least
   :data:`SERVE_P50_SPEEDUP` (both read from ``/metrics``, so protocol
   overhead cancels).
3. **Fit amortization** — the whole fit (node solves, certification,
   spot checks) costs less than a single 50-point x 24-curve campaign,
   i.e. the fit pays for itself on the first parameter study.
4. **Honest certification** — on :data:`RANDOM_CHECK_POINTS` fresh
   random in-box points the surrogate agrees with the exact solver
   within the certified per-measure bounds, and the worst certified
   bound on the Table 3 box is at most :data:`BOUND_CEILING`.

A fifth section reruns the joint synthesis study with surrogate
gradients and gates the exact-solve reduction
(:data:`SYNTH_SOLVE_REDUCTION`).

``SURROGATE_BENCH_PROFILE=smoke`` fits a reduced-degree box, shrinks
the sampling, logs every ratio without gating, and writes
``BENCH_surrogate_smoke.json`` so it never clobbers a full run's
``BENCH_surrogate.json``.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import REPORTS_DIR, publish_report, write_bench_json
from repro.analysis.tables import format_table
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.templates import shared_cache
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec
from repro.serve.loadgen import LoadProfile, request_once, run_load
from repro.serve.service import ServeConfig, start_in_thread
from repro.surrogate import (
    AxisSpec,
    SurrogateSpec,
    fit_surrogate,
    save_surrogate,
    table3_spec,
)
from repro.surrogate.model import MEASURE_NAMES
from repro.synth import (
    SynthesisConfig,
    SynthesisProblem,
    local_evaluate_fn,
    resolve_levers,
    run_synthesis,
)

#: Required warm point-eval speedup: surrogate vs parametric templates.
POINT_EVAL_SPEEDUP = 100.0

#: Required server-side warm p50 ratio: memory-LRU tier vs surrogate tier.
SERVE_P50_SPEEDUP = 5.0

#: Fresh random in-box points the certification gate re-checks.
RANDOM_CHECK_POINTS = 1000

#: Required worst certified (scaled) bound on the Table 3 box.
BOUND_CEILING = 1e-6

#: Required exact-solve reduction of surrogate-gradient synthesis.
SYNTH_SOLVE_REDUCTION = 10.0

#: The campaign the fit must undercut: a Fig. 11-sized study.
CAMPAIGN_CURVES = 24
CAMPAIGN_POINTS = 50

#: The Table 3 serving workload (the paper's 11-point phi grid).
WORKLOAD = {"step": 1000.0}


def _profile() -> str:
    return os.environ.get("SURROGATE_BENCH_PROFILE", "full")


def _results_name() -> str:
    return (
        "BENCH_surrogate_smoke.json"
        if _profile() == "smoke"
        else "BENCH_surrogate.json"
    )


def _spec() -> SurrogateSpec:
    """Full profile: the production Table 3 box; smoke: reduced degrees."""
    if _profile() == "smoke":
        base = PAPER_TABLE3
        return SurrogateSpec(
            params=base,
            axes=(
                AxisSpec("phi", 0.0, base.theta, 16),
                AxisSpec("coverage", 0.80, 0.995, 6),
            ),
        )
    return table3_spec()


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One cold fit of the profile's box, timed, saved as an artifact."""
    shared_cache().clear()
    spec = _spec()
    start = time.perf_counter()
    report = fit_surrogate(spec)
    fit_seconds = time.perf_counter() - start
    artifact = save_surrogate(
        report.model, tmp_path_factory.mktemp("surrogates")
    )
    return {
        "spec": spec,
        "report": report,
        "model": report.model,
        "artifact": artifact,
        "fit_seconds": fit_seconds,
    }


@pytest.fixture(scope="module")
def bench(fitted, request):
    """Mutable result sections; written to JSON after the module runs."""
    report = fitted["report"]
    sections = {
        "benchmark": "BENCH_surrogate",
        "profile": _profile(),
        "gated": _profile() != "smoke",
        "spec": fitted["spec"].to_dict(),
        "fit": {
            "wall_seconds": fitted["fit_seconds"],
            "solve_seconds": report.solve_seconds,
            "node_tasks": report.node_tasks,
            "cached_nodes": report.cached_nodes,
            "holdout_points": report.holdout_points,
            "spot_points": report.spot_points,
            "worst_bound": report.model.worst_bound,
            "bounds": report.model.bounds,
        },
    }

    def _write():
        write_bench_json(_results_name(), sections)

    request.addfinalizer(_write)
    return sections


def test_fit_is_certified(fitted, bench):
    """The fit produced a finite certified bound for all nine measures."""
    model = fitted["model"]
    assert set(model.bounds) == set(MEASURE_NAMES)
    assert all(0.0 < model.bounds[name] < 1.0 for name in MEASURE_NAMES)
    if _profile() != "smoke":
        assert model.worst_bound <= BOUND_CEILING, (
            f"worst certified bound {model.worst_bound:.2e} above the "
            f"{BOUND_CEILING} ceiling on the Table 3 box"
        )


def test_point_eval_speedup(fitted, bench):
    """Warm 9-measure point: surrogate vs parametric-template exact path."""
    model = fitted["model"]
    spec = fitted["spec"]
    rng = np.random.default_rng(11)
    phi_axis, cov_axis = spec.axes[0], spec.axes[1]

    surrogate_evals = 200 if _profile() != "smoke" else 50
    exact_evals = 20 if _profile() != "smoke" else 5
    points = [
        (
            float(rng.uniform(phi_axis.lo, phi_axis.hi)),
            spec.params_at(
                {"coverage": float(rng.uniform(cov_axis.lo, cov_axis.hi))}
            ),
        )
        for _ in range(max(surrogate_evals, exact_evals))
    ]

    def best_of_three(run, count):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            run()
            best = min(best, (time.perf_counter() - start) / count)
        return best

    # Warm surrogate: one throwaway eval, then time per-point cost at
    # fresh parameter sets (every point is a distinct coverage).
    model.constituents(points[0][1], points[0][0])

    def surrogate_pass():
        for phi, params in points[:surrogate_evals]:
            model.constituents(params, phi)

    surrogate_seconds = best_of_three(surrogate_pass, surrogate_evals)

    # Warm exact path: compiled templates resident, rates re-stamped per
    # coverage, one batched single-point solve per evaluation.
    solvers = [
        ConstituentSolver(params) for _, params in points[:exact_evals]
    ]
    solvers[0].batch([points[0][0]])

    def exact_pass():
        for (phi, _), solver in zip(points[:exact_evals], solvers):
            solver.batch([phi])

    exact_seconds = best_of_three(exact_pass, exact_evals)

    speedup = exact_seconds / surrogate_seconds
    bench["point_eval"] = {
        "surrogate_microseconds": surrogate_seconds * 1e6,
        "exact_microseconds": exact_seconds * 1e6,
        "speedup": speedup,
        "required_speedup": POINT_EVAL_SPEEDUP,
    }
    print(
        f"\npoint eval [{_profile()}]: surrogate "
        f"{surrogate_seconds * 1e6:.1f}us, exact "
        f"{exact_seconds * 1e6:.1f}us ({speedup:.0f}x)"
    )
    if _profile() != "smoke":
        assert speedup >= POINT_EVAL_SPEEDUP, (
            f"surrogate point eval only {speedup:.1f}x faster than the "
            f"parametric-template path (gate {POINT_EVAL_SPEEDUP}x)"
        )


def test_fit_cheaper_than_one_campaign(fitted, bench):
    """The whole fit undercuts a single 50-point x 24-curve campaign."""
    if _profile() == "smoke":
        pytest.skip("campaign comparison runs on the full profile only")
    spec = fitted["spec"]
    cov_axis = spec.axes[1]
    theta = spec.params.theta
    phis = tuple(
        i * theta / (CAMPAIGN_POINTS - 1) for i in range(CAMPAIGN_POINTS)
    )
    curves = []
    for i in range(CAMPAIGN_CURVES):
        coverage = cov_axis.lo + (cov_axis.hi - cov_axis.lo) * i / (
            CAMPAIGN_CURVES - 1
        )
        curves.append(
            CurveSpec(
                label=f"c={coverage:.4f}",
                params=spec.params_at({"coverage": round(coverage, 6)}),
                phis=phis,
            )
        )
    campaign = CampaignSpec(name="bench-surrogate-ref", curves=tuple(curves))

    shared_cache().clear()
    start = time.perf_counter()
    run_campaign(campaign, backend="serial", jobs=1)
    campaign_seconds = time.perf_counter() - start

    bench["fit_vs_campaign"] = {
        "fit_seconds": fitted["fit_seconds"],
        "campaign_seconds": campaign_seconds,
        "campaign_curves": CAMPAIGN_CURVES,
        "campaign_points": CAMPAIGN_POINTS,
    }
    assert fitted["fit_seconds"] < campaign_seconds, (
        f"fit took {fitted['fit_seconds']:.2f}s, more than the "
        f"{CAMPAIGN_CURVES}x{CAMPAIGN_POINTS}-point campaign "
        f"({campaign_seconds:.2f}s)"
    )


def test_random_points_within_certified_bound(fitted, bench):
    """Fresh random in-box points agree with the exact solver."""
    model = fitted["model"]
    spec = fitted["spec"]
    total = RANDOM_CHECK_POINTS if _profile() != "smoke" else 100
    phis_per_group = 20
    groups = total // phis_per_group
    rng = np.random.default_rng(2024)
    phi_axis, cov_axis = spec.axes[0], spec.axes[1]

    violations = 0
    worst_margin = 0.0  # scaled residual / certified bound, max over all
    for _ in range(groups):
        coverage = float(rng.uniform(cov_axis.lo, cov_axis.hi))
        phis = [
            float(p)
            for p in rng.uniform(phi_axis.lo, phi_axis.hi, phis_per_group)
        ]
        params = spec.params_at({"coverage": coverage})
        exact = ConstituentSolver(params).batch(phis)
        approx = model.constituents_grid(params, phis)
        for entry, row in zip(exact, approx):
            for name in MEASURE_NAMES:
                scaled = abs(row[name] - entry[name]) / model.scales[name]
                margin = scaled / model.bounds[name]
                worst_margin = max(worst_margin, margin)
                if scaled > model.bounds[name]:
                    violations += 1

    bench["certification"] = {
        "random_points": groups * phis_per_group,
        "violations": violations,
        "worst_margin_of_bound": worst_margin,
        "worst_bound": model.worst_bound,
        "bound_ceiling": None if _profile() == "smoke" else BOUND_CEILING,
    }
    print(
        f"\ncertification [{_profile()}]: {groups * phis_per_group} points, "
        f"worst residual at {worst_margin:.2f}x of its certified bound"
    )
    assert violations == 0, (
        f"{violations} exact-vs-surrogate residuals exceeded the "
        f"certified bounds (worst at {worst_margin:.2f}x)"
    )


def _serve_warm_p50(surrogate) -> tuple[float, dict]:
    """Boot a server, drive the Table 3 workload warm, read its p50.

    Returns the *server-side* ``/evaluate`` p50 (milliseconds, from the
    service's own latency recorder) and the full ``/metrics`` payload.
    """
    requests = 120 if _profile() != "smoke" else 40
    shared_cache().clear()
    handle = start_in_thread(
        ServeConfig(port=0, jobs=2, warm=False, surrogate=surrogate)
    )
    try:
        host, port = handle.address
        status, _, _ = request_once(
            host, port, "/evaluate", "POST", WORKLOAD, timeout=300
        )
        assert status == 200
        result = run_load(
            host,
            port,
            LoadProfile(
                mode="closed", requests=requests, concurrency=1, body=WORKLOAD
            ),
        )
        assert result.errors == 0
        _, _, metrics = request_once(host, port, "/metrics")
    finally:
        handle.stop()
    return metrics["latency"]["evaluate"]["p50_ms"], metrics


def test_serve_surrogate_tier_p50(fitted, bench):
    """Warm /evaluate p50: surrogate tier vs memory-LRU tier."""
    exact_p50, exact_metrics = _serve_warm_p50(surrogate=None)
    surr_p50, surr_metrics = _serve_warm_p50(surrogate=fitted["artifact"])

    # The surrogate server must have answered everything itself: the
    # whole workload is in-box, so the solver never dispatches.
    assert surr_metrics["surrogate"]["requests"] > 0
    assert surr_metrics["surrogate"]["fallbacks"] == 0
    assert surr_metrics["solver"]["points_solved"] == 0

    speedup = exact_p50 / surr_p50 if surr_p50 else float("inf")
    bench["serve"] = {
        "memory_lru_p50_ms": exact_p50,
        "surrogate_p50_ms": surr_p50,
        "speedup": speedup,
        "required_speedup": SERVE_P50_SPEEDUP,
        "surrogate_points": surr_metrics["surrogate"]["points"],
        "memory_hits": exact_metrics["cache"]["memory"]["hits"],
    }
    print(
        f"\nserve p50 [{_profile()}]: memory-LRU {exact_p50:.3f}ms, "
        f"surrogate {surr_p50:.3f}ms ({speedup:.1f}x)"
    )
    if _profile() != "smoke":
        assert speedup >= SERVE_P50_SPEEDUP, (
            f"surrogate tier p50 only {speedup:.1f}x better than the "
            f"memory-LRU tier (gate {SERVE_P50_SPEEDUP}x)"
        )


def test_synthesis_exact_solve_reduction(fitted, bench):
    """Surrogate gradients reach the FD optimum with far fewer solves."""
    model = fitted["model"]
    spec = fitted["spec"]
    cov_axis = spec.axes[1]
    levers = resolve_levers(
        PAPER_TABLE3,
        ["phi", "coverage"],
        bounds={"coverage": (cov_axis.lo + 0.01, cov_axis.hi - 0.005)},
    )
    problem = SynthesisProblem(params=PAPER_TABLE3, levers=levers)
    config = SynthesisConfig(max_iters=8, starts=1)
    evaluate_fn = local_evaluate_fn()

    fd = run_synthesis(problem, config, evaluate_fn=evaluate_fn)
    surr = run_synthesis(
        problem, config, evaluate_fn=evaluate_fn, surrogate=model
    )

    reduction = fd.points_evaluated / max(surr.points_evaluated, 1)
    bench["synthesis"] = {
        "fd_exact_solves": fd.points_evaluated,
        "surrogate_exact_solves": surr.points_evaluated,
        "surrogate_points": surr.surrogate_points,
        "reduction": reduction,
        "required_reduction": SYNTH_SOLVE_REDUCTION,
        "fd_y": fd.y,
        "surrogate_y": surr.y,
    }
    print(
        f"\nsynthesis [{_profile()}]: FD {fd.points_evaluated} exact solves, "
        f"surrogate {surr.points_evaluated} ({reduction:.0f}x fewer, "
        f"{surr.surrogate_points} surrogate points)"
    )

    # Both searches answer the same design question.
    for lever in levers:
        delta = abs(surr.optimum()[lever.name] - fd.optimum()[lever.name])
        span = lever.upper - lever.lower
        assert delta <= 1e-3 * span, (
            f"surrogate optimum drifted {delta:.3g} on {lever.name} "
            f"(span {span:.3g})"
        )
    assert abs(surr.y - fd.y) <= 1e-6 * max(1.0, abs(fd.y))
    if _profile() != "smoke":
        assert reduction >= SYNTH_SOLVE_REDUCTION


def test_summary_report(fitted, bench):
    """Human-readable roll-up next to the JSON (runs last)."""
    model = fitted["model"]
    rows = [
        ["fit wall s", f"{fitted['fit_seconds']:.2f}", ""],
        ["worst certified bound", f"{model.worst_bound:.2e}", ""],
    ]
    if "point_eval" in bench:
        rows.append(
            [
                "point eval speedup",
                f"{bench['point_eval']['speedup']:.0f}x",
                f">= {POINT_EVAL_SPEEDUP:.0f}x",
            ]
        )
    if "serve" in bench:
        rows.append(
            [
                "serve p50 speedup",
                f"{bench['serve']['speedup']:.1f}x",
                f">= {SERVE_P50_SPEEDUP:.0f}x",
            ]
        )
    if "synthesis" in bench:
        rows.append(
            [
                "synth exact-solve reduction",
                f"{bench['synthesis']['reduction']:.0f}x",
                f">= {SYNTH_SOLVE_REDUCTION:.0f}x",
            ]
        )
    report = format_table(
        ["metric", "measured", "gate"],
        rows,
        title=f"surrogate benchmark ({_profile()} profile)",
    )
    publish_report("BENCH_surrogate", report)
    assert (REPORTS_DIR / "BENCH_surrogate.txt").exists()

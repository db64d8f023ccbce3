"""Synthesis cost: parametric templates + step cache vs naive re-solve.

The synthesis claim: a joint optimization over the Table 3 design
space is affordable because (a) every point evaluation re-stamps rates
onto a *parametric template* instead of re-exploring the SAN state
space, and (b) every projected-gradient step is a content-addressed
``synth.step`` record, so repeating (or resuming) a study replays its
trajectories from the cache without a single solve.

Three timed passes over the identical problem:

* **naive** — :func:`naive_evaluate`, no cache: every call rebuilds the
  four models from scratch (``ConstituentSolver(params,
  parametric=False)``) and solves afresh (the baseline a per-point
  re-solve harness would);
* **cold**  — templates + solver LRU, empty step cache;
* **warm**  — same evaluator, same cache: a full replay.

Writes ``benchmarks/reports/BENCH_synth.json``; the full profile gates
``naive / warm >= SYNTH_BENCH_SPEEDUP`` and checks that all passes
agree on the optimum.  ``SYNTH_BENCH_PROFILE=smoke`` shrinks the
search, writes ``BENCH_synth_smoke.json``, and only logs the ratios.
"""

import os
import time

from benchmarks.conftest import REPORTS_DIR, write_bench_json
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.runtime.cache import MemoryLRUCache
from repro.synth import (
    SynthesisConfig,
    SynthesisProblem,
    local_evaluate_fn,
    overhead_from_constituents,
    resolve_levers,
    run_synthesis,
)

#: Required naive-run / warm-replay ratio (full profile only).
SYNTH_BENCH_SPEEDUP = 3.0


def naive_evaluate(params, phis):
    """``[(Y, overhead), ...]`` with no template and no solver reuse."""
    solver = ConstituentSolver(params, parametric=False)
    return [
        (e.value, overhead_from_constituents(e.constituents))
        for e in evaluate_batch(params, list(phis), solver=solver)
    ]


def _profile() -> str:
    return os.environ.get("SYNTH_BENCH_PROFILE", "full")


def _results_path():
    name = (
        "BENCH_synth_smoke.json"
        if _profile() == "smoke"
        else "BENCH_synth.json"
    )
    return REPORTS_DIR / name


def test_synthesis_templates_and_cache_speedup():
    smoke = _profile() == "smoke"
    config = (
        SynthesisConfig(max_iters=4, starts=1)
        if smoke
        else SynthesisConfig(max_iters=12, starts=2)
    )
    levers = resolve_levers(
        PAPER_TABLE3, ["phi", "coverage"], bounds={"coverage": (0.8, 0.99)}
    )
    problem = SynthesisProblem(params=PAPER_TABLE3, levers=levers)

    def timed(evaluate_fn, cache):
        start = time.perf_counter()
        result = run_synthesis(
            problem, config, cache=cache, evaluate_fn=evaluate_fn
        )
        return result, time.perf_counter() - start

    naive_result, naive_seconds = timed(naive_evaluate, cache=None)
    cache = MemoryLRUCache()
    fast_fn = local_evaluate_fn()
    cold_result, cold_seconds = timed(fast_fn, cache)
    warm_result, warm_seconds = timed(fast_fn, cache)

    # All passes answer the same design question.
    assert cold_result.point == naive_result.point
    assert abs(cold_result.y - naive_result.y) <= 1e-9 * abs(naive_result.y)
    assert warm_result.point == cold_result.point
    assert warm_result.y == cold_result.y  # bitwise: replayed records
    assert warm_result.steps_computed == 0
    assert warm_result.points_evaluated == 0

    speedup_templates = naive_seconds / max(cold_seconds, 1e-9)
    speedup_cache = naive_seconds / max(warm_seconds, 1e-9)
    payload = {
        "profile": _profile(),
        "params": "PAPER_TABLE3",
        "levers": [
            {"name": s.name, "lower": s.lower, "upper": s.upper}
            for s in levers
        ],
        "config": {"max_iters": config.max_iters, "starts": config.starts},
        "optimum": cold_result.optimum(),
        "y": cold_result.y,
        "points_evaluated": {
            "naive": naive_result.points_evaluated,
            "cold": cold_result.points_evaluated,
            "warm": warm_result.points_evaluated,
        },
        "seconds": {
            "naive": naive_seconds,
            "cold": cold_seconds,
            "warm": warm_seconds,
        },
        "speedup": {
            "templates_cold": speedup_templates,
            "templates_plus_cache_warm": speedup_cache,
        },
        "speedup_gate": None if smoke else SYNTH_BENCH_SPEEDUP,
    }
    write_bench_json(_results_path().name, payload)
    print(
        f"\nsynth bench [{_profile()}]: naive {naive_seconds:.2f}s, "
        f"cold {cold_seconds:.2f}s ({speedup_templates:.1f}x), "
        f"warm {warm_seconds:.3f}s ({speedup_cache:.1f}x)"
    )

    if not smoke:
        assert speedup_cache >= SYNTH_BENCH_SPEEDUP, (
            f"templates+cache speedup {speedup_cache:.2f}x below the "
            f"{SYNTH_BENCH_SPEEDUP}x gate (naive {naive_seconds:.2f}s, "
            f"warm {warm_seconds:.3f}s)"
        )

"""Scaling benchmarks for the campaign runtime.

Three engineering claims about ``repro.runtime``:

1. **Warm cache eliminates solver work.**  Rerunning a Fig. 9-sized
   campaign against a populated content-addressed cache performs *zero*
   constituent-solver invocations (counted by wrapping the executor's
   ``evaluate_batch``) and returns bit-identical curves.
2. **The process backend shortens the wall clock.**  On a machine with
   enough cores, a dense Fig. 9 campaign at ``jobs=4`` beats the serial
   run by >1.5x while producing bit-identical numbers.  The speedup
   assertion is skipped honestly on boxes without the cores to show it;
   the determinism and cache claims run everywhere.
3. **Batched per-curve solves beat point-by-point.**  A cold 50-point
   single-worker campaign (one solver pass per model and reward
   structure) is at least 5x faster than the point-by-point reference
   (an ``evaluate_index`` loop on one shared solver), with
   machine-readable numbers in ``benchmarks/reports/BENCH_sweep.json``.
"""

import os
import time

import pytest

from benchmarks.conftest import publish_report, write_bench_json
from repro.analysis.tables import format_table
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch, evaluate_index
from repro.runtime import executor
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec, figure_campaign

CPU_COUNT = os.cpu_count() or 1

#: Cores needed for the jobs=4 speedup claim to be meaningful.
SPEEDUP_CORES = 4


class CountingEvaluate:
    """Wraps ``evaluate_batch`` and counts the points it solves."""

    def __init__(self):
        self.calls = 0

    def __call__(self, params, phis, solver=None):
        self.calls += len(phis)
        return evaluate_batch(params, phis, solver=solver)


def _counted_campaign(spec, cache):
    """``(wall seconds, result, solve counter)`` of one serial run."""
    counter = CountingEvaluate()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "evaluate_batch", counter)
        start = time.perf_counter()
        result = run_campaign(spec, cache=cache)
        wall = time.perf_counter() - start
    return wall, result, counter


@pytest.fixture(scope="module")
def cold_warm(tmp_path_factory):
    """Run FIG9 cold then warm against one cache; return both passes."""
    cache = ResultCache(root=tmp_path_factory.mktemp("campaign-cache"))
    spec = figure_campaign("FIG9")

    cold_wall, cold, cold_counter = _counted_campaign(spec, cache)
    warm_wall, warm, warm_counter = _counted_campaign(spec, cache)

    report = format_table(
        ["pass", "wall s", "solver calls", "cache hits", "cache misses"],
        [
            ["cold", cold_wall, cold_counter.calls,
             cold.cache_stats.hits, cold.cache_stats.misses],
            ["warm", warm_wall, warm_counter.calls,
             warm.cache_stats.hits, warm.cache_stats.misses],
        ],
        title="FIG9 campaign: cold vs warm content-addressed cache",
    )
    publish_report("CAMPAIGN_CACHE", report)
    return {
        "cache": cache,
        "spec": spec,
        "cold": cold,
        "warm": warm,
        "cold_calls": cold_counter.calls,
        "warm_calls": warm_counter.calls,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
    }


def test_warm_rerun_is_solver_free(cold_warm):
    assert cold_warm["cold_calls"] == cold_warm["spec"].num_points
    assert cold_warm["warm_calls"] == 0
    assert cold_warm["warm"].tasks_computed == 0
    assert cold_warm["warm"].cache_stats.hit_rate == 1.0


def test_warm_rerun_is_bit_identical(cold_warm):
    for cold_sweep, warm_sweep in zip(
        cold_warm["cold"].sweeps, cold_warm["warm"].sweeps
    ):
        assert warm_sweep.phis == cold_sweep.phis
        assert warm_sweep.values == cold_sweep.values


def test_warm_rerun_is_faster(cold_warm):
    # A cache hit is a JSON read; a miss is a CTMC solve.  Even on a
    # noisy box the warm pass wins comfortably.
    assert cold_warm["warm_wall"] < cold_warm["cold_wall"]


def test_warm_campaign_kernel(benchmark, cold_warm):
    """pytest-benchmark timing of a fully cached FIG9 campaign."""
    cache, spec = cold_warm["cache"], cold_warm["spec"]

    def kernel():
        return run_campaign(spec, cache=cache).tasks_computed

    assert benchmark(kernel) == 0


@pytest.mark.skipif(
    CPU_COUNT < SPEEDUP_CORES,
    reason=f"jobs=4 speedup needs >={SPEEDUP_CORES} CPUs, "
    f"machine has {CPU_COUNT}",
)
def test_process_backend_speedup():
    """Dense Fig. 9 campaign: process backend at jobs=4 vs serial."""
    spec = figure_campaign("FIG9", step=250.0)

    start = time.perf_counter()
    serial = run_campaign(spec, backend="serial", jobs=1)
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_campaign(spec, backend="process", jobs=4)
    parallel_wall = time.perf_counter() - start

    speedup = serial_wall / parallel_wall
    report = format_table(
        ["backend", "jobs", "points", "wall s"],
        [
            ["serial", 1, spec.num_points, serial_wall],
            ["process", 4, spec.num_points, parallel_wall],
        ],
        title=f"FIG9 (step 250) campaign speedup: {speedup:.2f}x "
        f"on {CPU_COUNT} CPUs",
    )
    publish_report("CAMPAIGN_SPEEDUP", report)

    for serial_sweep, parallel_sweep in zip(serial.sweeps, parallel.sweeps):
        assert parallel_sweep.values == serial_sweep.values
    assert speedup > 1.5


#: Points in the batched-vs-per-point sweep benchmark.
BATCH_BENCH_POINTS = 50

#: Required cold single-worker speedup of the batched path.
BATCH_BENCH_SPEEDUP = 5.0


def _best_of_three(run) -> tuple[float, list[float]]:
    """Best-of-three wall time of ``run()`` and its ``Y`` values."""
    best_wall, best = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        values = run()
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall, best = wall, values
    return best_wall, best


def _batched(spec: CampaignSpec) -> list[float]:
    """A cold serial campaign (solver compile included each time)."""
    return run_campaign(spec, backend="serial", jobs=1).sweeps[0].values


def _per_point(spec: CampaignSpec) -> list[float]:
    """The reference: one ``evaluate_index`` per point, shared solver."""
    (curve,) = spec.curves
    solver = ConstituentSolver(curve.params)
    return [
        evaluate_index(curve.params, phi, solver=solver).value
        for phi in curve.grid()
    ]


def test_batched_sweep_speedup():
    """Cold 50-point single-worker sweep: batched vs point-by-point."""
    theta = PAPER_TABLE3.theta
    phis = tuple(
        i * theta / (BATCH_BENCH_POINTS - 1) for i in range(BATCH_BENCH_POINTS)
    )
    spec = CampaignSpec(
        name="bench-sweep",
        curves=(CurveSpec(label="base", params=PAPER_TABLE3, phis=phis),),
    )

    batched_wall, batched = _best_of_three(lambda: _batched(spec))
    per_point_wall, per_point = _best_of_three(lambda: _per_point(spec))
    speedup = per_point_wall / batched_wall

    payload = {
        "benchmark": "BENCH_sweep",
        "description": (
            "cold single-worker Y(phi) sweep, batched per-curve solver "
            "vs point-by-point"
        ),
        "points": BATCH_BENCH_POINTS,
        "batched": {
            "wall_seconds": batched_wall,
            "points_per_second": BATCH_BENCH_POINTS / batched_wall,
        },
        "per_point": {
            "wall_seconds": per_point_wall,
            "points_per_second": BATCH_BENCH_POINTS / per_point_wall,
        },
        "speedup": speedup,
        "required_speedup": BATCH_BENCH_SPEEDUP,
    }
    write_bench_json("BENCH_sweep", payload)
    report = format_table(
        ["path", "wall s", "points/s"],
        [
            ["batched", batched_wall, BATCH_BENCH_POINTS / batched_wall],
            ["per-point", per_point_wall, BATCH_BENCH_POINTS / per_point_wall],
        ],
        title=f"50-point sweep: batched is {speedup:.1f}x faster",
    )
    publish_report("BENCH_sweep", report)

    assert batched == per_point
    assert speedup >= BATCH_BENCH_SPEEDUP

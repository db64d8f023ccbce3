"""The executor's chunk plan, write-back and failure handling.

A chunk is one whole curve unless there are fewer curves than workers
and the curve is longer than ``MIN_SPLIT_POINTS``.  Cache entries are
written as each chunk completes, the first failing chunk cancels every
chunk not yet started, and none of this changes a record, a cache key
or a stored cache entry.
"""

import threading

import numpy as np
import pytest

from repro.gsu.fleet import FleetParameters
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.runtime import executor
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.executor import (
    MIN_SPLIT_POINTS,
    execute_fleet_tasks,
    execute_surrogate_tasks,
    execute_tasks,
    execute_verify_tasks,
)
from repro.runtime.spec import CampaignSpec, CurveSpec, default_grid
from repro.runtime.tasks import (
    SurrogateFitTask,
    group_by_params,
    order_groups_by_structure,
    plan_campaign,
    plan_fleet_tasks,
)
from repro.verify.conformance import resolve_profile
from repro.verify.runner import plan_verify_tasks
from tests.conftest import store_rows

GRID = tuple(default_grid(PAPER_TABLE3.theta, step=500.0))  # 21 points


def _spec(curves, phis=GRID):
    return CampaignSpec(
        name="dispatch",
        curves=tuple(
            CurveSpec(
                label=f"c{i}",
                params=PAPER_TABLE3.with_overrides(coverage=0.90 + 0.002 * i),
                phis=tuple(phis),
            )
            for i in range(curves)
        ),
    )


class ChunkSpy:
    """Stands in for a chunk worker: records chunk lengths, solves nothing."""

    def __init__(self):
        self.lengths = []
        self._lock = threading.Lock()

    def points(self, params, phis):
        return self._record(phis)

    def fleet(self, params, mode, phis):
        return self._record(phis)

    def _record(self, phis):
        with self._lock:
            self.lengths.append(len(phis))
        return [({"phi": phi}, 0.0) for phi in phis]


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a single chunk must not start a pool")


@pytest.fixture
def spy(monkeypatch):
    spy = ChunkSpy()
    monkeypatch.setattr(executor, "_solve_points", spy.points)
    monkeypatch.setattr(executor, "_solve_fleet_chunk", spy.fleet)
    return spy


class TestChunkPlan:
    def test_one_chunk_per_curve(self, spy):
        execute_tasks(plan_campaign(_spec(25)), backend="thread", jobs=2)
        assert spy.lengths == [len(GRID)] * 25

    def test_single_curve_is_one_chunk_without_a_pool(self, spy, monkeypatch):
        monkeypatch.setattr(executor, "ProcessPoolExecutor", NoPool)
        execute_tasks(plan_campaign(_spec(1)), backend="process", jobs=2)
        assert spy.lengths == [len(GRID)]

    def test_fleet_curve_is_one_chunk_without_a_pool(self, spy, monkeypatch):
        monkeypatch.setattr(executor, "ProcessPoolExecutor", NoPool)
        params = FleetParameters(n_processes=3)
        phis = [i * params.theta / 10 for i in range(11)]
        execute_fleet_tasks(
            plan_fleet_tasks(params, phis), backend="process", jobs=2
        )
        assert spy.lengths == [11]

    def test_long_curve_split_across_idle_workers(self, spy):
        points = MIN_SPLIT_POINTS + 1
        phis = np.linspace(0.0, PAPER_TABLE3.theta, points)
        execute_tasks(plan_campaign(_spec(1, phis)), backend="thread", jobs=2)
        assert sorted(spy.lengths) == [points // 2, points - points // 2]

    def test_serial_backend_never_splits(self, spy):
        points = MIN_SPLIT_POINTS + 1
        phis = np.linspace(0.0, PAPER_TABLE3.theta, points)
        execute_tasks(plan_campaign(_spec(1, phis)), backend="serial", jobs=2)
        assert spy.lengths == [points]

    def test_long_curves_not_split_without_idle_workers(self, spy):
        points = MIN_SPLIT_POINTS + 1
        phis = np.linspace(0.0, PAPER_TABLE3.theta, points)
        execute_tasks(plan_campaign(_spec(2, phis)), backend="thread", jobs=2)
        assert spy.lengths == [points, points]

    def test_explicit_chunk_size_wins(self, spy):
        execute_tasks(
            plan_campaign(_spec(2)), backend="thread", jobs=2, chunk_size=6
        )
        assert sorted(spy.lengths) == [3, 3, 6, 6, 6, 6, 6, 6]


class TestCacheFiles:
    def test_cache_tree_independent_of_chunking(self, tmp_path):
        spec = _spec(3)
        run_campaign(
            spec, backend="process", jobs=2, cache_dir=tmp_path / "whole"
        )
        run_campaign(
            spec, backend="process", jobs=2, chunk_size=6,
            cache_dir=tmp_path / "chunked",
        )
        whole = sorted(store_rows(tmp_path / "whole").items())
        assert len(whole) == 3 * len(GRID)
        assert whole == sorted(store_rows(tmp_path / "chunked").items())

    @pytest.mark.parametrize("kind", ["campaign", "fleet", "surrogate", "verify"])
    def test_every_computed_entry_on_disk_at_return(self, tmp_path, kind):
        cache = ResultCache(root=tmp_path / "cache")
        if kind == "campaign":
            tasks = plan_campaign(_spec(2, GRID[:4]))
            outcomes = execute_tasks(tasks, "thread", 2, cache)
        elif kind == "fleet":
            tasks = plan_fleet_tasks(FleetParameters(n_processes=3), GRID[:4])
            outcomes = execute_fleet_tasks(tasks, "thread", 2, cache, 1)
        elif kind == "surrogate":
            tasks = [
                SurrogateFitTask(index=i, params=params, phis=(0.0, 5000.0))
                for i, params in enumerate(c.params for c in _spec(2).curves)
            ]
            outcomes = execute_surrogate_tasks(tasks, "thread", 2, cache)
        else:
            profile = resolve_profile("scaled", replications=16)
            tasks = plan_verify_tasks(profile.with_overrides(block_size=8))
            outcomes = execute_verify_tasks(tasks, "thread", 2, cache)
        assert not any(outcome.cached for outcome in outcomes)
        reader = ResultCache(root=cache.root)
        for outcome in outcomes:
            assert reader.get(outcome.task) == outcome.record
        assert len(reader) == len(tasks)


class TestFailFast:
    def test_failure_cancels_unstarted_chunks_and_keeps_finished(
        self, tmp_path, monkeypatch
    ):
        tasks = plan_campaign(_spec(8, GRID[:2]))
        groups = order_groups_by_structure(group_by_params(list(enumerate(tasks))))
        failing = next(iter(groups))  # the first chunk dispatched
        other_started = threading.Event()
        released = threading.Event()
        started = []

        class ReleasingPool(executor.ThreadPoolExecutor):
            """Unblocks the held chunks only once pending ones are cancelled."""

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        def evaluate(params, phis, solver=None):
            if params not in started:
                started.append(params)
            if params == failing:
                other_started.wait(10)
                raise RuntimeError("injected chunk failure")
            other_started.set()
            released.wait(10)
            return evaluate_batch(params, phis, solver=solver)

        monkeypatch.setattr(executor, "ThreadPoolExecutor", ReleasingPool)
        monkeypatch.setattr(executor, "evaluate_batch", evaluate)
        cache = ResultCache(root=tmp_path / "cache")
        with pytest.raises(RuntimeError, match="injected"):
            execute_tasks(tasks, "thread", 2, cache)
        monkeypatch.undo()

        # The failing chunk, the one held alongside it, and at most one
        # more the freed worker took before the cancel; the rest never ran.
        assert failing in started
        assert 2 <= len(started) <= 3
        finished = set(started) - {failing}

        rerun = execute_tasks(tasks, cache=cache)
        served = {outcome.task.params for outcome in rerun if outcome.cached}
        assert served == finished
        assert sum(outcome.cached for outcome in rerun) == 2 * len(finished)

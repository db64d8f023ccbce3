"""Regression tests for batcher bookkeeping under concurrency.

Three properties the HTTP tests cannot pin down deterministically:

* Cleanup is identity-guarded: a request resuming with a *stale* bucket
  reference (its entry was retired and replaced while it awaited) must
  not discard the replacement bucket — doing so stranded the new
  bucket's futures forever and leaked ``_inflight_points``.
* An :class:`OverloadedError` leaves no empty ``_pending`` entry behind
  (unbounded growth under sustained overload with distinct parameter
  sets).
* Disk-tier cache I/O (probes and writes) runs on worker threads, never
  on the event loop thread.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.cache import MemoryLRUCache, ResultCache, TieredResultCache
from repro.runtime.tasks import EvaluationTask
from repro.serve.batcher import CoalescingBatcher, OverloadedError
from repro.serve.service import default_solve_fn

PARAMS = PAPER_TABLE3
THETA = PARAMS.theta


def task_for(phi, index=0):
    return EvaluationTask(
        index=index,
        curve_index=0,
        point_index=index,
        label="test",
        params=PARAMS,
        phi=phi,
    )


def memory_cache():
    return TieredResultCache(MemoryLRUCache(max_entries=64), None)


def run(coro):
    return asyncio.run(coro)


def test_stale_bucket_cleanup_preserves_replacement_bucket():
    """A resumed request must not retire a bucket it does not own.

    Reproduces the reviewed interleaving: request A's bucket is retired
    while A awaits its solve, and a later request registers points into
    a *new* bucket under the same params.  A's cleanup must leave that
    new bucket alone — popping by key alone discarded it, the later
    request's dispatch then found nothing to claim, and its future
    never resolved (a permanently hung request plus a leaked inflight
    count).
    """
    first_call = threading.Event()
    release_first = threading.Event()
    calls = []
    # Precomputed so the gated call returns the instant it is released,
    # keeping A's resume well inside C's batch window.
    result_a = default_solve_fn(PARAMS, [THETA / 4])

    def gated_solve(params, phis):
        calls.append(list(phis))
        if len(calls) == 1:
            first_call.set()
            assert release_first.wait(30), "gate never released"
            return result_a
        return default_solve_fn(params, phis)

    async def scenario():
        executor = ThreadPoolExecutor(max_workers=2)
        try:
            batcher = CoalescingBatcher(
                solve_fn=gated_solve, executor=executor, batch_window=0.2
            )
            cache = memory_cache()

            task_a = asyncio.create_task(
                batcher.evaluate(PARAMS, [task_for(THETA / 4)], cache)
            )
            while not first_call.is_set():
                await asyncio.sleep(0.01)

            # Simulate A's entry being retired while A's solve is in
            # flight, then a new request registering into a fresh
            # bucket under the same params.
            assert batcher._pending.pop(PARAMS) is not None
            task_c = asyncio.create_task(
                batcher.evaluate(PARAMS, [task_for(THETA / 2)], cache)
            )
            # Let C register its point (it then sleeps its batch
            # window) before A resumes and runs its cleanup.
            for _ in range(10):
                await asyncio.sleep(0)
            assert PARAMS in batcher._pending
            release_first.set()

            served_a = await asyncio.wait_for(task_a, 30)
            # Pre-fix this hung forever: A's stale cleanup popped C's
            # bucket, C claimed nothing, and C's future never resolved.
            served_c = await asyncio.wait_for(task_c, 30)
            return served_a, served_c, batcher
        finally:
            executor.shutdown(wait=True)

    served_a, served_c, batcher = run(scenario())
    assert [source for _, source in served_a] == ["solved"]
    assert [source for _, source in served_c] == ["solved"]
    assert batcher.queue_depth == 0
    assert batcher._pending == {}


def test_overload_leaves_no_empty_pending_entry():
    """A rejected request must not strand an empty bucket in _pending."""

    async def scenario():
        batcher = CoalescingBatcher(solve_fn=default_solve_fn, queue_limit=1)
        cache = memory_cache()
        with pytest.raises(OverloadedError):
            await batcher.evaluate(
                PARAMS,
                [task_for(THETA / 4, 0), task_for(THETA / 2, 1)],
                cache,
            )
        assert batcher._pending == {}
        assert batcher.queue_depth == 0
        # The bound still admits an in-budget request afterwards.
        served = await batcher.evaluate(PARAMS, [task_for(THETA / 4)], cache)
        assert [source for _, source in served] == ["solved"]
        assert batcher._pending == {}

    run(scenario())


class RecordingResultCache(ResultCache):
    """A disk tier that records which thread each read/write ran on."""

    def __init__(self, root):
        super().__init__(root=root)
        self.get_threads = []
        self.put_threads = []

    def get_many(self, keys):
        self.get_threads.append(threading.current_thread())
        return super().get_many(keys)

    def put_many(self, entries):
        self.put_threads.append(threading.current_thread())
        return super().put_many(entries)


def test_disk_tier_io_runs_off_the_event_loop(tmp_path):
    """Disk probes and writes run on the executor, not the loop thread.

    Synchronous file I/O on the loop stalls every connection (including
    /healthz) for its duration; the memory tier is the only cache the
    loop touches inline.
    """
    disk = RecordingResultCache(tmp_path / "cache")
    cache = TieredResultCache(MemoryLRUCache(max_entries=64), disk)
    executor = ThreadPoolExecutor(max_workers=2)

    async def scenario():
        loop_thread = threading.current_thread()
        batcher = CoalescingBatcher(
            solve_fn=default_solve_fn, executor=executor, batch_window=0.0
        )
        # Cold: probes miss on disk, solve runs, records persist to disk.
        served = await batcher.evaluate(PARAMS, [task_for(THETA / 4)], cache)
        assert [source for _, source in served] == ["solved"]
        # Warm the disk, cold memory: drop the memory tier so the next
        # probe is a genuine disk hit (promotion path).
        cache.memory.clear()
        served = await batcher.evaluate(PARAMS, [task_for(THETA / 4)], cache)
        assert [source for _, source in served] == ["cache"]
        return loop_thread

    try:
        loop_thread = run(scenario())
    finally:
        executor.shutdown(wait=True)

    assert disk.get_threads and disk.put_threads
    assert loop_thread not in disk.get_threads
    assert loop_thread not in disk.put_threads
    # The records really landed on disk and round-trip.
    assert len(disk) == 1

"""Request coalescing and bounded-queue admission control.

The serving hot path: every ``Y(phi)`` point a request needs is first
probed against the tiered result cache — the memory tier inline on the
event loop, the disk tier (file I/O) batched onto the worker pool so
the loop never blocks on it; the misses become *pending points* keyed
by their content address.  Concurrent requests needing
the same point share one pending future (coalescing), and all points
pending for one parameter set are claimed together and solved as a
single batched grid solve on the warm worker pool — the PR 2/3 fast
path (one solver pass per model and reward structure, template
re-stamping) becomes the per-batch cost no matter how many requests
wanted the points.

Admission control is a bound on *registered-and-unsolved* points:
points a request would merely coalesce onto are free, new points beyond
``queue_limit`` reject the whole request with
:class:`OverloadedError` (never a partial registration), which the
HTTP layer answers with ``429`` + ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.gsu.parameters import GSUParameters
from repro.runtime.tasks import EvaluationTask
from repro.serve.metrics import ServiceMetrics

logger = logging.getLogger(__name__)

#: Default bound on registered-and-unsolved points.
DEFAULT_QUEUE_LIMIT = 1024

#: Default coalescing window (seconds) before a leader claims a batch.
#: One loop tick of slack lets concurrent arrivals land in the same
#: batched solve; correctness never depends on it (late arrivals either
#: coalesce onto the in-flight future or hit the cache afterwards).
DEFAULT_BATCH_WINDOW = 0.002

#: A solve function: ``(params, phis) -> [record, ...]`` in phi order.
SolveFn = Callable[[GSUParameters, list[float]], list[dict]]


class OverloadedError(Exception):
    """The queue bound would be exceeded; retry after a backoff."""

    def __init__(self, depth: int, limit: int, retry_after: float):
        super().__init__(
            f"queue depth {depth} would exceed limit {limit}; "
            f"retry after {retry_after:g}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after


@dataclass
class _PendingPoint:
    """One registered cache miss awaiting its batched solve."""

    task: EvaluationTask
    future: asyncio.Future
    claimed: bool = False


@dataclass
class CoalescingBatcher:
    """Coalesces concurrent point demands into batched grid solves.

    Single-event-loop object: all bookkeeping runs on the loop, only
    the solve itself runs on the executor, so no locking is needed.

    Attributes
    ----------
    solve_fn:
        Synchronous batch solver run on the worker pool.
    executor:
        The warm worker pool (``None`` = the loop's default pool).
    queue_limit:
        Bound on registered-and-unsolved points.
    batch_window:
        Seconds a leader waits before claiming, letting concurrent
        arrivals merge into its batch.
    retry_after:
        Backoff hint (seconds) carried by :class:`OverloadedError`.
    metrics:
        Counter sink (solver batches, coalesced points).
    """

    solve_fn: SolveFn
    executor: object = None
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    batch_window: float = DEFAULT_BATCH_WINDOW
    retry_after: float = 1.0
    metrics: ServiceMetrics = field(default_factory=ServiceMetrics)
    _pending: dict[GSUParameters, dict[str, _PendingPoint]] = field(
        default_factory=dict
    )
    _inflight_points: int = 0

    @property
    def queue_depth(self) -> int:
        """Registered-and-unsolved points right now."""
        return self._inflight_points

    async def evaluate(
        self,
        params: GSUParameters,
        tasks: Sequence[EvaluationTask],
        cache,
    ) -> list[tuple[dict, str]]:
        """Records for ``tasks`` (task order), each tagged with its source.

        The tag is ``"cache"`` (served straight from the tiered cache),
        ``"coalesced"`` (attached to another request's in-flight solve)
        or ``"solved"`` (part of a batch this request triggered).

        Raises :class:`OverloadedError` before registering anything when
        the new points would exceed ``queue_limit``.
        """
        loop = asyncio.get_running_loop()
        records: dict[str, dict] = {}
        sources: dict[str, str] = {}
        keys: list[str] = []
        key_to_task: dict[str, EvaluationTask] = {}
        for task in tasks:
            key = cache.key_for(task)
            keys.append(key)
            key_to_task.setdefault(key, task)

        misses = self._probe_memory(cache, key_to_task, records, sources)
        if misses:
            misses = await self._probe_disk(
                loop, cache, misses, records, sources
            )

        # Fetch the bucket only now: the disk probe awaits, and any
        # await can retire this params entry (and let a new bucket take
        # its place), so a reference taken earlier could be stale.
        bucket = self._pending.setdefault(params, {})
        awaited: dict[str, asyncio.Future] = {}
        new_points: list[tuple[str, EvaluationTask]] = []
        for key in misses:
            point = bucket.get(key)
            if point is not None:
                awaited[key] = point.future
                sources[key] = "coalesced"
                self.metrics.points_coalesced += 1
            else:
                new_points.append((key, key_to_task[key]))
                sources[key] = "solved"

        try:
            if new_points:
                if self._inflight_points + len(new_points) > self.queue_limit:
                    self.metrics.rejected_total += 1
                    raise OverloadedError(
                        depth=self._inflight_points,
                        limit=self.queue_limit,
                        retry_after=self.retry_after,
                    )
                for key, task in new_points:
                    point = _PendingPoint(
                        task=task, future=loop.create_future()
                    )
                    bucket[key] = point
                    awaited[key] = point.future
                self._inflight_points += len(new_points)
                # Let concurrent arrivals register into this batch, then
                # claim and solve whatever is unclaimed for these params.
                if self.batch_window > 0:
                    await asyncio.sleep(self.batch_window)
                else:
                    await asyncio.sleep(0)
                await self._dispatch(params, cache)

            for key, future in awaited.items():
                records[key] = await future
        finally:
            # Retire the entry only if it still holds *our* (now empty)
            # bucket: after the awaits above another request may have
            # retired it already and a third registered points into a
            # fresh bucket under the same params — popping on key alone
            # would discard those points and leave their futures
            # unresolvable.  Running on every exit also keeps an
            # OverloadedError from stranding a never-used empty bucket.
            if self._pending.get(params) is bucket and not bucket:
                self._pending.pop(params, None)
        return [(records[key], sources[key]) for key in keys]

    def _probe_memory(
        self,
        cache,
        key_to_task: dict[str, EvaluationTask],
        records: dict[str, dict],
        sources: dict[str, str],
    ) -> list[str]:
        """Probe the inline tier; returns the keys still missing.

        For a tiered cache only the memory tier is touched here — disk
        probes are file I/O and belong on the executor
        (:meth:`_probe_disk`).  A cache without tiers is probed whole.
        """
        memory = getattr(cache, "memory", None)
        misses: list[str] = []
        for key, task in key_to_task.items():
            record = (
                memory.get_key(key) if memory is not None else cache.get(task)
            )
            if record is None:
                misses.append(key)
            else:
                records[key] = record
                sources[key] = "cache"
        return misses

    async def _probe_disk(
        self,
        loop: asyncio.AbstractEventLoop,
        cache,
        misses: list[str],
        records: dict[str, dict],
        sources: dict[str, str],
    ) -> list[str]:
        """Probe the durable tier off-loop; returns the keys still missing.

        A request may probe thousands of points, so the synchronous
        store read runs as one batched executor job instead of stalling
        the event loop.  Hits are promoted into the memory tier,
        mirroring :meth:`~repro.runtime.cache.TieredResultCache.get_many`.
        """
        disk = getattr(cache, "disk", None)
        memory = getattr(cache, "memory", None)
        if disk is None or memory is None:
            return misses
        found = await loop.run_in_executor(self.executor, disk.get_many, misses)
        still_missing: list[str] = []
        for key, record in zip(misses, found):
            if record is None:
                still_missing.append(key)
            else:
                memory.put_key(key, record)
                records[key] = record
                sources[key] = "cache"
        return still_missing

    async def _dispatch(self, params: GSUParameters, cache) -> None:
        """Claim and solve every unclaimed pending point for ``params``.

        Concurrent leaders race benignly: whoever runs first claims the
        whole batch, later leaders find nothing unclaimed and return.
        """
        bucket = self._pending.get(params, {})
        batch = [
            (key, point) for key, point in bucket.items() if not point.claimed
        ]
        if not batch:
            return
        for _, point in batch:
            point.claimed = True
        phis = [point.task.phi for _, point in batch]
        loop = asyncio.get_running_loop()
        self.metrics.solve_batches += 1
        self.metrics.points_solved += len(batch)
        try:
            solved = await loop.run_in_executor(
                self.executor, self.solve_fn, params, phis
            )
            if len(solved) != len(batch):
                raise RuntimeError(
                    f"solver returned {len(solved)} records for "
                    f"{len(batch)} points"
                )
        except Exception as exc:
            for key, point in batch:
                bucket.pop(key, None)
                if not point.future.done():
                    point.future.set_exception(exc)
            self._inflight_points -= len(batch)
            return
        memory = getattr(cache, "memory", None)
        disk = getattr(cache, "disk", None)
        for (key, point), record in zip(batch, solved):
            if memory is not None:
                memory.put_key(key, record)
            else:
                cache.put(point.task, record)
            bucket.pop(key, None)
            if not point.future.done():
                point.future.set_result(record)
        self._inflight_points -= len(batch)
        if memory is not None and disk is not None:
            # Persist off-loop after the futures resolve, in one
            # transaction: waiters never pay for store I/O, and the
            # event loop never blocks on it.  A failed write costs
            # durability, not correctness — the records are already
            # served and resident in memory.
            entries = [(key, record) for (key, _), record in zip(batch, solved)]
            try:
                await loop.run_in_executor(self.executor, disk.put_many, entries)
            except Exception as exc:  # noqa: BLE001 - durability only
                logger.warning(
                    "disk tier write failed for %d solved points (%s); "
                    "records remain served from memory",
                    len(batch),
                    exc,
                )

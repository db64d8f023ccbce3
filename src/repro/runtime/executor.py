"""Execution backends for planned evaluation tasks.

Three backends behind one interface:

``serial``
    In-process loop — the reference backend; zero scheduling overhead.
``thread``
    ``ThreadPoolExecutor`` — the solver's linear algebra releases the
    GIL, so threads overlap the numerical kernels.
``process``
    ``ProcessPoolExecutor`` — full CPU parallelism; tasks and records
    are plain picklable data by construction.  One warm pool serves
    every dispatch of the process (see below).

Every entry point hands its tasks to one dispatcher, :func:`_dispatch`,
which probes the cache for all of them in one batched read and cuts the
cache-missing tasks into *chunks*.  On the campaign and fleet paths a
chunk is a whole curve (every missing point of one parameter set), so a
worker builds the models and pays the per-curve steady-state and
spectral work once; a curve is split only when there are fewer curves
than workers and it is longer than :data:`MIN_SPLIT_POINTS`.  Every
campaign chunk is solved one way, by :func:`_solve_points`: one
``evaluate_batch`` pass on a template-restamped solver.  A verification
block or a surrogate fit node is one chunk.  The parent writes each
chunk's cache entries, in one transaction, as soon as the chunk
completes, while the pool computes the rest, and the first failing
chunk cancels every chunk of its dispatch not yet started.  Results are
reassembled strictly in the order the tasks were submitted — backend
choice, chunking, completion order, and worker count never change the
output, only the wall clock.

The process pool is made by the first ``process`` dispatch with more
than one chunk and kept in one module-level slot.  It is reused while
the process id, ``jobs``, the ``ProcessPoolExecutor`` class bound here
and the ``REPRO_*`` environment stay the same; when one changes, the
old pool is shut down and waited for and a new one is forked.  A
failing chunk leaves it warm; a broken pool or an interrupt discards
it.  It ends with the interpreter (``concurrent.futures`` joins it at
exit) or with :func:`shutdown_pool`, and each worker ends itself when
its parent dies (:func:`_watch_parent`).  There is no knob for it; the
``thread`` backend makes a thread pool per dispatch.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.ctmc import config
from repro.gsu.fleet import FleetParameters, FleetSolver
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import GSUParameters
from repro.gsu.performability import evaluate_batch
from repro.runtime.cache import ResultCache
from repro.runtime.records import record_from_evaluation
from repro.runtime.tasks import (
    EvaluationTask,
    FleetTask,
    SurrogateFitTask,
    VerificationTask,
    group_by_params,
    order_groups_by_structure,
)

#: The supported backend names.
BACKENDS = ("serial", "thread", "process")

#: Curve length above which splitting one curve across idle workers
#: pays for starting the pool.  Measured on 2 vCPUs with BLAS on one
#: thread: one table3 curve over ``[0, theta]``, solved serially against
#: a two-worker process pool with the curve split in two (medians of 5):
#: 700 points 126 ms serial / 165 ms split, 800 points 200 / 149 ms,
#: 1,001 points (a 10-hour step) 72-88 / 82-146 ms, 1,024 points
#: 244 / 163 ms, 4,096 points 700 / 476 ms.  The two cross near 1,000.
MIN_SPLIT_POINTS = 1000


@dataclass(frozen=True)
class TaskOutcome:
    """One executed (or cache-served) task.

    Attributes
    ----------
    task:
        The planned task.
    record:
        The plain-data evaluation record (see :mod:`repro.runtime.records`).
    seconds:
        Solver wall time attributed to this point: its share of its
        chunk's batched solve, 0.0 when served from cache.
    cached:
        Whether the record came from the result cache.
    key:
        The task's content address under the cache's schema, as the
        dispatch hashed it to probe the cache; ``None`` when the run had
        no cache.
    """

    task: EvaluationTask | VerificationTask
    record: dict
    seconds: float
    cached: bool
    key: str | None


def _dispatch(
    tasks: Sequence,
    backend: str,
    jobs: int,
    cache: ResultCache | None,
    plan: Callable[[list, int], list[list]],
    call: Callable[[list], tuple],
) -> list[TaskOutcome]:
    """Probe, chunk, run and write back; outcomes in submission order.

    ``plan(pending, workers)`` cuts the cache-missing ``(position,
    task)`` pairs into chunks for ``workers`` concurrent workers (one on
    the serial backend).  ``call(chunk)`` is ``(worker, *args)``; the
    worker returns one ``(record, seconds)`` per task of the chunk.
    Each task's content address is hashed once; the cache is probed for
    all tasks in one batch, and each chunk's entries are written in one
    batch as soon as the chunk completes.  When a chunk raises, chunks
    not yet started are cancelled, the chunks still running are awaited
    and written, and the exception propagates.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    outcomes: dict[int, TaskOutcome] = {}
    pending: list[tuple[int, object]] = []
    if cache is not None:
        keys = [cache.key_for(task) for task in tasks]
        found = cache.get_many(keys)
    else:
        keys = found = [None] * len(tasks)
    for position, (task, record) in enumerate(zip(tasks, found)):
        if record is not None:
            outcomes[position] = TaskOutcome(
                task=task,
                record=record,
                seconds=0.0,
                cached=True,
                key=keys[position],
            )
        else:
            pending.append((position, task))
    chunks = plan(pending, 1 if backend == "serial" else jobs)

    def finish(chunk, results):
        if cache is not None:
            cache.put_many(
                (keys[position], record)
                for (position, _), (record, _) in zip(chunk, results)
            )
        for (position, task), (record, seconds) in zip(chunk, results):
            outcomes[position] = TaskOutcome(
                task=task,
                record=record,
                seconds=seconds,
                cached=False,
                key=keys[position],
            )

    if backend == "serial" or jobs == 1 or len(chunks) <= 1:
        for chunk in chunks:
            worker, *args = call(chunk)
            finish(chunk, worker(*args))
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            _collect(
                _submit(pool, chunks, call),
                finish,
                lambda _futures: pool.shutdown(cancel_futures=True),
            )
    else:
        with _pool_lock:
            pool = _warm_pool(jobs)
            try:
                futures = _submit(pool, chunks, call)
            except BrokenProcessPool:
                # A worker died, most likely while the pool sat idle.  No
                # chunk of this dispatch has been finished yet, so it
                # starts over on a new pool.
                _discard_pool(pool)
                pool = _warm_pool(jobs)
                futures = _submit(pool, chunks, call)
        try:
            _collect(futures, finish, _cancel_unstarted)
        except BaseException as error:
            if isinstance(error, BrokenProcessPool) or not isinstance(
                error, Exception
            ):
                with _pool_lock:
                    _discard_pool(pool)
            raise

    return [outcomes[position] for position in range(len(tasks))]


def _submit(pool, chunks: list[list], call: Callable[[list], tuple]) -> dict:
    """Submit every chunk to ``pool``; ``{future: chunk}``."""
    futures = {}
    for chunk in chunks:
        worker, *args = call(chunk)
        futures[pool.submit(worker, *args)] = chunk
    return futures


def _collect(futures: dict, finish: Callable, cancel: Callable[[dict], None]) -> None:
    """Finish each chunk as it completes.

    When a chunk raises, ``cancel(futures)`` stops the chunks not yet
    started, the chunks still running are awaited and finished, and the
    exception propagates.
    """
    try:
        for future in as_completed(futures):
            finish(futures.pop(future), future.result())
    except BaseException:
        cancel(futures)
        for future, chunk in futures.items():
            if not future.cancelled() and future.exception() is None:
                finish(chunk, future.result())
        raise


def _cancel_unstarted(futures: dict) -> None:
    """Cancel this dispatch's chunks that no worker has started; the
    warm pool and any other dispatch's chunks are left alone."""
    for future in futures:
        future.cancel()


# ----------------------------------------------------------------------
# The warm process pool
# ----------------------------------------------------------------------
#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL_S = 0.5


def _watch_parent(parent: int) -> None:
    """End this worker as soon as its parent is gone.

    An idle pool worker blocks reading a pipe whose write end it holds
    itself, so it would never see its parent die; once the parent is
    gone the worker is re-parented and ``os.getppid()`` changes.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


class _ParentWatchedProcess(multiprocessing.Process):
    """A pool worker that starts :func:`_watch_parent` on a daemon thread
    before it takes its first chunk, so even a worker that never gets a
    chunk ends with its parent."""

    def run(self):
        threading.Thread(
            target=_watch_parent,
            args=(os.getppid(),),
            name="repro-parent-watch",
            daemon=True,
        ).start()
        super().run()


def _worker_context():
    """The default start method, with parent-watched workers."""
    context = copy.copy(multiprocessing.get_context())
    context.Process = _ParentWatchedProcess
    return context


_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None
_pool_lock = threading.Lock()


def _reset_pool_lock() -> None:
    # A child forked while some thread held the lock (pool workers are
    # forked during a submit under it) would otherwise inherit it held.
    global _pool_lock
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_pool_lock)


def _warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool for ``jobs`` workers; call with ``_pool_lock`` held.

    The pool in the slot is reused while this process id, ``jobs``, the
    ``ProcessPoolExecutor`` class bound in this module (looked up now,
    so a substituted class takes effect) and the ``REPRO_*`` environment
    all match what it was made with.  Otherwise the old pool is shut
    down and waited for, and a new one is made in its place; a forked
    child drops its parent's pool untouched.
    """
    global _pool, _pool_key
    key = (
        os.getpid(),
        jobs,
        ProcessPoolExecutor,
        sorted(item for item in os.environ.items() if item[0].startswith("REPRO_")),
    )
    if _pool is not None and _pool_key == key:
        return _pool
    if _pool is not None and _pool_key[0] == key[0]:
        _pool.shutdown(wait=True)
    _pool = _pool_key = None
    _pool = ProcessPoolExecutor(max_workers=jobs, mp_context=_worker_context())
    _pool_key = key
    return _pool


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down and empty the slot if it still holds it, so the
    next process dispatch makes a new pool; call with ``_pool_lock``
    held."""
    global _pool, _pool_key
    if _pool is pool:
        _pool = _pool_key = None
    pool.shutdown(wait=True, cancel_futures=True)


def shutdown_pool() -> None:
    """Shut the warm pool down and wait for its workers to exit.

    Nothing needs to call this: at interpreter exit
    :mod:`concurrent.futures` shuts every pool down the same way.  Tests
    call it to start each test without workers forked for another.
    """
    with _pool_lock:
        if _pool is not None and _pool_key[0] == os.getpid():
            _discard_pool(_pool)


def _solve_points(
    params: GSUParameters, phis: Sequence[float]
) -> list[tuple[dict, float]]:
    """Evaluate one chunk of same-parameter points in one batched pass.

    The chunk goes through :func:`~repro.gsu.performability.evaluate_batch`
    on a template-restamped :class:`ConstituentSolver` — one solver pass
    per (model, reward structure) — and each point reports its share of
    the chunk's wall time.  A process-pool worker keeps its own template
    cache, so with structure-ordered chunks it compiles each model
    structure once and re-stamps for every later chunk it serves.
    """
    start = time.perf_counter()
    evaluations = evaluate_batch(params, list(phis))
    per_point = (time.perf_counter() - start) / max(len(evaluations), 1)
    return [
        (record_from_evaluation(evaluation), per_point)
        for evaluation in evaluations
    ]


def _chunk_length(
    group_size: int, jobs: int, chunk_size: int | None, groups: int = 1
) -> int:
    """Points per chunk: explicit, else the whole curve.

    A curve longer than :data:`MIN_SPLIT_POINTS` is cut into equal parts
    when there are fewer curves (``groups``) than workers, one part per
    otherwise idle worker.
    """
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return chunk_size
    if groups >= jobs or group_size <= MIN_SPLIT_POINTS:
        return group_size
    return math.ceil(group_size / math.ceil(jobs / groups))


#: Canonical budget reader — shared with the streaming solver path so a
#: single ``REPRO_MEMORY_BUDGET_MB`` declaration governs chunk sizing
#: here *and* workspace admission in :mod:`repro.ctmc.streaming`.
memory_budget_bytes = config.memory_budget_bytes


def _memory_aware_chunk_length(
    group_size: int,
    jobs: int,
    chunk_size: int | None,
    num_states: int,
    workers: int,
    groups: int = 1,
) -> int:
    """Chunk length capped so concurrent chunks fit the memory budget.

    A chunk of ``m`` grid points on an ``n``-state model materialises an
    ``m x n`` float64 result block (plus the shared generator, counted
    once per worker at roughly ``10 * 16`` bytes per state for the fleet
    sparsity).  With ``workers`` chunks in flight, the per-chunk
    allowance is ``budget / workers``; the cap keeps large-model chunks
    small (streamed through the solver in more, shorter passes) while
    leaving small-model chunking untouched.
    """
    length = _chunk_length(group_size, jobs, chunk_size, groups)
    if chunk_size is not None:
        return length  # explicit request wins; the user sized it
    per_chunk_budget = memory_budget_bytes() // max(workers, 1)
    model_bytes = num_states * 160  # CSR generator share per worker
    row_bytes = num_states * 8
    available = per_chunk_budget - model_bytes
    if available <= row_bytes:
        return 1
    return max(1, min(length, int(available // row_bytes)))


def _split(group: list, length: int) -> list[list]:
    """``group`` cut into consecutive chunks of ``length`` tasks."""
    return [group[start : start + length] for start in range(0, len(group), length)]


def _singletons(pending: list, _workers: int) -> list[list]:
    """One chunk per task: blocks and fit nodes are chunk-sized already."""
    return [[item] for item in pending]


def execute_tasks(
    tasks: Sequence[EvaluationTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
) -> list[TaskOutcome]:
    """Execute tasks and return outcomes in submission order.

    Parameters
    ----------
    tasks:
        The tasks to run, in any order; outcomes come back aligned with
        this sequence element-for-element.
    backend:
        One of :data:`BACKENDS`.
    jobs:
        Worker count for the ``thread``/``process`` backends.
    cache:
        Optional result cache — hits skip the solver entirely, misses
        are computed and written back as each chunk completes.
    chunk_size:
        Points per dispatched chunk; by default a chunk is one whole
        curve (see :data:`MIN_SPLIT_POINTS` for when a curve is split).

    Each chunk of cache-missing points is solved in one batched pass
    (see :func:`_solve_points`).
    """

    def plan(pending, workers):
        # Parameter sets sharing a state-space template dispatch
        # consecutively, so pool workers compile each structure at most
        # once.
        groups = order_groups_by_structure(group_by_params(pending))
        return [
            chunk
            for group in groups.values()
            for chunk in _split(
                group, _chunk_length(len(group), workers, chunk_size, len(groups))
            )
        ]

    def call(chunk):
        return _solve_points, chunk[0][1].params, tuple(t.phi for _, t in chunk)

    return _dispatch(tasks, backend, jobs, cache, plan, call)


def _simulate_verify_block(task: VerificationTask) -> list[tuple[dict, float]]:
    """Module-level block worker for verification tasks (picklable).

    The import is deferred so the evaluation-only runtime path never
    pays for (or depends on) the simulation machinery.
    """
    from repro.verify.estimators import simulate_block

    start = time.perf_counter()
    record = simulate_block(
        task.params,
        task.model_key,
        task.phis,
        task.replications,
        task.seed,
        task.block,
        steady_horizon=task.steady_horizon,
        steady_warmup=task.steady_warmup,
    )
    return [(record, time.perf_counter() - start)]


def execute_verify_tasks(
    tasks: Sequence[VerificationTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[TaskOutcome]:
    """Execute verification blocks and return outcomes in submission order.

    Blocks are already the scheduling granularity (one replication batch
    of one base model), so each cache-missing block dispatches as one
    chunk.  The same content-addressed cache serves hits — a block's key
    covers its seed and block index, so cached samples are bit-identical
    to a fresh simulation.
    """
    return _dispatch(
        tasks, backend, jobs, cache, _singletons,
        lambda chunk: (_simulate_verify_block, chunk[0][1]),
    )


def _solve_surrogate_node(task: SurrogateFitTask) -> list[tuple[dict, float]]:
    """Module-level fit-node worker (picklable for the process pool).

    One batched :meth:`ConstituentSolver.batch` pass over the node's phi
    grid — the same arithmetic the campaign path uses, so fit nodes and
    sweep points agree bitwise where grids coincide.
    """
    from repro.runtime.spec import params_to_dict

    solver = ConstituentSolver(task.params)
    start = time.perf_counter()
    constituents = solver.batch(list(task.phis))
    record = {
        "kind": "surrogate.node",
        "params": params_to_dict(task.params),
        "phis": [float(phi) for phi in task.phis],
        "constituents": constituents,
    }
    return [(record, time.perf_counter() - start)]


def execute_surrogate_tasks(
    tasks: Sequence[SurrogateFitTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> list[TaskOutcome]:
    """Execute surrogate fit nodes and return outcomes in submission order.

    A node is already chunk-sized work (one batched grid solve at one
    lever point), so like verification blocks each cache-missing node
    dispatches as one chunk.  Fitting is therefore cached, parallel, and
    resumable for free: re-running a fit whose nodes are cached touches
    no solver at all.
    """
    return _dispatch(
        tasks, backend, jobs, cache, _singletons,
        lambda chunk: (_solve_surrogate_node, chunk[0][1]),
    )


def _solve_fleet_chunk(
    params: FleetParameters,
    mode: str,
    phis: tuple[float, ...],
) -> list[tuple[dict, float]]:
    """Module-level fleet chunk worker (picklable for the process pool).

    One :class:`FleetSolver` per chunk: the chain is built once and both
    measures for every phi come from batched grid passes.
    """
    solver = FleetSolver(params, mode=mode)
    start = time.perf_counter()
    values = solver.batch(phis)
    per_point = (time.perf_counter() - start) / max(len(values), 1)
    states = params.flat_states if mode == "flat" else params.lumped_states
    return [
        (
            {
                "kind": "fleet.Y",
                "params": params.to_dict(),
                "phi": float(phi),
                "mode": mode,
                "Y": measures["Y"],
                "operational_time": measures["operational_time"],
                "states": states,
            },
            per_point,
        )
        for phi, measures in zip(phis, values)
    ]


def execute_fleet_tasks(
    tasks: Sequence[FleetTask],
    backend: str = "serial",
    jobs: int = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
) -> list[TaskOutcome]:
    """Execute fleet tasks and return outcomes in submission order.

    Mirrors :func:`execute_tasks` — cache probe, group by (params,
    mode), one chunk per curve, dispatch — with one difference: chunk
    sizing is *memory-aware*.  Flat fleet models materialise a grid-rows
    block of ``points x 4**N`` doubles per chunk, so the chunk length is
    capped to keep all in-flight chunks inside
    :func:`memory_budget_bytes` (override with
    ``REPRO_MEMORY_BUDGET_MB``).  An explicit ``chunk_size`` always wins.
    """

    def plan(pending, workers):
        groups: dict[tuple[FleetParameters, str], list] = {}
        for position, task in pending:
            groups.setdefault((task.params, task.mode), []).append(
                (position, task)
            )
        chunks = []
        for (params, mode), group in groups.items():
            num_states = (
                params.flat_states if mode == "flat" else params.lumped_states
            )
            length = _memory_aware_chunk_length(
                len(group), workers, chunk_size, num_states, workers, len(groups)
            )
            chunks.extend(_split(group, length))
        return chunks

    def call(chunk):
        task = chunk[0][1]
        return _solve_fleet_chunk, task.params, task.mode, tuple(
            t.phi for _, t in chunk
        )

    return _dispatch(tasks, backend, jobs, cache, plan, call)

"""The performability service: asyncio HTTP over the campaign runtime.

One :class:`PerformabilityService` owns the whole request path:

1. **Validate + canonicalize** — :mod:`repro.query` turns JSON bodies
   into :class:`~repro.gsu.parameters.GSUParameters` (Table 3 base
   point plus overrides) and ``phi`` grids by the same rules as the
   CLI; any malformed field answers ``400`` with the CLI's message
   before a solver is touched.
2. **Surrogate probe** — with a certified surrogate artifact loaded
   (``--surrogate``), an ``/evaluate`` grid whose every point lies
   inside the surrogate's parameter box is answered directly from the
   closed-form Chebyshev approximants — no cache lookup, no solver
   dispatch, ~10 microseconds per nine-measure point.  Answers carry
   ``source: "surrogate"`` plus the certified error bound; requests
   demanding a tighter ``max_error`` than the certificate, or touching
   any out-of-box point, fall through to the exact path below.
3. **Tiered cache probe** — every point is content-addressed exactly
   like the campaign runtime's tasks and probed against the shared
   in-memory LRU tier in front of the on-disk
   :class:`~repro.runtime.cache.ResultCache`, so CLI campaigns and the
   service interoperate at 100% cache hits.
4. **Coalesce + batch** — misses route through the
   :class:`~repro.serve.batcher.CoalescingBatcher`: concurrent demands
   for the same point share one future, and each parameter set's
   pending points are solved in a single batched grid solve on the
   warm worker pool (template re-stamping, one solver pass per model).
5. **Respond with provenance** — every answer carries per-point cache
   sources and request latency; ``GET /metrics`` exposes p50/p99
   latency, queue depth, per-tier cache hit rates, template
   compile/re-stamp counts, surrogate-tier traffic, and solver-backend
   dispatch counters (dense vs sparse vs uniformization).

``POST /fleet`` answers fleet ``Y(phi)`` queries (N replicated MDCD
processes with shared repair, solved exactly on the lumped quotient)
through the same tiered cache under the ``fleet.Y`` measure namespace.

``POST /synthesize`` runs the joint lever optimization of
:mod:`repro.synth` on a dedicated driver thread; every design point it
evaluates hops back through the coalescing batcher, so synthesis
traffic shares the cache, coalescing, and backpressure story of
``/evaluate``, and its step records resume from the ``synth.step``
cache namespace.

Overload answers ``429`` with ``Retry-After``; ``SIGTERM``/``SIGINT``
drain gracefully: new work answers ``503`` while in-flight requests
finish (up to ``drain_timeout``) and the probe endpoints keep reporting
``"draining"``, then the listener closes and the worker pool shuts
down.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro import query
from repro.ctmc.config import dispatch_counts
from repro.gsu.measures import ConstituentSolver
from repro.gsu.optimizer import pick_optimum
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.gsu.performability import evaluate_batch
from repro.runtime.cache import (
    DEFAULT_MEMORY_ENTRIES,
    MemoryLRUCache,
    ResultCache,
    TieredResultCache,
)
from repro.runtime.records import record_from_evaluation
from repro.runtime.executor import execute_fleet_tasks
from repro.runtime.spec import params_to_dict
from repro.runtime.tasks import EvaluationTask, plan_fleet_tasks
from repro.serve.batcher import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_QUEUE_LIMIT,
    CoalescingBatcher,
    OverloadedError,
    SolveFn,
)
from repro.serve.http import (
    HttpError,
    HttpRequest,
    read_request,
    write_response,
)
from repro.serve.metrics import ServiceMetrics
from repro.synth.driver import run_synthesis
from repro.synth.objective import overhead_from_constituents

#: Bound on points per request (a full Table 3 curve is 11 points; this
#: allows dense grids while keeping one request's work bounded).
MAX_GRID_POINTS = 4096

#: Seconds allowed for reading one request off the socket.
READ_TIMEOUT = 30.0

#: Bounds on one synthesis request's search effort: the driver is
#: sequential, so a runaway request would monopolise the synth thread.
MAX_SYNTH_ITERS = 200
MAX_SYNTH_STARTS = 9

#: Fully built surrogate responses memoized per (params, grid) — the
#: model is immutable, so identical in-box requests are pure replays.
SURROGATE_MEMO_CAPACITY = 128

#: Routes: path → (HTTP method, handler attribute).  GET handlers build
#: a probe payload; POST handlers take the JSON object body.
_ROUTES = {
    "/healthz": ("GET", "healthz_payload"),
    "/metrics": ("GET", "metrics_payload"),
    "/evaluate": ("POST", "handle_evaluate"),
    "/optimal": ("POST", "handle_optimal"),
    "/fleet": ("POST", "handle_fleet"),
    "/synthesize": ("POST", "handle_synthesize"),
}


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` configures.

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` asks the OS for an ephemeral port
        (the bound port is reported once the server is up).
    jobs:
        Worker threads in the solve pool.
    cache_dir:
        On-disk result-cache directory shared with the CLI paths
        (``None`` = memory tier only).
    memory_cache:
        Entry capacity of the in-memory LRU tier (always present in
        the service).
    queue_limit / retry_after:
        Backpressure bound on registered-and-unsolved points, and the
        ``Retry-After`` hint (seconds) sent with ``429``.
    batch_window:
        Coalescing window (seconds) before a leader claims its batch.
    warm:
        Pre-compile the template cache before accepting connections.
    drain_timeout:
        Seconds to wait for in-flight requests on shutdown.
    surrogate:
        Path to a certified surrogate artifact (``repro surrogate
        fit``); when set, in-box ``/evaluate`` grids are answered from
        the closed-form approximants ahead of every other tier.
    """

    host: str = "127.0.0.1"
    port: int = 8351
    jobs: int = 2
    cache_dir: Path | str | None = None
    memory_cache: int = DEFAULT_MEMORY_ENTRIES
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    retry_after: float = 1.0
    batch_window: float = DEFAULT_BATCH_WINDOW
    warm: bool = True
    drain_timeout: float = 10.0
    surrogate: Path | str | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.memory_cache < 1:
            raise ValueError(
                f"memory_cache must be >= 1, got {self.memory_cache}"
            )
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")


def default_solve_fn(params: GSUParameters, phis: list[float]) -> list[dict]:
    """The production batch solver: one batched grid solve per call.

    Identical to what the campaign runtime's batched path computes for
    the same ``(params, phi)`` inputs — records are interchangeable
    under the shared content-addressed cache keys.
    """
    solver = ConstituentSolver(params)
    return [
        record_from_evaluation(evaluation)
        for evaluation in evaluate_batch(params, phis, solver=solver)
    ]


def _freeze(value):
    """A hashable canonical form of a JSON body value (TypeError if not)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return ("__list__",) + tuple(_freeze(v) for v in value)
    hash(value)
    return value


def _request_key(body: dict) -> tuple | None:
    """The surrogate-memo key of an ``/evaluate`` body (None if unkeyable)."""
    try:
        return _freeze(body)
    except TypeError:
        return None


class PerformabilityService:
    """The HTTP service; one instance per server process.

    ``solve_fn`` is injectable for tests (gate-controlled stubs that
    make overload and coalescing deterministic); production uses
    :func:`default_solve_fn`.
    """

    def __init__(self, config: ServeConfig, solve_fn: SolveFn | None = None):
        self.config = config
        self.metrics = ServiceMetrics()
        disk = (
            ResultCache(root=Path(config.cache_dir))
            if config.cache_dir is not None
            else None
        )
        self.cache = TieredResultCache(
            MemoryLRUCache(max_entries=config.memory_cache), disk
        )
        self.executor = ThreadPoolExecutor(
            max_workers=config.jobs, thread_name_prefix="serve-solver"
        )
        # Synthesis drivers run on their own single thread: a driver
        # *feeds* the batcher (which solves on ``self.executor``), so
        # parking it on the solver pool would deadlock a jobs=1 server.
        self.synth_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-synth"
        )
        self.batcher = CoalescingBatcher(
            solve_fn=solve_fn or default_solve_fn,
            executor=self.executor,
            queue_limit=config.queue_limit,
            batch_window=config.batch_window,
            retry_after=config.retry_after,
            metrics=self.metrics,
        )
        path = config.surrogate
        self.surrogate = None if path is None else query.load_surrogate(path)
        # Surrogate-tier traffic counters (requests routed, points
        # served, and requests that had a surrogate but fell back to
        # the exact path).  Only the event loop touches these.
        self.surrogate_requests = 0
        self.surrogate_points = 0
        self.surrogate_fallbacks = 0
        self._surrogate_memo: dict[tuple, dict] = {}
        self.port: int | None = None
        self.warm_seconds: float | None = None
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._stop = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    def _tasks_for(
        self, params: GSUParameters, phis: list[float]
    ) -> list[EvaluationTask]:
        """Runtime-identical tasks, so cache keys match the CLI paths."""
        return [
            EvaluationTask(
                index=i,
                curve_index=0,
                point_index=i,
                label="serve",
                params=params,
                phi=phi,
            )
            for i, phi in enumerate(phis)
        ]

    # ------------------------------------------------------------------
    # Endpoint handlers
    # ------------------------------------------------------------------
    def _try_surrogate(
        self, params: GSUParameters, phis: list[float], max_error: float | None
    ) -> dict | None:
        """Answer a grid from the surrogate tier, or ``None`` to fall back.

        Routing is whole-request: the surrogate answers only when its
        certificate meets the requested ``max_error`` *and* every point
        of the grid lies inside the fitted box — a grid that strays
        outside is solved exactly in full rather than silently
        extrapolated or stitched from mixed provenances.
        """
        model = self.surrogate
        if model is None:
            return None
        self.surrogate_requests += 1
        if not model.meets(max_error) or not model.covers(params, phis):
            self.surrogate_fallbacks += 1
            return None

        start = time.perf_counter()
        records, bounds = model.grid_records(params, phis)
        points = [
            {
                "phi": record["phi"],
                "y": record["value"],
                "source": "surrogate",
                "error_bound": bound,
                "record": record,
            }
            for record, bound in zip(records, bounds)
        ]
        solve_seconds = time.perf_counter() - start
        self.surrogate_points += len(points)
        return {
            "params": params_to_dict(params),
            "points": points,
            "provenance": {
                "sources": {"surrogate": len(points)},
                "surrogate_bound": model.worst_bound,
                "surrogate_digest": model.meta.get("digest"),
                "solve_ms": solve_seconds * 1000.0,
                "queue_depth": self.batcher.queue_depth,
            },
        }

    async def handle_evaluate(self, body: dict) -> dict:
        """``POST /evaluate`` — ``Y(phi)`` for a parameter set + grid.

        An optional ``max_error`` field demands an absolute accuracy:
        the surrogate tier only answers when its certified bound is at
        least that tight, otherwise the request routes to the exact
        solver path (whose answers are exact up to solver tolerance).
        """
        # Surrogate responses are pure functions of the request body
        # (immutable model, deterministic parse), so identical repeats
        # answer from a bounded memo of fully built responses before
        # the body is even parsed; only the queue gauge refreshes.
        memo_key = _request_key(body) if self.surrogate is not None else None
        if memo_key is not None:
            cached = self._surrogate_memo.get(memo_key)
            if cached is not None:
                self.surrogate_requests += 1
                self.surrogate_points += len(cached["points"])
                return {
                    **cached,
                    "provenance": {
                        **cached["provenance"],
                        "queue_depth": self.batcher.queue_depth,
                    },
                }
        params = query.gsu_params(body.get("params", {}))
        phis = query.phi_grid(
            params, body.get("phis"), body.get("step"), MAX_GRID_POINTS
        )
        max_error = body.get("max_error")
        if max_error is not None:
            max_error = query.positive(max_error, "max_error")
        shortcut = self._try_surrogate(params, phis, max_error)
        if shortcut is not None:
            if memo_key is not None:
                if len(self._surrogate_memo) >= SURROGATE_MEMO_CAPACITY:
                    self._surrogate_memo.pop(next(iter(self._surrogate_memo)))
                self._surrogate_memo[memo_key] = shortcut
            return shortcut
        start = time.perf_counter()
        served = await self.batcher.evaluate(
            params, self._tasks_for(params, phis), self.cache
        )
        solve_seconds = time.perf_counter() - start
        return {
            "params": params_to_dict(params),
            "points": [
                {
                    "phi": record["phi"],
                    "y": record["value"],
                    "source": source,
                    "record": record,
                }
                for record, source in served
            ],
            "provenance": {
                "sources": Counter(source for _, source in served),
                "solve_ms": solve_seconds * 1000.0,
                "queue_depth": self.batcher.queue_depth,
            },
        }

    async def handle_fleet(self, body: dict) -> dict:
        """``POST /fleet`` — fleet ``Y(phi)`` for N replicated processes.

        Fleet solves bypass the coalescing batcher (they are not
        ``GSUParameters``-keyed) but share the tiered result cache under
        the ``fleet.Y`` measure namespace, so the CLI's ``repro fleet``
        runs and the service interoperate at 100% cache hits.  The solve
        runs on the worker pool; the event loop stays free.
        """
        params = query.fleet_params(body.get("fleet", {}))
        mode = body.get("mode", "lumped")
        if mode != "lumped":
            raise query.QueryError(
                f"unsupported mode {mode!r}: fleet queries are answered "
                f"exactly on the lumped quotient (mode 'lumped')"
            )
        phis = query.fleet_grid(
            params, body.get("phis"), body.get("step"), MAX_GRID_POINTS
        )
        tasks = plan_fleet_tasks(params, phis)
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        outcomes = await loop.run_in_executor(
            self.executor,
            lambda: execute_fleet_tasks(tasks, cache=self.cache),
        )
        solve_seconds = time.perf_counter() - start
        points = [
            {
                "phi": outcome.record["phi"],
                "Y": outcome.record["Y"],
                "operational_time": outcome.record["operational_time"],
                "source": "cache" if outcome.cached else "solved",
            }
            for outcome in outcomes
        ]
        return {
            "fleet": params.to_dict(),
            "mode": "lumped",
            "states": outcomes[0].record["states"] if outcomes else 0,
            "points": points,
            "provenance": {
                "sources": Counter(point["source"] for point in points),
                "solve_ms": solve_seconds * 1000.0,
            },
        }

    async def handle_optimal(self, body: dict) -> dict:
        """``POST /optimal`` — grid search (cached/coalesced) + refinement.

        The optimum follows :func:`~repro.gsu.optimizer.pick_optimum`,
        the rule ``repro optimal`` uses, so both answer alike.
        """
        params = query.gsu_params(body.get("params", {}))
        phis = query.phi_grid(
            params, step=body.get("step", 1000.0), max_points=MAX_GRID_POINTS
        )
        served = await self.batcher.evaluate(
            params, self._tasks_for(params, phis), self.cache
        )
        records = [record for record, _ in served]
        grid = {
            "phis": [record["phi"] for record in records],
            "values": [record["value"] for record in records],
        }
        refine = bool(body.get("refine", False))
        pick = functools.partial(
            pick_optimum, params, grid["phis"], grid["values"], refine
        )
        if refine:  # refinement solves: keep it off the event loop
            loop = asyncio.get_running_loop()
            best_phi, best_y, refined = await loop.run_in_executor(
                self.executor, pick
            )
        else:
            best_phi, best_y, refined = pick()
        return {
            "params": params_to_dict(params),
            "phi": best_phi,
            "y": best_y,
            "beneficial": best_y > 1.0,
            "refined": refined,
            "grid": grid,
            "provenance": {
                "sources": Counter(source for _, source in served),
                "queue_depth": self.batcher.queue_depth,
            },
        }

    async def handle_synthesize(self, body: dict) -> dict:
        """``POST /synthesize`` — joint lever optimization of ``Y``.

        The projected-gradient driver runs on the dedicated synth
        thread; every point it evaluates routes back through the
        coalescing batcher on the event loop, so synthesis shares the
        tiered cache, the request-coalescing map, and the backpressure
        bound (429 via ``OverloadedError``) with ``/evaluate`` traffic.
        Step records are cached under the ``synth.step`` namespace —
        repeating a request replays its trajectories from cache.
        """
        problem, config = query.synthesis_request(
            query.gsu_params(body.get("params", {})),
            body.get("levers", ["phi"]),
            body.get("bounds", {}),
            body.get("budget"),
            body.get("max_iters", 24),
            body.get("starts", 3),
            caps=(MAX_SYNTH_ITERS, MAX_SYNTH_STARTS),
        )
        loop = asyncio.get_running_loop()
        sources = Counter()

        def evaluate_fn(point_params, phis):
            # Runs on the synth thread: hop each evaluation back onto
            # the event loop so it coalesces with concurrent traffic.
            tasks = self._tasks_for(point_params, [float(p) for p in phis])
            served = asyncio.run_coroutine_threadsafe(
                self.batcher.evaluate(point_params, tasks, self.cache), loop
            ).result()
            sources.update(source for _, source in served)
            return [
                (
                    record["value"],
                    overhead_from_constituents(record["constituents"]),
                )
                for record, _ in served
            ]

        start = time.perf_counter()
        result = await loop.run_in_executor(
            self.synth_executor,
            lambda: run_synthesis(
                problem, config, cache=self.cache, evaluate_fn=evaluate_fn
            ),
        )
        solve_seconds = time.perf_counter() - start
        payload = result.to_dict()
        payload["provenance"] = {
            "sources": sources,
            "steps_cached": result.steps_cached,
            "solve_ms": solve_seconds * 1000.0,
            "queue_depth": self.batcher.queue_depth,
        }
        return payload

    def healthz_payload(self) -> dict:
        """``GET /healthz`` body."""
        from repro.gsu.templates import shared_cache

        return {
            "status": "draining" if self._draining else "ok",
            "warm": shared_cache().stats.compiles > 0
            or shared_cache().stats.restamps > 0,
            "uptime_seconds": self.metrics.uptime_seconds,
        }

    def metrics_payload(self) -> dict:
        """``GET /metrics`` body."""
        from repro.gsu.templates import shared_cache

        payload = self.metrics.to_dict()
        payload["queue"] = {
            "depth": self.batcher.queue_depth,
            "limit": self.config.queue_limit,
        }
        payload["cache"] = {
            name: stats.to_dict()
            for name, stats in self.cache.tier_stats().items()
        }
        template_stats = shared_cache().stats
        payload["templates"] = {
            "compiles": template_stats.compiles,
            "restamps": template_stats.restamps,
            "fallbacks": template_stats.fallbacks,
        }
        payload["solver"]["dispatch"] = dispatch_counts()
        model = self.surrogate
        payload["surrogate"] = {
            "loaded": model is not None,
            "digest": model.meta.get("digest") if model is not None else None,
            "bound": model.worst_bound if model is not None else None,
            "requests": self.surrogate_requests,
            "points": self.surrogate_points,
            "fallbacks": self.surrogate_fallbacks,
        }
        payload["warm_seconds"] = self.warm_seconds
        payload["draining"] = self._draining
        return payload

    # ------------------------------------------------------------------
    # HTTP dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> tuple[int, dict, dict]:
        """Route one request; returns (status, payload, extra headers).

        A :class:`~repro.query.QueryError` from a handler — outside input
        that fails validation — answers ``400`` with its message.
        """
        method, name = _ROUTES.get(request.target, (None, None))
        if name is None:
            raise HttpError(404, f"unknown path {request.target!r}")
        if request.method != method:
            raise HttpError(
                405, f"{request.method} not supported on {request.target}"
            )
        handler = getattr(self, name)
        if method == "GET":
            return 200, handler(), {}
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "request body must be a JSON object")
        start = time.perf_counter()
        try:
            payload = await handler(body)
        except query.QueryError as exc:
            return 400, {"error": str(exc)}, {}
        except OverloadedError as exc:
            return (
                429,
                {
                    "error": "overloaded",
                    "detail": str(exc),
                    "queue_depth": exc.depth,
                    "queue_limit": exc.limit,
                },
                {"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        self.metrics.recorder(request.target.lstrip("/")).observe(
            time.perf_counter() - start
        )
        return 200, payload, {}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._active_requests += 1
        self._idle.clear()
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=READ_TIMEOUT
                )
            except ConnectionResetError:
                return
            except asyncio.TimeoutError:
                self.metrics.protocol_errors += 1
                await write_response(
                    writer, 408, {"error": "request read timed out"}
                )
                self.metrics.observe_response(408)
                return
            except HttpError as exc:
                self.metrics.protocol_errors += 1
                await write_response(writer, exc.status, {"error": exc.detail})
                self.metrics.observe_response(exc.status)
                return

            self.metrics.requests_total += 1
            route_method = _ROUTES.get(request.target, (None,))[0]
            is_probe = route_method == request.method == "GET"
            if self._draining and not is_probe:
                # Probe endpoints keep answering during the drain so an
                # orchestrator can tell "draining" from "dead"; work
                # endpoints are turned away immediately.
                await write_response(
                    writer,
                    503,
                    {"error": "server is draining"},
                    {"Retry-After": "1"},
                )
                self.metrics.observe_response(503)
                return
            try:
                status, payload, headers = await self._dispatch(request)
            except HttpError as exc:
                status, payload, headers = exc.status, {"error": exc.detail}, {}
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                status, payload, headers = (
                    500,
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    {},
                )
            await write_response(writer, status, payload, headers)
            self.metrics.observe_response(status)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _warm(self) -> None:
        from repro.gsu.templates import warm_templates

        start = time.perf_counter()
        warm_templates((PAPER_TABLE3,))
        self.warm_seconds = time.perf_counter() - start

    def request_stop(self) -> None:
        """Begin graceful shutdown (thread-safe)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # the loop has already closed: the server is stopped

    async def serve(self, on_ready=None) -> None:
        """Run the server until :meth:`request_stop` (or SIGTERM/SIGINT).

        ``on_ready`` is called (with this service) once the socket is
        bound and, when configured, the template cache is warm — the
        hook :func:`start_in_thread` and the load generator use to wait
        for readiness.
        """
        self._loop = asyncio.get_running_loop()
        self._idle.set()
        if self.config.warm:
            await self._loop.run_in_executor(self.executor, self._warm)
        server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]

        installed_signals = []
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self._stop.set)
                    installed_signals.append(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass

        try:
            if on_ready is not None:
                on_ready(self)
            await self._stop.wait()
            # Graceful drain: the listener stays open so GET /healthz
            # and /metrics can report "draining" (new work answers 503)
            # while in-flight requests finish; then it closes.
            self._draining = True
            if self._active_requests > 0:
                try:
                    await asyncio.wait_for(
                        self._idle.wait(), timeout=self.config.drain_timeout
                    )
                except asyncio.TimeoutError:
                    pass
            server.close()
            await server.wait_closed()
        finally:
            for signum in installed_signals:
                self._loop.remove_signal_handler(signum)
            self.synth_executor.shutdown(wait=True, cancel_futures=True)
            self.executor.shutdown(wait=True, cancel_futures=True)
            if self.cache.disk is not None:
                # The worker threads that owned the store connections
                # are gone; closing them checkpoints the store's WAL.
                self.cache.disk.close()


class ServerHandle:
    """A service running on a background thread (tests, loadgen, bench)."""

    def __init__(self, service: PerformabilityService, thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.service.config.host, self.port)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join the server thread."""
        self.service.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("server thread failed to stop in time")


def start_in_thread(
    config: ServeConfig | None = None,
    solve_fn: SolveFn | None = None,
    ready_timeout: float = 60.0,
) -> ServerHandle:
    """Start a service on a daemon thread and wait until it is ready.

    The embedding entry point: benchmarks, the load generator's
    self-test mode, and the end-to-end tests all run the real server
    (real sockets, real event loop) through this.
    """
    if config is None:
        config = ServeConfig(port=0)
    service = PerformabilityService(config, solve_fn=solve_fn)
    ready = threading.Event()
    failure: list[BaseException] = []

    def _run():
        try:
            asyncio.run(service.serve(on_ready=lambda _svc: ready.set()))
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            failure.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise RuntimeError("server did not become ready in time")
    if failure:
        raise RuntimeError(f"server failed to start: {failure[0]!r}")
    return ServerHandle(service, thread)

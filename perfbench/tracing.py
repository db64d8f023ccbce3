"""Spans around the program's layers, installed from the benchmark.

The traced run replaces, for its duration, the names each caller looks
up at call time — module globals such as ``repro.serve.service
.read_request`` (bound there by ``from ... import``) and class
attributes such as ``ResultCache.get`` — with wrappers that record a
span: name, start, end, parent span, request id and a few attributes.
The program's files are not touched; :func:`uninstall` restores every
original.

Spans stay in memory.  Process-pool workers install the same wrappers
through a pool initializer and append their spans to one file per
worker after each top-level span (forked workers never run ``atexit``),
so nothing is lost when the pool shuts down.  All processes time with
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
shares one time base across processes.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)


class Recorder:
    """In-memory span store (thread-safe appends, optional file flush)."""

    def __init__(self, flush_dir: Path | None = None):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.flush_dir = flush_dir
        self.pid = os.getpid()

    def next_id(self) -> str:
        return f"{self.pid}:{next(self._ids)}"

    def add(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)
        if self.flush_dir is not None and span["parent"] is None:
            self.flush()

    def flush(self) -> None:
        """Append buffered spans to this process's file and clear them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = Path(self.flush_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(recorder: Recorder, flush_dir: Path | None) -> list[dict]:
    """The recorder's spans plus every worker's flushed spans."""
    spans = list(recorder.spans)
    if flush_dir is not None and Path(flush_dir).is_dir():
        for path in sorted(Path(flush_dir).glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span(recorder, name, span_id, parent, start, end, attrs):
    recorder.add(
        {
            "name": name,
            "id": span_id,
            "parent": parent,
            "start": start,
            "end": end,
            "request": _REQUEST.get(),
            "pid": os.getpid(),
            "attrs": attrs,
        }
    )


def _wrap(fn, name, recorder, pre=None, post=None, request_root=False):
    """A span-recording stand-in for ``fn`` (sync or async).

    ``pre(args, kwargs)`` runs before the call and its value is handed
    to ``post(state, args, kwargs, result, error)``, which returns the
    span's attributes.  ``request_root`` gives the call (and everything
    it causes in its task) a fresh request id.
    """
    request_ids = itertools.count(1)

    def _enter(args, kwargs):
        span_id = recorder.next_id()
        request_token = (
            _REQUEST.set(f"{os.getpid()}:{next(request_ids)}")
            if request_root
            else None
        )
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        state = pre(args, kwargs) if pre is not None else None
        return span_id, parent, token, request_token, state

    def _exit(span_id, parent, token, request_token, state, start, args,
              kwargs, result, error):
        end = time.perf_counter()
        attrs = (
            post(state, args, kwargs, result, error) if post is not None else {}
        )
        if error is not None:
            attrs = dict(attrs or {}, error=error)
        _span(recorder, name, span_id, parent, start, end, attrs)
        _CURRENT.reset(token)
        if request_token is not None:
            _REQUEST.reset(request_token)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id, parent, token, request_token, state = _enter(args, kwargs)
            start = time.perf_counter()
            result = error = None
            try:
                result = await fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                _exit(span_id, parent, token, request_token, state, start,
                      args, kwargs, result, error)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, token, request_token, state = _enter(args, kwargs)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                _exit(span_id, parent, token, request_token, state, start,
                      args, kwargs, result, error)

    wrapper.__perfbench_original__ = fn
    wrapper.__perfbench_recorder__ = recorder
    return wrapper


# ----------------------------------------------------------------------
# Attribute hooks
# ----------------------------------------------------------------------
def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _points_at(position, name):
    def post(_state, args, kwargs, _result, _error):
        values = _arg(args, kwargs, position, name)
        return {"points": len(values) if values is not None else 0}

    return post


def _hit(_state, _args, _kwargs, result, _error):
    return {"hit": result is not None}


def _sources(_state, _args, _kwargs, result, _error):
    counts: dict[str, int] = {}
    for _record, source in result or ():
        counts[source] = counts.get(source, 0) + 1
    return {"sources": counts}


def _executor_jobs(_state, args, kwargs, _result, _error):
    backend = _arg(args, kwargs, 1, "backend") or "serial"
    jobs = _arg(args, kwargs, 2, "jobs") or 1
    return {"jobs": 1 if backend == "serial" else int(jobs)}


def _dispatch_before(_args, _kwargs):
    from repro.ctmc.config import dispatch_counts

    return dispatch_counts()


def _dispatch_delta(before, _args, _kwargs, _result, _error):
    from repro.ctmc.config import dispatch_counts

    after = dispatch_counts()
    return {
        "backends": {
            name: count - before.get(name, 0)
            for name, count in after.items()
            if count != before.get(name, 0)
        }
    }


def _template_before(args, _kwargs):
    return args[0].stats.snapshot()


def _template_kind(before, args, _kwargs, _result, _error):
    delta = args[0].stats.delta(before)
    for kind in ("compiles", "restamps", "fallbacks"):
        if getattr(delta, kind):
            return {"kind": kind}
    return {"kind": "none"}


def _states(_state, _args, _kwargs, result, _error):
    return {"states": int(result.num_states) if result is not None else 0}


def _synth_result(_state, _args, _kwargs, result, _error):
    if result is None:
        return {}
    return {
        "exact_points": int(result.points_evaluated),
        "surrogate_points": int(result.surrogate_points),
    }


def _surrogate_points(_state, args, kwargs, _result, _error):
    phis = _arg(args, kwargs, 2, "phis")
    return {"points": len(phis) if phis is not None else 1}


# (module, attribute path, span name, options) — the names callers look
# up at call time.  ``evaluate_batch`` is patched in every module that
# bound it at import, and in its home module for the lazy importers.
TARGETS = (
    # serve.http
    ("repro.serve.service", "read_request", "http.read", {}),
    ("repro.serve.service", "write_response", "http.write", {}),
    ("repro.serve.service", "PerformabilityService._handle_connection",
     "serve.request", {"request_root": True}),
    # serve.service (+ surrogate tier routing)
    ("repro.serve.service", "PerformabilityService.handle_evaluate",
     "service.evaluate", {}),
    ("repro.serve.service", "PerformabilityService.handle_optimal",
     "service.optimal", {}),
    ("repro.serve.service", "default_solve_fn", "batcher.solve",
     {"post": _points_at(1, "phis")}),
    # serve.batcher
    ("repro.serve.batcher", "CoalescingBatcher.evaluate", "batcher.evaluate",
     {"post": _sources}),
    ("repro.serve.batcher", "CoalescingBatcher._probe_disk",
     "batcher.probe_disk", {}),
    ("repro.serve.batcher", "CoalescingBatcher._dispatch", "batcher.dispatch",
     {}),
    # runtime.cache
    ("repro.runtime.cache", "MemoryLRUCache.get_key", "cache.memory_get",
     {"post": _hit}),
    ("repro.runtime.cache", "ResultCache.get", "cache.disk_get", {"post": _hit}),
    ("repro.runtime.cache", "ResultCache.put", "cache.disk_put", {}),
    # runtime.executor
    ("repro.runtime.campaign", "execute_tasks", "executor.execute",
     {"post": _executor_jobs}),
    ("repro.runtime.executor", "execute_fleet_tasks", "executor.execute",
     {"post": _executor_jobs}),
    ("repro.runtime.executor", "_solve_points", "executor.chunk",
     {"post": _points_at(1, "phis")}),
    ("repro.runtime.executor", "_solve_fleet_chunk", "executor.chunk",
     {"post": _points_at(2, "phis")}),
    # gsu.templates
    ("repro.gsu.templates", "TemplateCache.compiled", "templates.compiled",
     {"pre": _template_before, "post": _template_kind}),
    # gsu.measures / gsu.performability
    ("repro.gsu.measures", "ConstituentSolver.batch", "measures.batch",
     {"post": _points_at(1, "phis")}),
    ("repro.gsu.performability", "evaluate_batch", "performability.evaluate",
     {"post": _points_at(1, "phis")}),
    ("repro.runtime.executor", "evaluate_batch", "performability.evaluate",
     {"post": _points_at(1, "phis")}),
    ("repro.serve.service", "evaluate_batch", "performability.evaluate",
     {"post": _points_at(1, "phis")}),
    # san.rewards -> ctmc, and the fleet's direct ctmc calls
    *(
        ("repro.san.rewards", solver, "ctmc.solve",
         {"pre": _dispatch_before, "post": _dispatch_delta})
        for solver in (
            "transient_grid", "transient_distribution", "accumulated_grid",
            "accumulated_reward", "transient_accumulated_grid",
            "steady_state_distribution",
        )
    ),
    *(
        ("repro.gsu.fleet", solver, "ctmc.solve",
         {"pre": _dispatch_before, "post": _dispatch_delta})
        for solver in ("transient_distribution", "accumulated_reward")
    ),
    # san.composition / san.symmetry: fleet assembly
    *(
        ("repro.gsu.fleet", builder, "fleet.assemble", {"post": _states})
        for builder in (
            "fleet_lumped_chain", "fleet_grouped_lumped_chain", "fleet_chain",
        )
    ),
    # surrogate (serving tier and synthesis oracle)
    ("repro.surrogate.model", "SurrogateModel.grid_records", "surrogate.eval",
     {"post": _surrogate_points}),
    *(
        ("repro.surrogate.model", f"SurrogateModel.{method}", "surrogate.eval",
         {"post": lambda *_: {"points": 1}})
        for method in ("evaluate", "y_and_gradient", "partials")
    ),
    # surrogate fitter
    ("repro.surrogate.fitter", "fit_surrogate", "fit.fit", {}),
    ("repro.surrogate.fitter", "execute_surrogate_tasks", "fit.nodes", {}),
    # synth
    ("repro.synth.driver", "run_synthesis", "synth.run",
     {"post": _synth_result}),
)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Installation:
    """The wrappers currently in place, so they can be taken out again."""

    def __init__(self, recorder: Recorder, flush_dir: Path | None):
        self.recorder = recorder
        self.flush_dir = flush_dir
        self._originals: list[tuple[object, str, object]] = []

    def _replace(self, owner, attribute, replacement):
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot trace descriptor {owner.__name__}.{attribute}")
        else:
            original = getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def install(self) -> "Installation":
        for module_name, path, name, options in TARGETS:
            owner, attribute = _resolve(module_name, path)
            current = getattr(owner, attribute)
            if hasattr(current, "__perfbench_original__"):
                continue  # inherited from a forked parent
            self._replace(
                owner, attribute, _wrap(current, name, self.recorder, **options)
            )
        self._install_local_evaluate()
        self._install_pool()
        return self

    def _install_local_evaluate(self):
        """Span every exact evaluation the synthesis objective makes."""
        import repro.synth.objective as objective

        factory = objective.local_evaluate_fn
        if hasattr(factory, "__perfbench_original__"):
            return
        recorder = self.recorder

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return _wrap(
                factory(*args, **kwargs), "synth.eval", recorder,
                post=_points_at(1, "phis"),
            )

        traced_factory.__perfbench_original__ = factory
        self._replace(objective, "local_evaluate_fn", traced_factory)

    def _install_pool(self):
        """Give process-pool workers the same wrappers via an initializer."""
        import repro.runtime.executor as executor

        base = executor.ProcessPoolExecutor
        if hasattr(base, "__perfbench_original__"):
            return
        flush_dir = str(self.flush_dir) if self.flush_dir else None

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                kwargs.setdefault("initializer", worker_init)
                kwargs.setdefault("initargs", (flush_dir,))
                super().__init__(*args, **kwargs)

        TracedPool.__perfbench_original__ = base
        self._replace(executor, "ProcessPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()


def worker_init(flush_dir: str | None) -> None:
    """Pool initializer: a fresh recorder that flushes to ``flush_dir``.

    A forked worker inherits the parent's wrappers, which close over the
    parent's recorder, and the submitting thread's current span; the
    recorder's buffer and flush target are reset in place so the
    wrappers write to this worker's file, and the span context starts
    empty so each chunk is a top-level span.
    """
    _CURRENT.set(None)
    _REQUEST.set(None)
    target = Path(flush_dir) if flush_dir else None
    module_name, path, _name, _options = TARGETS[0]
    owner, attribute = _resolve(module_name, path)
    recorder = getattr(
        getattr(owner, attribute), "__perfbench_recorder__", None
    )
    if recorder is None:  # spawned worker: fresh interpreter, no wrappers
        Installation(Recorder(target), target).install()
        return
    with recorder._lock:
        recorder.spans = []
    recorder.flush_dir = target
    recorder.pid = os.getpid()


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
#: Every backend name ``repro.ctmc.config.record_dispatch`` is given.
CTMC_BACKENDS = (
    "spectral", "dense-expm", "augmented-expm", "krylov", "augmented-krylov",
    "uniformization", "streaming-uniformization", "quadrature",
    "steady-direct", "steady-iterative",
)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def _outermost(spans, name, by_id):
    """Spans called ``name`` whose parent is not also a ``name`` span."""
    return [
        span for span in spans
        if span["name"] == name
        and by_id.get(span["parent"], {}).get("name") != name
    ]


def _mean_duration(spans, scale):
    if not spans:
        return 0.0
    return sum(s["end"] - s["start"] for s in spans) * scale / len(spans)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer numbers (``0`` where a layer did no work)."""
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    named: dict[str, list[dict]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)

    def attr(span, key, default=0):
        return (span.get("attrs") or {}).get(key, default)

    metrics: dict[str, float] = {}
    # serve.http
    metrics["http.read_us"] = _mean_duration(named.get("http.read", []), 1e6)
    metrics["http.write_us"] = _mean_duration(named.get("http.write", []), 1e6)

    # serve.batcher
    evaluations = named.get("batcher.evaluate", [])
    waiting = [
        s for s in evaluations
        if set(attr(s, "sources", {})) - {"cache"} and "error" not in s["attrs"]
    ]
    metrics["batcher.wait_ms"] = (
        sum(own[s["id"]] for s in waiting) * 1e3 / len(waiting) if waiting else 0.0
    )
    solves = named.get("batcher.solve", [])
    metrics["batcher.solve_ms"] = _mean_duration(solves, 1e3)
    metrics["batcher.points_per_batch"] = (
        sum(attr(s, "points") for s in solves) / len(solves) if solves else 0.0
    )
    coalesced = sum(attr(s, "sources", {}).get("coalesced", 0) for s in evaluations)
    solved = sum(attr(s, "sources", {}).get("solved", 0) for s in evaluations)
    metrics["batcher.coalesced_share"] = (
        coalesced / (coalesced + solved) if coalesced + solved else 0.0
    )
    metrics["batcher.rejected"] = float(
        sum(1 for s in evaluations if attr(s, "error", None) == "OverloadedError")
    )

    # surrogate
    surrogate = _outermost(spans, "surrogate.eval", by_id)
    metrics["surrogate.grid_us"] = _mean_duration(surrogate, 1e6)
    metrics["surrogate.points"] = float(sum(attr(s, "points") for s in surrogate))

    # runtime.cache
    for tier, name in (("memory", "cache.memory_get"), ("disk", "cache.disk_get")):
        gets = named.get(name, [])
        metrics[f"cache.{tier}_get_us"] = _mean_duration(gets, 1e6)
        metrics[f"cache.{tier}_hit_share"] = (
            sum(1 for s in gets if attr(s, "hit", False)) / len(gets) if gets else 0.0
        )
    metrics["cache.disk_put_us"] = _mean_duration(named.get("cache.disk_put", []), 1e6)

    # runtime.executor
    chunks = named.get("executor.chunk", [])
    executions = _outermost(spans, "executor.execute", by_id)
    metrics["executor.chunks"] = float(len(chunks))
    metrics["executor.points_per_chunk"] = (
        sum(attr(s, "points") for s in chunks) / len(chunks) if chunks else 0.0
    )
    capacity = sum((s["end"] - s["start"]) * attr(s, "jobs", 1) for s in executions)
    busy = sum(s["end"] - s["start"] for s in chunks)
    metrics["executor.busy_share"] = busy / capacity if capacity else 0.0

    # gsu.templates
    compiled = named.get("templates.compiled", [])
    for kind in ("compiles", "restamps", "fallbacks"):
        metrics[f"templates.{kind}"] = float(
            sum(1 for s in compiled if attr(s, "kind", None) == kind)
        )
    metrics["templates.restamp_us"] = _mean_duration(
        [s for s in compiled if attr(s, "kind", None) == "restamps"], 1e6
    )

    # gsu.measures / gsu.performability
    metrics["measures.batch_ms"] = _mean_duration(
        _outermost(spans, "measures.batch", by_id), 1e3
    )
    aggregations = _outermost(spans, "performability.evaluate", by_id)
    points = sum(attr(s, "points") for s in aggregations)
    metrics["performability.aggregate_us"] = (
        sum(own[s["id"]] for s in aggregations) * 1e6 / points if points else 0.0
    )

    # ctmc backends, attributed by dispatch-counter delta
    calls = dict.fromkeys(CTMC_BACKENDS, 0.0)
    millis = dict.fromkeys(CTMC_BACKENDS, 0.0)
    for span in _outermost(spans, "ctmc.solve", by_id):
        delta = attr(span, "backends", {})
        total = sum(delta.values())
        for backend, count in delta.items():
            calls[backend] = calls.get(backend, 0.0) + count
            millis[backend] = millis.get(backend, 0.0) + (
                (span["end"] - span["start"]) * 1e3 * count / total
            )
    for backend in calls:
        metrics[f"ctmc.{backend}.calls"] = float(calls[backend])
        metrics[f"ctmc.{backend}.ms"] = float(millis[backend])

    # san.composition / san.symmetry
    assemblies = named.get("fleet.assemble", [])
    metrics["fleet.assemble_ms"] = _mean_duration(assemblies, 1e3)
    metrics["fleet.states"] = (
        sum(attr(s, "states") for s in assemblies) / len(assemblies)
        if assemblies else 0.0
    )

    # surrogate fitter: node solves vs the tensor fit + certification
    fits = named.get("fit.fit", [])
    nodes = named.get("fit.nodes", [])
    metrics["fit.node_s"] = _mean_duration(nodes, 1.0) if fits else 0.0
    metrics["fit.certify_s"] = (
        sum(own[s["id"]] for s in fits) / len(fits) if fits else 0.0
    )

    # synth
    runs = named.get("synth.run", [])
    metrics["synth.exact_points"] = (
        sum(attr(s, "exact_points") for s in runs) / len(runs) if runs else 0.0
    )
    metrics["synth.surrogate_points"] = (
        sum(attr(s, "surrogate_points") for s in runs) / len(runs) if runs else 0.0
    )
    metrics["synth.eval_ms"] = _mean_duration(named.get("synth.eval", []), 1e3)
    return metrics


def self_time_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: count, total and self milliseconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += (span["end"] - span["start"]) * 1e3
        row["self_ms"] += own[span["id"]] * 1e3
    return table

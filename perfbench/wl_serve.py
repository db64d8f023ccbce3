"""The ``serve`` workload: ``repro serve`` under open-loop HTTP load.

The server runs in its own process, started through the program's CLI
(``repro serve --jobs nproc --surrogate ARTIFACT --cache-dir FRESH``);
for the traced pass through :mod:`serve_launcher`, which installs the
span wrappers first.  This process is the single-threaded asyncio
generator (:mod:`loadgen`).

Traffic mix (seeded): 40% in-box ``/evaluate`` with a random coverage
and ``max_error`` 1e-5 (the surrogate tier answers), 40% ``/evaluate``
over 32 popular six-lever parameter sets drawn with Zipf popularity
(memory-tier hits), 15% ``/evaluate`` with fresh parameters (batcher +
solver misses that also write to disk), 5% ``/optimal``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import loadgen

#: Light-load rate (requests per second) of ``latency_ms``, measured
#: before the ladder.  At 100 req/s the server on a 2-core machine is
#: about half busy, so queueing enlarges any change in the machine's
#: speed: in three sets of five to ten runs its p50 spread 0.16-0.32
#: (interquartile distance over median), the 50 req/s p50 0.08-0.22.
LIGHT_RATE = 50
#: Arrival-rate ladder (requests per second).
RATES = (100, 150, 200, 300, 400, 600)
#: A rung fails when its p99 exceeds this (milliseconds).
P99_LIMIT_MS = 50.0
#: A rung fails when the backlog wait of its last quarter exceeds its
#: first quarter's by more than this (milliseconds): a growing backlog.
BACKLOG_GROWTH_MS = 10.0
#: Share of the measured seconds given to the light-load rung, to the
#: 100 req/s rung (enough arrivals that ten lie beyond its p99) and to
#: each higher rung.
LIGHT_SHARE = 0.25
FIRST_RUNG_SHARE = 0.45
RUNG_SHARE = 0.05
#: Closed-loop capacity probe: requests per measured second (about a
#: fifth of the run on a quiet machine).
CAPACITY_REQUESTS_PER_SECOND = 60
#: Completions per throughput sample in the capacity probe.  Capacity is
#: the median over these groups: a group's rate depends on how many
#: solver misses it holds, and over ten runs the upper decile of about
#: 30 groups spread 0.22 (interquartile distance over median), the
#: median 0.13.
CAPACITY_GROUP = 40
#: Responses per answer class re-checked against a direct solve.
CHECK_SAMPLES = 24
#: The mix, as request kinds per block of 20: each block is shuffled, so
#: every 20 consecutive requests hold exactly 8/8/3/1 of the kinds.
MIX_BLOCK = ("surrogate",) * 8 + ("popular",) * 8 + ("fresh",) * 3 + ("optimal",)
POPULAR_SETS = 32
ZIPF_EXPONENT = 1.1
SURROGATE_MAX_ERROR = 1e-5


class Mix:
    """Seeded request source for the traffic mix."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._block: list[str] = []
        self.popular = [common.random_levers(self.rng) for _ in range(POPULAR_SETS)]
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(POPULAR_SETS)]
        total = sum(weights)
        self.popular_weights = [w / total for w in weights]

    def _popular(self) -> dict:
        return self.rng.choices(self.popular, weights=self.popular_weights)[0]

    def next(self) -> loadgen.Request:
        if not self._block:
            self._block = list(MIX_BLOCK)
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "surrogate":
            body = {
                "params": {"coverage": round(self.rng.uniform(0.80, 0.995), 6)},
                "max_error": SURROGATE_MAX_ERROR,
            }
            return loadgen.Request(kind, "/evaluate", body)
        if kind == "popular":
            return loadgen.Request(kind, "/evaluate", {"params": self._popular()})
        if kind == "fresh":
            body = {"params": common.random_levers(self.rng)}
            return loadgen.Request(kind, "/evaluate", body)
        body = {"params": self._popular(), "step": 1000.0}
        return loadgen.Request(kind, "/optimal", body)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` child process on an ephemeral port."""

    def __init__(self, artifact: Path, cache_dir: Path, log: Path,
                 spans: Path | None):
        jobs = str(os.cpu_count() or 1)
        args = ["serve", "--port", "0", "--jobs", jobs,
                "--surrogate", str(artifact), "--cache-dir", str(cache_dir)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            command = [sys.executable, str(launcher), str(spans), *args]
        self._log = open(log, "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log,
            env=common.child_env(), cwd=common.ROOT, text=True,
        )
        self.port = self._await_ready(timeout=120.0)

    def _await_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                return int(address.rsplit(":", 1)[1])
        self.stop()
        raise common.BenchError("repro serve did not become ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def _fit_surrogate(path: Path, cache_dir: Path, log: Path) -> None:
    """The serving tier's artifact: ``repro surrogate fit --spec table3``."""
    with open(log, "w") as handle:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "surrogate", "fit", "--spec",
             "table3", "--out", str(path), "--cache-dir", str(cache_dir)],
            stdout=handle, stderr=subprocess.STDOUT,
            env=common.child_env(), cwd=common.ROOT, timeout=300,
        )
    if completed.returncode != 0 or not path.is_file():
        raise common.BenchError(f"surrogate fit failed (see {log})")


def _start(work: Path, index: int, spans: Path | None) -> tuple[Server, float]:
    """Fit the artifact and start a server from scratch; time both."""
    start = time.perf_counter()
    artifact = work / f"surrogate-{index}.json"
    _fit_surrogate(artifact, work / f"fit-cache-{index}", work / f"fit-{index}.log")
    server = Server(artifact, work / f"cache-{index}", work / f"serve-{index}.log",
                    spans)
    return server, time.perf_counter() - start


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------
def _latency_ms(outcome: loadgen.Outcome) -> float:
    """Latency from the due time; a failed request misses every limit."""
    return outcome.latency * 1e3 if _ok(outcome) else float("inf")


def _rung_summary(rate: float, outcomes: list[loadgen.Outcome]) -> dict:
    latencies = [_latency_ms(o) for o in outcomes]
    quarter = max(1, len(outcomes) // 4)
    waits = [o.queue_wait * 1e3 for o in outcomes]
    growth = statistics.fmean(waits[-quarter:]) - statistics.fmean(waits[:quarter])
    p99 = common.percentile(latencies, 0.99)
    return {
        "rate": rate,
        "sent": len(outcomes),
        "succeeded": sum(1 for o in outcomes if _ok(o)),
        "status_429": sum(1 for o in outcomes if o.status == 429),
        "failed": sum(1 for o in outcomes if not _ok(o)),
        "p50_ms": common.percentile(latencies, 0.5),
        "p99_ms": p99,
        "loop_late_p99_ms": common.percentile(
            [o.loop_late * 1e3 for o in outcomes], 0.99
        ),
        "backlog_growth_ms": growth,
        "passed": p99 <= P99_LIMIT_MS and growth <= BACKLOG_GROWTH_MS,
        "requests": [
            [round(o.due - outcomes[0].due, 4), round(lat, 4), o.request.kind]
            for o, lat in zip(outcomes, latencies)
        ],
        "by_kind_p50_ms": {
            kind: common.percentile(
                [lat for o, lat in zip(outcomes, latencies)
                 if o.request.kind == kind], 0.5)
            for kind in sorted({o.request.kind for o in outcomes})
        },
    }


def _ok(outcome: loadgen.Outcome) -> bool:
    return outcome.error is None and outcome.status == 200 and outcome.body is not None


async def _drive(port: int, mix: Mix, seconds: float) -> dict:
    """Warm-up, the rate ladder, then the closed-loop capacity probe."""
    host, slots = "127.0.0.1", os.cpu_count() or 1
    # Warm-up (untimed): one request per popular set fills the memory tier.
    warm = [loadgen.Request("popular", "/evaluate", {"params": p})
            for p in mix.popular]
    await loadgen.run_open_loop(host, port, warm, [0.0] * len(warm), slots)

    async def rung(rate, share):
        offsets = loadgen.poisson_schedule(rate, seconds * share, mix.rng)
        requests = [mix.next() for _ in offsets]
        outcomes = await loadgen.run_open_loop(host, port, requests, offsets, slots)
        kept.extend(outcomes)
        return _rung_summary(rate, outcomes)

    kept = []
    light = await rung(LIGHT_RATE, LIGHT_SHARE)
    rungs = []
    for index, rate in enumerate(RATES):
        rungs.append(await rung(rate, FIRST_RUNG_SHARE if index == 0 else RUNG_SHARE))
        if not rungs[-1]["passed"]:
            break

    closed = await loadgen.run_closed_loop(
        host, port, mix.next, int(seconds * CAPACITY_REQUESTS_PER_SECOND), slots
    )
    kept.extend(closed)
    # Throughput per group of consecutive completions: points answered
    # over the time since the previous group completed.
    ordered = sorted(closed, key=lambda o: o.done)
    rates, previous = [], ordered[0].due if ordered else 0.0
    for first in range(0, len(ordered) - CAPACITY_GROUP + 1, CAPACITY_GROUP):
        group = ordered[first:first + CAPACITY_GROUP]
        rates.append(sum(_points(o) for o in group) / (group[-1].done - previous))
        previous = group[-1].done
    return {
        "light": light,
        "rungs": rungs,
        "outcomes": kept,
        "capacity": {
            "requests": len(closed),
            "points": sum(_points(o) for o in closed),
            "group_points_per_s": rates,
            "points_per_s": statistics.median(rates),
        },
    }


def _points(outcome: loadgen.Outcome) -> int:
    """Y points in a successful answer (0 for a failed request)."""
    if not _ok(outcome):
        return 0
    payload = json.loads(outcome.body)
    if outcome.request.path == "/evaluate":
        return len(payload.get("points", ()))
    return len(payload["grid"]["phis"])


# ----------------------------------------------------------------------
# Answer checks
# ----------------------------------------------------------------------
def _params(overrides: dict):
    from repro.gsu.parameters import PAPER_TABLE3

    return PAPER_TABLE3.with_overrides(
        **{name: float(value) for name, value in overrides.items()}
    )


def _direct_records(overrides: dict, phis: list[float]) -> list[dict]:
    from repro.gsu.measures import ConstituentSolver
    from repro.gsu.performability import evaluate_batch
    from repro.runtime.records import record_from_evaluation

    params = _params(overrides)
    records = [
        record_from_evaluation(e)
        for e in evaluate_batch(params, phis, solver=ConstituentSolver(params))
    ]
    return json.loads(json.dumps(records))


def check_answers(outcomes: list[loadgen.Outcome], seed: int) -> tuple[int, dict]:
    """Re-check a seeded sample of answers; returns (mismatches, details).

    Every 200 is first checked for shape.  Then up to ``CHECK_SAMPLES``
    answers per class are compared with a direct
    ``ConstituentSolver(params).batch`` solve: cache-tier and solved
    answers bitwise, surrogate answers within their certified
    ``error_bound``.  A mismatch counts as a failed operation.
    """
    from repro.runtime.spec import default_grid

    classes: dict[str, list[tuple[loadgen.Outcome, dict]]] = {}
    wrong = 0
    for outcome in outcomes:
        if not _ok(outcome):
            continue
        try:
            payload = json.loads(outcome.body)
        except ValueError:
            wrong += 1
            continue
        if outcome.request.path == "/optimal":
            if not 0.0 <= payload.get("phi", -1.0) <= 10_000.0:
                wrong += 1
            classes.setdefault("optimal", []).append((outcome, payload))
            continue
        sources = {p.get("source") for p in payload.get("points", ())}
        if len(payload.get("points", ())) != 11:
            wrong += 1
            continue
        key = "surrogate" if sources == {"surrogate"} else (
            "cache" if sources == {"cache"} else "solved"
        )
        classes.setdefault(key, []).append((outcome, payload))

    rng = random.Random(seed ^ 0x5EED)
    checked: dict[str, int] = {}
    mismatched: dict[str, int] = {}
    for key, members in sorted(classes.items()):
        sample = rng.sample(members, min(CHECK_SAMPLES, len(members)))
        checked[key] = len(sample)
        mismatched[key] = 0
        for outcome, payload in sample:
            body = outcome.request.body
            if key == "optimal":
                phis = payload["grid"]["phis"]
                direct = _direct_records(body["params"], phis)
                ok = payload["grid"]["values"] == [r["value"] for r in direct]
            else:
                phis = default_grid(10_000.0, step=1000.0)
                direct = _direct_records(body["params"], phis)
                if key == "surrogate":
                    ok = all(
                        abs(p["y"] - d["value"]) <= p["error_bound"]
                        for p, d in zip(payload["points"], direct)
                    )
                else:
                    ok = [p["record"] for p in payload["points"]] == direct
            if not ok:
                mismatched[key] += 1
                wrong += 1
    return wrong, {"checked": checked, "mismatched": mismatched,
                   "answers": {k: len(v) for k, v in classes.items()}}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
SETUP_REPEATS = 3


def run(seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """One benchmark run; returns metrics and everything behind them."""
    passes = [("untraced", None, seconds)]
    if traced:
        # Same plan twice at half length: untraced, then traced.
        passes = [("untraced", None, seconds / 2),
                  ("traced", work / "server-spans.jsonl", seconds / 2)]

    setups, server = [], None
    for index in range(SETUP_REPEATS):
        spans = passes[0][1]
        server, elapsed = _start(work, index, spans)
        setups.append(elapsed)
        if index < SETUP_REPEATS - 1:
            server.stop()

    results = {}
    for number, (label, spans, length) in enumerate(passes):
        if number > 0:
            server, _ = _start(work, SETUP_REPEATS + number, spans)
        try:
            results[label] = asyncio.run(_drive(server.port, Mix(seed), length))
        finally:
            server.stop()

    untraced = results["untraced"]
    outcomes = [o for r in results.values() for o in r["outcomes"]]
    wrong, check = check_answers(untraced["outcomes"], seed)
    if traced:
        extra_wrong, _ = check_answers(results["traced"]["outcomes"], seed)
        wrong += extra_wrong
    failed = sum(1 for o in outcomes if not _ok(o)) + wrong

    def headline(result):
        rungs = result["rungs"]
        first = rungs[0]
        passing = [r["rate"] for r in rungs if r["passed"]]
        return {
            "latency_ms": result["light"]["p50_ms"],
            "p50_ms": first["p50_ms"],
            # Reported only with at least ten samples beyond it.
            "p99_ms": first["p99_ms"] if first["sent"] * 0.01 >= 10 else None,
            "max_rate_rps": float(passing[-1]) if passing else 0.0,
            "points_per_s": result["capacity"]["points_per_s"],
        }

    main = headline(untraced)
    report = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "points_per_s": main["points_per_s"],
            "latency_ms": main["latency_ms"],
        },
        "extra": {
            "p50_ms": main["p50_ms"],
            "p99_ms": main["p99_ms"],
            "max_rate_rps": main["max_rate_rps"],
            "failed_share": failed / len(outcomes),
        },
        "attempted": len(outcomes),
        "failed": failed,
        "wrong": wrong,
        "details": {
            "setup_samples_s": setups,
            "light_rung": untraced["light"],
            "rungs": untraced["rungs"],
            "capacity": untraced["capacity"],
            "checks": check,
        },
    }
    if traced:
        from tracing import layer_metrics, self_time_table

        spans_path = passes[1][1]
        spans = [json.loads(line) for line in open(spans_path) if line.strip()]
        layers = layer_metrics(spans)
        traced_main = headline(results["traced"])
        layers["loadgen.late_ms_p99"] = results["traced"]["rungs"][0][
            "loop_late_p99_ms"
        ]
        layers["overhead.latency_ms"] = (
            traced_main["latency_ms"] - main["latency_ms"]
        )
        layers["overhead.points_per_s"] = (
            traced_main["points_per_s"] - main["points_per_s"]
        )
        report["layers"] = layers
        report["details"]["traced_rungs"] = results["traced"]["rungs"]
        report["details"]["self_time"] = self_time_table(spans)
        report["spans"] = spans
    return report

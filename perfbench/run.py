"""Run one benchmark workload, or all of them, and print every metric.

Usage::

    python3 perfbench/run.py --workload study|serve|fleet --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A single workload prints its figures line by line and, as the last line
of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  ``all``
runs each workload untraced and traced in its own process and prints
one table, tracing overhead included.  Every run also writes its full
record (environment, per-rung tables, checks, spans) under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

import common

WORKLOADS = ("study", "serve", "fleet")

#: BLAS threads per process.  The program leaves BLAS at the library
#: default, one thread per core.  Its matrices have at most a few hundred
#: rows, so every small product pays thread hand-off, and process pools
#: oversubscribe the cores: on a 2-core machine that default made the
#: study 3x slower and its cycle times vary by 2x.  The benchmark pins
#: one thread so runs are comparable.  It therefore does not measure the
#: default's cost.  The value is recorded with every result.
BLAS_THREADS = "1"

#: Figures each workload prints beside the gated end-to-end metrics.
EXTRA_UNITS = {
    "failed_share": "share",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "max_rate_rps": "1/s",
    "replay_points_per_s": "1/s",
    "fit_s": "s",
    "synth_s": "s",
}


def load_contract() -> dict:
    path = common.ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise common.BenchError(f"cannot read {path}: {exc}") from exc


def _module(workload: str):
    if workload == "study":
        import wl_study as module
    elif workload == "serve":
        import wl_serve as module
    else:
        import wl_fleet as module
    return module


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return str(value)
    return f"{value:.6g}"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    contract = load_contract()
    common.require_program()
    work = common.make_work_dir(f"{workload}-s{seed}")
    common.settle_disk()  # what earlier runs wrote lands before set-up
    started = time.perf_counter()
    try:
        report = _module(workload).run(seed, float(seconds), trace, work)
        if trace:
            import ladder

            report["layers"].update(ladder.run())
    finally:
        common.cleanup(work)

    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    source = report["layers"] if trace else report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise common.BenchError(f"{workload} did not measure {missing}")
    metrics = {
        m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }

    spans = report.pop("spans", None)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": time.perf_counter() - started,
        "environment": common.environment(seed),
        **report,
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    path = common.write_result(f"{tag}.json", record)
    if spans is not None:
        spans_path = common.RESULTS / f"{tag}-spans.jsonl"
        with open(spans_path, "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    print(f"# {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    env = record["environment"]
    print(
        f"# env: sha={env['git_sha'] or 'n/a'} src={env['source_sha256'][:12]} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"blas={env['blas'].get('name')}x{env['blas'].get('threads')} "
        f"nproc={env['nproc']}"
    )
    for name in sorted(report["metrics"]):
        unit = next(
            (m["unit"] for m in contract["end_to_end"] if m["name"] == name), ""
        )
        print(f"{workload} {name} = {_format(report['metrics'][name])} {unit}")
    for name, value in sorted(report["extra"].items()):
        print(f"{workload} {name} = {_format(value)} {EXTRA_UNITS.get(name, '')}")
    if trace:
        for name, value in sorted(report["layers"].items()):
            print(f"{workload} layer {name} = {_format(value)}")
    print(f"# attempted={report['attempted']} failed={report['failed']} "
          f"wrong={report['wrong']} record={path.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in a fresh process."""
    contract = load_contract()
    common.require_program()
    rows, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=common.ROOT,
            )
            # Everything but the machine-readable last line.
            sys.stdout.write("".join(completed.stdout.splitlines(True)[:-1]))
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                status = completed.returncode
                continue
            record = json.loads(
                (common.RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                .read_text()
            )
            rows[(workload, trace)] = record
    print()
    print(f"{'workload':<8} {'metric':<22} {'value':>12}  unit")
    for workload in WORKLOADS:
        record = rows.get((workload, 0))
        if record is None:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            print(f"{workload:<8} {name:<22} "
                  f"{_format(record['metrics'][name]):>12}  {metric['unit']}")
        for name, value in sorted(record["extra"].items()):
            print(f"{workload:<8} {name:<22} {_format(value):>12}  "
                  f"{EXTRA_UNITS.get(name, '')}")
        traced = rows.get((workload, 1))
        if traced is not None:
            for metric in contract["per_layer"]:
                name = metric["name"]
                if name.startswith("overhead."):
                    print(f"{workload:<8} {'trace.' + name:<22} "
                          f"{_format(traced['layers'][name]):>12}  {metric['unit']}")
    summary = {f"{w}-trace{t}": r for (w, t), r in rows.items()}
    common.write_result(f"summary-seed{seed}.json", summary)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so servers and pools it started stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = BLAS_THREADS  # before numpy loads; children inherit
    try:
        seconds = args.seconds or load_contract()["run_seconds"]
        if args.workload == "all":
            return run_all(args.seed, seconds)
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The ``fleet`` workload: cold ``repro fleet`` runs on lumped quotients.

A run plans and executes six seeded fleet configurations the way
``repro fleet`` does (``plan_fleet_tasks`` + ``execute_fleet_tasks``,
lumped mode, no cache), each on an 11-point ``phi`` grid.  Fleet sizes
are fixed so every seed does the same amount of work — homogeneous
fleets of 6 to 10 processes (84 to 286 lumped states) plus one staged
upgrade, 3 of 6 processes upgraded, on the grouped quotient (400
states); the seed draws their rates, all but ``lam``.  Rounds over the
six repeat, cold each time, until the measured seconds are used; each
configuration's time is its fastest round.  Every round of it is the
same deterministic computation in one process, so other tenants of the
machine can only add time to it: over ten runs the fastest round spread
0.08-0.14 (interquartile distance over median), the median round
0.21-0.24.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

import common

#: (processes, upgraded) per configuration; ``None`` = homogeneous.
SIZES = ((6, None), (7, None), (8, None), (9, None), (10, None), (6, 3))
GRID_POINTS = 11
#: ``latency_ms`` is one ``repro fleet`` run at the CLI default size, N = 9.
DEFAULT_PROCESSES = 9
#: Flat-oracle check: fleets this small have 4**N = 256 flat states.
ORACLE_PROCESSES = 4
ORACLE_UPGRADED = 2
ORACLE_PHIS = 3
ORACLE_TOLERANCE = 1e-8
SETUP_REPEATS = 5
SETUP_CODE = (
    "import repro.cli, repro.gsu.fleet, repro.runtime.executor, "
    "repro.runtime.tasks\n"
)


def _rates(rng: random.Random) -> dict:
    """Seeded rates; ``lam`` keeps its default because it sets the
    generator's norm and so the matrix exponential's squaring count."""
    return {
        "mu": round(rng.uniform(0.7e-4, 1.4e-4), 9),
        "coverage": round(rng.uniform(0.85, 0.99), 6),
        "p_ext": round(rng.uniform(0.05, 0.2), 6),
        "repair_rate": round(rng.uniform(1.5, 2.5), 6),
    }


def configurations(seed: int) -> list:
    from repro.gsu.fleet import FleetParameters

    rng = random.Random(f"fleet-{seed}")
    configs = []
    for processes, upgraded in SIZES:
        rates = _rates(rng)
        staged = {}
        if upgraded is not None:
            staged = {
                "n_upgraded": upgraded,
                "mu_legacy": round(rates["mu"] * rng.uniform(2.0, 5.0), 9),
            }
        configs.append(
            FleetParameters(n_processes=processes, repair_servers=2,
                            **rates, **staged)
        )
    return configs


def _round(configs: list) -> dict:
    from repro.runtime import executor
    from repro.runtime.tasks import plan_fleet_tasks

    runs = []
    for params in configs:
        phis = [i * params.theta / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        start = time.perf_counter()
        tasks = plan_fleet_tasks(params, phis, mode="lumped")
        outcomes = executor.execute_fleet_tasks(tasks)
        elapsed = time.perf_counter() - start
        runs.append({"params": params, "phis": phis,
                     "records": [o.record for o in outcomes], "seconds": elapsed})
    return {"runs": runs, "points": sum(len(r["records"]) for r in runs)}


def _check_records(this: dict, first: dict) -> int:
    """Shape and range of every answer: 0 <= Y <= 1, 0 <= op.time <= phi.

    Every round solves the same configurations, so its records must also
    equal the first round's bitwise.
    """
    wrong = 0
    for run, again in zip(this["runs"], first["runs"]):
        wrong += sum(a != b for a, b in zip(run["records"], again["records"]))
    for run in this["runs"]:
        for phi, record in zip(run["phis"], run["records"]):
            ok = (
                record["phi"] == phi
                and record["states"] == run["params"].lumped_states
                and 0.0 <= record["Y"] <= 1.0 + 1e-12
                and -1e-9 <= record["operational_time"] <= phi * (1 + 1e-9) + 1e-9
            )
            wrong += not ok
    return wrong


def _check_oracles(seed: int, first_round: dict) -> tuple[int, int, dict]:
    """Direct and flat-chain oracles; returns (operations, mismatches, info).

    * The smallest configuration's records equal a direct
      ``FleetSolver(mode="lumped").batch`` bitwise.
    * The lumped curve matches ``FleetSolver(mode="flat")`` on the
      first configuration's rates at N = 4, homogeneous and staged
      (2 of 4 upgraded): the flat oracle at N = 6 has 4096 states, past
      the dense limit, and takes minutes per curve.
    """
    from repro.gsu.fleet import FleetSolver

    wrong = operations = 0
    first = first_round["runs"][0]
    direct = FleetSolver(first["params"], mode="lumped").batch(first["phis"])
    for record, values in zip(first["records"], direct):
        operations += 1
        wrong += (record["Y"], record["operational_time"]) != (
            values["Y"], values["operational_time"]
        )

    rng = random.Random(f"fleet-oracle-{seed}")
    base = first["params"]
    phis = sorted(rng.uniform(0.0, base.theta) for _ in range(ORACLE_PHIS))
    worst = 0.0
    for staged in ({}, {"n_upgraded": ORACLE_UPGRADED,
                        "mu_legacy": base.mu * 3.0}):
        params = base.with_overrides(n_processes=ORACLE_PROCESSES, **staged)
        lumped = FleetSolver(params, mode="lumped").batch(phis)
        flat = FleetSolver(params, mode="flat").batch(phis)
        for a, b in zip(lumped, flat):
            operations += 1
            error = max(
                abs(a["Y"] - b["Y"]),
                abs(a["operational_time"] - b["operational_time"])
                / max(1.0, abs(b["operational_time"])),
            )
            worst = max(worst, error)
            wrong += error > ORACLE_TOLERANCE
    return operations, wrong, {"flat_oracle_worst": worst}


def _rounds(configs: list, seconds: float) -> list[dict]:
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(_round(configs))
    return rounds


def run(seed: int, seconds: float, traced: bool, work: Path) -> dict:
    setups = [common.timed_python(SETUP_CODE) for _ in range(SETUP_REPEATS)]
    common.require_program()
    import repro.runtime.executor  # noqa: F401  (the import is set-up)

    configs = configurations(seed)
    untraced = _rounds(configs, seconds / 2 if traced else seconds)
    traced_rounds = []
    if traced:
        from tracing import Installation, Recorder, load_spans

        recorder = Recorder()
        installation = Installation(recorder, None).install()
        try:
            traced_rounds = _rounds(configs, seconds / 2)
        finally:
            installation.uninstall()
        spans = load_spans(recorder, None)

    rounds = untraced + traced_rounds
    attempted = sum(c["points"] for c in rounds)
    wrong = sum(_check_records(c, rounds[0]) for c in rounds)
    operations, mismatches, oracle = _check_oracles(seed, rounds[0])
    attempted += operations
    wrong += mismatches

    def figures(group):
        seconds = [
            min(c["runs"][i]["seconds"] for c in group)
            for i in range(len(configs))
        ]
        default = next(
            i for i, params in enumerate(configs)
            if params.n_processes == DEFAULT_PROCESSES and not params.staged
        )
        return {
            "points_per_s": group[0]["points"] / sum(seconds),
            "latency_ms": seconds[default] * 1e3,
        }

    main = figures(untraced)
    report = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": common.peak_rss_mb(),
            "points_per_s": main["points_per_s"],
            "latency_ms": main["latency_ms"],
        },
        "extra": {"failed_share": wrong / attempted},
        "attempted": attempted,
        "failed": wrong,
        "wrong": wrong,
        "details": {
            "setup_samples_s": setups,
            "oracle": oracle,
            "rounds": [
                {
                    "runs_ms": {
                        r["params"].lumped_states: r["seconds"] * 1e3
                        for r in c["runs"]
                    },
                }
                for c in rounds
            ],
        },
    }
    if traced:
        from tracing import layer_metrics, self_time_table

        layers = layer_metrics(spans)
        again = figures(traced_rounds)
        layers["loadgen.late_ms_p99"] = 0.0
        layers["overhead.latency_ms"] = again["latency_ms"] - main["latency_ms"]
        layers["overhead.points_per_s"] = again["points_per_s"] - main["points_per_s"]
        report["layers"] = layers
        report["details"]["self_time"] = self_time_table(spans)
        report["spans"] = spans
    return report

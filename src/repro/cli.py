"""Command-line interface.

Exposes the reproduction's main entry points without writing Python::

    python -m repro evaluate --phi 7000
    python -m repro sweep --step 1000 --mu-new 5e-5
    python -m repro optimal --refine
    python -m repro synthesize --levers phi,coverage --budget 0.05 --validate
    python -m repro experiment FIG9 --jobs 4 --cache-dir ~/.repro-cache
    python -m repro campaign FIG9 --jobs 4 --run-dir runs/
    python -m repro campaign --spec my_campaign.json --backend process
    python -m repro serve --port 8351 --jobs 4 --cache-dir ~/.repro-cache
    python -m repro verify --profile table3 --jobs 4 --run-dir runs/
    python -m repro validate --phi 10 --replications 300
    python -m repro hybrid --phi 10 --replications 300
    python -m repro measure rmgd --predicate "MARK(detected)==1" --at 7000
    python -m repro solve my_model.json --predicate "MARK(up)==1"
    python -m repro export-model rmgd --format dot

Model-bound commands accept the Table 3 parameter overrides
(``--theta``, ``--lam``, ``--mu-new``, ``--mu-old``, ``--coverage``,
``--p-ext``, ``--alpha``, ``--beta``).  Batch commands (``sweep``,
``optimal``, ``experiment``, ``campaign``) accept the campaign-runtime
flags (``--jobs``, ``--backend``, ``--cache-dir``, ``--no-cache``,
``--run-dir``); every run solves its cache misses through the one
batched, template-restamped solve path.

Every verb validates its input through :mod:`repro.query`, the same
rules ``repro serve`` applies to HTTP bodies.  Exit status: 0 success,
1 a failed verdict or claim (``experiment``, ``verify``, ``validate``,
``synthesize --validate``), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro import query
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.plotting import ascii_curves
from repro.analysis.sweep import run_sweep
from repro.analysis.tables import optimum_table, sweep_table
from repro.ctmc.errors import CTMCError
from repro.gsu.fleet import FleetParameters
from repro.gsu.hybrid import hybrid_evaluate
from repro.gsu.measures import ConstituentSolver
from repro.gsu.models.rm_gd import build_rm_gd
from repro.gsu.models.rm_gp import build_rm_gp
from repro.gsu.models.rm_nd import build_rm_nd
from repro.gsu.optimizer import find_optimal_phi
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.gsu.performability import evaluate_index
from repro.gsu.validation import SCALED_VALIDATION_PARAMS, validate_constituents
from repro.runtime.campaign import RuntimeConfig, run_campaign, use_config
from repro.runtime.executor import BACKENDS
from repro.runtime.spec import FIGURE_CAMPAIGNS, CampaignSpec, figure_campaign
from repro.san.export import graph_to_dict, model_to_dict, model_to_dot
from repro.san.reachability import explore


def _add_parameter_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters (Table 3 overrides)")
    for name in query.PARAM_FIELDS:
        group.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)


def _params(args: argparse.Namespace, base=PAPER_TABLE3) -> GSUParameters:
    """``base`` with the Table 3 overrides given on the command line."""
    flags = {name: getattr(args, name) for name in query.PARAM_FIELDS}
    return query.gsu_params({k: v for k, v in flags.items() if v is not None}, base)


def _at_least(kind, low, what: str):
    """Argparse type: a ``kind`` value >= ``low``, with a clear message."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what} >= {low}, got {text!r}"
            ) from None
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _at_least(int, 1, "an integer")
_non_negative = _at_least(float, 0, "a number")


def _phi_list(text: str) -> list[float]:
    """Argparse type: a non-empty comma-separated list of numbers."""
    try:
        phis = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        phis = []
    if not phis:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    return phis


def _names(text: str) -> list[str]:
    """Argparse type: a comma-separated list of names."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _named_values(metavar: str, *kinds):
    """Argparse type for ``NAME=V1:V2...`` -> ``(name, v1, v2, ...)``,
    one converter in ``kinds`` per value."""

    def parse(text: str) -> tuple:
        name, sep, values = text.partition("=")
        parts = values.split(":")
        try:
            if not sep or len(parts) != len(kinds):
                raise ValueError(text)
            return (name.strip(), *(kind(v) for kind, v in zip(kinds, parts)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad {text!r} (expected {metavar})"
            ) from None

    return parse


def _cache_dir_arg(text: str) -> str:
    """Argparse type: a cache directory whose parent exists.

    The cache directory itself is created lazily, but a nonexistent
    *parent* is almost always a typo — rejecting it here gives a clear
    argparse error instead of a traceback from deep inside the executor
    on the first cache write.
    """
    path = Path(text).expanduser()
    parent = path if path.is_dir() else path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"cache directory parent {parent} does not exist"
        )
    return str(path)


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("campaign runtime")
    group.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker count for parallel execution (default 1)",
    )
    group.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="execution backend (default: serial, or process when --jobs > 1)",
    )
    group.add_argument(
        "--cache-dir", type=_cache_dir_arg, default=None, metavar="DIR",
        help="content-addressed result cache directory",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache even if --cache-dir is set",
    )
    group.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="write a run manifest and results under this directory",
    )


def _runtime_config_from(args: argparse.Namespace) -> RuntimeConfig:
    backend = args.backend
    if backend is None:
        backend = "process" if args.jobs > 1 else "serial"
    return RuntimeConfig(
        backend=backend,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        artifacts_dir=args.run_dir,
    )


def _add_gsu_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", choices=["rmgd", "rmgp", "rmnd"])
    parser.add_argument(
        "--rate", choices=["new", "old"], default="new",
        help="first-component fault rate for rmnd",
    )
    _add_parameter_flags(parser)


def _add_reward_flags(parser: argparse.ArgumentParser, solution: str) -> None:
    parser.add_argument(
        "--predicate", action="append", required=True, metavar="EXPR[:RATE]",
        help="predicate-rate pair over the model's places, e.g. "
             "'MARK(detected)==1 && MARK(failure)==0:1.0' "
             "(rate defaults to 1; repeatable)",
    )
    parser.add_argument(
        "--solution", choices=["instant", "accumulated", "steady"],
        default=solution,
    )
    parser.add_argument(
        "--at", type=_non_negative, default=None,
        help="time horizon for instant/accumulated solutions",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Performability analysis of guarded-operation duration "
            "(DSN 2002 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evaluate = sub.add_parser(
        "evaluate", help="evaluate the performability index Y at one phi"
    )
    evaluate.add_argument("--phi", type=float, required=True)
    _add_parameter_flags(evaluate)

    sweep = sub.add_parser("sweep", help="sweep Y(phi) over [0, theta]")
    sweep.add_argument("--step", type=float, default=1000.0)
    sweep.add_argument("--no-chart", action="store_true")
    _add_parameter_flags(sweep)
    _add_runtime_flags(sweep)

    optimal = sub.add_parser(
        "optimal", help="find the optimal guarded-operation duration"
    )
    optimal.add_argument("--step", type=float, default=1000.0)
    optimal.add_argument("--refine", action="store_true")
    _add_parameter_flags(optimal)
    _add_runtime_flags(optimal)

    experiment = sub.add_parser(
        "experiment", help="run a canned paper experiment"
    )
    experiment.add_argument(
        "experiment_id",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="paper artifact id (FIG9..FIG12, TAB1..TAB3) or 'all'",
    )
    _add_runtime_flags(experiment)

    campaign = sub.add_parser(
        "campaign",
        help="run a figure campaign (or a JSON campaign spec) through "
             "the parallel runtime with caching and run artifacts",
    )
    campaign.add_argument(
        "target",
        nargs="?",
        choices=sorted(FIGURE_CAMPAIGNS) + ["all"],
        default=None,
        help="figure campaign id (FIG9..FIG12) or 'all'; omit with --spec",
    )
    campaign.add_argument(
        "--spec", default=None, metavar="FILE",
        help="path to a JSON campaign spec (alternative to a figure id)",
    )
    campaign.add_argument(
        "--step", type=float, default=None,
        help="re-space every implicit phi grid (e.g. for smoke runs)",
    )
    campaign.add_argument("--no-chart", action="store_true")
    _add_runtime_flags(campaign)

    fleet = sub.add_parser(
        "fleet",
        help="evaluate fleet Y(phi): N replicated MDCD processes with a "
             "shared repair facility",
    )
    fleet.add_argument(
        "--phis", type=_phi_list, default=None, metavar="P1,P2,...",
        help="comma-separated phi grid (default: 11 points over [0, theta])",
    )
    fleet.add_argument(
        "--step", type=float, default=None,
        help="phi grid step over [0, theta] (alternative to --phis)",
    )
    fleet.add_argument(
        "--processes", type=_positive_int, default=9, metavar="N",
        help="fleet size N; the flat product space is 4**N (default 9)",
    )
    fleet.add_argument(
        "--repair-servers", type=_positive_int, default=2, metavar="S",
        help="concurrent repairs the shared facility sustains (default 2)",
    )
    fleet.add_argument(
        "--repair-rate", type=float, default=2.0, metavar="RATE",
        help="per-server repair completion rate per hour (default 2.0)",
    )
    fleet.add_argument(
        "--upgraded", type=int, default=None, metavar="K",
        help="staged upgrade: only the first K processes run the new "
             "version; the rest stay on the legacy fault-manifestation "
             "rate (requires --mu-legacy)",
    )
    fleet.add_argument(
        "--mu-legacy", type=float, default=None, metavar="RATE",
        help="legacy-version fault-manifestation rate per hour for the "
             "not-yet-upgraded processes (requires --upgraded)",
    )
    fleet.add_argument(
        "--json", action="store_true",
        help="emit the result records as JSON instead of a table",
    )
    _add_parameter_flags(fleet)
    _add_runtime_flags(fleet)

    synthesize = sub.add_parser(
        "synthesize",
        help="jointly optimize phi plus Table 3 levers (projected-"
             "gradient over a lever box, optional overhead budget) and "
             "report distribution-level measures of accumulated reward",
    )
    synthesize.add_argument(
        "--levers", type=_names, default="phi", metavar="L1,L2,...",
        help="comma-separated levers to search jointly; 'phi' is "
             "required (default: phi alone)",
    )
    synthesize.add_argument(
        "--bounds", type=_named_values("NAME=LO:HI", float, float),
        action="append", default=[], metavar="NAME=LO:HI",
        help="override a lever's box bounds (repeatable)",
    )
    synthesize.add_argument(
        "--budget", type=float, default=None, metavar="B",
        help="constrained mode: maximise Y subject to steady-state "
             "overhead (1-rho1)+(1-rho2) <= B",
    )
    synthesize.add_argument(
        "--max-iters", type=_positive_int, default=24,
        help="projected-gradient steps per start (default 24)",
    )
    synthesize.add_argument(
        "--starts", type=_positive_int, default=3,
        help="multi-start count: box centre plus corners (default 3)",
    )
    synthesize.add_argument(
        "--quantile", action="append", type=float, default=None,
        dest="quantiles", metavar="Q",
        help="report this quantile of the accumulated guarded-operation "
             "reward at the optimum (repeatable; default 0.25 0.5 0.9)",
    )
    synthesize.add_argument(
        "--tail", action="append", type=float, default=None,
        dest="tails", metavar="FRAC",
        help="report P(W > FRAC * max) exceedance at the optimum "
             "(repeatable; default 0.25 0.75)",
    )
    synthesize.add_argument(
        "--validate", action="store_true",
        help="conformance-check the analytic distribution measures "
             "against trajectory simulation (Sidak family-wise verdicts)",
    )
    synthesize.add_argument(
        "--replications", type=_positive_int, default=400,
        help="simulation replications for --validate (default 400)",
    )
    synthesize.add_argument(
        "--confidence", type=float, default=0.99,
        help="family-wise confidence for --validate (default 0.99)",
    )
    synthesize.add_argument(
        "--seed", type=int, default=None,
        help="root seed for --validate (default: the verify seed)",
    )
    synthesize.add_argument(
        "--surrogate", default=None, metavar="ARTIFACT",
        help="drive the search with this surrogate's closed-form values "
             "and analytic gradients (exact solver kept as line-search "
             "validator; typically >= 10x fewer exact solves)",
    )
    synthesize.add_argument(
        "--json", action="store_true",
        help="emit the full synthesis result as JSON",
    )
    _add_parameter_flags(synthesize)
    _add_runtime_flags(synthesize)

    serve = sub.add_parser(
        "serve",
        help="run the performability service: an asyncio HTTP server "
             "answering Y(phi) (/evaluate) and optimal-phi (/optimal) "
             "queries at interactive latency, with request coalescing, "
             "a tiered result cache and /healthz + /metrics endpoints",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8351,
        help="bind port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=2,
        help="solver worker threads (default 2)",
    )
    serve.add_argument(
        "--cache-dir", type=_cache_dir_arg, default=None, metavar="DIR",
        help="on-disk result cache shared with the CLI campaign paths",
    )
    serve.add_argument(
        "--memory-cache", type=_positive_int, default=4096, metavar="ENTRIES",
        help="in-memory LRU tier capacity (default 4096)",
    )
    serve.add_argument(
        "--queue-limit", type=_positive_int, default=1024,
        help="max registered-and-unsolved points before requests are "
             "rejected with 429 (default 1024)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="coalescing window before a batch dispatches (default 2ms)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint sent with 429 responses (default 1)",
    )
    serve.add_argument(
        "--no-warm", action="store_true",
        help="skip pre-compiling the SAN template cache at startup",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="grace period for in-flight requests on shutdown (default 10)",
    )
    serve.add_argument(
        "--surrogate", default=None, metavar="ARTIFACT",
        help="serve in-box /evaluate grids from this certified surrogate "
             "artifact, ahead of the cache and solver tiers",
    )

    surrogate = sub.add_parser(
        "surrogate",
        help="fit or evaluate a closed-form parametric surrogate: "
             "tensor-product Chebyshev approximants of the nine "
             "constituent measures with a certified sup-norm bound",
    )
    surrogate_sub = surrogate.add_subparsers(
        dest="surrogate_command", required=True
    )
    sfit = surrogate_sub.add_parser(
        "fit",
        help="evaluate the nine measures on a sparse Chebyshev grid and "
             "write a certified surrogate artifact",
    )
    sfit.add_argument(
        "--spec", choices=["table3", "smoke"], default="table3",
        help="parameter box preset: table3 = (phi, coverage) box around "
             "the paper's Table 3 point; smoke = small phi-only fit "
             "(default table3)",
    )
    sfit.add_argument(
        "--phi-degree", type=_positive_int, default=32,
        help="Chebyshev degree along the phi axis (default 32)",
    )
    sfit.add_argument(
        "--coverage-degree", type=_positive_int, default=10,
        help="Chebyshev degree along the coverage axis of the table3 "
             "spec (default 10)",
    )
    sfit.add_argument(
        "--axis", type=_named_values("NAME=LO:HI:DEG", float, float, int),
        action="append", default=[], metavar="NAME=LO:HI:DEG",
        help="custom box axis (repeatable; first must be phi); "
             "overrides --spec presets entirely when given",
    )
    sfit.add_argument(
        "--out", default="surrogates", metavar="PATH",
        help="artifact destination: a directory (content-addressed "
             "filename) or an exact file path (default ./surrogates)",
    )
    sfit.add_argument(
        "--spot-checks", type=int, default=16, metavar="N",
        help="random in-box spot-check points vs the exact solver "
             "folded into the certificate (default 16)",
    )
    sfit.add_argument(
        "--seed", type=int, default=7,
        help="seed for the spot-check sampler (default 7)",
    )
    sfit.add_argument(
        "--safety", type=float, default=4.0,
        help="certified bound = safety x worst held-out residual "
             "(default 4)",
    )
    _add_parameter_flags(sfit)
    _add_runtime_flags(sfit)
    seval = surrogate_sub.add_parser(
        "eval",
        help="answer Y(phi) from a surrogate artifact in microseconds",
    )
    seval.add_argument("artifact", help="path to a surrogate artifact")
    seval.add_argument(
        "--phis", type=_phi_list, default=None, metavar="P1,P2,...",
        help="phi grid to evaluate (default: the artifact's phi box "
             "sampled at 11 points)",
    )
    seval.add_argument(
        "--grad", action="store_true",
        help="also report the analytic gradient of Y at each point",
    )
    seval.add_argument(
        "--json", action="store_true",
        help="emit results as JSON",
    )
    _add_parameter_flags(seval)

    verify = sub.add_parser(
        "verify",
        help="conformance-check the analytic solution against trajectory "
             "simulation (nine constituent measures, composed E[W_phi] "
             "and Y, metamorphic invariants)",
    )
    verify.add_argument(
        "--profile",
        default="scaled",
        help="verification profile: table3 (paper parameters) or "
             "scaled (fast dynamics; default)",
    )
    verify.add_argument(
        "--phis", type=_phi_list, default=None, metavar="P1,P2,...",
        help="override the profile's phi grid (comma-separated)",
    )
    verify.add_argument(
        "--replications", type=int, default=None,
        help="override the profile's replications per model",
    )
    verify.add_argument(
        "--seed", type=int, default=None,
        help="override the profile's root seed",
    )
    verify.add_argument(
        "--confidence", type=float, default=None,
        help="override the verdict confidence level (profile default 0.99)",
    )
    verify.add_argument(
        "--surrogate", default=None, metavar="ARTIFACT",
        help="conformance-check this surrogate's answers (instead of "
             "the exact analytic solution) against simulation",
    )
    _add_runtime_flags(verify)

    for name, summary in (
        ("validate", "cross-validate reward models against protocol simulation"),
        ("hybrid", "hybrid evaluation: X' constituents from protocol simulation"),
    ):
        simulated = sub.add_parser(
            name,
            help=f"{summary} (defaults to the scaled validation parameter set)",
        )
        simulated.add_argument("--phi", type=float, default=10.0)
        simulated.add_argument("--replications", type=_positive_int, default=300)
        simulated.add_argument("--seed", type=int, default=0)
        _add_parameter_flags(simulated)

    measure = sub.add_parser(
        "measure",
        help="solve a custom reward measure on a GSU model from a "
             "textual predicate (UltraSAN MARK() syntax)",
    )
    _add_gsu_model_flags(measure)
    _add_reward_flags(measure, solution="instant")

    report = sub.add_parser(
        "report",
        help="generate the full reproduction report (markdown)",
    )
    report.add_argument("--output", default=None, help="write to a file")
    report.add_argument(
        "--no-extensions", action="store_true",
        help="skip the slower design-space extension studies",
    )

    solve = sub.add_parser(
        "solve",
        help="solve a reward measure on a user-supplied JSON SAN model",
    )
    solve.add_argument(
        "model_file", help="path to a declarative JSON model specification"
    )
    _add_reward_flags(solve, solution="steady")

    export = sub.add_parser(
        "export-model", help="export a SAN reward model (DOT or JSON)"
    )
    _add_gsu_model_flags(export)
    export.add_argument(
        "--format", choices=["dot", "json", "states"], default="dot"
    )

    return parser


def _cmd_evaluate(args) -> int:
    params = _params(args)
    [phi] = query.phi_grid(params, [args.phi])
    evaluation = evaluate_index(params, phi, solver=ConstituentSolver(params))
    print(f"Y({phi:g}) = {evaluation.value:.6f}")
    print(f"E[W_I]   = {evaluation.worth.ideal:.2f}")
    print(f"E[W_0]   = {evaluation.worth.unguarded:.2f}")
    print(f"E[W_phi] = {evaluation.worth.guarded:.2f} "
          f"(Y_S1 = {evaluation.y_s1:.2f}, Y_S2 = {evaluation.y_s2:.2f}, "
          f"gamma = {evaluation.gamma:.4f})")
    print("constituents:")
    for name, value in sorted(evaluation.constituents.items()):
        print(f"  {name:<22} = {value:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    params = _params(args)
    query.phi_grid(params, step=args.step)
    with use_config(_runtime_config_from(args)):
        sweep = run_sweep(params, step=args.step)
    print(sweep_table([sweep], title="Y(phi)"))
    print()
    print(optimum_table([sweep]))
    if not args.no_chart:
        print()
        print(ascii_curves([sweep], title="Y(phi)"))
    return 0


def _cmd_optimal(args) -> int:
    params = _params(args)
    query.phi_grid(params, step=args.step)
    with use_config(_runtime_config_from(args)):
        result = find_optimal_phi(params, step=args.step, refine=args.refine)
    verdict = "beneficial" if result.beneficial else "NOT beneficial"
    print(f"optimal phi = {result.phi:g} with Y = {result.y:.6f} ({verdict})")
    return 0


def _cmd_experiment(args) -> int:
    ids = sorted(EXPERIMENTS) if args.experiment_id == "all" else [args.experiment_id]
    status = 0
    with use_config(_runtime_config_from(args)):
        for experiment_id in ids:
            outcome = run_experiment(experiment_id)
            print(outcome.report)
            print()
            if not outcome.all_claims_hold:
                status = 1
    return status


def _print_cache_stats(stats) -> None:
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.corrupt} corrupt, {stats.writes} writes "
        f"(hit rate {stats.hit_rate:.0%})"
    )


def _cmd_campaign(args) -> int:
    if (args.target is None) == (args.spec is None):
        raise query.QueryError(
            "give exactly one of a figure id (FIG9..FIG12, all) or --spec FILE"
        )
    step = None if args.step is None else query.positive(args.step, "step")
    if args.spec is not None:
        spec = query.load_file(args.spec, CampaignSpec.from_json, "campaign spec")
        specs = [spec if step is None else spec.with_step(step)]
    else:
        ids = (
            sorted(FIGURE_CAMPAIGNS)
            if args.target == "all"
            else [args.target]
        )
        specs = [figure_campaign(i, step=step) for i in ids]

    config = _runtime_config_from(args)
    with use_config(config):
        for spec in specs:
            result = run_campaign(spec)
            print(sweep_table(result.sweeps, title=f"Campaign {spec.name}"))
            print()
            print(optimum_table(result.sweeps, title="Optima:"))
            if not args.no_chart:
                print()
                print(ascii_curves(result.sweeps, title=f"{spec.name} Y(phi)"))
            print()
            print(
                f"{spec.name}: {len(result.outcomes)} points "
                f"({result.tasks_computed} solved) on {config.backend} "
                f"backend, jobs={config.jobs}, wall {result.wall_seconds:.2f}s, "
                f"solver {result.solver_seconds:.2f}s"
            )
            if result.cache_stats is not None:
                _print_cache_stats(result.cache_stats)
            if result.artifacts is not None:
                print(f"manifest: {result.artifacts.manifest_path}")
            print()
    return 0


def _cmd_fleet(args) -> int:
    import time

    from repro.runtime.executor import execute_fleet_tasks
    from repro.runtime.tasks import plan_fleet_tasks

    params = query.fleet_params(
        {
            "n_processes": args.processes,
            "repair_servers": args.repair_servers,
            "repair_rate": args.repair_rate,
            "n_upgraded": args.upgraded,
            "mu_legacy": args.mu_legacy,
        },
        FleetParameters.from_gsu(_params(args)),
    )
    phis = query.fleet_grid(params, args.phis, args.step)

    config = _runtime_config_from(args)
    cache = config.make_cache()
    tasks = plan_fleet_tasks(params, phis)
    start = time.perf_counter()
    outcomes = execute_fleet_tasks(
        tasks, backend=config.backend, jobs=config.jobs, cache=cache
    )
    wall = time.perf_counter() - start

    if args.json:
        print(json.dumps([o.record for o in outcomes], indent=2))
        return 0
    states = outcomes[0].record["states"] if outcomes else 0
    staged = (
        f", {params.n_upgraded}/{params.n_processes} upgraded"
        if params.staged
        else ""
    )
    print(
        f"Fleet of {params.n_processes} MDCD processes, "
        f"{params.repair_servers} repair server(s){staged} "
        f"(lumped: {states} states)"
    )
    print(f"{'phi':>10}  {'Y(phi)':>10}  {'op.time':>12}")
    for outcome in outcomes:
        record = outcome.record
        print(
            f"{record['phi']:>10g}  {record['Y']:>10.6f}  "
            f"{record['operational_time']:>12.4f}"
        )
    solved = sum(1 for o in outcomes if not o.cached)
    print(
        f"{len(outcomes)} points ({solved} solved) on {config.backend} "
        f"backend, jobs={config.jobs}, wall {wall:.2f}s"
    )
    if cache is not None:
        _print_cache_stats(cache.stats)
    return 0


def _cmd_synthesize(args) -> int:
    from repro.gsu.measures import RS_INT_TAU_H
    from repro.synth import (
        accumulated_distribution,
        apply_point,
        run_synthesis,
        synthesis_conformance,
    )
    from repro.verify.conformance import DEFAULT_VERIFY_SEED

    params = _params(args)
    problem, synth_config = query.synthesis_request(
        params,
        args.levers,
        {name: (lo, hi) for name, lo, hi in args.bounds},
        args.budget,
        args.max_iters,
        args.starts,
    )
    surrogate = (
        None if args.surrogate is None else query.load_surrogate(args.surrogate)
    )
    config = _runtime_config_from(args)
    result = run_synthesis(
        problem,
        synth_config,
        cache=config.make_cache(),
        surrogate=surrogate,
    )

    quantiles = tuple(args.quantiles) if args.quantiles else (0.25, 0.5, 0.9)
    tails = tuple(args.tails) if args.tails else (0.25, 0.75)
    optimum = result.optimum()
    opt_params, opt_phi = apply_point(params, problem.levers, result.point)
    horizon = max(opt_phi, 1e-3 * opt_params.theta)
    solver = ConstituentSolver(opt_params)
    dist = accumulated_distribution(
        solver.rm_gd.chain,
        RS_INT_TAU_H.rate_vector(solver.rm_gd),
        horizon,
    )
    dist_summary = dist.describe()
    dist_summary["quantiles"] = {
        repr(q): dist.quantile(q) for q in quantiles
    }
    dist_summary["exceedance"] = {
        repr(frac): dist.tail(frac * dist.maximum) for frac in tails
    }

    reports = []
    if args.validate:
        reports = synthesis_conformance(
            params,
            phi=opt_phi,
            quantiles=quantiles,
            tails=tails,
            replications=args.replications,
            confidence=args.confidence,
            seed=args.seed if args.seed is not None else DEFAULT_VERIFY_SEED,
        )

    if args.json:
        payload = {
            "result": result.to_dict(),
            "distribution": dist_summary,
            "validation": [report.to_dict() for report in reports],
        }
        print(json.dumps(payload, indent=2))
    else:
        budget_note = (
            f", overhead budget {problem.budget:g}"
            if problem.budget is not None
            else ""
        )
        surrogate_note = (
            f", {result.surrogate_points} surrogate points"
            if result.surrogate_points
            else ""
        )
        print(
            f"synthesis over {', '.join(problem.names)}{budget_note}: "
            f"{result.iterations} steps / {len(result.trajectories)} starts "
            f"({result.points_evaluated} points solved, "
            f"{result.steps_cached} steps cached{surrogate_note})"
        )
        for name, value in optimum.items():
            print(f"  {name:<10} = {value:g}")
        feasibility = "feasible" if result.feasible else "INFEASIBLE"
        verdict = "beneficial" if result.y > 1.0 else "NOT beneficial"
        print(f"Y = {result.y:.6f} ({verdict}), "
              f"overhead = {result.overhead:.6f} ({feasibility}), "
              f"converged = {result.converged}")
        print(f"accumulated guarded-op reward over [0, {horizon:g}] "
              f"({dist_summary['method']}; mean {dist.mean:.6g}):")
        for q in quantiles:
            print(f"  q{q:g} = {dist.quantile(q):.6g}")
        for frac in tails:
            y_level = frac * dist.maximum
            print(f"  P(W > {y_level:.6g}) = {dist.tail(y_level):.6g}")
        for report in reports:
            status = "pass" if report.passed else "FAIL"
            print(f"validate {report.measure} ({report.method}, "
                  f"{report.replications} reps, horizon {report.horizon:g}): "
                  f"{status}")
            for v in report.verdicts:
                mark = "ok " if v.passed else "BAD"
                print(f"  [{mark}] {v.check} {v.level:g}: count {v.count} "
                      f"in [{v.accept_lo}, {v.accept_hi}]")
    if args.validate:
        passed = all(report.passed for report in reports)
        if not args.json:
            print(f"verdicts: {'PASS' if passed else 'FAIL'}")
        if not passed:
            return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.service import PerformabilityService, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        memory_cache=args.memory_cache,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        retry_after=args.retry_after,
        warm=not args.no_warm,
        drain_timeout=args.drain_timeout,
        surrogate=args.surrogate,
    )
    service = PerformabilityService(config)

    def _announce(svc: PerformabilityService) -> None:
        warm = (
            f"templates warm in {svc.warm_seconds:.2f}s"
            if svc.warm_seconds is not None
            else "cold start (--no-warm)"
        )
        print(
            f"repro serve listening on http://{config.host}:{svc.port} "
            f"({config.jobs} workers, {warm}); Ctrl-C or SIGTERM drains"
        )
        if svc.surrogate is not None:
            print(
                f"surrogate tier: {svc.surrogate.spec.axis_names} box, "
                f"certified bound {svc.surrogate.worst_bound:.3g}"
            )

    try:
        asyncio.run(service.serve(on_ready=_announce))
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: cannot bind {config.host}:{config.port}: {exc}",
              file=sys.stderr)
        return 1
    print("repro serve: drained and stopped")
    return 0


def _cmd_surrogate(args) -> int:
    if args.surrogate_command == "fit":
        return _cmd_surrogate_fit(args)
    return _cmd_surrogate_eval(args)


def _cmd_surrogate_fit(args) -> int:
    from repro.surrogate import (
        AxisSpec,
        SurrogateSpec,
        fit_surrogate,
        save_surrogate,
        smoke_spec,
        table3_spec,
    )
    from repro.surrogate.fitter import check_fit_inputs

    with query.rejecting():
        if args.axis:
            spec = SurrogateSpec(
                params=_params(args),
                axes=tuple(
                    AxisSpec(name=name, lo=lo, hi=hi, degree=degree)
                    for name, lo, hi, degree in args.axis
                ),
            )
        elif args.spec == "smoke":
            spec = smoke_spec(params=_params(args))
        else:
            spec = table3_spec(
                phi_degree=args.phi_degree,
                coverage_degree=args.coverage_degree,
            )
            params = _params(args, spec.params)
            if params != spec.params:
                spec = SurrogateSpec(params=params, axes=spec.axes)
        check_fit_inputs(spec, args.safety)

    config = _runtime_config_from(args)
    report = fit_surrogate(
        spec,
        config=config,
        cache=config.make_cache(),
        spot_checks=args.spot_checks,
        seed=args.seed,
        safety=args.safety,
    )
    path = save_surrogate(report.model, args.out)
    axes = ", ".join(
        f"{axis.name}[{axis.lo:g},{axis.hi:g}] deg {axis.degree}"
        for axis in spec.axes
    )
    print(f"fit {axes}")
    print(
        f"{report.node_tasks} node solves ({report.cached_nodes} cached), "
        f"{report.holdout_points} held-out points, "
        f"{report.spot_points} spot checks, "
        f"wall {report.wall_seconds:.2f}s (solve {report.solve_seconds:.2f}s)"
    )
    print(
        f"certified bound {report.model.worst_bound:.3g} "
        f"(unit-scaled sup-norm, safety {args.safety:g})"
    )
    print(f"artifact: {path}")
    return 0


def _cmd_surrogate_eval(args) -> int:
    from repro.surrogate import OutOfDomainError

    model = query.load_surrogate(args.artifact)
    params = _params(args, model.spec.params)
    phis = args.phis
    if phis is None:
        phi_axis = model.spec.axes[0]
        span = phi_axis.hi - phi_axis.lo
        phis = [phi_axis.lo + span * i / 10 for i in range(11)]
    rows = []
    try:
        for phi in phis:
            if args.grad:
                y, grad = model.y_and_gradient(params, phi)
            else:
                y = model.evaluate(params, phi).value
                grad = None
            rows.append(
                {
                    "phi": phi,
                    "y": y,
                    "error_bound": model.y_error_bound(params, phi),
                    **({"gradient": grad} if grad is not None else {}),
                }
            )
    except OutOfDomainError as exc:
        raise query.QueryError(str(exc)) from exc
    if args.json:
        print(
            json.dumps(
                {
                    "digest": model.meta.get("digest"),
                    "bound": model.worst_bound,
                    "points": rows,
                },
                indent=2,
            )
        )
        return 0
    print(f"{'phi':>10}  {'Y(phi)':>12}  {'bound':>10}")
    for row in rows:
        print(
            f"{row['phi']:>10g}  {row['y']:>12.6f}  "
            f"{row['error_bound']:>10.3g}"
        )
        if args.grad:
            grad_text = ", ".join(
                f"dY/d{name} = {value:.4g}"
                for name, value in row["gradient"].items()
            )
            print(f"{'':>10}  {grad_text}")
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import resolve_profile, run_verify, summarize_report

    with query.rejecting():
        profile = resolve_profile(
            args.profile,
            phis=args.phis,
            replications=args.replications,
            seed=args.seed,
            confidence=args.confidence,
        )
    surrogate = None
    if args.surrogate is not None:
        surrogate = query.load_surrogate(args.surrogate)
        if not surrogate.covers(profile.params, profile.phis):
            raise query.QueryError(
                f"profile {profile.name!r} lies outside the surrogate's "
                "fitted box"
            )
    with use_config(_runtime_config_from(args)):
        report = run_verify(profile, surrogate=surrogate)
    print(summarize_report(report))
    if report.cache_stats is not None:
        _print_cache_stats(report.cache_stats)
    if report.artifacts is not None:
        print(f"manifest: {report.artifacts.manifest_path}")
        print(f"verdicts: {report.artifacts.verdicts_path}")
    return 0 if report.passed else 1


def _cmd_validate(args) -> int:
    params = _params(args, SCALED_VALIDATION_PARAMS)
    [phi] = query.phi_grid(params, [args.phi])
    report = validate_constituents(
        params, phi, replications=args.replications, seed=args.seed
    )
    print(report.summary())
    print()
    verdict = "CONSISTENT" if report.all_consistent else "INCONSISTENT"
    print(f"overall: {verdict}")
    return 0 if report.all_consistent else 1


def _cmd_hybrid(args) -> int:
    params = _params(args, SCALED_VALIDATION_PARAMS)
    [phi] = query.phi_grid(params, [args.phi])
    hybrid = hybrid_evaluate(
        params, phi, replications=args.replications, seed=args.seed
    )
    low, high = hybrid.confidence_interval()
    print(f"hybrid Y({phi:g}) = {hybrid.value:.4f}  "
          f"95% CI [{low:.4f}, {high:.4f}]")
    for name, uv in sorted(hybrid.result.constituents.items()):
        kind = "simulated" if uv.std_error > 0 else "analytic"
        suffix = f" ± {uv.std_error:.5g}" if uv.std_error else ""
        print(f"  [{kind:>9}] {name:<22} = {uv.mean:.6g}{suffix}")
    return 0


def _solve_reward(args, compiled, on: str = "") -> int:
    """Solve ``--predicate`` rewards on ``compiled`` per ``--solution``."""
    from repro.san.rewards import instant_of_time, interval_of_time, steady_state

    structure = query.reward_structure(args.predicate, compiled)
    if args.solution == "steady":
        try:
            value = steady_state(compiled, structure)
        except CTMCError as exc:
            raise query.QueryError(str(exc)) from exc
        print(f"steady-state reward{on}: {value:.8g}")
        return 0
    if args.at is None:
        raise query.QueryError("--at is required for instant/accumulated solutions")
    if args.solution == "instant":
        value = instant_of_time(compiled, structure, args.at, method="auto")
        print(f"instant-of-time reward at t={args.at:g}{on}: {value:.8g}")
    else:
        value = interval_of_time(compiled, structure, args.at, method="auto")
        print(f"accumulated reward over [0, {args.at:g}]{on}: {value:.8g}")
    return 0


def _cmd_measure(args) -> int:
    solver = ConstituentSolver(_params(args))
    if args.model == "rmgd":
        compiled = solver.rm_gd
    elif args.model == "rmgp":
        compiled = solver.rm_gp
    else:
        compiled = solver.rm_nd_new if args.rate == "new" else solver.rm_nd_old
    return _solve_reward(args, compiled, on=f" on {args.model.upper()}")


def _cmd_report(args) -> int:
    from repro.analysis.report import generate_report

    text = generate_report(include_extensions=not args.no_extensions)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_solve(args) -> int:
    from repro.san.ctmc_builder import build_ctmc
    from repro.san.serialization import model_from_json

    model = query.load_file(args.model_file, model_from_json, "model file")
    compiled = build_ctmc(model)
    print(f"model {model.name!r}: {compiled.num_states} tangible states "
          f"({compiled.graph.num_vanishing} vanishing eliminated)")
    return _solve_reward(args, compiled)


def _cmd_export_model(args) -> int:
    params = _params(args)
    if args.model == "rmgd":
        model = build_rm_gd(params)
    elif args.model == "rmgp":
        model = build_rm_gp(params)
    else:
        rate = params.mu_new if args.rate == "new" else params.mu_old
        model = build_rm_nd(params, rate)
    if args.format == "dot":
        print(model_to_dot(model))
    elif args.format == "json":
        print(json.dumps(model_to_dict(model), indent=2))
    else:
        print(json.dumps(graph_to_dict(explore(model)), indent=2))
    return 0


_COMMANDS = {
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "optimal": _cmd_optimal,
    "experiment": _cmd_experiment,
    "campaign": _cmd_campaign,
    "fleet": _cmd_fleet,
    "synthesize": _cmd_synthesize,
    "serve": _cmd_serve,
    "surrogate": _cmd_surrogate,
    "verify": _cmd_verify,
    "validate": _cmd_validate,
    "hybrid": _cmd_hybrid,
    "measure": _cmd_measure,
    "report": _cmd_report,
    "solve": _cmd_solve,
    "export-model": _cmd_export_model,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the exit status (2 for bad input)."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except query.QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

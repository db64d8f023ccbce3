"""Canned experiments — one per paper figure/table.

Each :class:`Experiment` bundles the parameter sets of one paper
artifact, runs the sweeps (or measure tables), renders a report in the
paper's row/series format, and checks the paper's *qualitative claims*
(who wins, where optima fall, which directions things move) — the
reproduction criteria appropriate for a model-based study re-implemented
on a fresh substrate.

The figure experiments execute through the campaign runtime: their
parameter studies are declared once as campaign specs
(:func:`repro.runtime.spec.figure_campaign`) and evaluated by
:func:`repro.runtime.campaign.run_campaign`, so ``repro experiment``
and ``repro campaign`` share one execution path — and the installed
:class:`~repro.runtime.campaign.RuntimeConfig` (parallel backend,
result cache) applies to both.

Experiment ids: ``FIG9``, ``FIG10``, ``FIG11``, ``FIG12``, ``TAB1``,
``TAB2``, ``TAB3`` (see DESIGN.md's per-experiment index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

from repro.analysis.plotting import ascii_curves
from repro.analysis.sweep import SweepResult
from repro.analysis.tables import format_table, optimum_table, sweep_table
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import figure_campaign


@dataclass(frozen=True)
class ClaimCheck:
    """One qualitative paper claim and whether the reproduction holds it."""

    claim: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentOutcome:
    """Everything produced by running one experiment."""

    experiment_id: str
    report: str
    sweeps: tuple[SweepResult, ...]
    claims: tuple[ClaimCheck, ...]

    @property
    def all_claims_hold(self) -> bool:
        """True when every paper claim was reproduced."""
        return all(c.passed for c in self.claims)


@dataclass(frozen=True)
class Experiment:
    """A reproducible paper artifact.

    Attributes
    ----------
    experiment_id:
        ``FIG9`` .. ``TAB3``.
    paper_artifact:
        What the paper calls it.
    description:
        One-line summary of the study.
    runner:
        Callable producing the :class:`ExperimentOutcome`.
    """

    experiment_id: str
    paper_artifact: str
    description: str
    runner: Callable[[], ExperimentOutcome]

    def run(self) -> ExperimentOutcome:
        """Execute the experiment."""
        return self.runner()


# ----------------------------------------------------------------------
# Claim helpers
# ----------------------------------------------------------------------
def _claim_optimum(
    sweep: SweepResult, expected_phis: Sequence[float], label: str
) -> ClaimCheck:
    best = sweep.optimum()
    return ClaimCheck(
        claim=f"optimal phi for {label} in {sorted(expected_phis)}",
        passed=best.phi in expected_phis,
        detail=f"optimum at phi={best.phi:g} with Y={best.y:.4f}",
    )


def _claim(claim: str, passed: bool, detail: str) -> ClaimCheck:
    return ClaimCheck(claim=claim, passed=passed, detail=detail)


def _figure_outcome(
    experiment_id: str,
    title: str,
    sweeps: list[SweepResult],
    claims: list[ClaimCheck],
) -> ExperimentOutcome:
    report_parts = [
        sweep_table(sweeps, title=title),
        "",
        optimum_table(sweeps, title="Optima:"),
        "",
        ascii_curves(sweeps, title=f"{title} (ASCII rendering)"),
        "",
        "Paper-claim checks:",
    ]
    for check in claims:
        status = "PASS" if check.passed else "FAIL"
        report_parts.append(f"  [{status}] {check.claim} — {check.detail}")
    return ExperimentOutcome(
        experiment_id=experiment_id,
        report="\n".join(report_parts),
        sweeps=tuple(sweeps),
        claims=tuple(claims),
    )


# ----------------------------------------------------------------------
# Figure experiments
# ----------------------------------------------------------------------
def _figure_sweeps(experiment_id: str) -> list[SweepResult]:
    """Run one figure's campaign through the runtime (spec order)."""
    return list(run_campaign(figure_campaign(experiment_id)).sweeps)


def _run_fig9() -> ExperimentOutcome:
    sweeps = _figure_sweeps("FIG9")
    claims = [
        _claim_optimum(sweeps[0], [7000.0], "mu_new=1e-4"),
        _claim_optimum(sweeps[1], [5000.0], "mu_new=5e-5"),
        _claim(
            "smaller mu_new favours a shorter guarded operation",
            sweeps[1].optimum().phi < sweeps[0].optimum().phi,
            f"{sweeps[1].optimum().phi:g} < {sweeps[0].optimum().phi:g}",
        ),
        _claim(
            "guarded operation is beneficial (max Y > 1.4) at mu_new=1e-4",
            sweeps[0].optimum().y > 1.4,
            f"max Y = {sweeps[0].optimum().y:.4f}",
        ),
    ]
    return _figure_outcome(
        "FIG9",
        "Figure 9: effect of fault-manifestation rate (theta = 10000)",
        sweeps,
        claims,
    )


def _run_fig10() -> ExperimentOutcome:
    sweeps = _figure_sweeps("FIG10")
    # The campaign declares the static study names; the paper labels the
    # curves by their derived overhead fractions, so compute the rho
    # values (two cheap steady-state solves each) and relabel.
    fast_solver = ConstituentSolver(sweeps[0].params)
    slow_solver = ConstituentSolver(sweeps[1].params)
    rho_fast = (fast_solver.rho1(), fast_solver.rho2())
    rho_slow = (slow_solver.rho1(), slow_solver.rho2())
    sweeps = [
        replace(
            sweeps[0],
            label=f"rho1 = {rho_fast[0]:.2f}, rho2 = {rho_fast[1]:.2f}",
        ),
        replace(
            sweeps[1],
            label=f"rho1 = {rho_slow[0]:.2f}, rho2 = {rho_slow[1]:.2f}",
        ),
    ]
    claims = [
        _claim(
            "low overhead yields rho ~ (0.98, 0.95)",
            abs(rho_fast[0] - 0.98) < 0.01 and abs(rho_fast[1] - 0.95) < 0.01,
            f"rho = ({rho_fast[0]:.4f}, {rho_fast[1]:.4f})",
        ),
        _claim(
            "high overhead yields rho ~ (0.95, 0.90)",
            abs(rho_slow[0] - 0.95) < 0.01 and abs(rho_slow[1] - 0.90) < 0.015,
            f"rho = ({rho_slow[0]:.4f}, {rho_slow[1]:.4f})",
        ),
        _claim_optimum(sweeps[0], [7000.0], "alpha=beta=6000"),
        _claim_optimum(sweeps[1], [6000.0], "alpha=beta=2500"),
        _claim(
            "higher overhead suggests an earlier cutoff for guarded operation",
            sweeps[1].optimum().phi < sweeps[0].optimum().phi,
            f"{sweeps[1].optimum().phi:g} < {sweeps[0].optimum().phi:g}",
        ),
    ]
    return _figure_outcome(
        "FIG10",
        "Figure 10: effect of performance overhead (theta = 10000)",
        sweeps,
        claims,
    )


def _run_fig11() -> ExperimentOutcome:
    # Campaign order: c = 0.95, 0.75, 0.50 (the figure) then the text's
    # extra studies c = 0.20 and c = 0.10.
    all_sweeps = _figure_sweeps("FIG11")
    sweeps, (c20, c10) = all_sweeps[:3], all_sweeps[3:]
    optima = [s.optimum() for s in sweeps]
    max_ys = [o.y for o in optima]
    claims = [
        _claim(
            "optimal phi is insensitive to coverage (same for c in {0.95, 0.75, 0.5})",
            len({o.phi for o in optima}) == 1,
            f"optima at {[o.phi for o in optima]}",
        ),
        _claim(
            "max Y itself is sensitive to coverage (drops from ~1.45 to ~1.15)",
            max_ys[0] > 1.35 and max_ys[2] < 1.25 and max_ys[0] - max_ys[2] > 0.2,
            f"max Y: {[f'{y:.3f}' for y in max_ys]}",
        ),
    ]
    # The text's two extra studies: c = 0.2 and c = 0.1.
    best20 = c20.optimum()
    claims.append(
        _claim(
            "at c=0.2 the benefit is marginal (max Y barely above 1, around phi=4000)",
            1.0 < best20.y < 1.1 and 2000.0 <= best20.phi <= 6000.0,
            f"max Y = {best20.y:.4f} at phi = {best20.phi:g}",
        )
    )
    positive_phis = [p for p in c10.points if p.phi > 0]
    decreasing = all(
        positive_phis[i].y >= positive_phis[i + 1].y
        for i in range(len(positive_phis) - 1)
    )
    claims.append(
        _claim(
            "at c=0.1, Y < 1 for all phi in (0, theta] and decreasing",
            all(p.y < 1.0 for p in positive_phis) and decreasing,
            f"Y range ({min(p.y for p in positive_phis):.4f}, "
            f"{max(p.y for p in positive_phis):.4f})",
        )
    )
    return _figure_outcome(
        "FIG11",
        "Figure 11: effect of AT coverage (theta = 10000, alpha = beta = 2500)",
        sweeps + [c20, c10],
        claims,
    )


def _run_fig12() -> ExperimentOutcome:
    sweeps = _figure_sweeps("FIG12")
    claims = [
        _claim_optimum(sweeps[0], [2500.0], "theta=5000, mu_new=1e-4"),
        _claim_optimum(sweeps[1], [2000.0, 2500.0], "theta=5000, mu_new=5e-5"),
        _claim(
            "shorter theta significantly reduces the optimal phi "
            "(2500 vs 7000 at theta=10000)",
            sweeps[0].optimum().phi <= 3000.0,
            f"optimum at {sweeps[0].optimum().phi:g}",
        ),
    ]
    # Paper: Y drops faster after its peak than in the theta=10000 case.
    points = sweeps[0].points
    peak_idx = max(range(len(points)), key=lambda i: points[i].y)
    tail = points[peak_idx:]
    drop = tail[0].y - tail[-1].y
    claims.append(
        _claim(
            "Y declines after the peak (maintenance-horizon effect)",
            drop > 0.05,
            f"Y falls by {drop:.4f} from the peak to phi=theta",
        )
    )
    return _figure_outcome(
        "FIG12",
        "Figure 12: effect of fault-manifestation rate (theta = 5000)",
        sweeps,
        claims,
    )


# ----------------------------------------------------------------------
# Table experiments
# ----------------------------------------------------------------------
def _run_tab1() -> ExperimentOutcome:
    solver = ConstituentSolver(PAPER_TABLE3)
    phi = 7000.0
    rows = [
        ["int_0^phi h", "instant-of-time at phi",
         "detected==1 && failure==0 -> 1", solver.int_h(phi)],
        ["int_0^phi tau h", "accumulated over [0, phi]",
         "detected==0 -> 1; detected==0 && failure==1 -> -1",
         solver.int_tau_h(phi)],
        ["int int h f", "instant-of-time at phi",
         "detected==1 && failure==1 -> 1", solver.int_hf(phi)],
        ["P(X'_phi in A1')", "instant-of-time at phi",
         "detected==0 && failure==0 -> 1", solver.p_gop_no_error(phi)],
    ]
    report = format_table(
        ["measure", "reward type", "predicate-rate pairs", f"value (phi={phi:g})"],
        rows,
        title="Table 1: constituent measures and SAN reward structures in RMGd",
    )
    total = solver.int_h(phi) + solver.p_gop_no_error(phi)
    undetected_fail = 1.0 - total - solver.int_hf(phi)
    claims = [
        _claim(
            "RMGd outcome probabilities partition (detected + no-error + failed = 1)",
            abs(
                solver.int_h(phi)
                + solver.int_hf(phi)
                + solver.p_gop_no_error(phi)
                + undetected_fail
                - 1.0
            ) < 1e-9,
            f"sum of branches = 1 (undetected failures: {undetected_fail:.5f})",
        ),
        _claim(
            "mean detection time is below phi",
            0.0 < solver.int_tau_h(phi) < phi,
            f"int tau h = {solver.int_tau_h(phi):.1f} hours",
        ),
    ]
    return ExperimentOutcome(
        experiment_id="TAB1",
        report=report + "\n\nPaper-claim checks:\n" + "\n".join(
            f"  [{'PASS' if c.passed else 'FAIL'}] {c.claim} — {c.detail}"
            for c in claims
        ),
        sweeps=(),
        claims=tuple(claims),
    )


def _run_tab2() -> ExperimentOutcome:
    rows = []
    claims = []
    for alpha, expected in ((6000.0, (0.98, 0.95)), (2500.0, (0.95, 0.90))):
        params = PAPER_TABLE3.with_overrides(alpha=alpha, beta=alpha)
        solver = ConstituentSolver(params)
        rho1, rho2 = solver.rho1(), solver.rho2()
        rows.append([f"alpha=beta={alpha:g}", 1.0 - rho1, 1.0 - rho2, rho1, rho2])
        claims.append(
            _claim(
                f"alpha=beta={alpha:g} reproduces the paper's derived "
                f"rho ~ {expected}",
                abs(rho1 - expected[0]) < 0.01 and abs(rho2 - expected[1]) < 0.015,
                f"computed rho = ({rho1:.4f}, {rho2:.4f})",
            )
        )
    report = format_table(
        ["setting", "1 - rho1", "1 - rho2", "rho1", "rho2"],
        rows,
        title="Table 2: performance-overhead measures in RMGp",
    )
    return ExperimentOutcome(
        experiment_id="TAB2",
        report=report + "\n\nPaper-claim checks:\n" + "\n".join(
            f"  [{'PASS' if c.passed else 'FAIL'}] {c.claim} — {c.detail}"
            for c in claims
        ),
        sweeps=(),
        claims=tuple(claims),
    )


def _run_tab3() -> ExperimentOutcome:
    p = PAPER_TABLE3
    rows = [
        ["theta", p.theta, "hours to next upgrade"],
        ["lambda", p.lam, "message-sending rate (3 s mean gap)"],
        ["mu_new", p.mu_new, "fault rate, upgraded version"],
        ["mu_old", p.mu_old, "fault rate, old versions"],
        ["c", p.coverage, "acceptance-test coverage"],
        ["p_ext", p.p_ext, "P(message is external)"],
        ["alpha", p.alpha, "AT completion rate (600 ms mean)"],
        ["beta", p.beta, "checkpoint completion rate (600 ms mean)"],
    ]
    claims = [
        _claim(
            "parameter set encodes the paper's physical interpretation",
            abs(3600.0 / p.lam - 3.0) < 1e-9
            and abs(3600.0 / p.alpha - 0.6) < 1e-9,
            "lambda -> 3 s between messages; alpha -> 600 ms AT",
        )
    ]
    report = format_table(
        ["parameter", "value", "interpretation"],
        rows,
        title="Table 3: parameter value assignment",
    )
    return ExperimentOutcome(
        experiment_id="TAB3",
        report=report,
        sweeps=(),
        claims=tuple(claims),
    )


#: Registry of all canned experiments, keyed by experiment id.
EXPERIMENTS: Mapping[str, Experiment] = {
    "FIG9": Experiment(
        "FIG9",
        "Figure 9",
        "Y(phi) for mu_new in {1e-4, 5e-5}, theta = 10000",
        _run_fig9,
    ),
    "FIG10": Experiment(
        "FIG10",
        "Figure 10",
        "Y(phi) for alpha=beta in {6000, 2500}, theta = 10000",
        _run_fig10,
    ),
    "FIG11": Experiment(
        "FIG11",
        "Figure 11",
        "Y(phi) for AT coverage in {0.95, 0.75, 0.5} (+0.2, +0.1)",
        _run_fig11,
    ),
    "FIG12": Experiment(
        "FIG12",
        "Figure 12",
        "Y(phi) for mu_new in {1e-4, 5e-5}, theta = 5000",
        _run_fig12,
    ),
    "TAB1": Experiment(
        "TAB1",
        "Table 1",
        "RMGd reward structures and solved constituent measures",
        _run_tab1,
    ),
    "TAB2": Experiment(
        "TAB2",
        "Table 2",
        "RMGp overhead measures (1 - rho1, 1 - rho2)",
        _run_tab2,
    ),
    "TAB3": Experiment(
        "TAB3",
        "Table 3",
        "Parameter value assignment",
        _run_tab3,
    ),
}


def run_experiment(experiment_id: str) -> ExperimentOutcome:
    """Run one canned experiment by id (``FIG9`` .. ``TAB3``)."""
    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; have {sorted(EXPERIMENTS)}"
        ) from None
    return experiment.run()

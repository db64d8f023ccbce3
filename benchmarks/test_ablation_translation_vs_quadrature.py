"""Ablation: the paper's central analytic manipulation vs brute force.

The heart of the paper is the translation of ``Y_S2`` (Equation 9, a
double integral over the unelaborated densities ``h`` and ``f``) into
reward variables that never cross the ``phi`` boundary (Equations
15-21).  This ablation validates that manipulation end to end:

* extract ``h`` numerically from the RMGd solution (the detection-time
  CDF differentiated on a fine grid),
* extract the recovered-system survival from RMNd(mu_old),
* integrate Equation 9 directly by quadrature,
* compare against the translated, reward-model-solved ``Y_S2``.

Agreement within a couple of percent confirms both the coordinate
translation and the second-order term the paper neglects in Eq. 19.
"""

import numpy as np

from benchmarks.conftest import publish_report
from repro.ctmc.transient import transient_grid
from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_index

PHI = 7000.0
GRID_POINTS = 1400


def _detection_cdf_on_grid(solver: ConstituentSolver, phi: float, n: int):
    """P(detected by t) on a uniform grid via the grid transient solver."""
    compiled = solver.rm_gd
    detected = compiled.probability_vector_for(lambda m: m["detected"] == 1)
    times = np.linspace(0.0, phi, n + 1)
    distributions = transient_grid(compiled.chain, times)
    return times, distributions @ detected


def _quadrature_y_s2(solver: ConstituentSolver, phi: float) -> float:
    """Direct numerical integration of Equation 9."""
    params = solver.params
    theta = params.theta
    times, cdf = _detection_cdf_on_grid(solver, phi, GRID_POINTS)
    h = np.gradient(cdf, times)  # detection-time density on the grid
    rho_sum = solver.rho1() + solver.rho2()
    # Recovered-system survival over the remaining window (theta - tau).
    survival = np.array(
        [solver.p_normal_no_failure(theta - t, "old") for t in times]
    )
    worth = rho_sum * times + 2.0 * (theta - times)
    # gamma uses the same mean-detection-time measure as the pipeline.
    gamma = 1.0 - solver.int_tau_h(phi) / theta
    integrand = worth * h * survival
    return gamma * float(np.trapezoid(integrand, times))


def test_ablation_translation_vs_quadrature(benchmark):
    solver = ConstituentSolver(PAPER_TABLE3)
    evaluation = evaluate_index(PAPER_TABLE3, PHI, solver=solver)
    direct = _quadrature_y_s2(solver, PHI)
    translated = evaluation.y_s2
    gap = abs(direct - translated) / abs(direct)
    report = "\n".join([
        "Ablation: translated Y_S2 (Eqs. 15-21) vs quadrature of Eq. 9",
        f"  quadrature Y_S2  = {direct:.3f}",
        f"  translated Y_S2  = {translated:.3f}",
        f"  relative gap     = {gap:.4%}",
        "",
        "The gap bounds the paper's Eq. 19 approximation (dropping the",
        "(2 - rho1 - rho2) double-integral term) plus quadrature error.",
    ])
    publish_report("ABL_QUADRATURE", report)
    assert gap < 0.03

    # Timed kernel: the translated (reward-model) evaluation — the thing
    # the quadrature alternative would replace.
    def kernel():
        return evaluate_index(PAPER_TABLE3, PHI, solver=solver).y_s2

    benchmark(kernel)


def test_ablation_quadrature_cost(benchmark):
    solver = ConstituentSolver(PAPER_TABLE3)
    solver.rm_gd, solver.rho1()  # warm

    def kernel():
        return _quadrature_y_s2(solver, PHI)

    value = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert value > 0

#!/usr/bin/env python3
"""Hybrid performability evaluation — the paper's future work, realised.

The paper's concluding remarks: once the performability measure is
translated into constituent reward variables, it becomes possible "to
choose among analytic, measurement-based, and testbed-simulation-based
techniques, or a hybrid combination of them, to compute the individual
measures for the final solution."

This study does exactly that on a scaled mission:

1. the dependability constituents of X' come from replicated MDCD
   protocol simulations (as a testbed would provide),
2. the overhead and normal-mode constituents stay reward-model-solved,
3. the simulation sampling error propagates through the aggregation to
   a confidence interval on Y, and
4. a measurement-backed variant shows how a testbed-measured overhead
   would slot in.

Run:  python examples/hybrid_evaluation.py
"""

import numpy as np

from repro.core.constituent import EvaluationContext
from repro.core.hybrid import HybridPipeline, MeasurementSource
from repro.gsu import ConstituentSolver, evaluate_index
from repro.gsu.hybrid import hybrid_evaluate
from repro.gsu.performability import build_translation_pipeline
from repro.gsu.validation import SCALED_VALIDATION_PARAMS

PHI = 10.0


def main() -> None:
    params = SCALED_VALIDATION_PARAMS
    solver = ConstituentSolver(params)

    print("=== Fully analytic baseline ===")
    analytic = evaluate_index(params, PHI, solver=solver)
    print(f"Y = {analytic.value:.4f}\n")

    print("=== Hybrid: X' constituents from 400 protocol simulations ===")
    hybrid = hybrid_evaluate(
        params, PHI, replications=400, seed=11, solver=solver
    )
    low, high = hybrid.confidence_interval()
    print(f"Y = {hybrid.value:.4f}   95% CI [{low:.4f}, {high:.4f}]   "
          f"(propagated from simulation error)")
    print(f"analytic Y inside the interval: "
          f"{'yes' if low <= analytic.value <= high else 'NO'}")
    print("\nConstituent provenance:")
    for name, uv in sorted(hybrid.result.constituents.items()):
        kind = "simulated" if uv.std_error > 0 else "analytic "
        print(f"  [{kind}] {name:<22} = {uv.mean:.5f}"
              + (f" ± {uv.std_error:.5f}" if uv.std_error else ""))

    print("\n=== Hybrid: a testbed-measured overhead constituent ===")
    # Suppose the testbed measured rho1 = 0.985 ± 0.003 instead of the
    # model-derived value: swap in a MeasurementSource for it.
    pipeline = HybridPipeline(
        build_translation_pipeline(),
        {
            "rho1": MeasurementSource(
                value=0.985, std_error=0.003, lower=0.0, upper=1.0
            )
        },
    )
    context = EvaluationContext(
        solver.models(), {"phi": PHI, "theta": params.theta}
    )
    result = pipeline.evaluate(
        context, propagate_samples=3000, rng=np.random.default_rng(2)
    )
    low, high = result.confidence_interval()
    print(f"Y = {result.value:.4f}   95% CI [{low:.4f}, {high:.4f}]   "
          "(uncertainty from the rho1 measurement alone)")


if __name__ == "__main__":
    main()

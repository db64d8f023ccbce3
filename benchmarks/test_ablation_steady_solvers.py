"""Ablation: steady-state solver backends on RMGp.

Compares the direct sparse solve against the iterative methods
historically shipped in UltraSAN-era tools (power iteration on the
uniformized chain, Gauss-Seidel, SOR), kept as references in
``repro.verify.oracles`` — all must agree on the Table 2 overhead
measures; the benchmark shows their cost profile on the 24-state RMGp
chain.
"""

import numpy as np
import pytest

from benchmarks.conftest import publish_report
from repro.analysis.tables import format_table
from repro.ctmc.steady_state import steady_state_distribution
from repro.gsu.measures import RS_OVERHEAD_2, ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.verify.oracles import STEADY_REFERENCES

SOLVERS = {"direct": steady_state_distribution, **STEADY_REFERENCES}


@pytest.fixture(scope="module")
def compiled_rmgp():
    return ConstituentSolver(PAPER_TABLE3).rm_gp


@pytest.fixture(scope="module")
def agreement(compiled_rmgp):
    rewards = RS_OVERHEAD_2.rate_vector(compiled_rmgp)
    rows = []
    values = {}
    for method, solve in SOLVERS.items():
        pi = solve(compiled_rmgp.chain)
        values[method] = float(pi @ rewards)
        rows.append([method, values[method], 1.0 - values[method]])
    report = format_table(
        ["method", "1 - rho2", "rho2"],
        rows,
        title="Ablation: steady-state backends on RMGp",
    )
    publish_report("ABL_STEADY", report)
    baseline = values["direct"]
    for method, value in values.items():
        assert value == pytest.approx(baseline, abs=1e-8), method
    return values


@pytest.mark.parametrize("method", SOLVERS)
def test_ablation_steady_state_method(
    compiled_rmgp, agreement, benchmark, method
):
    def kernel():
        return SOLVERS[method](compiled_rmgp.chain)

    pi = benchmark(kernel)
    assert np.isclose(pi.sum(), 1.0)

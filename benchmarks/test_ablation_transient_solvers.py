"""Ablation: transient solver backends on the paper's stiff models.

The GSU models mix message rates (1200/h) with fault rates (1e-4/h) over
1e4-hour horizons, giving ``Lambda * t ~ 1.2e7``.  Uniformization's cost
is linear in that product, while dense Pade/scaling-and-squaring is
logarithmic — this ablation measures the gap that motivates the ``auto``
method, and verifies all backends agree where uniformization is still
feasible.
"""

import pytest

from benchmarks.conftest import publish_report
from repro.analysis.tables import format_table
from repro.gsu.measures import RS_A1_GOP, ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.san.rewards import instant_of_time

#: A horizon short enough that uniformization is practical
#: (Lambda * t ~ 1.2e4) so the backends can be compared head to head.
SHORT_HORIZON = 10.0


@pytest.fixture(scope="module")
def compiled_rmgd():
    return ConstituentSolver(PAPER_TABLE3).rm_gd


@pytest.fixture(scope="module")
def agreement_report(compiled_rmgd):
    values = {
        method: instant_of_time(
            compiled_rmgd, RS_A1_GOP, SHORT_HORIZON, method=method
        )
        for method in ("uniformization", "krylov", "dense-expm", "auto")
    }
    report = format_table(
        ["method", f"P(A1' at t={SHORT_HORIZON:g})"],
        [[m, v] for m, v in values.items()],
        title="Ablation: transient backends on RMGd (short horizon)",
    )
    publish_report("ABL_TRANSIENT", report)
    baseline = values["uniformization"]
    for method, value in values.items():
        assert value == pytest.approx(baseline, abs=1e-9), method
    return values


@pytest.mark.parametrize("method", ["uniformization", "dense-expm"])
def test_ablation_transient_short_horizon(
    compiled_rmgd, agreement_report, benchmark, method
):
    def kernel():
        return instant_of_time(
            compiled_rmgd, RS_A1_GOP, SHORT_HORIZON, method=method
        )

    benchmark(kernel)


def test_ablation_transient_stiff_horizon_dense(compiled_rmgd, benchmark):
    # The paper-scale horizon: only the dense backend is practical
    # (uniformization would need ~1.2e7 matrix-vector products).
    def kernel():
        return instant_of_time(
            compiled_rmgd, RS_A1_GOP, 7000.0, method="dense-expm"
        )

    value = benchmark(kernel)
    assert 0.0 < value < 1.0

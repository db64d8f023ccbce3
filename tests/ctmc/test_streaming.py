"""Streaming uniformization: workspace, budget, and certificate tests.

The memory-budget regression suite: admission must refuse solves that
do not fit ``REPRO_MEMORY_BUDGET_MB``, admitted solves must stay inside
their declared workspace, and — the invariant production relies on —
the budget must never touch the arithmetic: results are bitwise
identical across every admitting budget value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import config
from repro.ctmc.errors import CTMCError
from repro.ctmc.streaming import (
    ALLOCATION_FREE_KERNEL,
    StreamingWorkspace,
    required_bytes,
    streaming_accumulated_grid,
    streaming_transient_grid,
)
from repro.ctmc.transient import transient_grid
from repro.gsu.fleet import FleetParameters, FleetSolver
from tests.conftest import make_random_chain, make_random_rewards

TIMES = np.array([0.0, 0.4, 1.0, 2.5])


@pytest.fixture
def chain():
    return make_random_chain(num_states=8, seed=11)


def test_uniformization_method_is_the_streaming_walk(chain):
    # method="uniformization" runs this walk: bitwise the same rows.
    via_method = transient_grid(chain, TIMES, method="uniformization")
    result = streaming_transient_grid(
        chain.generator, chain.initial_distribution, TIMES
    )
    np.testing.assert_array_equal(result.rows, via_method)


def test_certificate_populated(chain):
    result = streaming_transient_grid(
        chain.generator, chain.initial_distribution, TIMES
    )
    cert = result.certificate
    assert cert.segments == 3  # t=0 is served without a walk
    assert cert.terms > 0
    assert 0.0 < cert.distribution_bound < 1e-10
    assert cert.accrual_bound == 0.0
    assert cert.workspace_bytes <= cert.budget_bytes
    assert cert.allocation_free == ALLOCATION_FREE_KERNEL


def test_allocation_free_kernel_available():
    # The container's scipy ships csr_matvec; if this ever regresses the
    # streaming tier silently falls back to per-step allocation, which
    # the benchmark would misreport as allocation-free economics.
    assert ALLOCATION_FREE_KERNEL


def test_budget_admission_refuses_undersized_budget(chain):
    with pytest.raises(CTMCError, match="memory budget"):
        streaming_transient_grid(
            chain.generator,
            chain.initial_distribution,
            TIMES,
            budget_bytes=64,
        )


def test_budget_admission_env_var(chain, monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "0.0001")  # ~100 bytes
    with pytest.raises(CTMCError, match="REPRO_MEMORY_BUDGET_MB"):
        streaming_transient_grid(
            chain.generator, chain.initial_distribution, TIMES
        )


def test_required_bytes_matches_admitted_workspace(chain):
    result = streaming_transient_grid(
        chain.generator, chain.initial_distribution, TIMES
    )
    expected = required_bytes(
        chain.num_states, int(chain.generator.nnz), TIMES.size
    )
    assert result.certificate.workspace_bytes == expected
    # Admission at exactly the requirement succeeds; one byte less fails.
    streaming_transient_grid(
        chain.generator,
        chain.initial_distribution,
        TIMES,
        budget_bytes=expected,
    )
    with pytest.raises(CTMCError):
        streaming_transient_grid(
            chain.generator,
            chain.initial_distribution,
            TIMES,
            budget_bytes=expected - 1,
        )


def test_workspace_reuse_across_calls(chain):
    ws = StreamingWorkspace(chain.num_states)
    first = streaming_transient_grid(
        chain.generator, chain.initial_distribution, TIMES, workspace=ws
    )
    second = streaming_transient_grid(
        chain.generator, chain.initial_distribution, TIMES, workspace=ws
    )
    assert np.array_equal(first.rows, second.rows)


def test_workspace_size_mismatch_raises(chain):
    with pytest.raises(CTMCError, match="workspace sized for"):
        streaming_transient_grid(
            chain.generator,
            chain.initial_distribution,
            TIMES,
            workspace=StreamingWorkspace(chain.num_states + 1),
        )


def test_memory_budget_bytes_parsing(monkeypatch):
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "512")
    assert config.memory_budget_bytes() == 512 * 1024 * 1024
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "not-a-number")
    with pytest.raises(ValueError, match="invalid value"):
        config.memory_budget_bytes()
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "-3")
    with pytest.raises(ValueError, match="positive"):
        config.memory_budget_bytes()
    monkeypatch.delenv("REPRO_MEMORY_BUDGET_MB")
    assert config.memory_budget_bytes() > 0


# ----------------------------------------------------------------------
# The budget-independence invariant, on a real 4-process fleet
# ----------------------------------------------------------------------


def _fleet_case():
    params = FleetParameters(n_processes=4)
    solver = FleetSolver(params, mode="flat")
    return solver.chain(), solver.operational_rewards()


def test_results_bitwise_identical_across_budgets():
    """The budget admits or refuses — it never changes the numbers."""
    chain, rewards = _fleet_case()
    times = np.array([0.1, 0.5, 2.0])
    baseline = streaming_accumulated_grid(
        chain.generator, chain.initial_distribution, rewards, times
    )
    need = baseline.certificate.workspace_bytes
    for budget in (need, need * 2, need * 1000, None):
        result = streaming_accumulated_grid(
            chain.generator,
            chain.initial_distribution,
            rewards,
            times,
            budget_bytes=budget,
        )
        assert np.array_equal(result.rows, baseline.rows)
        assert np.array_equal(result.accumulated, baseline.accumulated)


def test_results_bitwise_identical_across_env_budgets(monkeypatch):
    chain, rewards = _fleet_case()
    times = np.array([0.25, 1.0])
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "64")
    small = streaming_transient_grid(
        chain.generator, chain.initial_distribution, times
    )
    monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "4096")
    large = streaming_transient_grid(
        chain.generator, chain.initial_distribution, times
    )
    assert np.array_equal(small.rows, large.rows)
    assert small.certificate.budget_bytes != large.certificate.budget_bytes


def test_fleet_streaming_matches_lumped_reference():
    """4-process fleet: streaming curve vs the exact lumped quotient,
    within the certificate (plus reference slack)."""
    params = FleetParameters(n_processes=4)
    flat = FleetSolver(params, mode="flat")
    lumped = FleetSolver(params, mode="lumped")
    times = np.array([0.1, 0.5, 2.0])
    result = streaming_transient_grid(
        flat.chain().generator,
        flat.chain().initial_distribution,
        times,
    )
    curve = result.rows @ flat.operational_rewards()
    reference = lumped.curve(times)
    bound = result.certificate.distribution_bound + 1e-9
    assert np.max(np.abs(curve - reference)) <= bound


def test_accumulated_certificate_bounds_error(chain):
    rewards = make_random_rewards(chain.num_states, seed=11)
    result = streaming_accumulated_grid(
        chain.generator, chain.initial_distribution, rewards, TIMES
    )
    cert = result.certificate
    assert cert.accrual_bound > 0.0
    from repro.ctmc.accumulated import accumulated_grid

    plain = accumulated_grid(chain, rewards, TIMES, method="uniformization")
    assert np.max(np.abs(result.accumulated - plain)) <= (
        cert.accrual_bound + 1e-12
    )


def test_time_grid_must_be_sorted(chain):
    with pytest.raises(CTMCError):
        streaming_transient_grid(
            chain.generator,
            chain.initial_distribution,
            np.array([1.0, 0.5]),
        )

"""Cross-solver differential harness.

Pits the streaming bounded-truncation uniformization path against the
other transient backends — Krylov ``expm_multiply``, dense ``expm``,
spectral decomposition, and the ``method="uniformization"`` entry
points that run it — on seeded
randomized chains and small MDCD fleets, asserting pairwise agreement
within the streaming path's *certified* truncation bound plus a small
cross-backend slack.

The harness is the safety net for the 1e6+-state tier: at scale only
the sparse backends run, so any disagreement between them and the dense
reference must be caught here, where every backend is still affordable.

Property tests ride the pinned ``ci`` Hypothesis profile (derandomized,
see ``tests/conftest.py``) so failures replay identically everywhere.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.streaming import streaming_accumulated_grid, streaming_transient_grid
from repro.ctmc.transient import transient_distribution, transient_grid
from tests.conftest import make_random_chain, make_random_rewards, make_small_fleet

#: Cross-backend slack on top of the streaming certificate: dense expm,
#: Krylov, and spectral each carry their own (uncertified) rounding, so
#: exact agreement at the certificate alone is not owed.
BACKEND_SLACK = 1e-9

#: The time grids the harness sweeps: uniform, irregular (clustered
#: early, sparse late), and one with repeated points (dedup path).
GRIDS = {
    "uniform": np.linspace(0.0, 4.0, 9),
    "irregular": np.array([0.0, 0.05, 0.07, 0.4, 1.3, 3.9]),
    "repeated": np.array([0.5, 0.5, 2.0, 2.0, 2.0]),
}


def _dense_reference(chain, times) -> np.ndarray:
    return transient_grid(chain, times, method="dense-expm")


def _assert_rows_close(rows, reference, bound, label):
    err = float(np.max(np.abs(rows - reference)))
    assert err <= bound, f"{label}: max diff {err:.3e} > bound {bound:.3e}"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_streaming_vs_all_backends_random_chains(seed, grid_name):
    """Streaming vs krylov vs dense expm vs spectral on random chains."""
    chain = make_random_chain(num_states=9, seed=seed, rate_scale=2.0)
    times = GRIDS[grid_name]
    reference = _dense_reference(chain, times)

    result = streaming_transient_grid(
        chain.generator, chain.initial_distribution, times
    )
    bound = result.certificate.distribution_bound + BACKEND_SLACK
    _assert_rows_close(result.rows, reference, bound, "streaming")

    for method in ("krylov", "uniformization", "spectral"):
        rows = transient_grid(chain, times, method=method)
        _assert_rows_close(rows, reference, bound, method)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("heterogeneous", [False, True])
def test_streaming_vs_backends_small_fleets(seed, heterogeneous):
    """The same four-way agreement on composed fleets, flat and lumped.

    The lumped quotient (full count vectors, or the grouped partial
    quotient when rates are heterogeneous) is solved as an independent
    fifth opinion: its reward curve must match every flat backend's.
    """
    flat, lumped, rewards, lumped_rewards = make_small_fleet(
        3, seed, repair_servers=2, heterogeneous=heterogeneous
    )
    times = np.array([0.0, 0.3, 1.1, 2.7])
    reference = _dense_reference(flat, times)

    result = streaming_transient_grid(
        flat.generator, flat.initial_distribution, times
    )
    bound = result.certificate.distribution_bound + BACKEND_SLACK
    _assert_rows_close(result.rows, reference, bound, "streaming")
    for method in ("krylov", "uniformization"):
        rows = transient_grid(flat, times, method=method)
        _assert_rows_close(rows, reference, bound, method)

    flat_curve = reference @ rewards
    lumped_curve = transient_grid(lumped, times, method="uniformization") @ (
        lumped_rewards
    )
    assert np.max(np.abs(flat_curve - lumped_curve)) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_accumulated_vs_quadrature(seed):
    """Accumulated rewards: streaming vs ``accumulated_grid``.

    The dense reference integrates the transient curve with fine-grained
    trapezoids — an independent discretisation, so agreement within the
    certificate plus the quadrature's own O(h^2) error is meaningful.
    """
    from repro.ctmc.accumulated import accumulated_grid

    chain = make_random_chain(num_states=7, seed=seed)
    rewards = make_random_rewards(7, seed)
    times = np.array([0.5, 1.5, 3.0])

    result = streaming_accumulated_grid(
        chain.generator, chain.initial_distribution, rewards, times
    )
    plain = accumulated_grid(chain, rewards, times, method="uniformization")
    bound = result.certificate.accrual_bound + BACKEND_SLACK
    assert np.max(np.abs(result.accumulated - plain)) <= bound

    fine = np.linspace(0.0, 3.0, 3001)
    curve = _dense_reference(chain, fine) @ rewards
    trapz = np.trapezoid(curve, fine)
    assert abs(result.accumulated[-1] - trapz) < 1e-5


# ----------------------------------------------------------------------
# Property tests (satellite: seeded ci profile)
# ----------------------------------------------------------------------


@settings(max_examples=20)
@given(
    num_states=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    rate_scale=st.sampled_from([0.2, 1.0, 8.0]),
    uniform=st.booleans(),
)
def test_property_streaming_krylov_dense_agree(
    num_states, seed, rate_scale, uniform
):
    """Streaming, Krylov, and dense expm agree on any seeded chain,
    on uniform and irregular grids alike."""
    chain = make_random_chain(num_states, seed, rate_scale=rate_scale)
    if uniform:
        times = np.linspace(0.0, 2.0, 5)
    else:
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0.0, 2.0, 5))
    reference = _dense_reference(chain, times)
    result = streaming_transient_grid(
        chain.generator, chain.initial_distribution, times
    )
    bound = result.certificate.distribution_bound + BACKEND_SLACK
    _assert_rows_close(result.rows, reference, bound, "streaming")
    _assert_rows_close(
        transient_grid(chain, times, method="krylov"),
        reference,
        bound,
        "krylov",
    )


@settings(max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    threshold=st.sampled_from([10.0, 60.0, 400.0]),
)
def test_property_stiff_chains_near_dispatch_cutoff(seed, threshold):
    """Agreement must not depend on which side of the stiffness cutoff
    a chain lands: the same chain is solved with the auto threshold
    pinned below, near, and above its ``Lambda * t``, flipping the
    dispatched backend, and every route matches the dense reference."""
    chain = make_random_chain(num_states=6, seed=seed, rate_scale=10.0)
    t = 1.5  # Lambda * t lands in the tens-to-hundreds range
    reference = transient_distribution(chain, t, method="dense-expm")
    previous = os.environ.get("REPRO_AUTO_STIFFNESS_THRESHOLD")
    try:
        os.environ["REPRO_AUTO_STIFFNESS_THRESHOLD"] = str(threshold)
        routed = transient_distribution(chain, t, method="auto")
    finally:
        if previous is None:
            del os.environ["REPRO_AUTO_STIFFNESS_THRESHOLD"]
        else:
            os.environ["REPRO_AUTO_STIFFNESS_THRESHOLD"] = previous
    assert np.max(np.abs(routed - reference)) < 1e-9

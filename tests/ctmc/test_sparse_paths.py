"""Sparse-vs-dense equivalence for every solver with a sparse path.

Two layers of guarantees:

* **Property tests** (hypothesis): on random small chains the Krylov
  transient backends and the augmented-Krylov accumulated backends
  agree with their dense counterparts to solver tolerance.
* **Paper-model pinning**: on the FIG9-12 constituent models (the
  dense regime) ``auto`` dispatch must keep choosing the historical
  backend — uniformization — and produce *bitwise* the same vectors it
  did before the sparse paths existed.  This is the contract that keeps
  every published number and every cache key stable.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ctmc import config
from repro.ctmc.accumulated import (
    accumulated_grid,
    accumulated_reward,
    transient_accumulated_grid,
)
from repro.ctmc.chain import CTMC
from repro.ctmc.transient import transient_distribution, transient_grid
from repro.gsu.models.rm_gd import build_rm_gd
from repro.gsu.models.rm_gp import build_rm_gp
from repro.gsu.models.rm_nd import build_rm_nd
from repro.gsu.parameters import PAPER_TABLE3
from repro.san.ctmc_builder import build_ctmc


@st.composite
def chains(draw, min_states=2, max_states=8):
    """Random CTMCs with a guaranteed path through the state space."""
    n = draw(st.integers(min_states, max_states))
    rate_values = st.floats(0.05, 4.0, allow_nan=False, allow_infinity=False)
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = draw(rate_values)
    extra = draw(st.integers(0, 2 * n))
    for _ in range(extra):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src != dst:
            rates[(src, dst)] = draw(rate_values)
    return CTMC.from_rates(n, rates)


#: A time so small the scaled Krylov operator is numerically zero (it
#: once made scipy divide by a zero scaling count and warn).
TINY_T = 5e-324


def _tiny_examples(test):
    """Pin the underflowing segment as explicit examples: one point, and
    a uniform two-point grid (scipy's multi-endpoint path)."""
    for rate in (1.0, 2.0):
        chain = CTMC.from_rates(2, {(0, 1): rate})
        test = example(chain=chain, ts=[TINY_T])(test)
        test = example(chain=chain, ts=[TINY_T, 2 * TINY_T])(test)
    return test


@st.composite
def grids(draw, max_t=15.0):
    points = draw(
        st.lists(
            st.floats(0.0, max_t, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        )
    )
    return sorted(points)


class TestKrylovTransient:
    @given(chain=chains(), t=st.floats(0.01, 15.0))
    @settings(max_examples=50, deadline=None)
    def test_krylov_matches_dense_expm(self, chain, t):
        sparse = transient_distribution(chain, t, method="krylov")
        dense = transient_distribution(chain, t, method="dense-expm")
        assert np.allclose(sparse, dense, atol=1e-8)

    @given(chain=chains(), ts=grids())
    @_tiny_examples
    @settings(max_examples=50, deadline=None)
    def test_krylov_grid_matches_dense_grid(self, chain, ts):
        sparse = transient_grid(chain, ts, method="krylov")
        dense = transient_grid(chain, ts, method="dense-expm")
        assert np.allclose(sparse, dense, atol=1e-8)

    @given(chain=chains(), ts=grids())
    @_tiny_examples
    @settings(max_examples=30, deadline=None)
    def test_krylov_grid_rows_are_distributions(self, chain, ts):
        rows = transient_grid(chain, ts, method="krylov")
        assert np.all(rows >= 0.0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_krylov_grid_uniform_spacing_fast_path(self):
        # Uniform grids starting at 0 take the single-call
        # expm_multiply path; verify against per-point solves.
        chain = CTMC.from_rates(3, {(0, 1): 1.0, (1, 2): 0.5, (2, 0): 0.25})
        ts = [0.0, 2.0, 4.0, 6.0]
        rows = transient_grid(chain, ts, method="krylov")
        for i, t in enumerate(ts):
            expected = transient_distribution(chain, t, method="dense-expm")
            assert np.allclose(rows[i], expected, atol=1e-9)

    def test_krylov_grid_irregular_spacing(self):
        chain = CTMC.from_rates(3, {(0, 1): 1.0, (1, 2): 0.5, (2, 0): 0.25})
        ts = [0.0, 0.7, 5.0]
        rows = transient_grid(chain, ts, method="krylov")
        for i, t in enumerate(ts):
            expected = transient_distribution(chain, t, method="dense-expm")
            assert np.allclose(rows[i], expected, atol=1e-8)


class TestAugmentedKrylovAccumulated:
    @given(chain=chains(), t=st.floats(0.01, 15.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_augmented_expm(self, chain, t):
        rewards = np.linspace(0.0, 1.0, chain.num_states)
        sparse = accumulated_reward(
            chain, rewards, t, method="augmented-krylov"
        )
        dense = accumulated_reward(chain, rewards, t, method="augmented-expm")
        assert sparse == pytest.approx(dense, abs=1e-7, rel=1e-7)

    @given(chain=chains(), ts=grids())
    @_tiny_examples
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_augmented_expm_grid(self, chain, ts):
        rewards = np.linspace(0.0, 1.0, chain.num_states)
        sparse = accumulated_grid(
            chain, rewards, ts, method="augmented-krylov"
        )
        dense = accumulated_grid(chain, rewards, ts, method="augmented-expm")
        assert np.allclose(sparse, dense, atol=1e-7)

    @given(chain=chains(), ts=grids())
    @settings(max_examples=30, deadline=None)
    def test_fused_grid_consistent(self, chain, ts):
        rewards = np.linspace(0.0, 1.0, chain.num_states)
        rows, acc = transient_accumulated_grid(
            chain, rewards, ts, method="augmented-krylov"
        )
        rows_ref = transient_grid(chain, ts, method="dense-expm")
        acc_ref = accumulated_grid(chain, rewards, ts, method="augmented-expm")
        assert np.allclose(rows, rows_ref, atol=1e-7)
        assert np.allclose(acc, acc_ref, atol=1e-7)


def _paper_chains():
    params = PAPER_TABLE3
    return {
        "RMGd": build_ctmc(build_rm_gd(params)).chain,
        "RMGp": build_ctmc(build_rm_gp(params)).chain,
        "RMNd_new": build_ctmc(build_rm_nd(params, params.mu_new)).chain,
        "RMNd_old": build_ctmc(build_rm_nd(params, params.mu_old)).chain,
    }


class TestPaperModelPinning:
    """FIG9-12 constituents stay in the dense regime, bitwise stable."""

    @pytest.mark.parametrize("name", ["RMGd", "RMGp", "RMNd_new", "RMNd_old"])
    def test_auto_is_bitwise_uniformization(self, name):
        chain = _paper_chains()[name]
        # Paper-scale horizons: non-stiff, so auto must keep choosing
        # uniformization exactly as it did before the sparse paths.
        for t in (1e-4, 1e-3, 5e-3):
            auto = transient_distribution(chain, t, method="auto")
            uni = transient_distribution(chain, t, method="uniformization")
            assert np.array_equal(auto, uni)

    @pytest.mark.parametrize("name", ["RMGd", "RMGp", "RMNd_new", "RMNd_old"])
    def test_auto_grid_is_bitwise_uniformization(self, name):
        chain = _paper_chains()[name]
        ts = [0.0, 1e-4, 5e-4, 1e-3]
        auto = transient_grid(chain, ts, method="auto")
        uni = transient_grid(chain, ts, method="uniformization")
        assert np.array_equal(auto, uni)

    @pytest.mark.parametrize("name", ["RMGd", "RMGp", "RMNd_new", "RMNd_old"])
    def test_dispatch_records_uniformization_only(self, name):
        chain = _paper_chains()[name]
        config.reset_dispatch_counts()
        try:
            transient_distribution(chain, 1e-3, method="auto")
            counts = config.dispatch_counts()
            assert counts.get("uniformization", 0) == 1
            assert "krylov" not in counts
            assert "dense-expm" not in counts
        finally:
            config.reset_dispatch_counts()

    @pytest.mark.parametrize("name", ["RMGd", "RMGp", "RMNd_new", "RMNd_old"])
    def test_krylov_agrees_with_paper_backend(self, name):
        # The sparse backend reproduces the paper models' answers to
        # tolerance (it is never auto-chosen for them, but must agree).
        chain = _paper_chains()[name]
        t = 1e-3
        uni = transient_distribution(chain, t, method="uniformization")
        krylov = transient_distribution(chain, t, method="krylov")
        assert np.allclose(krylov, uni, atol=1e-9)

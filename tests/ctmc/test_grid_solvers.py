"""Grid (batched time-grid) solvers vs their per-point counterparts.

The batched sweep path rests on one contract: solving a whole time grid
must give, at every grid point, the value the scalar solver gives for
that point alone — independent of which other points ride along in the
grid.  These tests pin that contract with hypothesis-generated chains,
non-uniform and duplicate-bearing grids, the spectral backend's
agreement with dense expm, a scalar call against its one-point grid
for every backend, and a chain above ``DENSE_STATE_LIMIT`` (where only
the sparse backends apply).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ctmc.accumulated import (
    ACCUMULATED_METHODS,
    accumulated_grid,
    accumulated_reward,
    transient_accumulated_grid,
)
from repro.ctmc.chain import CTMC
from repro.ctmc.config import DENSE_STATE_LIMIT, SPECTRAL_STATE_LIMIT
from repro.ctmc.errors import CTMCError
from repro.ctmc.transient import (
    TRANSIENT_METHODS,
    transient_distribution,
    transient_grid,
)


@st.composite
def generators(draw, min_states=2, max_states=6):
    """Random CTMC rate dictionaries."""
    n = draw(st.integers(min_states, max_states))
    rates = {}
    rate_values = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)
    extra_edges = draw(st.integers(1, n * 2))
    for _ in range(extra_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src != dst:
            rates[(src, dst)] = draw(rate_values)
    if not rates:
        rates[(0, n - 1)] = 1.0
    return n, rates


@st.composite
def chains(draw, **kwargs):
    n, rates = draw(generators(**kwargs))
    return CTMC.from_rates(n, rates)


@st.composite
def grids(draw, max_t=20.0):
    """Sorted, possibly duplicate-bearing, non-uniform time grids."""
    points = draw(
        st.lists(
            st.floats(0.0, max_t, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        )
    )
    duplicated = points + draw(
        st.lists(st.sampled_from(points), min_size=0, max_size=3)
    )
    return sorted(duplicated)


class TestTransientGridMatchesScalar:
    @given(chain=chains(), grid=grids())
    @settings(max_examples=50, deadline=None)
    def test_grid_rows_match_per_point_solves(self, chain, grid):
        rows = transient_grid(chain, grid)
        for row, t in zip(rows, grid):
            expected = transient_distribution(chain, float(t))
            np.testing.assert_allclose(row, expected, atol=1e-9, rtol=1e-9)

    @given(chain=chains(), grid=grids())
    @settings(max_examples=50, deadline=None)
    def test_duplicates_get_identical_rows(self, chain, grid):
        rows = transient_grid(chain, grid)
        by_time = {}
        for row, t in zip(rows, grid):
            if t in by_time:
                np.testing.assert_array_equal(row, by_time[t])
            by_time[t] = row

    @given(chain=chains(), grid=grids())
    @settings(max_examples=30, deadline=None)
    def test_rows_are_probability_vectors(self, chain, grid):
        rows = transient_grid(chain, grid)
        assert np.all(rows >= 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_decreasing_grid_rejected(self):
        chain = CTMC.from_rates(2, {(0, 1): 1.0})
        with pytest.raises(CTMCError):
            transient_grid(chain, [2.0, 1.0])

    def test_negative_time_rejected(self):
        chain = CTMC.from_rates(2, {(0, 1): 1.0})
        with pytest.raises(CTMCError):
            transient_grid(chain, [-1.0, 1.0])

    def test_empty_grid_rejected(self):
        chain = CTMC.from_rates(2, {(0, 1): 1.0})
        with pytest.raises(CTMCError):
            transient_grid(chain, [])

    def test_methods_tuple_is_exhaustive(self):
        # Scalar and grid solves share TRANSIENT_METHODS (its contents
        # are pinned in test_transient.py); the grid accepts every entry
        # and rejects the retired grid-only names.
        chain = CTMC.from_rates(2, {(0, 1): 1.0})
        for method in TRANSIENT_METHODS:
            assert transient_grid(chain, [1.0], method=method).shape == (1, 2)
        for retired in ("streaming", "propagator", "expm"):
            with pytest.raises(CTMCError, match="unknown transient method"):
                transient_grid(chain, [1.0], method=retired)


class TestGridIndependence:
    """A grid point's value must not depend on its companions."""

    @pytest.mark.parametrize("method", ["dense-expm", "augmented-expm"])
    @given(chain=chains(), grid=grids())
    @example(  # all-zero generator: ||A|| = 0 still gives a finite step
        chain=CTMC.from_rates(3, {}), grid=[0.0, 0.5, 1e3, 1e3]
    )
    @example(  # absorbing chain, dyadic and non-dyadic points
        chain=CTMC.from_rates(3, {(0, 1): 4.0, (1, 2): 0.25}),
        grid=[0.0, 0.1, 1.0 / 3.0, 2.0, 2.0, 16.0, 19.37],
    )
    @example(  # the smallest subnormal time
        chain=CTMC.from_rates(2, {(0, 1): 3.0, (1, 0): 1.0}),
        grid=[5e-324, 5e-324, 1.0],
    )
    @settings(max_examples=30, deadline=None)
    def test_expm_rows_are_grid_independent(self, method, chain, grid):
        """A row is bitwise the same solved as a scalar, as a one-point
        grid, or inside a grid with duplicates."""
        rewards = np.linspace(-1.0, 1.0, chain.num_states)

        def solve(times):
            if method == "dense-expm":
                return transient_grid(chain, times, method=method), None
            return transient_accumulated_grid(
                chain, rewards, times, method=method
            )

        rows, acc = solve(grid)
        for k, t in enumerate(grid):
            alone_rows, alone_acc = solve([t])
            np.testing.assert_array_equal(rows[k], alone_rows[0])
            if method == "dense-expm":
                scalar = transient_distribution(chain, t, method=method)
                np.testing.assert_array_equal(rows[k], scalar)
            else:
                assert acc[k] == alone_acc[0]
                assert acc[k] == accumulated_reward(
                    chain, rewards, t, method=method
                )

    @given(chain=chains(), grid=grids())
    @settings(max_examples=30, deadline=None)
    def test_spectral_rows_are_grid_invariant(self, chain, grid):
        full = transient_grid(chain, grid, method="spectral")
        for row, t in zip(full, grid):
            alone = transient_grid(chain, [t], method="spectral")[0]
            np.testing.assert_array_equal(row, alone)

    @given(chain=chains(), grid=grids())
    @settings(max_examples=30, deadline=None)
    def test_spectral_scalar_matches_grid_bitwise(self, chain, grid):
        rows = transient_grid(chain, grid, method="spectral")
        for row, t in zip(rows, grid):
            scalar = transient_distribution(chain, float(t), method="spectral")
            np.testing.assert_array_equal(row, scalar)

    @pytest.mark.parametrize("method", TRANSIENT_METHODS)
    @given(chain=chains(), t=st.floats(0.0, 20.0))
    @settings(max_examples=15, deadline=None)
    def test_transient_scalar_is_one_point_grid_bitwise(self, method, chain, t):
        scalar = transient_distribution(chain, t, method=method)
        alone = transient_grid(chain, [t], method=method)[0]
        np.testing.assert_array_equal(scalar, alone)

    @pytest.mark.parametrize("method", ACCUMULATED_METHODS)
    @given(chain=chains(), t=st.floats(0.0, 20.0))
    @settings(max_examples=15, deadline=None)
    def test_accumulated_scalar_is_one_point_grid_bitwise(
        self, method, chain, t
    ):
        rewards = np.linspace(-1.0, 1.0, chain.num_states)
        scalar = accumulated_reward(chain, rewards, t, method=method)
        alone = accumulated_grid(chain, rewards, [t], method=method)[0]
        assert scalar == alone


class TestSpectralBackend:
    @given(chain=chains(), t=st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_spectral_agrees_with_dense_expm(self, chain, t):
        spectral = transient_distribution(chain, t, method="spectral")
        dense = transient_distribution(chain, t, method="dense-expm")
        np.testing.assert_allclose(spectral, dense, atol=1e-9)

    def test_large_chain_falls_back_to_dense(self):
        n = SPECTRAL_STATE_LIMIT + 1
        rates = {(i, i + 1): 1.0 for i in range(n - 1)}
        chain = CTMC.from_rates(n, rates)
        spectral = transient_distribution(chain, 2.0, method="spectral")
        dense = transient_distribution(chain, 2.0, method="dense-expm")
        np.testing.assert_array_equal(spectral, dense)


class TestAccumulatedGridMatchesScalar:
    @given(chain=chains(), grid=grids())
    @settings(max_examples=40, deadline=None)
    def test_grid_matches_per_point_solves(self, chain, grid):
        rewards = np.linspace(0.0, 1.0, chain.num_states)
        totals = accumulated_grid(chain, rewards, grid)
        for total, t in zip(totals, grid):
            expected = accumulated_reward(chain, rewards, float(t), method="auto")
            np.testing.assert_allclose(total, expected, atol=1e-8, rtol=1e-8)

    @given(chain=chains(), grid=grids())
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_rewards_accumulate_monotonically(self, chain, grid):
        rewards = np.ones(chain.num_states)
        totals = accumulated_grid(chain, rewards, grid)
        assert np.all(np.diff(totals) >= -1e-9)


class TestBeyondDenseLimit:
    def test_uniformization_grid_serves_large_sparse_chains(self):
        # A birth-death chain just above the dense cutoff: the grid path
        # must stay sparse and agree with per-point uniformization.
        n = DENSE_STATE_LIMIT + 10
        rates = {}
        for i in range(n - 1):
            rates[(i, i + 1)] = 1.0
            rates[(i + 1, i)] = 0.5
        chain = CTMC.from_rates(n, rates)
        grid = [0.0, 0.5, 1.5, 4.0]
        rows = transient_grid(chain, grid)  # auto -> uniformization
        for row, t in zip(rows, grid):
            expected = transient_distribution(
                chain, t, method="uniformization"
            )
            np.testing.assert_allclose(row, expected, atol=1e-9)

"""The Taylor remainder of the shared squarings.

``_expm_rows`` finishes every time that is not a multiple of its base
step ``h`` with a truncated Taylor series instead of a Padé exponential
of its own.  These tests pin the three things that rest on:

* a non-dyadic row is bitwise the same alone, with companions and in a
  permuted grid (its degree and vectors depend only on the matrix);
* the degree's truncation bound holds, checked at 50 digits;
* a grid costs exactly one Padé exponential, the base step, however
  many of its points are non-dyadic.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc import transient
from repro.ctmc.accumulated import transient_accumulated_grid
from repro.ctmc.transient import (
    _expm_rows,
    _norm1,
    _squaring_exponent,
    _taylor_degree,
    transient_grid,
)
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.templates import shared_cache
from repro.surrogate.chebyshev import cgl_nodes, from_unit
from tests.conftest import make_random_chain


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _augmented(chain, rewards):
    n = chain.num_states
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = chain.generator.toarray()
    a[:n, n] = rewards
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    return a, state


def _non_dyadic(a, t):
    h = math.ldexp(1.0, -_squaring_exponent(a))
    return math.fmod(t, h) > 0.0


seeds = st.integers(0, 2**32 - 1)
times = st.floats(1e-6, 60.0, allow_nan=False)


class TestRowIndependence:
    @given(
        seed=seeds,
        n=st.integers(2, 30),
        scale=st.sampled_from([0.1, 1.0, 50.0, 1e3]),
        point=times,
        companions=st.lists(times, min_size=1, max_size=10),
        augmented=st.booleans(),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_row_alone_with_companions_and_permuted(
        self, seed, n, scale, point, companions, augmented, order
    ):
        chain = make_random_chain(n, seed % 10_000, rate_scale=scale)
        if augmented:
            a, state = _augmented(chain, np.linspace(-1.0, 1.0, n))
        else:
            a, state = chain.generator.toarray(), chain.initial_distribution
        alone = _expm_rows(a, state, np.array([point]))[0]

        grid = sorted(set(companions) | {point})
        together = _expm_rows(a, state, np.array(grid))[grid.index(point)]
        shuffled = list(grid)
        order.shuffle(shuffled)
        permuted = _expm_rows(a, state, np.array(shuffled))[shuffled.index(point)]

        assert _same_bits(together, alone)
        assert _same_bits(permuted, alone)

    @pytest.mark.parametrize("kind", ["RMGd", "RMGp"])
    def test_fit_node_alone_equals_fit_node_in_its_grid(self, kind):
        """The surrogate's Chebyshev fit nodes through the public grid
        solvers, each alone and in the full node grid."""
        chain = shared_cache().compiled(kind, PAPER_TABLE3).chain
        rewards = np.linspace(0.0, 1.0, chain.num_states)
        nodes = from_unit(cgl_nodes(16), 0.0, PAPER_TABLE3.theta)
        grid = np.sort(nodes)
        rows = transient_grid(chain, grid, method="dense-expm")
        fused, acc = transient_accumulated_grid(
            chain, rewards, grid, method="augmented-expm"
        )
        for k, t in enumerate(grid):
            assert _same_bits(
                transient_grid(chain, [t], method="dense-expm")[0], rows[k]
            )
            one_rows, one_acc = transient_accumulated_grid(
                chain, rewards, [t], method="augmented-expm"
            )
            assert _same_bits(one_rows[0], fused[k])
            assert _same_bits(one_acc[0], acc[k])


class TestTruncationBound:
    @pytest.mark.parametrize("nu", [0.0, 1e-3, 0.5, 1.0, 3.28125, 4.6875, 5.37])
    def test_dropped_terms_below_unit_roundoff(self, nu):
        mp = pytest.importorskip("mpmath")
        m = _taylor_degree(nu)
        with mp.workdps(50):
            tail = mp.exp(mp.mpf(nu)) - mp.fsum(
                mp.mpf(nu) ** k / mp.factorial(k) for k in range(m + 1)
            )
            assert tail <= mp.mpf(2) ** -53
            if m > 0:  # and the degree is the smallest that bounds it
                shorter = tail + mp.mpf(nu) ** m / mp.factorial(m)
                assert shorter > mp.mpf(2) ** -53

    def test_degree_bounded_by_the_pade_scaling(self):
        # ||a h||_1 <= theta_13 = 5.37, so no grid needs more terms.
        assert _taylor_degree(5.37) <= 40


class TestOnePadePerGrid:
    """CI guard: a 17-point grid whose every point is non-dyadic costs
    one ``scipy.linalg.expm`` call, the base step, on both dense
    backends."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counting_expm(matrix):
            made.append(matrix.shape)
            return real_expm(matrix)

        real_expm = transient.dense_expm
        monkeypatch.setattr(transient, "dense_expm", counting_expm)
        return made

    def test_one_pade_for_seventeen_non_dyadic_points(self, calls):
        chain = shared_cache().compiled("RMGd", PAPER_TABLE3).chain
        a, state = _augmented(chain, np.linspace(0.0, 1.0, chain.num_states))
        # Chebyshev nodes on a box that excludes both dyadic endpoints.
        grid = np.sort(from_unit(cgl_nodes(16), 0.37, PAPER_TABLE3.theta - 0.37))
        assert grid.size == 17
        assert all(_non_dyadic(a, float(t)) for t in grid)

        _expm_rows(a, state, grid)
        assert len(calls) == 1
        transient_grid(chain, grid, method="dense-expm")
        assert len(calls) == 2
        transient_accumulated_grid(
            chain, np.ones(chain.num_states), grid, method="augmented-expm"
        )
        assert len(calls) == 3

    def test_points_below_the_base_step_need_no_pade(self, calls):
        chain = shared_cache().compiled("RMGd", PAPER_TABLE3).chain
        a = chain.generator.toarray()
        h = math.ldexp(1.0, -_squaring_exponent(a))
        _expm_rows(a, chain.initial_distribution, np.array([h / 3, h / 2]))
        assert calls == []
        assert _norm1(a) * h <= transient._PADE13_THETA

"""Stacked grid rows are bitwise the per-row loops they replaced.

The dense grid solvers multiply, renormalise and reduce all rows of a
grid in one numpy call each.  The per-row loops are kept here as the
references, and every stacked result must equal them bit for bit, so a
point's value still does not depend on the grid it rides along with.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as dense_expm

from repro.ctmc import config
from repro.ctmc.transient import (
    _expm_rows,
    _renormalise,
    _renormalise_rows,
    _spectral_rows,
    _squaring_exponent,
    _stacked_rows,
)
from repro.gsu.measures import RS_OVERHEAD_1, RS_OVERHEAD_2, ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.san.rewards import _rowwise_dot, steady_state, steady_state_many
from tests.conftest import make_random_chain


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block(seed: int, rows: int, cols: int, complex_: bool = False) -> np.ndarray:
    """Seeded rows with tiny negatives, zero rows and ulp-scale entries."""
    rng = np.random.default_rng(seed)
    block = rng.uniform(-1e-3, 1.0, (rows, cols)) * 10.0 ** rng.integers(
        -18, 2, (rows, cols)
    )
    block[rng.random(rows) < 0.2] = 0.0
    if complex_:
        block = block + 1j * rng.uniform(-1.0, 1.0, (rows, cols))
    return block


# ----------------------------------------------------------------------
# The per-row references (the loops the stacked calls replaced)
# ----------------------------------------------------------------------
def _renormalise_loop(rows: np.ndarray) -> np.ndarray:
    out = np.empty_like(rows)
    for k in range(rows.shape[0]):
        out[k] = _renormalise(rows[k])
    return out


def _rowwise_dot_loop(pi: np.ndarray, rates: np.ndarray) -> np.ndarray:
    return np.array([float(row @ rates) for row in pi])


def _expm_rows_loop(a, state, unique):
    s = _squaring_exponent(a)
    h = math.ldexp(1.0, -s)
    rems = [math.fmod(float(t), h) for t in unique]
    counts = [int(math.ldexp(float(t) - rem, s)) for t, rem in zip(unique, rems)]
    rows = np.empty((unique.size, state.size))
    rows[:] = state
    bits = max(counts, default=0).bit_length()
    if bits:
        power = dense_expm(a * h)
    for j in range(bits):
        for k, count in enumerate(counts):
            if count >> j & 1:
                rows[k] = rows[k] @ power
        if j + 1 < bits:
            power = power @ power
    for k, rem in enumerate(rems):
        if rem > 0.0:
            rows[k] = rows[k] @ dense_expm(a * rem)
    return rows


def _spectral_rows_loop(chain, unique):
    q = chain.generator.toarray()
    w, v = np.linalg.eig(q)
    vinv = np.linalg.inv(v)
    if (
        not np.all(np.isfinite(vinv))
        or np.linalg.cond(v) > config.limits().spectral_condition_limit
    ):
        return None
    pi0 = chain.initial_distribution
    coeff = pi0.astype(complex) @ v
    out = np.empty((unique.size, chain.num_states))
    for k, t in enumerate(unique):
        if t == 0.0:
            out[k] = pi0
            continue
        out[k] = _renormalise(np.real((coeff * np.exp(w * float(t))) @ vinv))
    return out


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
seeds = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, t_max=40.0):
    """Sorted unique times: dyadic, non-dyadic and (sometimes) zero."""
    times = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, t_max, allow_nan=False),
                st.integers(0, int(t_max) * 4).map(lambda k: k / 4.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return np.unique(np.array(times, dtype=float))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestStackedEqualsLoops:
    @given(seed=seeds, rows=st.integers(0, 24), cols=st.integers(1, 520))
    @settings(max_examples=80)
    def test_renormalise_rows(self, seed, rows, cols):
        block = _block(seed, rows, cols)
        assert _same_bits(_renormalise_rows(block), _renormalise_loop(block))

    @given(seed=seeds, rows=st.integers(0, 24), cols=st.integers(1, 520))
    @settings(max_examples=80)
    def test_rowwise_dot(self, seed, rows, cols):
        pi = _block(seed, rows, cols)
        rates = _block(seed + 1, 1, cols)[0]
        assert _same_bits(_rowwise_dot(pi, rates), _rowwise_dot_loop(pi, rates))

    @given(
        seed=seeds,
        rows=st.integers(0, 16),
        cols=st.integers(1, 260),
        complex_=st.booleans(),
    )
    @settings(max_examples=60)
    def test_stacked_rows(self, seed, rows, cols, complex_):
        block = _block(seed, rows, cols, complex_)
        matrix = _block(seed + 2, cols, cols, complex_)
        expected = np.empty_like(block)
        for k, row in enumerate(block):
            expected[k] = row @ matrix
        assert _same_bits(_stacked_rows(block, matrix), expected)

    @given(
        seed=seeds,
        n=st.integers(2, 40),
        scale=st.sampled_from([0.1, 1.0, 50.0, 1e3]),
        unique=grids(),
    )
    @settings(max_examples=60)
    def test_expm_rows(self, seed, n, scale, unique):
        chain = make_random_chain(n, seed % 10_000, rate_scale=scale)
        a = chain.generator.toarray()
        pi0 = chain.initial_distribution
        assert _same_bits(_expm_rows(a, pi0, unique), _expm_rows_loop(a, pi0, unique))

    @given(
        seed=seeds,
        n=st.integers(2, 24),
        scale=st.sampled_from([0.1, 1.0, 50.0]),
        unique=grids(),
    )
    @settings(max_examples=60)
    def test_spectral_rows(self, seed, n, scale, unique):
        chain = make_random_chain(n, seed % 10_000, rate_scale=scale)
        expected = _spectral_rows_loop(chain, unique)
        actual = _spectral_rows(chain, unique)
        if expected is None:
            assert actual is None
        else:
            assert _same_bits(actual, expected)


class TestSharedSteadyState:
    def test_shared_solve_equals_separate_solves(self):
        solver = ConstituentSolver(PAPER_TABLE3)
        structures = (RS_OVERHEAD_1, RS_OVERHEAD_2)
        shared = steady_state_many(solver.rm_gp, structures)
        assert shared == [steady_state(solver.rm_gp, s) for s in structures]

    def test_batch_rho_equals_scalar_rho(self):
        solver = ConstituentSolver(PAPER_TABLE3.with_overrides(coverage=0.91))
        point = solver.batch([0.0, 5000.0])[1]
        assert (point["rho1"], point["rho2"]) == (solver.rho1(), solver.rho2())

    def test_batch_solves_the_steady_state_once(self):
        solver = ConstituentSolver(PAPER_TABLE3.with_overrides(coverage=0.92))
        before = config.dispatch_counts().get("steady-direct", 0)
        solver.batch([0.0, 2500.0, 5000.0])
        assert config.dispatch_counts().get("steady-direct", 0) - before == 1

"""Property-based tests (hypothesis) for the CTMC engine.

Invariants checked on randomly generated chains:

* transient distributions are probability vectors at every horizon;
* uniformization and the dense matrix exponential agree;
* Fox-Glynn windows always capture the requested Poisson mass;
* steady-state solutions satisfy ``pi Q = 0`` and agree with the
  iterative references;
* accumulated rewards are monotone in ``t`` for non-negative rewards
  and bounded by ``t * max(reward)``;
* Chapman-Kolmogorov: ``pi(s + t)`` equals propagating ``pi(s)`` by ``t``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.chain import CTMC
from repro.ctmc.steady_state import steady_state_distribution
from repro.ctmc.transient import transient_distribution
from repro.ctmc.accumulated import accumulated_reward
from repro.ctmc.uniformization import fox_glynn_weights
from repro.verify.oracles import gauss_seidel_steady_state, power_steady_state


@st.composite
def generators(draw, min_states=2, max_states=6, irreducible=False):
    """Random CTMC rate dictionaries (optionally strongly connected)."""
    n = draw(st.integers(min_states, max_states))
    rates = {}
    rate_values = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)
    if irreducible:
        # A ring guarantees irreducibility; extra edges add structure.
        for i in range(n):
            rates[(i, (i + 1) % n)] = draw(rate_values)
    extra_edges = draw(st.integers(0, n * 2))
    for _ in range(extra_edges):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src != dst:
            rates[(src, dst)] = draw(rate_values)
    if not rates:
        rates[(0, min(1, n - 1) or 0)] = 1.0
        if (0, 0) in rates:
            del rates[(0, 0)]
    return n, rates


@st.composite
def chains(draw, **kwargs):
    n, rates = draw(generators(**kwargs))
    if not rates:
        rates = {(0, n - 1): 1.0} if n > 1 else {}
    return CTMC.from_rates(n, rates)


class TestTransientProperties:
    @given(chain=chains(), t=st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_distribution_is_probability_vector(self, chain, t):
        pi = transient_distribution(chain, t)
        assert np.all(pi >= -1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-8)

    @given(chain=chains(), t=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_uniformization_matches_dense_expm(self, chain, t):
        uni = transient_distribution(chain, t, method="uniformization")
        dense = transient_distribution(chain, t, method="dense-expm")
        np.testing.assert_allclose(uni, dense, atol=1e-7)

    @given(chain=chains(), s=st.floats(0.1, 5.0), t=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_chapman_kolmogorov(self, chain, s, t):
        pi_s = transient_distribution(chain, s)
        continued = CTMC(
            chain.generator, initial=pi_s
        )
        via_two_steps = transient_distribution(continued, t)
        direct = transient_distribution(chain, s + t)
        np.testing.assert_allclose(via_two_steps, direct, atol=1e-7)


class TestFoxGlynnProperties:
    @given(mean=st.floats(0.0, 50_000.0), tol=st.sampled_from([1e-6, 1e-10, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_mass_captured(self, mean, tol):
        window = fox_glynn_weights(mean, tolerance=tol)
        # Allowance for scipy pmf evaluation bias: each of the O(sqrt(mean))
        # retained terms carries ~1e-14 relative error, so the captured
        # mass can drift from the exact value by ~mean * 5e-15.
        numerical_slack = 1e-11 + mean * 5e-15
        assert window.total_mass >= 1.0 - tol - numerical_slack
        assert window.total_mass <= 1.0 + numerical_slack
        assert np.all(window.weights >= 0)


class TestSteadyStateProperties:
    @given(chain=chains(irreducible=True))
    @settings(max_examples=40, deadline=None)
    def test_stationarity_residual(self, chain):
        pi = steady_state_distribution(chain)
        residual = pi @ chain.generator.toarray()
        np.testing.assert_allclose(residual, 0.0, atol=1e-8)

    @given(chain=chains(irreducible=True))
    @settings(max_examples=20, deadline=None)
    def test_solvers_agree(self, chain):
        direct = steady_state_distribution(chain)
        power = power_steady_state(chain, tolerance=1e-13)
        gs = gauss_seidel_steady_state(chain)
        np.testing.assert_allclose(power, direct, atol=1e-6)
        np.testing.assert_allclose(gs, direct, atol=1e-6)

    @given(chain=chains(irreducible=True))
    @settings(max_examples=15, deadline=None)
    def test_transient_converges_to_stationary(self, chain):
        # Mixing time scales inversely with the rates, so pick the
        # horizon from the slowest rate in the chain.
        q = chain.generator.toarray()
        np.fill_diagonal(q, 0.0)
        min_rate = min(r for r in q.ravel() if r > 0)
        t = 500.0 / min_rate
        pi_inf = steady_state_distribution(chain)
        pi_t = transient_distribution(chain, t, method="dense-expm")
        np.testing.assert_allclose(pi_t, pi_inf, atol=1e-4)


class TestAccumulatedProperties:
    @given(
        chain=chains(),
        t1=st.floats(0.1, 5.0),
        dt=st.floats(0.1, 5.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_horizon_for_nonnegative_rewards(
        self, chain, t1, dt, seed
    ):
        rng = np.random.default_rng(seed)
        rewards = rng.uniform(0.0, 3.0, chain.num_states)
        early = accumulated_reward(chain, rewards, t1)
        late = accumulated_reward(chain, rewards, t1 + dt)
        assert late >= early - 1e-9

    @given(chain=chains(), t=st.floats(0.1, 10.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_extreme_rates(self, chain, t, seed):
        rng = np.random.default_rng(seed)
        rewards = rng.uniform(-2.0, 4.0, chain.num_states)
        value = accumulated_reward(chain, rewards, t)
        assert rewards.min() * t - 1e-8 <= value <= rewards.max() * t + 1e-8

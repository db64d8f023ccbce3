"""Tests for the steady-state solver and its iterative references."""

import warnings

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import ConvergenceError, CTMCError
from repro.ctmc.steady_state import steady_state_distribution, steady_state_reward
from repro.verify.oracles import (
    STEADY_REFERENCES,
    power_steady_state,
    sor_steady_state,
)

#: The direct solver and every iterative reference, by name.
SOLVERS = {"direct": steady_state_distribution, **STEADY_REFERENCES}


class TestSolvers:
    @pytest.mark.parametrize("method", SOLVERS)
    def test_mm13_stationary(self, birth_death_chain, mm13_stationary, method):
        pi = SOLVERS[method](birth_death_chain)
        np.testing.assert_allclose(pi, mm13_stationary, atol=1e-8)

    @pytest.mark.parametrize("method", SOLVERS)
    def test_two_state_cycle(self, method):
        chain = CTMC.from_rates(2, {(0, 1): 1.0, (1, 0): 3.0})
        pi = SOLVERS[method](chain)
        np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-8)

    def test_single_state_chain(self):
        chain = CTMC(np.zeros((1, 1)))
        np.testing.assert_allclose(steady_state_distribution(chain), [1.0])

    def test_pi_q_is_zero(self, birth_death_chain):
        pi = steady_state_distribution(birth_death_chain)
        residual = pi @ birth_death_chain.generator.toarray()
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)

    def test_power_convergence_error_reported(self, birth_death_chain):
        with pytest.raises(ConvergenceError) as exc_info:
            power_steady_state(birth_death_chain, tolerance=1e-16, max_iterations=3)
        assert exc_info.value.iterations == 3
        assert exc_info.value.residual > 0

    def test_sor_rejects_bad_relaxation(self, birth_death_chain):
        with pytest.raises(CTMCError):
            sor_steady_state(birth_death_chain, relaxation=2.5)

    def test_sor_rejects_absorbing_state(self, two_state_chain):
        with pytest.raises(CTMCError):
            sor_steady_state(two_state_chain)


class TestNoUniqueStationary:
    """More than one closed class: the direct system is singular, and the
    solve must say so instead of returning NaN."""

    def _assert_rejected(self, chain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CTMCError, match="no unique stationary"):
                steady_state_distribution(chain)
        assert getattr(chain, "_direct_steady_cache", None) is None

    def test_two_absorbing_states_rejected(self):
        self._assert_rejected(CTMC.from_rates(3, {(0, 1): 1.0, (0, 2): 2.0}))

    def test_two_closed_classes_rejected(self):
        chain = CTMC.from_rates(
            5,
            {
                (0, 1): 1.0,
                (0, 3): 1.0,
                (1, 2): 2.0,
                (2, 1): 3.0,
                (3, 4): 1.0,
                (4, 3): 0.5,
            },
        )
        self._assert_rejected(chain)

    def test_one_absorbing_state_solves(self):
        chain = CTMC(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(steady_state_distribution(chain), [0.0, 1.0])


class TestSteadyReward:
    def test_expected_queue_length(self, birth_death_chain, mm13_stationary):
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        value = steady_state_reward(birth_death_chain, rewards)
        assert value == pytest.approx(float(mm13_stationary @ rewards))

    def test_indicator_reward_is_probability(
        self, birth_death_chain, mm13_stationary
    ):
        value = steady_state_reward(birth_death_chain, [0.0, 0.0, 0.0, 1.0])
        assert value == pytest.approx(mm13_stationary[3])


class TestLargerChain:
    def test_random_walk_ring(self):
        # 12-state ring with uniform rates: stationary is uniform.
        n = 12
        rates = {}
        for i in range(n):
            rates[(i, (i + 1) % n)] = 1.0
            rates[(i, (i - 1) % n)] = 1.0
        chain = CTMC.from_rates(n, rates)
        for solve in SOLVERS.values():
            pi = solve(chain)
            np.testing.assert_allclose(pi, np.full(n, 1 / n), atol=1e-7)

    def test_detailed_balance_birth_death(self):
        # Birth-death with state-dependent rates satisfies detailed balance.
        rates = {}
        birth = [3.0, 2.0, 1.0]
        death = [2.0, 4.0, 1.5]
        for i in range(3):
            rates[(i, i + 1)] = birth[i]
            rates[(i + 1, i)] = death[i]
        chain = CTMC.from_rates(4, rates)
        pi = steady_state_distribution(chain)
        for i in range(3):
            assert pi[i] * birth[i] == pytest.approx(pi[i + 1] * death[i], rel=1e-9)

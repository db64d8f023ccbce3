"""Tests for accumulated (interval-of-time) reward solvers."""

import numpy as np
import pytest

from repro.ctmc.accumulated import ACCUMULATED_METHODS, accumulated_reward
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.verify.oracles import quadrature_accumulated


class TestBackends:
    @pytest.mark.parametrize(
        "method",
        ["uniformization", "augmented-expm", "augmented-krylov", "quadrature"],
    )
    def test_matches_closed_form(self, method):
        mu = 0.4
        chain = CTMC.two_state_failure(mu)
        t = 3.0
        if method == "quadrature":
            value = quadrature_accumulated(chain, [1.0, 0.0], [t])[0]
        else:
            value = accumulated_reward(chain, [1.0, 0.0], t, method=method)
        expected = (1 - np.exp(-mu * t)) / mu
        assert value == pytest.approx(expected, rel=1e-6)

    def test_backends_agree_on_birth_death(self, birth_death_chain):
        rewards = [0.0, 1.0, 2.0, 3.0]
        values = {
            m: accumulated_reward(birth_death_chain, rewards, 4.0, method=m)
            for m in ("uniformization", "augmented-expm")
        }
        assert values["uniformization"] == pytest.approx(
            values["augmented-expm"], rel=1e-9
        )

    def test_auto_on_stiff_chain(self):
        chain = CTMC.from_rates(
            3, {(0, 1): 1200.0, (1, 0): 1200.0, (0, 2): 1e-4, (1, 2): 1e-4}
        )
        value = accumulated_reward(chain, [1.0, 1.0, 0.0], 10_000.0, method="auto")
        expected = (1 - np.exp(-1.0)) / 1e-4
        assert value == pytest.approx(expected, rel=1e-6)

    def test_methods_tuple(self):
        assert set(ACCUMULATED_METHODS) == {
            "uniformization",
            "augmented-expm",
            "augmented-krylov",
            "auto",
        }


class TestValidation:
    def test_unknown_method(self, birth_death_chain):
        with pytest.raises(CTMCError):
            accumulated_reward(birth_death_chain, np.ones(4), 1.0, method="bogus")

    def test_negative_time(self, birth_death_chain):
        with pytest.raises(CTMCError):
            accumulated_reward(birth_death_chain, np.ones(4), -1.0)

    def test_zero_time_is_zero(self, birth_death_chain):
        assert accumulated_reward(birth_death_chain, np.ones(4), 0.0) == 0.0

    def test_mixed_sign_rewards(self):
        # +1 while up, -1 while down: E = 2*uptime - t.
        mu = 1.0
        chain = CTMC.two_state_failure(mu)
        t = 2.0
        value = accumulated_reward(chain, [1.0, -1.0], t)
        uptime = (1 - np.exp(-mu * t)) / mu
        assert value == pytest.approx(2 * uptime - t, rel=1e-8)


class TestAveraged:
    def test_long_run_average_approaches_stationary_reward(
        self, birth_death_chain, mm13_stationary
    ):
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        avg = accumulated_reward(birth_death_chain, rewards, 2000.0) / 2000.0
        assert avg == pytest.approx(float(mm13_stationary @ rewards), rel=1e-3)


class TestTimeInSet:
    """The expected time spent in a state set is the accumulated reward
    of the set's indicator."""

    def test_time_in_absorbing_state(self):
        mu = 0.5
        chain = CTMC.two_state_failure(mu)
        t = 4.0
        downtime = accumulated_reward(chain, [0.0, 1.0], t)
        uptime = (1 - np.exp(-mu * t)) / mu
        assert downtime == pytest.approx(t - uptime, rel=1e-8)

    def test_time_in_labelled_set(self):
        chain = CTMC.two_state_failure(0.5)
        up = chain.indicator(lambda label: label == "up")
        assert accumulated_reward(chain, up, 2.0) == pytest.approx(
            (1 - np.exp(-1.0)) / 0.5, rel=1e-8
        )

    def test_times_partition_horizon(self, birth_death_chain):
        t = 6.0
        total = sum(
            accumulated_reward(birth_death_chain, np.eye(4)[i], t)
            for i in range(4)
        )
        assert total == pytest.approx(t, rel=1e-9)

"""Tests for uniformization and Fox-Glynn weights."""

import numpy as np
import pytest
from scipy import stats

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.accumulated import accumulated_grid, transient_accumulated_grid
from repro.ctmc.transient import transient_grid
from repro.ctmc.uniformization import fox_glynn_weights, uniformize


class TestFoxGlynn:
    def test_zero_mean_is_degenerate(self):
        window = fox_glynn_weights(0.0)
        assert window.left == 0 and window.right == 0
        np.testing.assert_allclose(window.weights, [1.0])

    def test_mass_criterion(self):
        for mean in (0.1, 1.0, 10.0, 500.0, 25_000.0):
            window = fox_glynn_weights(mean, tolerance=1e-10)
            assert window.total_mass >= 1.0 - 1e-10

    def test_weights_match_scipy_pmf(self):
        mean = 12.5
        window = fox_glynn_weights(mean)
        ks = np.arange(window.left, window.right + 1)
        np.testing.assert_allclose(
            window.weights, stats.poisson(mean).pmf(ks), rtol=1e-12
        )

    def test_window_centred_near_mean(self):
        window = fox_glynn_weights(1000.0)
        assert window.left < 1000 < window.right

    def test_negative_mean_rejected(self):
        with pytest.raises(CTMCError):
            fox_glynn_weights(-1.0)

    def test_tolerance_shrinks_window(self):
        loose = fox_glynn_weights(100.0, tolerance=1e-4)
        tight = fox_glynn_weights(100.0, tolerance=1e-14)
        assert (tight.right - tight.left) > (loose.right - loose.left)


class TestUniformize:
    def test_row_stochastic(self, birth_death_chain):
        p, rate = uniformize(birth_death_chain.generator)
        rows = np.asarray(p.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)
        assert rate >= 5.0  # max exit rate

    def test_respects_supplied_rate(self, birth_death_chain):
        p, rate = uniformize(birth_death_chain.generator, rate=10.0)
        assert rate == 10.0
        # Self-loop probability = 1 - exit/10.
        assert p[0, 0] == pytest.approx(1.0 - 2.0 / 10.0)

    def test_rejects_rate_below_max_exit(self, birth_death_chain):
        with pytest.raises(CTMCError):
            uniformize(birth_death_chain.generator, rate=1.0)

    def test_all_absorbing_generator(self):
        chain = CTMC(np.zeros((2, 2)))
        p, rate = uniformize(chain.generator)
        assert rate > 0
        np.testing.assert_allclose(p.toarray(), np.eye(2))


class TestTransient:
    """The Jensen walk through ``transient_grid(method="uniformization")``."""

    def test_matches_closed_form_survival(self):
        chain = CTMC.two_state_failure(0.5)
        ts = [0.1, 1.0, 5.0]
        rows = transient_grid(chain, ts, method="uniformization")
        for row, t in zip(rows, ts):
            assert row[0] == pytest.approx(np.exp(-0.5 * t), rel=1e-9)

    def test_time_zero_returns_initial(self, birth_death_chain):
        pi = transient_grid(birth_death_chain, [0.0], method="uniformization")[0]
        np.testing.assert_allclose(pi, birth_death_chain.initial_distribution)

    def test_negative_time_rejected(self, birth_death_chain):
        with pytest.raises(CTMCError):
            transient_grid(birth_death_chain, [-1.0], method="uniformization")

    def test_long_horizon_converges_to_stationary(
        self, birth_death_chain, mm13_stationary
    ):
        pi = transient_grid(
            birth_death_chain, [200.0], method="uniformization"
        )[0]
        np.testing.assert_allclose(pi, mm13_stationary, atol=1e-8)

    def test_distribution_stays_normalised(self, birth_death_chain):
        pi = transient_grid(birth_death_chain, [3.7], method="uniformization")[0]
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)


class TestAccumulated:
    """Integrated uniformization through ``accumulated_grid`` and
    ``transient_accumulated_grid`` with ``method="uniformization"``."""

    def test_matches_closed_form_uptime(self):
        # E[time in up over [0, t]] = (1 - exp(-mu t)) / mu.
        mu = 0.5
        chain = CTMC.two_state_failure(mu)
        rewards = np.array([1.0, 0.0])
        ts = np.array([0.5, 2.0, 10.0])
        values = accumulated_grid(chain, rewards, ts, method="uniformization")
        np.testing.assert_allclose(values, (1 - np.exp(-mu * ts)) / mu, rtol=1e-8)

    def test_constant_reward_accumulates_time(self, birth_death_chain):
        value = accumulated_grid(
            birth_death_chain, np.ones(4), [7.3], method="uniformization"
        )[0]
        assert value == pytest.approx(7.3, rel=1e-9)

    def test_zero_horizon(self, birth_death_chain):
        value = accumulated_grid(
            birth_death_chain, np.ones(4), [0.0], method="uniformization"
        )[0]
        assert value == 0.0

    def test_negative_rewards_supported(self):
        chain = CTMC.two_state_failure(1.0)
        rewards = np.array([0.0, -2.0])
        t = 1.0
        rows, values = transient_accumulated_grid(
            chain, rewards, [t], method="uniformization"
        )
        # E[time in down] = t - (1 - e^-t); reward -2 per unit.
        expected = -2.0 * (t - (1 - np.exp(-t)))
        assert values[0] == pytest.approx(expected, rel=1e-8)
        assert rows[0][0] == pytest.approx(np.exp(-t), rel=1e-9)


class TestTruncationAccounting:
    """Regression suite for the certified truncation-error accounting.

    The original accrual criterion stopped the survival series at the
    first term below tolerance — unsound, since the tail *sum* can be
    orders of magnitude larger than its first term.  The fix bounds the
    tail in closed form via the Poisson excess mean
    ``E[(N - m)^+] = mean * sf(m - 1) - m * sf(m)`` and is pinned here
    against brute-force sums and a closed-form hypoexponential model.
    """

    def test_truncated_mass_complements_total_mass(self):
        window = fox_glynn_weights(50.0, tolerance=1e-8)
        assert window.truncated_mass == pytest.approx(
            1.0 - window.total_mass, abs=1e-15
        )
        assert window.truncated_mass >= 0.0

    @pytest.mark.parametrize("mean", [0.3, 2.0, 17.5, 400.0])
    @pytest.mark.parametrize("m", [0, 1, 5, 30])
    def test_poisson_excess_mean_closed_form(self, mean, m):
        from repro.ctmc.uniformization import poisson_excess_mean

        ks = np.arange(m, int(mean + 40 * np.sqrt(mean) + 50))
        brute = float(
            np.sum((ks - m) * stats.poisson(mean).pmf(ks))
        )
        assert poisson_excess_mean(mean, m) == pytest.approx(
            brute, rel=1e-9, abs=1e-12
        )

    def test_excess_mean_at_zero_is_the_mean(self):
        from repro.ctmc.uniformization import poisson_excess_mean

        assert poisson_excess_mean(3.7, 0) == pytest.approx(3.7)

    @pytest.mark.parametrize("mean", [1.0, 30.0, 900.0])
    def test_accrual_right_point_bounds_the_tail(self, mean):
        from repro.ctmc.uniformization import (
            accrual_right_point,
            poisson_excess_mean,
        )

        tolerance = 1e-10
        right = accrual_right_point(mean, tolerance)
        # The certified criterion: the remaining survival-series tail
        # (an excess mean) is below tolerance * max(mean, 1).
        assert poisson_excess_mean(mean, right + 1) <= (
            tolerance * max(mean, 1.0)
        )

    def test_accumulated_matches_hypoexponential_closed_form(self):
        """Pinned: 0 -> 1 -> 2 chain; expected time in state 0 by t is
        ``(1 - exp(-a t)) / a`` exactly."""
        a, b = 3.0, 0.7
        chain = CTMC.from_rates(3, {(0, 1): a, (1, 2): b})
        rewards = np.array([1.0, 0.0, 0.0])
        for t in (0.1, 1.0, 4.0):
            value = accumulated_grid(
                chain, rewards, [t], method="uniformization", tolerance=1e-13
            )[0]
            closed = (1.0 - np.exp(-a * t)) / a
            assert value == pytest.approx(closed, abs=5e-13)

    def test_accumulated_grid_matches_closed_form(self):
        a, b = 2.0, 5.0
        chain = CTMC.from_rates(3, {(0, 1): a, (1, 2): b})
        rewards = np.array([1.0, 0.0, 0.0])
        grid = np.array([0.0, 0.25, 1.5, 3.0])
        values = accumulated_grid(
            chain, rewards, grid, method="uniformization", tolerance=1e-13
        )
        closed = (1.0 - np.exp(-a * grid)) / a
        np.testing.assert_allclose(values, closed, atol=5e-13)

    def test_streaming_accrual_certificate_honest_on_hypoexponential(self):
        """The streaming certificate's accrual bound must dominate the
        true error against the closed form."""
        from repro.ctmc.streaming import streaming_accumulated_grid

        a, b = 4.0, 1.0
        chain = CTMC.from_rates(3, {(0, 1): a, (1, 2): b})
        rewards = np.array([1.0, 0.0, 0.0])
        grid = np.array([0.5, 2.0])
        result = streaming_accumulated_grid(
            chain.generator,
            chain.initial_distribution,
            rewards,
            grid,
            tolerance=1e-10,
        )
        closed = (1.0 - np.exp(-a * grid)) / a
        true_error = float(np.max(np.abs(result.accumulated - closed)))
        assert true_error <= result.certificate.accrual_bound + 1e-14

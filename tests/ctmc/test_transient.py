"""Tests for transient distribution / instant-of-time reward solvers."""

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.transient import (
    TRANSIENT_METHODS,
    instant_of_time_reward,
    transient_distribution,
)


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "method", ["uniformization", "krylov", "dense-expm", "spectral"]
    )
    def test_backends_match_closed_form(self, method):
        chain = CTMC.two_state_failure(0.3)
        pi = transient_distribution(chain, 2.0, method=method)
        assert pi[0] == pytest.approx(np.exp(-0.6), rel=1e-7)

    def test_all_backends_agree_on_birth_death(self, birth_death_chain):
        results = {
            m: transient_distribution(birth_death_chain, 1.5, method=m)
            for m in ("uniformization", "krylov", "dense-expm", "spectral")
        }
        base = results["uniformization"]
        for method, pi in results.items():
            np.testing.assert_allclose(pi, base, atol=1e-8, err_msg=method)

    def test_auto_picks_uniformization_when_nonstiff(self, birth_death_chain):
        pi_auto = transient_distribution(birth_death_chain, 1.0, method="auto")
        pi_uni = transient_distribution(
            birth_death_chain, 1.0, method="uniformization"
        )
        np.testing.assert_allclose(pi_auto, pi_uni, atol=1e-12)

    def test_auto_handles_stiff_problem(self):
        # Rates spanning 7 orders of magnitude over a long horizon.
        chain = CTMC.from_rates(
            3, {(0, 1): 1200.0, (1, 0): 1200.0, (0, 2): 1e-4, (1, 2): 1e-4}
        )
        pi = transient_distribution(chain, 10_000.0, method="auto")
        assert pi[2] == pytest.approx(1 - np.exp(-1.0), rel=1e-6)


class TestValidation:
    def test_unknown_method_rejected(self, birth_death_chain):
        with pytest.raises(CTMCError, match="unknown transient method"):
            transient_distribution(birth_death_chain, 1.0, method="magic")

    def test_negative_time_rejected(self, birth_death_chain):
        with pytest.raises(CTMCError):
            transient_distribution(birth_death_chain, -0.5)

    def test_time_zero_is_initial(self, birth_death_chain):
        np.testing.assert_allclose(
            transient_distribution(birth_death_chain, 0.0),
            birth_death_chain.initial_distribution,
        )

    def test_methods_tuple_is_exhaustive(self):
        assert set(TRANSIENT_METHODS) == {
            "uniformization",
            "krylov",
            "dense-expm",
            "spectral",
            "auto",
        }


class TestInstantOfTimeReward:
    def test_reward_is_distribution_dot_rates(self, birth_death_chain):
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        t = 2.0
        expected = transient_distribution(birth_death_chain, t) @ rewards
        assert instant_of_time_reward(
            birth_death_chain, rewards, t
        ) == pytest.approx(expected)

    def test_wrong_reward_length_rejected(self, birth_death_chain):
        with pytest.raises(Exception):
            instant_of_time_reward(birth_death_chain, [1.0, 2.0], 1.0)

    def test_nonfinite_reward_rejected(self, birth_death_chain):
        with pytest.raises(Exception):
            instant_of_time_reward(
                birth_death_chain, [np.nan, 0.0, 0.0, 0.0], 1.0
            )


class TestProbabilityInSet:
    """``P(X_t in A)`` is the instant-of-time reward of ``A``'s
    indicator."""

    def test_by_index(self, two_state_chain):
        p = instant_of_time_reward(two_state_chain, [0.0, 1.0], 2.0)
        assert p == pytest.approx(1 - np.exp(-1.0), rel=1e-8)

    def test_by_label(self):
        chain = CTMC.two_state_failure(0.5)
        up = chain.indicator(lambda label: label == "up")
        p = instant_of_time_reward(chain, up, 2.0)
        assert p == pytest.approx(np.exp(-1.0), rel=1e-8)

    def test_full_set_has_probability_one(self, birth_death_chain):
        p = instant_of_time_reward(birth_death_chain, np.ones(4), 5.0)
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_empty_set_has_probability_zero(self, birth_death_chain):
        assert instant_of_time_reward(birth_death_chain, np.zeros(4), 5.0) == 0.0


class TestTransientGrid:
    def test_uniform_grid_matches_pointwise(self, birth_death_chain):
        import numpy as np

        from repro.ctmc.transient import transient_grid

        times = np.linspace(0.0, 5.0, 21)
        grid = transient_grid(birth_death_chain, times)
        for k in (0, 7, 20):
            np.testing.assert_allclose(
                grid[k],
                transient_distribution(birth_death_chain, float(times[k])),
                atol=1e-9,
            )

    def test_nonuniform_grid_falls_back(self, birth_death_chain):
        import numpy as np

        from repro.ctmc.transient import transient_grid

        times = [0.0, 0.1, 0.5, 3.0]
        grid = transient_grid(birth_death_chain, times)
        np.testing.assert_allclose(
            grid[-1], transient_distribution(birth_death_chain, 3.0), atol=1e-9
        )

    def test_rows_are_distributions(self, birth_death_chain):
        import numpy as np

        from repro.ctmc.transient import transient_grid

        grid = transient_grid(birth_death_chain, np.linspace(0.0, 2.0, 11))
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(grid >= -1e-12)

    def test_grid_validation(self, birth_death_chain):
        import numpy as np

        from repro.ctmc.transient import transient_grid

        with pytest.raises(CTMCError):
            transient_grid(birth_death_chain, [])
        with pytest.raises(CTMCError):
            transient_grid(birth_death_chain, [1.0, 0.5])
        with pytest.raises(CTMCError):
            transient_grid(birth_death_chain, [-1.0, 0.0])


class TestSquaringExponent:
    """The base step ``h = 2**-s`` of the shared squarings."""

    @pytest.mark.parametrize(
        "norm, expected",
        [
            (0.0, 0),
            (5.37, 0),
            (5.37 * 2.0, 1),
            (5.37 * 2.0 * (1 + 1e-15), 2),
            (5.37 * 1024.0, 10),
            (37_200.0, 13),
        ],
    )
    def test_smallest_step_within_pade13_bound(self, norm, expected):
        from repro.ctmc.transient import _squaring_exponent

        a = np.array([[-norm, norm], [0.0, 0.0]])
        s = _squaring_exponent(a)
        assert s == expected
        assert np.abs(a).sum(axis=0).max() * 2.0**-s <= 5.37
        if s:
            assert np.abs(a).sum(axis=0).max() * 2.0 ** (1 - s) > 5.37

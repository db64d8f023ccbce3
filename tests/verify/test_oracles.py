"""Cross-solver oracle tests: every backend must tell one story.

Hypothesis drives randomized chains through every transient,
accumulated, and steady-state backend (scalar and grid paths alike) and
asserts agreement within the documented tolerances.  Runs under the
derandomized ``ci`` profile (see ``tests/conftest.py``), so failures
reproduce exactly.

The shared-squaring ``dense-expm`` and ``augmented-expm`` backends are
also checked against the per-point Padé oracle on the paper's reward
models and lumped fleets at stiff horizons, and against a 40-digit
mpmath reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.accumulated import transient_accumulated_grid
from repro.ctmc.transient import (
    TRANSIENT_METHODS,
    _squaring_exponent,
    _taylor_rows,
    transient_grid,
)
from repro.verify.oracles import (
    ACCUMULATED_TOLERANCE,
    STEADY_TOLERANCE,
    TRANSIENT_TOLERANCE,
    accumulated_reward_by_method,
    constituent_paths_disagreement,
    max_disagreement,
    pade_transient_accumulated,
    pade_transient_rows,
    random_chain,
    steady_reward_by_method,
    transient_reward_by_method,
)

chain_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "num_states": st.integers(min_value=2, max_value=10),
        "rate_scale": st.floats(min_value=0.2, max_value=5.0),
    }
)


def make_chain(params, irreducible=False):
    rng = np.random.default_rng(params["seed"])
    chain = random_chain(
        rng,
        params["num_states"],
        rate_scale=params["rate_scale"],
        irreducible=irreducible,
    )
    reward = rng.random(params["num_states"])
    return chain, reward


class TestRandomChain:
    def test_generator_rows_sum_to_zero(self):
        chain, _ = make_chain({"seed": 5, "num_states": 6, "rate_scale": 1.0})
        q = np.asarray(chain.generator.todense())
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-12)
        assert np.asarray(chain.initial_distribution).sum() == pytest.approx(1.0)

    def test_too_few_states_rejected(self):
        with pytest.raises(ValueError):
            random_chain(np.random.default_rng(0), 1)


class TestTransientOracle:
    @settings(max_examples=25)
    @given(params=chain_params, t=st.floats(min_value=0.05, max_value=8.0))
    def test_all_backends_agree(self, params, t):
        chain, reward = make_chain(params)
        values = transient_reward_by_method(chain, reward, t)
        assert max_disagreement(values) < TRANSIENT_TOLERANCE, values

    def test_scalar_and_grid_keys_present(self):
        chain, reward = make_chain({"seed": 1, "num_states": 4, "rate_scale": 1.0})
        values = transient_reward_by_method(chain, reward, 1.0)
        assert set(values) == {
            f"{form}:{method}"
            for form in ("scalar", "grid")
            for method in TRANSIENT_METHODS
        }


class TestAccumulatedOracle:
    @settings(max_examples=25)
    @given(params=chain_params, t=st.floats(min_value=0.05, max_value=8.0))
    def test_all_backends_agree(self, params, t):
        chain, reward = make_chain(params)
        values = accumulated_reward_by_method(chain, reward, t)
        scale = max(1.0, t * float(np.max(np.abs(reward))))
        assert max_disagreement(values) < ACCUMULATED_TOLERANCE * scale, values

    def test_quadrature_backend_included(self):
        chain, reward = make_chain({"seed": 2, "num_states": 4, "rate_scale": 1.0})
        values = accumulated_reward_by_method(chain, reward, 2.0)
        assert "scalar:quadrature" in values
        assert "grid:quadrature" in values
        assert "grid:auto" in values


class TestSteadyOracle:
    @settings(max_examples=25)
    @given(params=chain_params)
    def test_all_backends_agree(self, params):
        chain, reward = make_chain(params, irreducible=True)
        values = steady_reward_by_method(chain, reward)
        assert max_disagreement(values) < STEADY_TOLERANCE, values

    def test_every_steady_method_present(self):
        chain, reward = make_chain(
            {"seed": 3, "num_states": 5, "rate_scale": 1.0}, irreducible=True
        )
        values = steady_reward_by_method(chain, reward)
        assert set(values) == {"direct", "power", "gauss-seidel", "sor"}


class TestConstituentPaths:
    def test_batched_scalar_parametric_paths_agree(self, scaled_params):
        worst = constituent_paths_disagreement(scaled_params, (2.0, 8.0))
        assert worst < TRANSIENT_TOLERANCE


def _paper_chain(kind):
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.gsu.templates import shared_cache

    return shared_cache().compiled(kind, PAPER_TABLE3).chain


def _fleet_chain(processes):
    from repro.gsu.fleet import FleetParameters
    from repro.san.symmetry import fleet_lumped_chain

    params = FleetParameters(n_processes=processes)
    return fleet_lumped_chain(
        processes, params.rates(), repair_servers=params.repair_servers
    )


#: (id, chain builder): the paper's three reward models and lumped
#: fleets of 84 (N = 6) and 220 (N = 9) states.
STIFF_CHAINS = [
    ("RMNd-7", lambda: _paper_chain("RMNd_new")),
    ("RMGp-24", lambda: _paper_chain("RMGp")),
    ("RMGd-42", lambda: _paper_chain("RMGd")),
    ("fleet-84", lambda: _fleet_chain(6)),
    ("fleet-220", lambda: _fleet_chain(9)),
]

#: ``Lambda * theta`` of every stiff grid, the regime of the paper's
#: 1e4-hour horizons.
STIFFNESS = 1e7


class TestSharedSquaringAgainstPade:
    """``dense-expm`` and ``augmented-expm`` against one independent
    Padé exponential per point, on a grid with non-dyadic points."""

    @pytest.mark.parametrize(
        "build", [row[1] for row in STIFF_CHAINS],
        ids=[row[0] for row in STIFF_CHAINS],
    )
    def test_backends_match_per_point_pade(self, build):
        chain = build()
        theta = STIFFNESS / float(np.max(chain.exit_rates()))
        grid = np.array(
            [0.0, theta / 3.0, float(round(theta / 2.0)), 0.937 * theta, theta]
        )
        rewards = np.linspace(0.0, 1.0, chain.num_states)

        rows = transient_grid(chain, grid, method="dense-expm")
        reference = pade_transient_rows(chain, grid)
        assert np.max(np.abs(rows - reference).sum(axis=1)) < TRANSIENT_TOLERANCE

        fused_rows, acc = transient_accumulated_grid(
            chain, rewards, grid, method="augmented-expm"
        )
        ref_rows, ref_acc = pade_transient_accumulated(chain, rewards, grid)
        assert (
            np.max(np.abs(fused_rows - ref_rows).sum(axis=1))
            < TRANSIENT_TOLERANCE
        )
        scale = np.maximum(1.0, grid * float(np.max(np.abs(rewards))))
        assert np.all(np.abs(acc - ref_acc) < ACCUMULATED_TOLERANCE * scale)


class TestMpmathReference:
    """At ``t = 9370`` h on the paper's stiff RMGp and RMGd chains, the
    shared squarings are at least as accurate as per-point Padé against
    a 40-digit reference: accumulated error relative to ``t``, and the
    L1 error of the distribution.  At the non-dyadic ``t = 9370.37`` h
    the row also carries the Taylor remainder, which must keep that
    standing, and the remainder alone must be exact to a few ulps."""

    T = 9370.0
    NON_DYADIC_T = 9370.37

    @pytest.mark.parametrize("kind", ["RMGp", "RMGd"])
    def test_no_less_accurate_than_pade(self, kind):
        self._check_against_pade(kind, self.T)

    @pytest.mark.parametrize("kind", ["RMGp", "RMGd"])
    def test_taylor_remainder_no_less_accurate_than_pade(self, kind):
        self._check_against_pade(kind, self.NON_DYADIC_T)

    @pytest.mark.parametrize("kind", ["RMGp", "RMGd"])
    def test_taylor_remainder_alone_within_ulps(self, kind):
        mp = pytest.importorskip("mpmath")
        a, state = _augmented(_paper_chain(kind))
        h = math.ldexp(1.0, -_squaring_exponent(a))
        rem = math.fmod(self.NON_DYADIC_T, h)
        assert rem > 0.0
        row = _taylor_rows(a, h, state, [rem])[0]
        with mp.workdps(40):
            exact = mp.matrix([state.tolist()]) * mp.expm(
                mp.matrix(a.tolist()) * mp.mpf(rem)
            )
            error = mp.fsum(
                abs(mp.mpf(float(row[i])) - exact[0, i]) for i in range(row.size)
            )
        assert float(error) <= 4 * 2.0**-53

    def _check_against_pade(self, kind, t):
        mp = pytest.importorskip("mpmath")
        chain = _paper_chain(kind)
        n = chain.num_states
        rewards = np.linspace(0.0, 1.0, n)
        a, state = _augmented(chain, rewards)
        with mp.workdps(40):
            exact = mp.matrix([state.tolist()]) * mp.expm(
                mp.matrix(a.tolist()) * mp.mpf(t)
            )

            def acc_error(value):
                return float(abs(mp.mpf(float(value)) - exact[0, n])) / t

            def rows_error(row):
                return float(
                    mp.fsum(abs(mp.mpf(float(row[i])) - exact[0, i])
                            for i in range(n))
                )

            rows, acc = transient_accumulated_grid(
                chain, rewards, [t], method="augmented-expm"
            )
            dense = transient_grid(chain, [t], method="dense-expm")[0]
            ref_rows, ref_acc = pade_transient_accumulated(
                chain, rewards, [t]
            )
            assert acc_error(acc[0]) <= acc_error(ref_acc[0])
            assert rows_error(rows[0]) <= rows_error(ref_rows[0])
            assert rows_error(dense) <= rows_error(
                pade_transient_rows(chain, [t])[0]
            )


def _augmented(chain, rewards=None):
    """``[[Q, r], [0, 0]]`` and ``[pi(0), 0]``."""
    n = chain.num_states
    if rewards is None:
        rewards = np.linspace(0.0, 1.0, n)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = chain.generator.toarray()
    a[:n, n] = rewards
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    return a, state

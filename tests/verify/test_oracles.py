"""Cross-solver oracle tests: every backend must tell one story.

Hypothesis drives randomized chains through every transient,
accumulated, and steady-state backend (scalar and grid paths alike) and
asserts agreement within the documented tolerances.  Runs under the
derandomized ``ci`` profile (see ``tests/conftest.py``), so failures
reproduce exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.transient import TRANSIENT_METHODS
from repro.verify.oracles import (
    ACCUMULATED_TOLERANCE,
    STEADY_TOLERANCE,
    TRANSIENT_TOLERANCE,
    accumulated_reward_by_method,
    constituent_paths_disagreement,
    max_disagreement,
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
        assert set(values) == {"direct", "power", "gauss-seidel", "sor", "auto"}


class TestConstituentPaths:
    def test_batched_scalar_parametric_paths_agree(self, scaled_params):
        worst = constituent_paths_disagreement(scaled_params, (2.0, 8.0))
        assert worst < TRANSIENT_TOLERANCE

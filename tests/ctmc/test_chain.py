"""Tests for the CTMC container class."""

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import (
    DimensionError,
    InvalidDistributionError,
    InvalidGeneratorError,
)


class TestConstruction:
    def test_from_dense_generator(self):
        chain = CTMC([[-1.0, 1.0], [2.0, -2.0]])
        assert chain.num_states == 2
        assert chain.rate(0, 1) == 1.0
        assert chain.rate(1, 0) == 2.0

    def test_default_initial_is_state_zero(self):
        chain = CTMC([[-1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(chain.initial_distribution, [1.0, 0.0])

    def test_custom_initial_distribution(self):
        chain = CTMC([[-1.0, 1.0], [2.0, -2.0]], initial=[0.25, 0.75])
        np.testing.assert_allclose(chain.initial_distribution, [0.25, 0.75])

    def test_rejects_nonsquare_generator(self):
        with pytest.raises((InvalidGeneratorError, DimensionError)):
            CTMC([[-1.0, 1.0, 0.0], [2.0, -2.0, 0.0]])

    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(InvalidGeneratorError):
            CTMC([[-1.0, -1.0], [2.0, -2.0]])

    def test_rejects_rows_not_summing_to_zero(self):
        with pytest.raises(InvalidGeneratorError):
            CTMC([[-1.0, 2.0], [2.0, -2.0]])

    def test_rejects_bad_initial_mass(self):
        with pytest.raises(InvalidDistributionError):
            CTMC([[-1.0, 1.0], [2.0, -2.0]], initial=[0.5, 0.2])

    def test_rejects_negative_initial(self):
        with pytest.raises(InvalidDistributionError):
            CTMC([[-1.0, 1.0], [2.0, -2.0]], initial=[1.5, -0.5])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(DimensionError):
            CTMC([[-1.0, 1.0], [2.0, -2.0]], labels=["only-one"])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DimensionError):
            CTMC([[-1.0, 1.0], [2.0, -2.0]], labels=["x", "x"])


class TestFromRates:
    def test_builds_diagonal_automatically(self):
        chain = CTMC.from_rates(3, {(0, 1): 1.0, (1, 2): 2.0})
        assert chain.rate(0, 0) == -1.0
        assert chain.rate(1, 1) == -2.0
        assert chain.rate(2, 2) == 0.0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            CTMC.from_rates(2, {(0, 0): 1.0})

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="negative"):
            CTMC.from_rates(2, {(0, 1): -1.0})

    def test_zero_rates_are_dropped(self):
        chain = CTMC.from_rates(2, {(0, 1): 0.0})
        assert chain.num_transitions == 0

    def test_parallel_rates_accumulate_via_mapping_semantics(self):
        # A mapping has unique keys; the rate given is the total rate.
        chain = CTMC.from_rates(2, {(0, 1): 3.5})
        assert chain.rate(0, 1) == 3.5


class TestStructure:
    def test_absorbing_states(self, two_state_chain):
        assert two_state_chain.absorbing_states() == [1]

    def test_exit_rates(self, birth_death_chain):
        rates = birth_death_chain.exit_rates()
        np.testing.assert_allclose(rates, [2.0, 5.0, 5.0, 3.0])

    def test_num_transitions(self, birth_death_chain):
        assert birth_death_chain.num_transitions == 6

    def test_len_and_repr(self, birth_death_chain):
        assert len(birth_death_chain) == 4
        assert "states=4" in repr(birth_death_chain)


class TestLabels:
    def test_state_index_lookup(self):
        chain = CTMC.two_state_failure(1.0)
        assert chain.state_index("up") == 0
        assert chain.state_index("down") == 1

    def test_state_index_without_labels_raises(self, birth_death_chain):
        with pytest.raises(KeyError):
            birth_death_chain.state_index("anything")

    def test_indicator_with_labels(self):
        chain = CTMC.two_state_failure(1.0)
        vec = chain.indicator(lambda label: label == "up")
        np.testing.assert_allclose(vec, [1.0, 0.0])

    def test_indicator_without_labels_uses_indices(self, birth_death_chain):
        vec = birth_death_chain.indicator(lambda i: i >= 2)
        np.testing.assert_allclose(vec, [0.0, 0.0, 1.0, 1.0])


class TestTwoStateFailure:
    def test_structure(self):
        chain = CTMC.two_state_failure(0.25)
        assert chain.rate(0, 1) == 0.25
        assert chain.absorbing_states() == [1]

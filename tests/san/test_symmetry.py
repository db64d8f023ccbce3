"""Tests for replica- and fleet-symmetry reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.accumulated import accumulated_reward
from repro.ctmc.transient import transient_distribution
from repro.san.composition import (
    FLEET_FAILED,
    FleetRates,
    fleet_chain,
    fleet_digits,
    replicate,
)
from repro.san.ctmc_builder import build_ctmc
from repro.san.errors import SANError
from repro.san.symmetry import (
    fleet_count_states,
    fleet_group_block_map,
    fleet_lumped_chain,
    reduce_fleet_grouped,
    reduce_replicas,
)
from tests.san.test_composition import _worker


def _rates():
    return FleetRates(contaminate=0.3, detect=1.1, fail=0.2, repair=1.7)


fleet_rates = st.builds(
    FleetRates,
    contaminate=st.floats(0.01, 2.0),
    detect=st.floats(0.01, 3.0),
    fail=st.floats(0.01, 2.0),
    repair=st.floats(0.1, 4.0),
)


class TestFleetCountStates:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_count_is_binomial(self, n):
        states = fleet_count_states(n)
        assert len(states) == math.comb(n + 3, 3)
        assert len(set(states)) == len(states)
        assert all(sum(s) == n for s in states)

    def test_rejects_empty_fleet(self):
        with pytest.raises(SANError):
            fleet_count_states(0)


def _one_group_block_map(n: int) -> np.ndarray:
    """The grouped block map of a homogeneous fleet (one rate group)."""
    return fleet_group_block_map([(tuple(range(n)), _rates())])


class TestFleetBlockMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_blocks_match_digit_counts(self, n):
        states = fleet_count_states(n)
        block_of = _one_group_block_map(n)
        digits = fleet_digits(n)
        assert block_of.shape == (4**n,)
        for idx in range(4**n):
            counts = tuple(
                int((digits[idx] == local).sum()) for local in range(4)
            )
            assert states[block_of[idx]] == counts

    def test_every_block_is_hit(self):
        block_of = _one_group_block_map(3)
        assert set(block_of) == set(range(len(fleet_count_states(3))))


class TestFleetLumping:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("servers", [1, 2])
    def test_reduced_generator_matches_direct_lumped_chain(self, n, servers):
        rates = _rates()
        flat = fleet_chain(n, rates, repair_servers=servers)
        reduction = reduce_fleet_grouped(flat, [rates] * n)
        direct = fleet_lumped_chain(n, rates, repair_servers=servers)
        assert reduction.original_states == 4**n
        assert reduction.reduced_states == math.comb(n + 3, 3)
        lumped_q = reduction.lumped.chain.generator.toarray()
        direct_q = direct.generator.toarray()
        assert np.allclose(lumped_q, direct_q, atol=1e-12)
        assert np.allclose(
            reduction.lumped.chain.initial_distribution,
            direct.initial_distribution,
        )

    def test_wrong_size_rejected(self):
        flat = fleet_chain(2, _rates())
        with pytest.raises(SANError):
            reduce_fleet_grouped(flat, [_rates()] * 3)

    @given(rates=fleet_rates, n=st.integers(2, 4), t=st.floats(0.05, 6.0))
    @settings(max_examples=25, deadline=None)
    def test_lumped_vs_unlumped_transient_measure(self, rates, n, t):
        """The tolerance-equivalence property: Y(t) agrees across
        representations for every rate vector, not just the defaults."""
        flat = fleet_chain(n, rates)
        lumped = fleet_lumped_chain(n, rates)
        digits = fleet_digits(n)
        flat_rewards = (digits != FLEET_FAILED).sum(axis=1) / n
        lumped_rewards = np.array(
            [(n - fail) / n for (_ok, _c, _d, fail) in fleet_count_states(n)]
        )
        y_flat = float(
            transient_distribution(flat, t) @ flat_rewards
        )
        y_lumped = float(
            transient_distribution(lumped, t) @ lumped_rewards
        )
        assert y_flat == pytest.approx(y_lumped, abs=1e-9)

    @given(rates=fleet_rates, t=st.floats(0.1, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_lumped_vs_unlumped_accumulated_measure(self, rates, t):
        n = 3
        flat = fleet_chain(n, rates)
        lumped = fleet_lumped_chain(n, rates)
        digits = fleet_digits(n)
        flat_rewards = (digits != FLEET_FAILED).sum(axis=1) / n
        lumped_rewards = np.array(
            [(n - fail) / n for (_ok, _c, _d, fail) in fleet_count_states(n)]
        )
        acc_flat = accumulated_reward(flat, flat_rewards, t)
        acc_lumped = accumulated_reward(lumped, lumped_rewards, t)
        assert acc_flat == pytest.approx(acc_lumped, abs=1e-8)


class TestReplicaReductionOnComposedModels:
    def test_replicated_worker_reduction_preserves_measures(self):
        composed = replicate(
            "farm", _worker(), 3, common_places=["resource"]
        )
        compiled = build_ctmc(composed)
        reduction = reduce_replicas(compiled, count=3)
        assert reduction.reduced_states <= reduction.original_states
        flat_chain = compiled.chain
        lumped = reduction.lumped
        # Aggregate busy-count measure, computed both ways.
        busy = np.array(
            [
                sum(
                    tokens
                    for place, tokens in marking.items()
                    if place.endswith("_busy")
                )
                for marking in compiled.graph.markings
            ],
            dtype=np.float64,
        )
        lumped_busy = np.array(
            [busy[block[0]] for block in lumped.blocks]
        )
        for t in (0.3, 1.0, 4.0):
            flat_value = float(
                transient_distribution(flat_chain, t) @ busy
            )
            lumped_value = float(
                transient_distribution(lumped.chain, t) @ lumped_busy
            )
            assert flat_value == pytest.approx(lumped_value, abs=1e-10)

"""Tests for exact CTMC lumping and SAN replica-symmetry reduction."""

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.lumping import lump
from repro.ctmc.steady_state import steady_state_distribution
from repro.ctmc.transient import transient_distribution


@pytest.fixture
def symmetric_chain() -> CTMC:
    """Two independent identical on/off components.

    States (bit per component): 0=00, 1=01, 2=10, 3=11; up->down rate 1,
    down->up rate 2.  States 1 and 2 are exchangeable.
    """
    rates = {}
    for state in range(4):
        for bit in (0, 1):
            mask = 1 << bit
            if state & mask:
                rates[(state, state & ~mask)] = 2.0  # repair
            else:
                rates[(state, state | mask)] = 1.0  # failure
    return CTMC.from_rates(4, rates)


class TestLump:
    def test_symmetric_pair_lumps(self, symmetric_chain):
        lumped = lump(symmetric_chain, [[0], [1, 2], [3]])
        assert lumped.chain.num_states == 3
        # Block rates: 0 -> {1,2} at 2.0 (two components can fail).
        assert lumped.chain.rate(0, 1) == pytest.approx(2.0)
        assert lumped.chain.rate(1, 0) == pytest.approx(2.0)
        assert lumped.chain.rate(1, 2) == pytest.approx(1.0)
        assert lumped.chain.rate(2, 1) == pytest.approx(4.0)

    def test_transient_probabilities_match(self, symmetric_chain):
        lumped = lump(symmetric_chain, [[0], [1, 2], [3]])
        for t in (0.3, 1.0, 4.0):
            flat = transient_distribution(symmetric_chain, t)
            quotient = transient_distribution(lumped.chain, t)
            np.testing.assert_allclose(
                lumped.project(flat), quotient, atol=1e-9
            )

    def test_stationary_matches(self, symmetric_chain):
        lumped = lump(symmetric_chain, [[0], [1, 2], [3]])
        flat = steady_state_distribution(symmetric_chain)
        quotient = steady_state_distribution(lumped.chain)
        np.testing.assert_allclose(lumped.project(flat), quotient, atol=1e-10)

    def test_trivial_partition_is_identity(self, symmetric_chain):
        lumped = lump(symmetric_chain, [[0], [1], [2], [3]])
        np.testing.assert_allclose(
            lumped.chain.generator.toarray(),
            symmetric_chain.generator.toarray(),
        )

    def test_non_lumpable_partition_rejected(self):
        # Asymmetric rates: grouping 1 and 2 is invalid.
        chain = CTMC.from_rates(
            3, {(0, 1): 1.0, (0, 2): 1.0, (1, 0): 5.0, (2, 0): 7.0}
        )
        with pytest.raises(CTMCError, match="not lumpable"):
            lump(chain, [[0], [1, 2]])
        assert len(lump(chain, [[0], [1], [2]]).blocks) == 3

    def test_partition_validation(self, symmetric_chain):
        with pytest.raises(CTMCError, match="empty block"):
            lump(symmetric_chain, [[0, 1, 2, 3], []])
        with pytest.raises(CTMCError, match="more than one"):
            lump(symmetric_chain, [[0, 1], [1, 2, 3]])
        with pytest.raises(CTMCError, match="misses"):
            lump(symmetric_chain, [[0, 1]])
        with pytest.raises(CTMCError, match="out of range"):
            lump(symmetric_chain, [[0, 1, 2, 3, 9]])

    def test_initial_distribution_aggregated(self, symmetric_chain):
        shifted = CTMC(
            symmetric_chain.generator, initial=[0.1, 0.2, 0.3, 0.4]
        )
        lumped = lump(shifted, [[0], [1, 2], [3]])
        np.testing.assert_allclose(
            lumped.chain.initial_distribution, [0.1, 0.5, 0.4]
        )

    def test_lift_and_project_roundtrip_shapes(self, symmetric_chain):
        lumped = lump(symmetric_chain, [[0], [1, 2], [3]])
        block_vec = np.array([1.0, 2.0, 3.0])
        lifted = lumped.lift(block_vec)
        assert lifted.shape == (4,)
        assert lifted[1] == lifted[2] == 2.0
        assert lumped.reduction_factor == pytest.approx(4 / 3)


class TestReplicaReduction:
    @pytest.fixture(scope="class")
    def farm(self):
        from repro.san.activities import Case, TimedActivity
        from repro.san.composition import replicate
        from repro.san.ctmc_builder import build_ctmc
        from repro.san.model import SANModel
        from repro.san.places import Place

        worker = SANModel(
            "worker",
            [
                Place("idle", initial=1, capacity=1),
                Place("busy", capacity=1),
                Place("resource", initial=2, capacity=2),
            ],
            [
                TimedActivity(
                    "start", rate=1.0,
                    input_arcs=[("idle", 1), ("resource", 1)],
                    cases=[Case(output_arcs=(("busy", 1),))],
                ),
                TimedActivity(
                    "finish", rate=2.0,
                    input_arcs=[("busy", 1)],
                    cases=[Case(output_arcs=(("idle", 1), ("resource", 1)))],
                ),
            ],
        )
        composed = replicate("farm", worker, 4, common_places=["resource"])
        return build_ctmc(composed)

    def test_reduction_shrinks_state_space(self, farm):
        from repro.san.symmetry import reduce_replicas

        reduction = reduce_replicas(farm, count=4)
        assert reduction.reduced_states < reduction.original_states
        # 4 symmetric replicas, each idle/busy, at most 2 busy:
        # lumped states are busy-counts {0, 1, 2} -> 3 states.
        assert reduction.reduced_states == 3

    def test_reduced_chain_matches_flat_solution(self, farm):
        from repro.san.symmetry import reduce_replicas

        reduction = reduce_replicas(farm, count=4)
        flat = steady_state_distribution(farm.chain)
        quotient = steady_state_distribution(reduction.lumped.chain)
        np.testing.assert_allclose(
            reduction.lumped.project(flat), quotient, atol=1e-10
        )

    def test_signature_rejects_out_of_range_replica(self):
        from repro.san.marking import Marking
        from repro.san.symmetry import replica_signature
        from repro.san.errors import SANError

        with pytest.raises(SANError):
            replica_signature(Marking(rep5_idle=1), count=2)

    def test_partition_count_validation(self, farm):
        from repro.san.symmetry import replica_partition
        from repro.san.errors import SANError

        with pytest.raises(SANError):
            replica_partition(farm, count=0)

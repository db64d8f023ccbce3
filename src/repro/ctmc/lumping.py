"""Exact (ordinary) lumping of CTMCs.

A partition of the state space is *ordinarily lumpable* when, for every
block ``B`` and every state ``i``, the total rate from ``i`` into ``B``
depends only on ``i``'s own block.  The quotient chain over the blocks
is then an exact CTMC whose transient and stationary block probabilities
equal the aggregated probabilities of the original chain.

This is the reduction UltraSAN's *Rep* operator exploits for replicated
submodels: permuting identical replicas cannot change the future, so
states that differ only by a replica permutation form lumpable blocks.
:func:`repro.san.symmetry.replica_partition` constructs exactly that
partition for models built with
:func:`repro.san.composition.replicate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError

#: Relative tolerance when checking block-rate equality.
_LUMP_RTOL = 1e-9

#: Absolute tolerance floor for the block-rate equality check.
_LUMP_ATOL = 1e-14


@dataclass(frozen=True)
class LumpedCTMC:
    """A lumped chain plus the mapping back to the original states.

    Attributes
    ----------
    chain:
        The quotient CTMC (one state per block).
    blocks:
        ``blocks[b]`` — original state indices forming block ``b``.
    block_of:
        ``block_of[i]`` — block index of original state ``i``.
    """

    chain: CTMC
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]

    @property
    def reduction_factor(self) -> float:
        """Original states per lumped state."""
        return len(self.block_of) / len(self.blocks)

    def lift(self, block_vector: np.ndarray) -> np.ndarray:
        """Expand a per-block vector to a per-original-state vector
        (each original state receives its block's value)."""
        return np.asarray(block_vector)[list(self.block_of)]

    def project(self, state_vector: np.ndarray) -> np.ndarray:
        """Aggregate a per-state probability vector to block masses."""
        vec = np.asarray(state_vector, dtype=np.float64)
        out = np.zeros(len(self.blocks))
        for b, members in enumerate(self.blocks):
            out[b] = vec[list(members)].sum()
        return out


def _normalise_partition(
    partition: Sequence[Sequence[int]], n: int
) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    blocks = []
    for block in partition:
        members = tuple(sorted(int(i) for i in block))
        if not members:
            raise CTMCError("partition contains an empty block")
        for i in members:
            if i < 0 or i >= n:
                raise CTMCError(f"state index {i} out of range")
            if i in seen:
                raise CTMCError(f"state {i} appears in more than one block")
            seen.add(i)
        blocks.append(members)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise CTMCError(f"partition misses states {missing[:10]}")
    return tuple(blocks)


def lump(chain: CTMC, partition: Sequence[Sequence[int]]) -> LumpedCTMC:
    """Build the exact quotient chain over ``partition``.

    Validates the partition and hands its block map to
    :func:`lump_from_block_map`.

    Raises
    ------
    CTMCError
        If the partition is malformed or not ordinarily lumpable
        (block rates differ between members of a block beyond
        tolerance).
    """
    blocks = _normalise_partition(partition, chain.num_states)
    block_of = np.empty(chain.num_states, dtype=np.int64)
    for b, members in enumerate(blocks):
        block_of[list(members)] = b
    return lump_from_block_map(chain, block_of)


def _blocks_from_map(block_of: np.ndarray, k: int) -> tuple[tuple[int, ...], ...]:
    """Group state indices by block, each group sorted ascending."""
    order = np.argsort(block_of, kind="stable")
    boundaries = np.searchsorted(block_of[order], np.arange(k + 1))
    return tuple(
        tuple(int(i) for i in order[boundaries[b] : boundaries[b + 1]])
        for b in range(k)
    )


def lump_from_block_map(chain: CTMC, block_of) -> LumpedCTMC:
    """Vectorised exact lumping from a per-state block-index array.

    Scales to 1e5+-state chains: the whole lumpability check is three
    sparse operations:

    1. aggregate — ``R = Q_offdiag @ U`` with ``U`` the ``n x k`` block
       indicator, so ``R[i, c]`` is state ``i``'s total rate into block
       ``c``;
    2. lift — ``Rref`` takes each row of ``R`` to its block
       representative's row (the block's lowest-index member);
    3. compare — ``|R - Rref|`` against an
       ``rtol * max(|a|, |c|) + atol`` tolerance, with each state's
       own-block column masked out (internal transitions don't
       constrain ordinary lumpability).

    The quotient generator is read off the representative rows.
    """
    n = chain.num_states
    block_of = np.asarray(block_of, dtype=np.int64)
    if block_of.shape != (n,):
        raise CTMCError(
            f"block map must have one entry per state ({n}), got shape "
            f"{block_of.shape}"
        )
    if n == 0:
        raise CTMCError("cannot lump an empty chain")
    k = int(block_of.max()) + 1
    if block_of.min() < 0 or np.unique(block_of).size != k:
        raise CTMCError("block indices must cover 0..k-1 with no gaps")

    q = chain.generator.tocsr()
    # Strip the diagonal: lumpability constrains only outgoing rates.
    qoff = q.copy()
    qoff.setdiag(0.0)
    qoff.eliminate_zeros()

    u = sp.csr_matrix(
        (np.ones(n), (np.arange(n), block_of)), shape=(n, k)
    )
    r = (qoff @ u).tocsr()

    # Representative (lowest-index) member of each block.
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, block_of, np.arange(n))
    rref = r[first[block_of]]

    diff = (r - rref).tocsr()
    scale = abs(r).maximum(abs(rref)).tocsr()
    # violation > 0 exactly where |a - c| > rtol * max(|a|, |c|) + atol.
    violation = (abs(diff) - scale.multiply(_LUMP_RTOL)).tocsr()
    rows = np.repeat(np.arange(n), np.diff(violation.indptr))
    own_block = violation.indices == block_of[rows]
    bad = (~own_block) & (violation.data > _LUMP_ATOL)
    if np.any(bad):
        pos = int(np.argmax(bad))
        i = int(rows[pos])
        c = int(violation.indices[pos])
        raise CTMCError(
            f"partition not lumpable: state {i} disagrees with block "
            f"representative {int(first[block_of[i]])} on the rate into "
            f"block {c}"
        )

    quotient = r[first].tocoo()
    rates: dict[tuple[int, int], float] = {}
    for b, target, rate in zip(quotient.row, quotient.col, quotient.data):
        if b != target and rate > 0.0:
            rates[(int(b), int(target))] = float(rate)
    initial = np.bincount(
        block_of, weights=chain.initial_distribution, minlength=k
    )
    lumped = CTMC.from_rates(k, rates, initial=initial)
    return LumpedCTMC(
        chain=lumped,
        blocks=_blocks_from_map(block_of, k),
        block_of=tuple(int(b) for b in block_of),
    )

"""Symmetry reduction for replicated SAN models.

Models produced by :func:`repro.san.composition.replicate` carry a
replica symmetry: permuting the identical replicas cannot change future
behaviour, so markings that agree on the shared places and on the
*multiset* of per-replica local markings are equivalent.  Grouping them
yields an ordinarily lumpable partition (see
:mod:`repro.ctmc.lumping`) — the state-space reduction UltraSAN's *Rep*
operator performs during generation, realised here as a post-generation
exact lumping.

Usage::

    composed = replicate("farm", worker, 6, common_places=["resource"])
    compiled = build_ctmc(composed)
    reduced = reduce_replicas(compiled, count=6)
    # reduced.lumped.chain has one state per equivalence class
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.ctmc.chain import CTMC
from repro.ctmc.lumping import LumpedCTMC, lump, lump_from_block_map
from repro.san.composition import (
    FLEET_CONTAMINATED,
    FLEET_DETECTED,
    FLEET_FAILED,
    FLEET_LOCAL_STATES,
    FleetRates,
    fleet_digits,
)
from repro.san.ctmc_builder import CompiledSAN
from repro.san.errors import SANError
from repro.san.marking import Marking

_REPLICA_PREFIX = re.compile(r"^rep(\d+)_(.+)$")


def replica_signature(marking: Marking, count: int) -> tuple:
    """The canonical (permutation-invariant) signature of a marking.

    Shared-place counts stay positional; the per-replica local markings
    are collected and sorted into a multiset.
    """
    shared = []
    locals_: list[dict[str, int]] = [dict() for _ in range(count)]
    for place, tokens in marking.items():
        match = _REPLICA_PREFIX.match(place)
        if match:
            index = int(match.group(1))
            if index >= count:
                raise SANError(
                    f"place {place!r} references replica {index} but the "
                    f"model was declared with {count} replicas"
                )
            locals_[index][match.group(2)] = tokens
        else:
            shared.append((place, tokens))
    multiset = tuple(
        sorted(tuple(sorted(local.items())) for local in locals_)
    )
    return (tuple(sorted(shared)), multiset)


def replica_partition(
    compiled: CompiledSAN, count: int
) -> list[list[int]]:
    """Group tangible states of a replicated model by replica symmetry."""
    if count < 1:
        raise SANError(f"replica count must be >= 1, got {count}")
    groups: dict[tuple, list[int]] = {}
    for i, marking in enumerate(compiled.graph.markings):
        groups.setdefault(replica_signature(marking, count), []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class ReplicaReduction:
    """Outcome of a replica-symmetry reduction.

    Attributes
    ----------
    compiled:
        The original compiled (flat) model.
    lumped:
        The exact quotient chain with its block mapping.
    """

    compiled: CompiledSAN
    lumped: LumpedCTMC

    @property
    def original_states(self) -> int:
        """Flat tangible state count."""
        return self.compiled.num_states

    @property
    def reduced_states(self) -> int:
        """Lumped state count."""
        return len(self.lumped.blocks)


def reduce_replicas(compiled: CompiledSAN, count: int) -> ReplicaReduction:
    """Lump a replicated model's chain by replica symmetry.

    The partition is provably lumpable for true replicas; the lumping
    routine still *verifies* it, so a model whose replicas were
    manually perturbed after composition fails loudly rather than
    silently producing wrong numbers.
    """
    partition = replica_partition(compiled, count)
    lumped = lump(compiled.chain, partition)
    return ReplicaReduction(compiled=compiled, lumped=lumped)


# ----------------------------------------------------------------------
# MDCD fleet symmetry
# ----------------------------------------------------------------------
# The fleet chains of :mod:`repro.san.composition` are symmetric within
# each rate group: processes with identical rates are exchangeable, so
# the future depends only on *how many* of a group's processes occupy
# each local state.  The exact quotient has one count vector
# ``(ok, ctn, det, fail)`` per group, ``prod_i C(n_i + 3, 3)`` states
# against ``4**n`` flat ones.  A homogeneous fleet is the one-group case,
# ``C(n + 3, 3)`` states; a 10-process fleet split 5/5 (a staged upgrade)
# has ``56**2 = 3136`` against ``4**10 = 1048576``.  Processes of
# different groups are not exchangeable, so a grouping coarser than the
# rates is not lumpable and :func:`reduce_fleet_grouped` refuses it.


def fleet_count_states(n: int) -> list[tuple[int, int, int, int]]:
    """All count vectors ``(n_ok, n_ctn, n_det, n_fail)`` of an
    ``n``-process fleet, in deterministic lexicographic order of
    ``(n_ctn, n_det, n_fail)``."""
    if n < 1:
        raise SANError(f"fleet size must be >= 1, got {n}")
    states = []
    for ctn in range(n + 1):
        for det in range(n + 1 - ctn):
            for fail in range(n + 1 - ctn - det):
                states.append((n - ctn - det - fail, ctn, det, fail))
    return states


def fleet_rate_groups(
    rates: list[FleetRates] | tuple[FleetRates, ...],
) -> list[tuple[tuple[int, ...], FleetRates]]:
    """Partition process indices by identical rates.

    Returns ``(members, rates)`` pairs in first-appearance order; two
    processes share a group iff their :class:`FleetRates` agree exactly.
    A homogeneous fleet yields a single group.
    """
    if len(rates) < 1:
        raise SANError("need at least one process")
    groups: dict[tuple, list[int]] = {}
    reps: dict[tuple, FleetRates] = {}
    for j, r in enumerate(rates):
        key = tuple(r.as_array())
        groups.setdefault(key, []).append(j)
        reps.setdefault(key, r)
    return [(tuple(members), reps[key]) for key, members in groups.items()]


def fleet_group_states(
    sizes: list[int] | tuple[int, ...],
) -> list[tuple[tuple[int, int, int, int], ...]]:
    """All grouped count states: one count vector per rate group.

    Deterministic order — the cartesian product of the per-group
    :func:`fleet_count_states` enumerations with group 0 varying
    slowest.  With a single group this degenerates to
    ``fleet_count_states(n)`` (each state wrapped in a 1-tuple).
    """
    if len(sizes) < 1:
        raise SANError("need at least one group")
    per_group = [fleet_count_states(size) for size in sizes]
    states: list[tuple[tuple[int, int, int, int], ...]] = [()]
    for options in per_group:
        states = [s + (o,) for s in states for o in options]
    return states


def fleet_group_block_map(
    groups: list[tuple[tuple[int, ...], FleetRates]],
) -> np.ndarray:
    """Per-flat-state block index of the grouped count partition.

    ``groups`` is the :func:`fleet_rate_groups` output (member process
    indices per group); the fleet size is the total member count, and
    members must cover ``0..n-1`` exactly once.  Vectorised: per-group
    digit columns collapse to counts, key into per-group ``(size+1)^3``
    lookup tables, and combine in mixed radix with group 0 outermost —
    matching :func:`fleet_group_states` order.  Returns an ``int64``
    array of length ``4**n``.
    """
    members_flat = sorted(j for members, _ in groups for j in members)
    n = len(members_flat)
    if members_flat != list(range(n)):
        raise SANError(
            "group members must cover each process index exactly once"
        )
    digits = fleet_digits(n)
    block = np.zeros(FLEET_LOCAL_STATES**n, dtype=np.int64)
    for members, _rates in groups:
        size = len(members)
        side = size + 1
        table = np.full(side * side * side, -1, dtype=np.int64)
        for b, (_ok, ctn, det, fail) in enumerate(
            fleet_count_states(size)
        ):
            table[(ctn * side + det) * side + fail] = b
        cols = digits[:, list(members)]
        ctn = (cols == FLEET_CONTAMINATED).sum(axis=1).astype(np.int64)
        det = (cols == FLEET_DETECTED).sum(axis=1).astype(np.int64)
        fail = (cols == FLEET_FAILED).sum(axis=1).astype(np.int64)
        block = block * len(fleet_count_states(size)) + table[
            (ctn * side + det) * side + fail
        ]
    return block


def fleet_grouped_lumped_chain(
    rates: list[FleetRates] | tuple[FleetRates, ...],
    repair_servers: int = 1,
) -> CTMC:
    """The grouped count-space CTMC of a fleet — the exact quotient of
    :func:`repro.san.composition.fleet_chain` over per-rate-group count
    vectors, built directly.

    State ``b`` is ``fleet_group_states(sizes)[b]``.  This is the
    scalable reference: a fleet too large to ever materialise flat is
    still solvable here.  Per-group dynamics use that group's rates
    (``ok * contaminate``, ``ctn * detect``, ``ctn * fail``); the only
    cross-group coupling is the shared repair pool: a detected process
    of group ``i`` repairs at ``repair_i * min(D, servers) / D`` where
    ``D`` is the *total* detected count — identical for every member,
    which is exactly why the partition stays lumpable within groups.
    With one group the rate ``D * (min(D, servers) / D) * repair``
    equals ``repair * min(D, servers)`` bitwise up to ``D = 21``; from
    ``D = 22`` the quotient can round differently in the last bit.
    """
    if repair_servers < 1:
        raise SANError(
            f"repair_servers must be >= 1, got {repair_servers}"
        )
    groups = fleet_rate_groups(rates)
    sizes = [len(members) for members, _ in groups]
    states = fleet_group_states(sizes)
    index = {s: b for b, s in enumerate(states)}
    chain_rates: dict[tuple[int, int], float] = {}

    def _replace(state, i, vec):
        return state[:i] + (vec,) + state[i + 1 :]

    for b, state in enumerate(states):
        total_det = sum(vec[2] for vec in state)
        for i, (_members, g_rates) in enumerate(groups):
            ok, ctn, det, fail = state[i]
            if ok > 0 and g_rates.contaminate > 0:
                dst = index[_replace(state, i, (ok - 1, ctn + 1, det, fail))]
                chain_rates[(b, dst)] = ok * g_rates.contaminate
            if ctn > 0 and g_rates.detect > 0:
                dst = index[_replace(state, i, (ok, ctn - 1, det + 1, fail))]
                chain_rates[(b, dst)] = ctn * g_rates.detect
            if ctn > 0 and g_rates.fail > 0:
                dst = index[_replace(state, i, (ok, ctn - 1, det, fail + 1))]
                chain_rates[(b, dst)] = ctn * g_rates.fail
            if det > 0 and g_rates.repair > 0:
                dst = index[_replace(state, i, (ok + 1, ctn, det - 1, fail))]
                chain_rates[(b, dst)] = (
                    det
                    * (min(total_det, repair_servers) / total_det)
                    * g_rates.repair
                )
    initial = np.zeros(len(states))
    initial[index[tuple((len(m), 0, 0, 0) for m, _ in groups)]] = 1.0
    return CTMC.from_rates(
        len(states), chain_rates, initial=initial, labels=states
    )


def fleet_lumped_chain(
    n: int,
    rates: FleetRates,
    repair_servers: int = 1,
) -> CTMC:
    """The count-space CTMC of a homogeneous ``n``-process fleet: the
    one-group case of :func:`fleet_grouped_lumped_chain`."""
    return fleet_grouped_lumped_chain((rates,) * n, repair_servers)


@dataclass(frozen=True)
class FleetReduction:
    """Outcome of a fleet symmetry reduction.

    Attributes
    ----------
    flat:
        The original flat product-space chain.
    lumped:
        The verified exact quotient with its block mapping.
    """

    flat: CTMC
    lumped: LumpedCTMC

    @property
    def original_states(self) -> int:
        """Flat state count (``4**n``)."""
        return self.flat.num_states

    @property
    def reduced_states(self) -> int:
        """Grouped count-vector state count (``prod_i C(n_i + 3, 3)``)."""
        return len(self.lumped.blocks)


def reduce_fleet_grouped(
    flat: CTMC,
    rates: list[FleetRates] | tuple[FleetRates, ...],
) -> FleetReduction:
    """Lump a flat fleet chain onto grouped count vectors.

    The partition derives from the declared per-process rates
    (:func:`fleet_rate_groups`; a homogeneous fleet is one group).  Like
    :func:`reduce_replicas` this *verifies* lumpability rather than
    trusting it, so passing rates that do not match the chain — say,
    homogeneous rates for a heterogeneous chain — fails loudly instead
    of silently producing wrong numbers.  Uses the vectorised block-map
    lumping path, so it scales to 1e5+-state fleets.
    """
    n = len(rates)
    if flat.num_states != 4**n:
        raise SANError(
            f"chain has {flat.num_states} states; an {n}-process fleet "
            f"has {4**n}"
        )
    groups = fleet_rate_groups(rates)
    lumped = lump_from_block_map(flat, fleet_group_block_map(groups))
    return FleetReduction(flat=flat, lumped=lumped)

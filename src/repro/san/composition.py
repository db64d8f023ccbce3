"""Composed SAN models: Join and Replicate.

UltraSAN (and later Möbius) compose SAN submodels with two operators:

* **Join** — glue submodels together over a set of shared places.
* **Replicate** — create ``n`` indistinguishable copies of a submodel
  sharing a set of common places.

This module implements both as *flattening* transformations that produce
an ordinary :class:`~repro.san.model.SANModel`: non-shared names are
prefixed with the submodel instance name, shared places are merged (their
initial markings must agree).  Gate callables are rewrapped so that each
replica's predicates and functions see the marking through a renaming
lens — user-written gates keep using local place names.

The paper's composite base model is conceptually a join of its three
reward models over the system-status places; the GSU package solves them
separately (as the paper does) but the operator is provided — and tested —
as part of the framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.ctmc.chain import CTMC
from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.errors import ModelStructureError
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place


class _RenamingLens:
    """Bidirectional renaming between a submodel's local names and the
    flattened model's global names."""

    def __init__(self, local_to_global: Mapping[str, str]):
        self.local_to_global = dict(local_to_global)
        self.global_to_local = {g: l for l, g in self.local_to_global.items()}
        if len(self.global_to_local) != len(self.local_to_global):
            raise ModelStructureError("renaming map is not injective")

    def localize(self, marking: Marking) -> Marking:
        """Project a global marking onto this submodel's local names."""
        return Marking(
            {
                local: marking[global_name]
                for local, global_name in self.local_to_global.items()
            }
        )

    def globalize_changes(self, global_marking: Marking, local_result: Marking) -> Marking:
        """Write a locally transformed marking back into the global one."""
        changes = {
            self.local_to_global[local]: count
            for local, count in local_result.items()
        }
        return global_marking.update(changes)


def _wrap_predicate(predicate, lens: _RenamingLens):
    def wrapped(marking: Marking) -> bool:
        return predicate(lens.localize(marking))

    return wrapped


def _wrap_function(function, lens: _RenamingLens):
    def wrapped(marking: Marking) -> Marking:
        return lens.globalize_changes(marking, function(lens.localize(marking)))

    return wrapped


def _wrap_marking_dependent(value, lens: _RenamingLens):
    if not callable(value):
        return value

    def wrapped(marking: Marking):
        return value(lens.localize(marking))

    return wrapped


def _rename_activity(activity, prefix: str, lens: _RenamingLens):
    def rename(name: str) -> str:
        return lens.local_to_global[name]

    input_arcs = tuple((rename(p), n) for p, n in activity.input_arcs)
    input_gates = tuple(
        InputGate(
            name=f"{prefix}{g.name}",
            predicate=_wrap_predicate(g.predicate, lens),
            function=_wrap_function(g.function, lens),
        )
        for g in activity.input_gates
    )
    cases = tuple(
        Case(
            probability=_wrap_marking_dependent(case.probability, lens),
            output_arcs=tuple((rename(p), n) for p, n in case.output_arcs),
            output_gates=tuple(
                OutputGate(
                    name=f"{prefix}{g.name}",
                    function=_wrap_function(g.function, lens),
                )
                for g in case.output_gates
            ),
            label=case.label,
        )
        for case in activity.cases
    )
    if isinstance(activity, TimedActivity):
        return TimedActivity(
            name=f"{prefix}{activity.name}",
            rate=_wrap_marking_dependent(activity.rate, lens),
            cases=cases,
            input_arcs=input_arcs,
            input_gates=input_gates,
        )
    return InstantaneousActivity(
        name=f"{prefix}{activity.name}",
        cases=cases,
        input_arcs=input_arcs,
        input_gates=input_gates,
        weight=_wrap_marking_dependent(activity.weight, lens),
    )


def join(
    name: str,
    submodels: Mapping[str, SANModel],
    shared_places: Sequence[str] = (),
) -> SANModel:
    """Join submodels over ``shared_places`` into one flat model.

    Parameters
    ----------
    name:
        Name of the composed model.
    submodels:
        ``{instance_name: model}``; non-shared place and activity names
        are prefixed with ``instance_name + "_"``.
    shared_places:
        Place names merged across all submodels that declare them.
        Initial markings (and capacities) of a shared place must agree
        everywhere it appears, and each shared place must appear in at
        least two submodels (otherwise it is a misspelling).
    """
    shared = set(shared_places)
    declared: dict[str, list[Place]] = {s: [] for s in shared}
    places: list[Place] = []
    timed: list[TimedActivity] = []
    instantaneous: list[InstantaneousActivity] = []

    for instance, model in submodels.items():
        if not instance.isidentifier():
            raise ModelStructureError(f"invalid instance name {instance!r}")
        local_to_global = {}
        for p in model.places:
            if p.name in shared:
                declared[p.name].append(p)
                local_to_global[p.name] = p.name
            else:
                local_to_global[p.name] = f"{instance}_{p.name}"
                places.append(
                    Place(
                        name=local_to_global[p.name],
                        initial=p.initial,
                        capacity=p.capacity,
                    )
                )
        lens = _RenamingLens(local_to_global)
        prefix = f"{instance}_"
        for activity in model.timed_activities:
            timed.append(_rename_activity(activity, prefix, lens))
        for activity in model.instantaneous_activities:
            instantaneous.append(_rename_activity(activity, prefix, lens))

    for shared_name, decls in declared.items():
        if len(decls) < 2:
            raise ModelStructureError(
                f"shared place {shared_name!r} appears in "
                f"{len(decls)} submodel(s); sharing needs at least two"
            )
        initials = {p.initial for p in decls}
        capacities = {p.capacity for p in decls}
        if len(initials) != 1 or len(capacities) != 1:
            raise ModelStructureError(
                f"shared place {shared_name!r} has conflicting declarations"
            )
        places.append(decls[0])

    return SANModel(
        name=name,
        places=places,
        timed_activities=timed,
        instantaneous_activities=instantaneous,
    )


def replicate(
    name: str,
    model: SANModel,
    count: int,
    common_places: Sequence[str] = (),
) -> SANModel:
    """Replicate ``model`` ``count`` times sharing ``common_places``.

    Equivalent to joining ``count`` renamed copies over the common
    places.  The flat model can afterwards be reduced exactly by replica
    symmetry — the state-space reduction UltraSAN's Rep operator
    performs — via :func:`repro.san.symmetry.reduce_replicas`.
    """
    if count < 1:
        raise ModelStructureError(f"replica count must be >= 1, got {count}")
    if count == 1 and not common_places:
        return model
    submodels = {f"rep{i}": model for i in range(count)}
    return join(name, submodels, shared_places=common_places)


# ----------------------------------------------------------------------
# MDCD fleet composition
# ----------------------------------------------------------------------
# An N-process fleet of the paper's MDCD (message-driven, checkpointing,
# with detection) processes sharing a bounded repair facility.  Each
# process walks a four-state local chain; the repair transition is
# coupled across processes (at most ``repair_servers`` concurrent
# repairs), which breaks product form but preserves full replica
# symmetry — the composed chain lumps exactly onto count vectors.
#
# The flat product space has ``4**n`` states, so the generator is
# assembled *directly in CSR* from base-4 digit arrays — no marking BFS,
# no Python per-state loops, no dense round-trips — by one row-blocked
# pass (:func:`fleet_generator_blocked`).  The flat chain is the oracle
# that verifies the exact quotients of :mod:`repro.san.symmetry`, which
# answer every served fleet query.

#: Per-process local states of the fleet member chain.
FLEET_OK = 0  #: operating normally
FLEET_CONTAMINATED = 1  #: latent error present, undetected
FLEET_DETECTED = 2  #: error detected, awaiting repair
FLEET_FAILED = 3  #: failed (absorbing)

#: Number of local states per fleet process.
FLEET_LOCAL_STATES = 4

#: Transition-class labels, indexing :meth:`FleetRates.as_array`.
FLEET_CLASS_LABELS = ("contaminate", "detect", "fail", "repair")

#: ``(src_local_state, dst_local_state)`` per transition class.
_FLEET_CLASS_MOVES = (
    (FLEET_OK, FLEET_CONTAMINATED),
    (FLEET_CONTAMINATED, FLEET_DETECTED),
    (FLEET_CONTAMINATED, FLEET_FAILED),
    (FLEET_DETECTED, FLEET_OK),
)

_FLEET_REPAIR_CLASS = 3


@dataclass(frozen=True)
class FleetRates:
    """Per-class transition rates of one MDCD fleet process.

    Attributes
    ----------
    contaminate:
        ``ok -> contaminated`` rate (external-fault arrival).
    detect:
        ``contaminated -> detected`` rate (guard catches the error).
    fail:
        ``contaminated -> failed`` rate (error escapes the guard).
    repair:
        Per-server repair rate; the *effective* per-process rate is
        ``repair * min(n_detected, servers) / n_detected``, so the total
        fleet repair throughput saturates at ``repair * servers``.
    """

    contaminate: float
    detect: float
    fail: float
    repair: float

    def __post_init__(self):
        for label, value in zip(FLEET_CLASS_LABELS, self.as_array()):
            if value < 0:
                raise ModelStructureError(
                    f"fleet rate {label!r} must be non-negative, got {value}"
                )

    def as_array(self) -> np.ndarray:
        """The rates as a class-indexed vector (see FLEET_CLASS_LABELS)."""
        return np.array(
            [self.contaminate, self.detect, self.fail, self.repair]
        )


def fleet_digits(n: int) -> np.ndarray:
    """Per-process local states of every flat fleet state.

    Returns an ``(4**n, n)`` uint8 array: ``digits[s, j]`` is process
    ``j``'s local state in flat state ``s`` (base-4 positional encoding,
    process 0 in the least-significant digit).
    """
    if n < 1:
        raise ModelStructureError(f"fleet size must be >= 1, got {n}")
    num_states = FLEET_LOCAL_STATES**n
    idx = np.arange(num_states, dtype=np.int64)
    digits = np.empty((num_states, n), dtype=np.uint8)
    for j in range(n):
        digits[:, j] = (idx >> (2 * j)) & 3
    return digits


#: Default row-block size of the blocked assembly (states per block).
#: Peak transient memory is ``O(block * n)`` triplets regardless of the
#: total state count, so the 1e7 tier assembles in the same footprint
#: as the 1e5 tier.
FLEET_ASSEMBLY_BLOCK_STATES = 1 << 16

#: Out-moves per local state (OK→CTN; CTN→DET, CTN→FAIL; DET→OK; none
#: from FAILED) — the per-state out-degree table of the blocked pass.
_FLEET_MOVES_PER_LOCAL = np.array([1, 2, 1, 0], dtype=np.int64)


def fleet_rate_matrix(rates, n: int) -> np.ndarray:
    """Per-process class-rate matrix ``(n, 4)`` from homogeneous or
    heterogeneous rate declarations.

    ``rates`` is either one :class:`FleetRates` (applied to every
    process) or a sequence of ``n`` of them — the multi-upgrade form,
    where e.g. already-upgraded processes carry the new version's
    fault-manifestation rate and the rest the old one.
    """
    if n < 1:
        raise ModelStructureError(f"fleet size must be >= 1, got {n}")
    if isinstance(rates, FleetRates):
        return np.tile(rates.as_array(), (n, 1))
    rates = tuple(rates)
    if len(rates) != n:
        raise ModelStructureError(
            f"need one FleetRates per process ({n}), got {len(rates)}"
        )
    if not all(isinstance(r, FleetRates) for r in rates):
        raise ModelStructureError(
            "heterogeneous rates must be FleetRates instances"
        )
    return np.stack([r.as_array() for r in rates])


def _fleet_block_entries(
    start: int,
    stop: int,
    n: int,
    rate_matrix: np.ndarray,
    repair_servers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted CSR triplets ``(rows, cols, data)`` of one row block.

    Vectorised over the block's states only: digit extraction, class
    masks, and the shared-repair coupling all touch ``stop - start``
    rows, never the full space.  Diagonal entries are included for every
    state with at least one out-move; within each row, entries are in
    ascending column order (canonical CSR layout).
    """
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((idx.size, n), dtype=np.uint8)
    for j in range(n):
        digits[:, j] = (idx >> (2 * j)) & 3
    n_detected = (digits == FLEET_DETECTED).sum(axis=1).astype(np.float64)

    rows_parts, cols_parts, data_parts = [], [], []
    for j in range(n):
        stride = FLEET_LOCAL_STATES**j
        col_j = digits[:, j]
        for cls, (src, dst) in enumerate(_FLEET_CLASS_MOVES):
            mask = col_j == src
            srcs = idx[mask]
            if srcs.size == 0:
                continue
            if cls == _FLEET_REPAIR_CLASS:
                det = n_detected[mask]
                # Multiplier first: another evaluation order changes
                # the last bits of the pinned flat-oracle answers.
                values = (
                    np.minimum(det, float(repair_servers))
                    / det
                    * rate_matrix[j, cls]
                )
            else:
                values = np.full(srcs.size, rate_matrix[j, cls])
            rows_parts.append(srcs)
            cols_parts.append(srcs + (dst - src) * stride)
            data_parts.append(values)

    rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
    cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
    data = np.concatenate(data_parts) if data_parts else np.empty(0)

    exits = np.zeros(idx.size)
    np.add.at(exits, rows - start, data)
    has_exit = np.zeros(idx.size, dtype=bool)
    has_exit[rows - start] = True
    diag_states = idx[has_exit]

    rows = np.concatenate([rows, diag_states])
    cols = np.concatenate([cols, diag_states])
    data = np.concatenate([data, -exits[has_exit]])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], data[order]


def fleet_generator_blocked(
    rate_matrix: np.ndarray,
    repair_servers: int = 1,
    block_states: int | None = None,
) -> sp.csr_matrix:
    """Assemble the flat fleet generator in row blocks.

    Out-of-core-friendly CSR construction: a first pass counts row
    out-degrees straight off the digit arithmetic and preallocates the
    final ``indices``/``data``/``indptr`` arrays; a second pass fills
    them block by block.  No whole-space triplet arrays, no global
    lexsort — transient memory is bounded by ``block_states`` rows, so
    the same code assembles a 16-state oracle and the 1e6–1e7-state
    tier, with homogeneous or per-process rates alike.
    """
    rate_matrix = np.asarray(rate_matrix, dtype=np.float64)
    if rate_matrix.ndim != 2 or rate_matrix.shape[1] != FLEET_LOCAL_STATES:
        raise ModelStructureError(
            f"rate matrix must be (n, 4), got {rate_matrix.shape}"
        )
    if np.any(rate_matrix < 0):
        raise ModelStructureError("fleet rates must be non-negative")
    n = rate_matrix.shape[0]
    if n < 1:
        raise ModelStructureError(f"fleet size must be >= 1, got {n}")
    if repair_servers < 1:
        raise ModelStructureError(
            f"repair_servers must be >= 1, got {repair_servers}"
        )
    num_states = FLEET_LOCAL_STATES**n
    if block_states is None:
        block_states = FLEET_ASSEMBLY_BLOCK_STATES
    if block_states < 1:
        raise ModelStructureError(
            f"block_states must be >= 1, got {block_states}"
        )

    # Pass 1: per-row entry counts -> indptr.  A state's out-degree is
    # the sum of its digits' move counts; the diagonal adds one entry
    # wherever that sum is positive.
    indptr = np.zeros(num_states + 1, dtype=np.int64)
    for start in range(0, num_states, block_states):
        stop = min(start + block_states, num_states)
        idx = np.arange(start, stop, dtype=np.int64)
        moves = np.zeros(idx.size, dtype=np.int64)
        for j in range(n):
            moves += _FLEET_MOVES_PER_LOCAL[(idx >> (2 * j)) & 3]
        moves[moves > 0] += 1  # the diagonal entry
        indptr[start + 1 : stop + 1] = moves
    np.cumsum(indptr, out=indptr)

    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)

    # Pass 2: fill each block's slice.  Entries arrive row-major with
    # ascending columns, so the slice layout is exactly CSR order.
    for start in range(0, num_states, block_states):
        stop = min(start + block_states, num_states)
        _rows, cols, values = _fleet_block_entries(
            start, stop, n, rate_matrix, repair_servers
        )
        lo, hi = indptr[start], indptr[stop]
        indices[lo:hi] = cols
        data[lo:hi] = values

    return sp.csr_matrix(
        (data, indices, indptr), shape=(num_states, num_states)
    )


def fleet_chain(n: int, rates, repair_servers: int = 1) -> CTMC:
    """The flat ``4**n``-state CTMC of an ``n``-process MDCD fleet.

    All processes start in the ``ok`` state.  ``rates`` is one
    :class:`FleetRates` (homogeneous fleet) or a sequence of ``n`` —
    the multi-upgrade scenario form, where per-process rates differ
    (staged upgrades, heterogeneous fault exposure).  The generator
    comes from :func:`fleet_generator_blocked`.

    Unlabelled — flat states are addressed positionally via
    :func:`fleet_digits`.
    """
    q = fleet_generator_blocked(
        fleet_rate_matrix(rates, n), repair_servers=repair_servers
    )
    initial = np.zeros(q.shape[0])
    initial[0] = 1.0  # every process in FLEET_OK
    return CTMC(q, initial=initial)

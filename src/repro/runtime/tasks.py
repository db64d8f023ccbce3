"""The task planner: campaign specs → hashable evaluation tasks.

A task is one ``Y(phi)`` evaluation — the atomic unit of scheduling,
caching, and timing.  Tasks carry everything a worker needs (parameter
set, ``phi``, solver options) plus their position in the campaign so
results can be reassembled in deterministic spec order no matter which
backend, chunking, or submission order executed them.

Cache keys are content addresses: the SHA-256 of a canonical JSON
payload of *inputs only* (schema version, parameters, ``phi``, solver
options).  Position and labels are deliberately excluded so identical
evaluations are shared across campaigns.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

from repro.gsu.fleet import FleetParameters
from repro.gsu.parameters import GSUParameters
from repro.runtime.spec import CampaignSpec, params_to_dict

#: Version of the cache-key schema.  Bump whenever the key payload, the
#: record layout, or the semantics of an existing field change — old
#: cache entries then become unreachable instead of silently wrong.
#: Version 2: matrix-exponential answers moved by about 1e-10 when the
#: ``dense-expm`` and ``augmented-expm`` backends began sharing one chain
#: of squarings across each grid.
#: Version 3: answers at times that are not a multiple of the shared
#: squaring step (every non-integer ``phi``, so every surrogate fit node)
#: moved in their last bits when that remainder became a truncated
#: Taylor series instead of a Padé exponential per point.
CACHE_KEY_SCHEMA_VERSION = 3

#: The measure a task evaluates (part of the key payload, so future
#: measure families cannot collide with ``Y(phi)`` entries).
_MEASURE = "performability.Y"

#: Canonical key-payload encoder: sorted keys, compact separators.  One
#: shared instance, so hashing a key does not build an encoder per call.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _content_address(payload: dict) -> str:
    """SHA-256 of a key payload's canonical JSON."""
    return hashlib.sha256(_KEY_ENCODER.encode(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EvaluationTask:
    """One planned ``Y(phi)`` evaluation.

    Attributes
    ----------
    index:
        Global position in campaign order (curve-major, then grid order).
    curve_index / point_index:
        Position of the task's curve in the spec and of its ``phi`` on
        the curve's grid.
    label:
        The curve label (display only; not part of the cache key).
    params:
        The parameter set to evaluate.
    phi:
        The guarded-operation duration.
    solver_options:
        Canonical key/value pairs folded into the cache key.
    """

    index: int
    curve_index: int
    point_index: int
    label: str
    params: GSUParameters
    phi: float
    solver_options: tuple[tuple[str, str], ...] = ()

    def key_payload(
        self, schema_version: int = CACHE_KEY_SCHEMA_VERSION
    ) -> dict:
        """The canonical content-address payload (inputs only)."""
        return {
            "schema": schema_version,
            "measure": _MEASURE,
            "params": params_to_dict(self.params),
            "phi": float(self.phi),
            "solver": {k: v for k, v in self.solver_options},
        }

    def cache_key(self, schema_version: int = CACHE_KEY_SCHEMA_VERSION) -> str:
        """SHA-256 content address of this task's inputs."""
        return _content_address(self.key_payload(schema_version))


#: Measure namespace of verification-block tasks — distinct from
#: ``performability.Y`` so conformance blocks can never collide with
#: evaluation records in a shared cache.
_VERIFY_MEASURE = "verify.block"


@dataclass(frozen=True)
class VerificationTask:
    """One planned conformance-simulation block.

    The schedulable/cacheable unit of ``repro verify``: a batch of
    independent replications of one base model.  Everything that
    determines the block's samples is in the key payload — parameters,
    model, observation grid, replication count, *seed and block index*
    (the RNG stream), and the steady-state window — so a cache hit is
    guaranteed to reproduce the exact samples a fresh simulation would
    produce.

    Attributes
    ----------
    index:
        Position in the verification plan (reassembly order only).
    model_key:
        ``RMGd`` / ``RMGp`` / ``RMNd_new`` / ``RMNd_old``.
    kind:
        ``transient`` (checkpointed trajectory pass) or ``steady``
        (time-averaged window).
    params:
        The parameter set under verification.
    phis:
        The profile's phi grid (observation times derive from it).
    replications:
        Replications in this block.
    block:
        Block index — selects the RNG substream.
    seed:
        Root seed of the verification campaign.
    steady_horizon / steady_warmup:
        Observation window for ``steady`` blocks (``None`` otherwise).
    """

    index: int
    model_key: str
    kind: str
    params: GSUParameters
    phis: tuple[float, ...]
    replications: int
    block: int
    seed: int
    steady_horizon: float | None = None
    steady_warmup: float | None = None

    def key_payload(
        self, schema_version: int = CACHE_KEY_SCHEMA_VERSION
    ) -> dict:
        """The canonical content-address payload (inputs only)."""
        return {
            "schema": schema_version,
            "measure": _VERIFY_MEASURE,
            "model": self.model_key,
            "kind": self.kind,
            "params": params_to_dict(self.params),
            "phis": [float(phi) for phi in self.phis],
            "replications": int(self.replications),
            "block": int(self.block),
            "seed": int(self.seed),
            "steady": {
                "horizon": self.steady_horizon,
                "warmup": self.steady_warmup,
            },
        }

    def cache_key(self, schema_version: int = CACHE_KEY_SCHEMA_VERSION) -> str:
        """SHA-256 content address of this block's inputs."""
        return _content_address(self.key_payload(schema_version))


#: Measure namespace of fleet tasks — distinct from ``performability.Y``
#: so fleet records can never collide with single-pair evaluations in a
#: shared cache (existing cache keys are untouched by construction).
_FLEET_MEASURE = "fleet.Y"


@dataclass(frozen=True)
class FleetTask:
    """One planned fleet ``Y(phi)`` evaluation.

    Attributes
    ----------
    index:
        Position in the fleet plan (reassembly order only).
    params:
        The fleet parameter set.
    phi:
        The guarded-operation duration.
    mode:
        ``"lumped"`` or ``"flat"`` — part of the key payload because the
        two representations agree only to solver tolerance, not bitwise.
    solver_options:
        Canonical key/value pairs folded into the cache key.
    """

    index: int
    params: FleetParameters
    phi: float
    mode: str = "lumped"
    solver_options: tuple[tuple[str, str], ...] = ()

    def key_payload(
        self, schema_version: int = CACHE_KEY_SCHEMA_VERSION
    ) -> dict:
        """The canonical content-address payload (inputs only)."""
        return {
            "schema": schema_version,
            "measure": _FLEET_MEASURE,
            "params": self.params.to_dict(),
            "phi": float(self.phi),
            "mode": self.mode,
            "solver": {k: v for k, v in self.solver_options},
        }

    def cache_key(self, schema_version: int = CACHE_KEY_SCHEMA_VERSION) -> str:
        """SHA-256 content address of this task's inputs."""
        return _content_address(self.key_payload(schema_version))


#: Measure namespace of synthesis-step tasks — distinct from every other
#: task family so projected-gradient trajectory records can never
#: collide with evaluations, verification blocks, or fleet points in a
#: shared cache.
_SYNTH_MEASURE = "synth.step"


@dataclass(frozen=True)
class SynthesisStepTask:
    """One planned projected-gradient synthesis step.

    The cacheable/resumable unit of ``repro synthesize``: a step is a
    pure function of the base parameter set, the lever box, the current
    point, and the search configuration, so replaying a trajectory hits
    the cache step by step until the first genuinely new point.

    Attributes
    ----------
    params:
        The base parameter set (lever values override its fields).
    levers:
        ``(name, lower, upper)`` per search dimension, in order.
    point:
        The step's current point in raw lever coordinates.
    options:
        Canonical key/value pairs of the search configuration (step
        sizes, tolerances, overhead budget) folded into the cache key.
    """

    params: GSUParameters
    levers: tuple[tuple[str, float, float], ...]
    point: tuple[float, ...]
    options: tuple[tuple[str, str], ...] = ()

    def key_payload(
        self, schema_version: int = CACHE_KEY_SCHEMA_VERSION
    ) -> dict:
        """The canonical content-address payload (inputs only)."""
        return {
            "schema": schema_version,
            "measure": _SYNTH_MEASURE,
            "params": params_to_dict(self.params),
            "levers": [
                [name, float(lower), float(upper)]
                for name, lower, upper in self.levers
            ],
            "point": [float(value) for value in self.point],
            "options": {k: v for k, v in self.options},
        }

    def cache_key(self, schema_version: int = CACHE_KEY_SCHEMA_VERSION) -> str:
        """SHA-256 content address of this step's inputs."""
        return _content_address(self.key_payload(schema_version))


#: Measure namespace of surrogate fit-node tasks — distinct from every
#: other task family so fit-grid solves can never collide with campaign
#: evaluations in a shared cache (and stay reusable across fits whose
#: grids overlap).
_SURROGATE_MEASURE = "surrogate.node"


@dataclass(frozen=True)
class SurrogateFitTask:
    """One planned surrogate fit node: a batched phi-grid solve.

    The cacheable/resumable unit of ``repro surrogate fit``: the exact
    nine-measure solutions along one phi grid at one lever point of the
    fit box.  Keyed purely by inputs (parameter set, grid, solver
    options) — two fits whose boxes share a lever node reuse each
    other's solves, and an interrupted fit resumes from cache.

    Attributes
    ----------
    index:
        Position in the fit plan (reassembly order only).
    params:
        The concrete parameter set at this lever node.
    phis:
        The phi node grid (all phi-axis Chebyshev nodes, plus any
        holdout points the fitter rides along).
    solver_options:
        Canonical key/value pairs folded into the cache key.
    """

    index: int
    params: GSUParameters
    phis: tuple[float, ...]
    solver_options: tuple[tuple[str, str], ...] = ()

    def key_payload(
        self, schema_version: int = CACHE_KEY_SCHEMA_VERSION
    ) -> dict:
        """The canonical content-address payload (inputs only)."""
        return {
            "schema": schema_version,
            "measure": _SURROGATE_MEASURE,
            "params": params_to_dict(self.params),
            "phis": [float(phi) for phi in self.phis],
            "solver": {k: v for k, v in self.solver_options},
        }

    def cache_key(self, schema_version: int = CACHE_KEY_SCHEMA_VERSION) -> str:
        """SHA-256 content address of this node's inputs."""
        return _content_address(self.key_payload(schema_version))


def plan_fleet_tasks(
    params: FleetParameters,
    phis: Sequence[float],
    mode: str = "lumped",
    solver_options: tuple[tuple[str, str], ...] = (),
) -> tuple[FleetTask, ...]:
    """Expand a fleet query into ordered tasks (phis validated up front)."""
    tasks = []
    for phi in phis:
        params.validate_phi(phi)
        tasks.append(
            FleetTask(
                index=len(tasks),
                params=params,
                phi=float(phi),
                mode=mode,
                solver_options=solver_options,
            )
        )
    return tuple(tasks)


def plan_campaign(spec: CampaignSpec) -> tuple[EvaluationTask, ...]:
    """Expand a campaign spec into its ordered evaluation tasks.

    The plan is deterministic: curve-major, grid order within each
    curve, with ``index`` numbering the global order.  Every ``phi`` is
    validated against its curve's ``[0, theta]`` up front so a malformed
    spec fails before any work is scheduled.
    """
    tasks: list[EvaluationTask] = []
    for curve_index, curve in enumerate(spec.curves):
        for point_index, phi in enumerate(curve.grid()):
            curve.params.validate_phi(phi)
            tasks.append(
                EvaluationTask(
                    index=len(tasks),
                    curve_index=curve_index,
                    point_index=point_index,
                    label=curve.label,
                    params=curve.params,
                    phi=float(phi),
                    solver_options=spec.solver_options,
                )
            )
    return tuple(tasks)


def group_by_params(
    pending: Sequence[tuple[int, EvaluationTask]],
) -> dict[GSUParameters, list[tuple[int, EvaluationTask]]]:
    """Group positioned tasks by parameter set, preserving plan order.

    This is the batched-execution granularity: every group is one curve's
    worth of *cache-missing* points, which a worker can hand to the
    batched solver in a single call (one solver pass per model instead of
    one per point).  Tasks remain individually positioned so the
    per-point cache keys and record schema are untouched.
    """
    groups: dict[GSUParameters, list[tuple[int, EvaluationTask]]] = {}
    for position, task in pending:
        groups.setdefault(task.params, []).append((position, task))
    return groups


def order_groups_by_structure(
    groups: dict[GSUParameters, list[tuple[int, EvaluationTask]]],
) -> dict[GSUParameters, list[tuple[int, EvaluationTask]]]:
    """Order parameter groups by their state-space structure key.

    Parameter sets whose structure keys match share compiled state-space
    templates (see :func:`repro.gsu.templates.structure_signature`), so
    the parametric execution path dispatches them consecutively: a pool
    worker then compiles each structure at most once and re-stamps for
    every subsequent chunk it serves.  The sort is stable — groups with
    equal keys keep their plan order — and only *dispatch* order
    changes; outcomes are always reassembled in plan order.
    """
    from repro.gsu.templates import structure_signature

    signatures = {params: structure_signature(params) for params in groups}
    return dict(
        sorted(
            groups.items(),
            key=lambda item: signatures[item[0]],
        )
    )

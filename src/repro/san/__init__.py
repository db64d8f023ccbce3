"""Stochastic activity network (SAN) modeling framework.

A from-scratch implementation of the SAN formalism [Meyer, Movaghar &
Sanders 1985] in the style of the UltraSAN tool the paper used:

* :class:`~repro.san.places.Place`, :class:`~repro.san.marking.Marking` —
  state.
* :class:`~repro.san.activities.TimedActivity`,
  :class:`~repro.san.activities.InstantaneousActivity`,
  :class:`~repro.san.activities.Case` — behaviour (marking-dependent
  rates, probabilistic cases).
* :class:`~repro.san.gates.InputGate`, :class:`~repro.san.gates.OutputGate`
  — marking-dependent enabling predicates and completion functions.
* :class:`~repro.san.model.SANModel` — the container, with structural
  validation.
* :func:`~repro.san.ctmc_builder.build_ctmc` — reachability-graph
  generation, vanishing-marking elimination, CTMC assembly.
* :class:`~repro.san.rewards.RewardStructure` — UltraSAN-style
  predicate-rate reward specification, with instant-of-time,
  interval-of-time, time-averaged, and steady-state solutions.
* :class:`~repro.san.simulate.SANSimulator` — trajectory simulation for
  cross-validation.
* :func:`~repro.san.composition.join` /
  :func:`~repro.san.composition.replicate` — composed models.
"""

from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.builder import SANBuilder
from repro.san.serialization import model_from_dict, model_from_json
from repro.san.spec import (
    SpecSyntaxError,
    parse_predicate,
    parse_update,
    reward_structure_from_spec,
)
from repro.san.composition import join, replicate
from repro.san.ctmc_builder import CompiledSAN, build_ctmc
from repro.san.errors import (
    MarkingError,
    ModelStructureError,
    RewardSpecificationError,
    SANError,
    StateSpaceError,
)
from repro.san.export import graph_to_dict, graph_to_dot, model_to_dict, model_to_dot
from repro.san.gates import InputGate, OutputGate, predicate_gate, set_places
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.reachability import ReachabilityGraph, explore
from repro.san.rewards import (
    DEFAULT_METHOD,
    ImpulseReward,
    PredicateRatePair,
    RewardStructure,
    activity_throughput,
    instant_and_interval_many,
    instant_of_time,
    instant_of_time_many,
    interval_of_time,
    steady_state,
    time_averaged,
)
from repro.san.simulate import SANSimulator, SimulationEstimate
from repro.san.symmetry import ReplicaReduction, reduce_replicas, replica_partition

__all__ = [
    "Case",
    "CompiledSAN",
    "ImpulseReward",
    "InputGate",
    "InstantaneousActivity",
    "Marking",
    "MarkingError",
    "ModelStructureError",
    "OutputGate",
    "Place",
    "PredicateRatePair",
    "ReachabilityGraph",
    "RewardSpecificationError",
    "RewardStructure",
    "SANBuilder",
    "SANError",
    "SANModel",
    "SANSimulator",
    "SimulationEstimate",
    "StateSpaceError",
    "TimedActivity",
    "activity_throughput",
    "build_ctmc",
    "explore",
    "graph_to_dict",
    "graph_to_dot",
    "DEFAULT_METHOD",
    "instant_and_interval_many",
    "instant_of_time",
    "instant_of_time_many",
    "interval_of_time",
    "join",
    "model_to_dict",
    "model_to_dot",
    "predicate_gate",
    "replicate",
    "ReplicaReduction",
    "reduce_replicas",
    "replica_partition",
    "set_places",
    "model_from_dict",
    "model_from_json",
    "parse_predicate",
    "parse_update",
    "reward_structure_from_spec",
    "SpecSyntaxError",
    "steady_state",
    "time_averaged",
]

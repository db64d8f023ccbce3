"""Reward structures and reward-variable evaluation for SANs.

A :class:`RewardStructure` is a named list of **predicate-rate pairs**
(rate rewards over markings) plus optional **impulse rewards** attached to
activity completions — exactly the specification style of UltraSAN's
reward editor that the paper uses in its Tables 1 and 2.

Reward *variables* pair a structure with a solution type:

* expected instant-of-time reward at ``t`` (:func:`instant_of_time`),
* expected accumulated (interval-of-time) reward over ``[0, t]``
  (:func:`interval_of_time`),
* expected time-averaged interval reward (:func:`time_averaged`),
* expected instant-of-time reward at steady state (:func:`steady_state`).

Impulse rewards are supported by the steady-state solution (value times
activity throughput), by the interval-of-time solution (value times
expected completion count, via :func:`expected_completions`), and by the
simulator.  Instant-of-time solutions are rate-only by definition and
reject impulse rewards with a clear error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.ctmc.accumulated import (
    accumulated_grid,
    accumulated_reward,
    transient_accumulated_grid,
)
from repro.ctmc.steady_state import steady_state_distribution
from repro.ctmc.transient import transient_distribution, transient_grid
from repro.san.ctmc_builder import CompiledSAN
from repro.san.errors import RewardSpecificationError
from repro.san.marking import Marking

#: A predicate over markings.
MarkingPredicate = Callable[[Marking], bool]

#: The one documented default solver method for transient reward
#: variables.  ``"auto"`` lets the ctmc layer pick uniformization for
#: non-stiff problems and the dense/augmented matrix-exponential path for
#: stiff ones (the paper's models mix 1200/h message rates with 1e-4/h
#: fault rates over 1e4-hour horizons, so stiffness dispatch matters).
#: Every transient entry point here and every
#: :class:`~repro.gsu.measures.ConstituentSolver` measure uses this same
#: default; spell a method explicitly only to cross-validate backends.
DEFAULT_METHOD = "auto"


@dataclass(frozen=True)
class PredicateRatePair:
    """One predicate-rate entry of a rate reward structure."""

    predicate: MarkingPredicate
    rate: float
    label: str = ""

    def __post_init__(self):
        if not callable(self.predicate):
            raise RewardSpecificationError("predicate must be callable")
        if not np.isfinite(self.rate):
            raise RewardSpecificationError(f"rate must be finite, got {self.rate}")


@dataclass(frozen=True)
class ImpulseReward:
    """An impulse reward earned on each completion of an activity."""

    activity: str
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise RewardSpecificationError(
                f"impulse value must be finite, got {self.value}"
            )


@dataclass(frozen=True)
class RewardStructure:
    """A named SAN reward structure (rate + impulse parts)."""

    name: str
    rate_rewards: tuple[PredicateRatePair, ...] = ()
    impulse_rewards: tuple[ImpulseReward, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise RewardSpecificationError("reward structure needs a name")
        if not self.rate_rewards and not self.impulse_rewards:
            raise RewardSpecificationError(
                f"reward structure {self.name!r} is empty"
            )

    @classmethod
    def from_pairs(
        cls,
        name: str,
        pairs: Sequence[tuple[MarkingPredicate, float]],
    ) -> "RewardStructure":
        """Build a rate-only structure from ``(predicate, rate)`` tuples."""
        return cls(
            name=name,
            rate_rewards=tuple(
                PredicateRatePair(predicate=p, rate=r) for p, r in pairs
            ),
        )

    def rate_vector(self, compiled: CompiledSAN) -> np.ndarray:
        """Per-state reward-rate vector over the compiled state space.

        On parametrically instantiated models the vector is served from
        the template's reward cache (keyed by this structure object):
        predicates and rates only read the marking, so the vector is the
        same for every instantiation of one state-space template.
        """
        return compiled.cached_reward_vector(
            self, [(pair.predicate, pair.rate) for pair in self.rate_rewards]
        )


# ----------------------------------------------------------------------
# Reward-variable solutions
# ----------------------------------------------------------------------
def _rowwise_dot(pi: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Dot each distribution row with a rate vector, one row at a time.

    A single ``pi @ rates`` matrix-vector product lets BLAS pick a
    reduction order that varies with the matrix shape, so the value at a
    given time could differ in the last ulp depending on how many grid
    points ride along.  Row-wise 1-D dots reproduce exactly what the
    scalar solutions compute, making grid results independent of the
    grid they were batched with.
    """
    return np.array([float(row @ rates) for row in pi])


def instant_of_time(
    compiled: CompiledSAN,
    structure: RewardStructure,
    t: float,
    method: str = DEFAULT_METHOD,
) -> float:
    """Expected instant-of-time reward ``E[r(X_t)]`` at time ``t``."""
    _reject_impulse(structure, "instant-of-time")
    rates = structure.rate_vector(compiled)
    pi_t = transient_distribution(compiled.chain, t, method=method)
    return float(pi_t @ rates)


def instant_of_time_many(
    compiled: CompiledSAN,
    structure: RewardStructure,
    times,
    method: str = DEFAULT_METHOD,
) -> np.ndarray:
    """Expected instant-of-time rewards at every point of a time grid.

    One :func:`~repro.ctmc.transient.transient_grid` solve serves the
    whole grid (duplicates deduplicated, non-uniform spacing fine).
    Returns an array aligned with ``times``.
    """
    _reject_impulse(structure, "instant-of-time")
    rates = structure.rate_vector(compiled)
    pi = transient_grid(compiled.chain, times, method=method)
    return _rowwise_dot(pi, rates)


def instant_rewards_many(
    compiled: CompiledSAN,
    structures: Sequence[RewardStructure],
    times,
    method: str = DEFAULT_METHOD,
) -> dict[str, np.ndarray]:
    """Instant-of-time rewards for several structures over one grid.

    The transient distributions are solved *once* and dotted with each
    structure's rate vector — this is what lets the GSU batch path pay a
    single RMGd solve for the three Table 1 instant measures instead of
    three.  Returns ``{structure.name: per-time array}``.
    """
    for structure in structures:
        _reject_impulse(structure, "instant-of-time")
    pi = transient_grid(compiled.chain, times, method=method)
    return {
        structure.name: _rowwise_dot(pi, structure.rate_vector(compiled))
        for structure in structures
    }


def interval_of_time(
    compiled: CompiledSAN,
    structure: RewardStructure,
    t: float,
    method: str = DEFAULT_METHOD,
) -> float:
    """Expected reward accumulated over ``[0, t]``.

    Rate rewards integrate the state occupancy; impulse rewards
    contribute ``value * E[completions of the activity in [0, t]]``
    (see :func:`expected_completions`).
    """
    total = 0.0
    if structure.rate_rewards:
        rates = structure.rate_vector(compiled)
        total += accumulated_reward(compiled.chain, rates, t, method=method)
    for impulse in structure.impulse_rewards:
        total += impulse.value * expected_completions(
            compiled, impulse.activity, t, method=method
        )
    return total


def interval_of_time_many(
    compiled: CompiledSAN,
    structure: RewardStructure,
    times,
    method: str = DEFAULT_METHOD,
) -> np.ndarray:
    """Expected accumulated rewards over ``[0, t]`` for a grid of ``t``.

    One :func:`~repro.ctmc.accumulated.accumulated_grid` solve per rate
    part (plus one per impulse activity) serves the whole grid.  Returns
    an array aligned with ``times``.
    """
    grid = np.asarray(list(times), dtype=np.float64)
    total = np.zeros(grid.size)
    if structure.rate_rewards:
        total = total + accumulated_grid(
            compiled.chain, structure.rate_vector(compiled), grid, method=method
        )
    for impulse in structure.impulse_rewards:
        total = total + impulse.value * accumulated_grid(
            compiled.chain,
            completion_rate_vector(compiled, impulse.activity),
            grid,
            method=method,
        )
    return total


def instant_and_interval_many(
    compiled: CompiledSAN,
    instant_structures: Sequence[RewardStructure],
    interval_structure: RewardStructure,
    times,
    method: str = DEFAULT_METHOD,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Instant rewards for several structures plus one accumulated curve.

    The fused solver
    (:func:`~repro.ctmc.accumulated.transient_accumulated_grid`) yields
    the transient distributions and the reward integral from the *same*
    pass, so a model whose sweep needs both — like ``RMGd`` with its
    three Table 1 instant measures and one accumulated measure — pays
    for a single grid solve.  Impulse rewards are not supported here;
    use :func:`interval_of_time_many` for impulse-bearing structures.
    Returns ``({structure.name: per-time array}, accumulated array)``.
    """
    for structure in instant_structures:
        _reject_impulse(structure, "instant-of-time")
    _reject_impulse(structure=interval_structure, solution="fused interval-of-time")
    pi, accumulated = transient_accumulated_grid(
        compiled.chain,
        interval_structure.rate_vector(compiled),
        times,
        method=method,
    )
    instants = {
        structure.name: _rowwise_dot(pi, structure.rate_vector(compiled))
        for structure in instant_structures
    }
    return instants, accumulated


def completion_rate_vector(
    compiled: CompiledSAN, activity_name: str
) -> np.ndarray:
    """Per-state completion rate of a timed activity.

    ``vector[i] = rate(activity, marking_i)`` when the activity is
    enabled in marking ``i``, else 0.
    """
    activity = compiled.model.activity(activity_name)
    if not hasattr(activity, "rate_at"):
        raise RewardSpecificationError(
            f"completion counting is defined for timed activities; "
            f"{activity_name!r} is instantaneous"
        )
    rates = np.zeros(compiled.num_states)
    for i, marking in enumerate(compiled.graph.markings):
        if activity.enabled(marking):
            rates[i] = activity.rate_at(marking)
    return rates


def expected_completions(
    compiled: CompiledSAN,
    activity_name: str,
    t: float,
    method: str = "auto",
) -> float:
    """Expected number of completions of a timed activity over ``[0, t]``.

    The completion counting process has intensity
    ``rate(activity, X_u) * 1{enabled}``, so its expectation is the
    accumulated reward of the per-state completion-rate vector.
    """
    rates = completion_rate_vector(compiled, activity_name)
    return accumulated_reward(compiled.chain, rates, t, method=method)


def time_averaged(
    compiled: CompiledSAN,
    structure: RewardStructure,
    t: float,
) -> float:
    """Expected time-averaged interval-of-time reward over ``[0, t]``."""
    if t <= 0:
        raise RewardSpecificationError(f"interval must be positive, got {t}")
    return interval_of_time(compiled, structure, t) / t


def steady_state(compiled: CompiledSAN, structure: RewardStructure) -> float:
    """Expected instant-of-time reward at steady state.

    Rate rewards contribute ``pi . r``; impulse rewards contribute
    ``value * throughput(activity)`` where throughput is the steady-state
    expected completion rate of the activity.
    """
    pi = steady_state_distribution(compiled.chain)
    total = 0.0
    if structure.rate_rewards:
        total += float(pi @ structure.rate_vector(compiled))
    for impulse in structure.impulse_rewards:
        total += impulse.value * activity_throughput(compiled, impulse.activity, pi)
    return total


def activity_throughput(
    compiled: CompiledSAN,
    activity_name: str,
    pi: np.ndarray | None = None,
) -> float:
    """Steady-state completion rate of a timed activity.

    ``sum_m pi(m) * rate(activity, m)`` over tangible markings enabling
    the activity.
    """
    activity = compiled.model.activity(activity_name)
    if not hasattr(activity, "rate_at"):
        raise RewardSpecificationError(
            f"throughput is defined for timed activities; {activity_name!r} "
            "is instantaneous"
        )
    if pi is None:
        pi = steady_state_distribution(compiled.chain)
    total = 0.0
    for i, marking in enumerate(compiled.graph.markings):
        if pi[i] > 0 and activity.enabled(marking):
            total += pi[i] * activity.rate_at(marking)
    return float(total)


def _reject_impulse(structure: RewardStructure, solution: str) -> None:
    if structure.impulse_rewards:
        raise RewardSpecificationError(
            f"impulse rewards are not supported by the {solution} solution; "
            "use the steady-state solution or the simulator"
        )

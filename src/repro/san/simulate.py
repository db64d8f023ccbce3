"""Discrete-event simulation of SAN models.

The simulator executes SAN semantics directly — exponential races between
enabled timed activities, immediate weighted resolution of instantaneous
activities — without building the state space.  It exists to
cross-validate the numerical reward solutions (and would be the only
solution path for models too large to enumerate).  No CLI verb or
endpoint calls it, yet it stays as a reference: it is the only check of
SAN semantics that bypasses reachability, so a bug in state-space
generation or vanishing elimination cannot hide from it the way it
would from any solver fed the same generator.

Replication-based estimators are provided for the three reward-variable
types used in the paper: instant-of-time, accumulated interval-of-time,
and long-run (steady-state) time-averaged rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.san.errors import SANError
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import RewardStructure

#: Safety cap on events per trajectory to catch livelocks in models.
_MAX_EVENTS_PER_RUN = 10_000_000


@dataclass(frozen=True)
class SimulationEstimate:
    """A replication-based estimate with its sampling error.

    Attributes
    ----------
    mean:
        Sample mean over replications.
    std_error:
        Standard error of the mean.
    replications:
        Number of independent replications used.
    """

    mean: float
    std_error: float
    replications: int

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """A normal-approximation confidence interval (default ~95%)."""
        half = z * self.std_error
        return (self.mean - half, self.mean + half)


class SANSimulator:
    """Trajectory-level simulator for a :class:`~repro.san.model.SANModel`.

    Parameters
    ----------
    model:
        The SAN to simulate.
    seed:
        Seed for the underlying :class:`numpy.random.Generator`.
    """

    def __init__(self, model: SANModel, seed: int | None = None):
        self.model = model
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Single-trajectory execution
    # ------------------------------------------------------------------
    def run_trajectory(self, horizon: float):
        """Simulate one trajectory up to ``horizon``.

        Yields ``(entry_time, marking, dwell_time)`` triples for each
        tangible marking visited; dwell times are truncated at the
        horizon.  Vanishing markings are resolved inline and never
        yielded.
        """
        if horizon < 0:
            raise SANError(f"horizon must be non-negative, got {horizon}")
        clock = 0.0
        marking = self._resolve_vanishing(self.model.initial_marking())
        if horizon == 0.0:
            # Degenerate observation window: the initial tangible marking
            # is occupied at the horizon with zero dwell, so instant-of-
            # time estimators at t=0 see a marking and accumulated
            # estimators accrue nothing.
            yield (0.0, marking, 0.0)
            return
        events = 0
        while clock < horizon:
            events += 1
            if events > _MAX_EVENTS_PER_RUN:
                raise SANError(
                    f"simulation of {self.model.name!r} exceeded "
                    f"{_MAX_EVENTS_PER_RUN} events — livelock suspected"
                )
            enabled = self.model.enabled_timed(marking)
            if not enabled:
                # Absorbing marking: dwell until the horizon.
                yield (clock, marking, horizon - clock)
                return
            rates = np.array([a.rate_at(marking) for a in enabled])
            total_rate = rates.sum()
            dwell = self._rng.exponential(1.0 / total_rate)
            if clock + dwell >= horizon:
                yield (clock, marking, horizon - clock)
                return
            yield (clock, marking, dwell)
            winner = enabled[self._rng.choice(len(enabled), p=rates / total_rate)]
            marking = self._fire(winner, marking)
            marking = self._resolve_vanishing(marking)
            clock += dwell

    def _fire(self, activity, marking: Marking) -> Marking:
        probs = np.array(activity.case_probabilities(marking))
        case_index = int(self._rng.choice(len(probs), p=probs / probs.sum()))
        return activity.complete(marking, case_index)

    def _resolve_vanishing(self, marking: Marking) -> Marking:
        hops = 0
        while self.model.is_vanishing(marking):
            hops += 1
            if hops > 10_000:
                raise SANError(
                    f"model {self.model.name!r}: instantaneous activities "
                    "never reach a tangible marking"
                )
            enabled = self.model.enabled_instantaneous(marking)
            weights = np.array([a.weight_at(marking) for a in enabled])
            winner = enabled[
                self._rng.choice(len(enabled), p=weights / weights.sum())
            ]
            marking = self._fire(winner, marking)
        return marking

    # ------------------------------------------------------------------
    # Reward estimators
    # ------------------------------------------------------------------
    def estimate_instant_of_time(
        self,
        structure: RewardStructure,
        t: float,
        replications: int = 1000,
    ) -> SimulationEstimate:
        """Estimate the expected instant-of-time reward at ``t``."""
        samples = np.empty(replications)
        for rep in range(replications):
            final_marking = None
            for _entry, marking, _dwell in self.run_trajectory(t):
                final_marking = marking
            samples[rep] = _rate_reward(structure, final_marking)
        return _summarise(samples)

    def estimate_accumulated(
        self,
        structure: RewardStructure,
        t: float,
        replications: int = 1000,
    ) -> SimulationEstimate:
        """Estimate the expected reward accumulated over ``[0, t]``."""
        samples = np.empty(replications)
        for rep in range(replications):
            total = 0.0
            for _entry, marking, dwell in self.run_trajectory(t):
                total += _rate_reward(structure, marking) * dwell
            samples[rep] = total
        return _summarise(samples)

    def estimate_steady_state(
        self,
        structure: RewardStructure,
        horizon: float,
        warmup: float = 0.0,
        replications: int = 20,
    ) -> SimulationEstimate:
        """Estimate the long-run time-averaged reward.

        Each replication simulates to ``horizon`` and averages the rate
        reward over ``[warmup, horizon]``.
        """
        if horizon <= warmup:
            raise SANError("horizon must exceed warmup")
        samples = np.empty(replications)
        span = horizon - warmup
        for rep in range(replications):
            total = 0.0
            for entry, marking, dwell in self.run_trajectory(horizon):
                start = max(entry, warmup)
                end = entry + dwell
                if end > start:
                    total += _rate_reward(structure, marking) * (end - start)
            samples[rep] = total / span
        return _summarise(samples)


def _rate_reward(structure: RewardStructure, marking: Marking | None) -> float:
    if marking is None:
        raise SANError("trajectory produced no tangible marking")
    total = 0.0
    for pair in structure.rate_rewards:
        if pair.predicate(marking):
            total += pair.rate
    return total


def _summarise(samples: np.ndarray) -> SimulationEstimate:
    n = len(samples)
    mean = float(samples.mean())
    std_error = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return SimulationEstimate(mean=mean, std_error=std_error, replications=n)

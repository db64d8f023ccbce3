"""Constituent reward variables.

A :class:`ConstituentMeasure` is the atomic unit the translation approach
reduces a performability measure to: a reward structure on one base
model, solved with one of the standard reward-variable solution types
(transient instant-of-time, accumulated interval-of-time, steady-state).

Measures are evaluated against an :class:`EvaluationContext`, which owns
the compiled base models and memoises solutions — in a ``phi`` sweep the
``theta``-horizon measures and the steady-state measures are shared
across all sweep points, which is precisely the economy the paper's
decomposition buys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.san.ctmc_builder import CompiledSAN
from repro.san.rewards import (
    DEFAULT_METHOD,
    RewardStructure,
    instant_of_time,
    interval_of_time,
    steady_state,
)


class SolutionType(enum.Enum):
    """The reward-variable solution kinds used by the paper."""

    INSTANT_OF_TIME = "expected instant-of-time reward at t"
    INTERVAL_OF_TIME = "expected accumulated interval-of-time reward over [0, t]"
    STEADY_STATE = "expected instant-of-time reward at steady state"


class EvaluationContext:
    """Compiled base models plus a memo of solved measures.

    Parameters
    ----------
    models:
        ``{model_key: CompiledSAN}`` — the base models (e.g. ``"RMGd"``,
        ``"RMGp"``, ``"RMNd_new"``, ``"RMNd_old"``).
    parameters:
        Free-form scalar parameters visible to time expressions and
        post-processing functions (e.g. ``phi``, ``theta``).
    """

    def __init__(
        self,
        models: Mapping[str, CompiledSAN],
        parameters: Mapping[str, float] | None = None,
    ):
        self._models = dict(models)
        self.parameters: dict[str, float] = dict(parameters or {})
        self._memo: dict[tuple, float] = {}

    def model(self, key: str) -> CompiledSAN:
        """Look up a compiled base model."""
        try:
            return self._models[key]
        except KeyError:
            raise KeyError(
                f"unknown base model {key!r}; have {sorted(self._models)}"
            ) from None

    def memoised(self, key: tuple, compute: Callable[[], float]) -> float:
        """Return the memoised value for ``key``, computing on first use."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def cache_size(self) -> int:
        """Number of memoised solutions."""
        return len(self._memo)


@dataclass(frozen=True)
class ConstituentMeasure:
    """One solvable constituent reward variable.

    Attributes
    ----------
    name:
        Identifier used in results and by the aggregation function
        (e.g. ``"int_h"`` for ``int_0^phi h(tau) dtau``).
    description:
        Human-readable meaning, quoting the paper where possible.
    model_key:
        Which base model in the :class:`EvaluationContext` to solve on.
    structure:
        The UltraSAN-style reward structure (predicate-rate pairs).
    solution:
        The solution type.
    time:
        For transient solutions, a callable mapping the context
        parameters to the solution time (e.g. ``lambda p: p["phi"]`` or
        ``lambda p: p["theta"] - p["phi"]``).  Ignored for steady state.
    transform:
        Optional post-processing of the raw solved value (e.g. the
        complement ``1 - x`` the paper applies for
        ``int_phi^theta f(x) dx`` and for ``rho`` from the overhead
        measures).
    """

    name: str
    description: str
    model_key: str
    structure: RewardStructure
    solution: SolutionType
    time: Callable[[Mapping[str, float]], float] | None = None
    transform: Callable[[float], float] | None = None

    def evaluate(self, context: EvaluationContext) -> float:
        """Solve this measure in ``context`` (memoised)."""
        compiled = context.model(self.model_key)
        if self.solution is SolutionType.STEADY_STATE:
            key = (self.name, self.model_key, "steady")
            raw = context.memoised(
                key, lambda: steady_state(compiled, self.structure)
            )
        else:
            if self.time is None:
                raise ValueError(
                    f"measure {self.name!r} needs a time expression for "
                    f"solution type {self.solution}"
                )
            t = float(self.time(context.parameters))
            if t < 0:
                raise ValueError(
                    f"measure {self.name!r} resolved to negative time {t}"
                )
            if self.solution is SolutionType.INSTANT_OF_TIME:
                key = (self.name, self.model_key, "instant", t)
                raw = context.memoised(
                    key,
                    lambda: instant_of_time(
                        compiled, self.structure, t, method=DEFAULT_METHOD
                    ),
                )
            else:
                key = (self.name, self.model_key, "interval", t)
                raw = context.memoised(
                    key,
                    lambda: interval_of_time(
                        compiled, self.structure, t, method=DEFAULT_METHOD
                    ),
                )
        return self.transform(raw) if self.transform else raw

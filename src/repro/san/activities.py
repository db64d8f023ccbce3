"""SAN activities: timed, instantaneous, and their cases.

A SAN activity completes after an exponentially distributed delay (timed)
or immediately (instantaneous).  Completion selects one of the activity's
**cases** according to a (possibly marking-dependent) discrete
distribution; each case has its own output arcs and output gates.

The paper uses cases extensively, e.g. the external-message activities of
``RMGd`` branch into "message passes the acceptance test" and "erroneous
message escapes detection" cases with probabilities derived from the AT
coverage ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.san.errors import ModelStructureError
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import Marking

#: A marking-dependent nonnegative number: constant or callable(marking).
MarkingDependent = float | Callable[[Marking], float]

#: Tolerance for case-probability normalisation checks.
_PROB_ATOL = 1e-9


def evaluate_marking_dependent(value: MarkingDependent, marking: Marking) -> float:
    """Evaluate a constant-or-callable quantity at ``marking``."""
    result = value(marking) if callable(value) else value
    return float(result)


@dataclass(frozen=True)
class Case:
    """One completion case of an activity.

    Attributes
    ----------
    probability:
        Case-selection probability — a constant or a marking-dependent
        callable.  Probabilities of an activity's cases must sum to 1 in
        every marking where the activity is enabled.
    output_arcs:
        ``(place_name, tokens)`` pairs: tokens added on completion.
    output_gates:
        Output gates fired (in order) on completion, after output arcs.
    label:
        Optional human-readable tag used in traces and DOT exports.
    """

    probability: MarkingDependent = 1.0
    output_arcs: tuple[tuple[str, int], ...] = ()
    output_gates: tuple[OutputGate, ...] = ()
    label: str = ""

    def __post_init__(self):
        for place, tokens in self.output_arcs:
            if tokens < 1:
                raise ModelStructureError(
                    f"output arc to {place!r} must add at least one token"
                )

    def apply(self, marking: Marking) -> Marking:
        """Apply this case's output arcs then output gates to ``marking``."""
        result = marking
        for place, tokens in self.output_arcs:
            result = result.add(place, tokens)
        for gate in self.output_gates:
            result = gate.fire(result)
        return result


class _ActivityBase:
    """Shared behaviour of timed and instantaneous activities."""

    def __init__(
        self,
        name: str,
        cases: Sequence[Case] | None = None,
        input_arcs: Sequence[tuple[str, int]] = (),
        input_gates: Sequence[InputGate] = (),
    ):
        if not name or not name.isidentifier():
            raise ModelStructureError(f"invalid activity name {name!r}")
        self.name = name
        self.cases: tuple[Case, ...] = tuple(cases) if cases else (Case(),)
        if not self.cases:
            raise ModelStructureError(f"activity {name!r} needs at least one case")
        self.input_arcs: tuple[tuple[str, int], ...] = tuple(input_arcs)
        for place, tokens in self.input_arcs:
            if tokens < 1:
                raise ModelStructureError(
                    f"input arc from {place!r} must consume at least one token"
                )
        self.input_gates: tuple[InputGate, ...] = tuple(input_gates)

    # ------------------------------------------------------------------
    def enabled(self, marking: Marking) -> bool:
        """True when all input arcs are satisfiable and gates hold."""
        for place, tokens in self.input_arcs:
            if marking[place] < tokens:
                return False
        return all(gate.enabled(marking) for gate in self.input_gates)

    def case_probabilities(self, marking: Marking) -> list[float]:
        """Evaluate and validate the case distribution at ``marking``."""
        probs = [
            evaluate_marking_dependent(case.probability, marking)
            for case in self.cases
        ]
        for p in probs:
            if p < -_PROB_ATOL or p > 1.0 + _PROB_ATOL:
                raise ModelStructureError(
                    f"activity {self.name!r}: case probability {p:g} outside [0, 1]"
                )
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise ModelStructureError(
                f"activity {self.name!r}: case probabilities sum to {total:g}, "
                "expected 1"
            )
        return [max(0.0, min(1.0, p)) for p in probs]

    def complete(self, marking: Marking, case_index: int) -> Marking:
        """The marking reached by completing via ``cases[case_index]``.

        Completion order follows SAN semantics: input arcs consume
        tokens, input gate functions run, then the chosen case's output
        arcs and output gates run.
        """
        result = marking
        for place, tokens in self.input_arcs:
            result = result.add(place, -tokens)
        for gate in self.input_gates:
            result = gate.fire(result)
        return self.cases[case_index].apply(result)

    def successors(self, marking: Marking) -> list[tuple[float, Marking]]:
        """All ``(case probability, next marking)`` pairs from ``marking``."""
        probs = self.case_probabilities(marking)
        out: list[tuple[float, Marking]] = []
        for idx, p in enumerate(probs):
            if p > 0.0:
                out.append((p, self.complete(marking, idx)))
        return out

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}({self.name!r}, cases={len(self.cases)})"


class TimedActivity(_ActivityBase):
    """An exponentially timed activity.

    Parameters
    ----------
    name:
        Unique activity name.
    rate:
        Exponential completion rate — constant or marking-dependent
        callable.  Must be strictly positive wherever the activity is
        enabled.
    cases, input_arcs, input_gates:
        See :class:`Case`, :class:`_ActivityBase`.
    """

    def __init__(
        self,
        name: str,
        rate: MarkingDependent,
        cases: Sequence[Case] | None = None,
        input_arcs: Sequence[tuple[str, int]] = (),
        input_gates: Sequence[InputGate] = (),
    ):
        super().__init__(name, cases, input_arcs, input_gates)
        self.rate = rate

    def rate_at(self, marking: Marking) -> float:
        """The completion rate in ``marking`` (validated positive)."""
        value = evaluate_marking_dependent(self.rate, marking)
        if value <= 0.0:
            raise ModelStructureError(
                f"timed activity {self.name!r} has non-positive rate {value:g} "
                f"in marking {marking.short_label()}"
            )
        return value


class InstantaneousActivity(_ActivityBase):
    """An activity that completes immediately when enabled.

    ``weight`` resolves races between simultaneously enabled
    instantaneous activities: each fires with probability proportional to
    its weight, matching the probabilistic resolution used by UltraSAN.
    """

    def __init__(
        self,
        name: str,
        cases: Sequence[Case] | None = None,
        input_arcs: Sequence[tuple[str, int]] = (),
        input_gates: Sequence[InputGate] = (),
        weight: MarkingDependent = 1.0,
    ):
        super().__init__(name, cases, input_arcs, input_gates)
        self.weight = weight

    def weight_at(self, marking: Marking) -> float:
        """The race weight in ``marking`` (validated positive)."""
        value = evaluate_marking_dependent(self.weight, marking)
        if value <= 0.0:
            raise ModelStructureError(
                f"instantaneous activity {self.name!r} has non-positive "
                f"weight {value:g}"
            )
        return value

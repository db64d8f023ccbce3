"""SAN input and output gates.

Gates are the expressive core of the SAN formalism [Meyer, Movaghar,
Sanders 1985]:

* An **input gate** couples an enabling *predicate* over the marking with
  an input *function* applied when its activity completes.
* An **output gate** applies a marking *function* when the case it is
  attached to is chosen.

The paper leans heavily on marking-dependent gate functions — e.g. the
``P1Nok_ext`` / ``P2ok_ext`` output gates of ``RMGd`` reset the
``dirty_bit`` place while leaving actual contamination places untouched,
compactly encoding three distinct behavioural scenarios (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.san.errors import ModelStructureError
from repro.san.marking import Marking

#: Signature of a gate predicate: marking -> bool.
Predicate = Callable[[Marking], bool]
#: Signature of a gate function: marking -> marking.
MarkingFunction = Callable[[Marking], Marking]


def identity_function(marking: Marking) -> Marking:
    """The no-op marking function (default for gates that only test)."""
    return marking


def always_true(marking: Marking) -> bool:
    """The trivially-true predicate (default for gates that only write)."""
    return True


@dataclass(frozen=True)
class InputGate:
    """An input gate: enabling predicate plus completion function.

    Attributes
    ----------
    name:
        Unique gate name within the model.
    predicate:
        Enabling predicate over the marking.  The owning activity is
        enabled only if every attached input gate's predicate holds.
    function:
        Marking transformation applied (before output gates) when the
        owning activity completes.
    """

    name: str
    predicate: Predicate
    function: MarkingFunction = identity_function

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise ModelStructureError(f"invalid input gate name {self.name!r}")
        if not callable(self.predicate):
            raise ModelStructureError(
                f"input gate {self.name!r} predicate must be callable"
            )
        if not callable(self.function):
            raise ModelStructureError(
                f"input gate {self.name!r} function must be callable"
            )

    def enabled(self, marking: Marking) -> bool:
        """Evaluate the enabling predicate on ``marking``."""
        return bool(self.predicate(marking))

    def fire(self, marking: Marking) -> Marking:
        """Apply the input function to ``marking``."""
        result = self.function(marking)
        if not isinstance(result, Marking):
            raise ModelStructureError(
                f"input gate {self.name!r} function must return a Marking, "
                f"got {type(result).__name__}"
            )
        return result


@dataclass(frozen=True)
class OutputGate:
    """An output gate: a marking function applied on case completion."""

    name: str
    function: MarkingFunction

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise ModelStructureError(f"invalid output gate name {self.name!r}")
        if not callable(self.function):
            raise ModelStructureError(
                f"output gate {self.name!r} function must be callable"
            )

    def fire(self, marking: Marking) -> Marking:
        """Apply the output function to ``marking``."""
        result = self.function(marking)
        if not isinstance(result, Marking):
            raise ModelStructureError(
                f"output gate {self.name!r} function must return a Marking, "
                f"got {type(result).__name__}"
            )
        return result


def predicate_gate(name: str, predicate: Predicate) -> InputGate:
    """An input gate that only tests (identity input function)."""
    return InputGate(name=name, predicate=predicate)


def set_places(name: str, **values: int) -> OutputGate:
    """An output gate that assigns fixed token counts to named places.

    Example: ``set_places("og_fail", failure=1, detected=0)``.
    """

    def function(marking: Marking) -> Marking:
        return marking.update(values)

    return OutputGate(name=name, function=function)

"""The successive model-translation pipeline.

The pipeline formalises Figure 3 of the paper: a chain of
:class:`TranslationStage` records documenting how the design-oriented
measure is progressively rewritten, terminating in a set of
:class:`~repro.core.constituent.ConstituentMeasure` leaves plus an
aggregation function that reassembles the final measure from the solved
constituents.

The stages are not decorative — :meth:`TranslationPipeline.validate`
checks that every constituent referenced by a stage exists and that the
aggregation function consumes exactly the declared leaves, and
:meth:`TranslationPipeline.to_dot` renders the translation diagram for
documentation (the reproduction's analogue of the paper's Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.constituent import ConstituentMeasure, EvaluationContext


@dataclass(frozen=True)
class TranslationStage:
    """One documented translation step.

    Attributes
    ----------
    name:
        Short identifier (e.g. ``"sample-path-decomposition"``).
    description:
        What the step does, in the paper's terms.
    inputs:
        Names of expressions consumed (from earlier stages).
    outputs:
        Names of expressions produced (consumed by later stages or
        resolved as constituent measures).
    equation:
        Reference to the paper equation(s) the step realises.
    """

    name: str
    description: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    equation: str = ""


@dataclass
class TranslationResult:
    """The outcome of evaluating a translation pipeline.

    Attributes
    ----------
    value:
        The aggregated final measure.
    constituents:
        ``{measure name: solved value}`` for every constituent.
    parameters:
        The context parameters the evaluation used.
    """

    value: float
    constituents: dict[str, float]
    parameters: dict[str, float]

    def __getitem__(self, name: str) -> float:
        return self.constituents[name]


class TranslationPipeline:
    """A complete design-to-evaluation model translation.

    Parameters
    ----------
    name:
        Pipeline name (e.g. ``"performability-index-Y"``).
    stages:
        The ordered translation stages (documentation + validation).
    measures:
        The constituent measures the translation bottoms out in.
    aggregate:
        ``aggregate(constituent_values, parameters) -> float`` — the
        final reassembly (the paper's Equations 1, 5, 8, 15, 16, 21).
    """

    def __init__(
        self,
        name: str,
        stages: Sequence[TranslationStage],
        measures: Sequence[ConstituentMeasure],
        aggregate: Callable[[Mapping[str, float], Mapping[str, float]], float],
    ):
        self.name = name
        self.stages = tuple(stages)
        self.measures = tuple(measures)
        self.aggregate = aggregate
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check stage wiring and measure-name uniqueness."""
        names = [m.name for m in self.measures]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate constituent measure names in {names}")
        produced: set[str] = set()
        for stage in self.stages:
            for inp in stage.inputs:
                if stage is not self.stages[0] and not any(
                    inp in s.outputs for s in self.stages
                ) and inp not in produced:
                    raise ValueError(
                        f"stage {stage.name!r} consumes {inp!r} which no "
                        "stage produces"
                    )
            produced.update(stage.outputs)
        # Every constituent must be an output of some stage (i.e. the
        # translation actually derived it) unless there are no stages.
        if self.stages:
            for measure in self.measures:
                if measure.name not in produced:
                    raise ValueError(
                        f"constituent {measure.name!r} is not produced by "
                        "any translation stage"
                    )

    # ------------------------------------------------------------------
    def evaluate(self, context: EvaluationContext) -> TranslationResult:
        """Solve every constituent measure and aggregate."""
        constituents = {m.name: m.evaluate(context) for m in self.measures}
        value = float(self.aggregate(constituents, context.parameters))
        return TranslationResult(
            value=value,
            constituents=constituents,
            parameters=dict(context.parameters),
        )

    def constituent(self, name: str) -> ConstituentMeasure:
        """Look up one constituent measure by name."""
        for measure in self.measures:
            if measure.name == name:
                return measure
        raise KeyError(f"pipeline {self.name!r} has no constituent {name!r}")

    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """Render the translation diagram (the analogue of Figure 3)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for stage in self.stages:
            lines.append(
                f'  "{stage.name}" [shape=box, label="{stage.name}\\n{stage.equation}"];'
            )
            for inp in stage.inputs:
                lines.append(f'  "{inp}" -> "{stage.name}";')
            for out in stage.outputs:
                lines.append(f'  "{stage.name}" -> "{out}";')
        for measure in self.measures:
            lines.append(
                f'  "{measure.name}" [shape=ellipse, style=filled, '
                f'fillcolor=lightblue, label="{measure.name}\\n({measure.model_key})"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """A plain-text summary of stages and constituent measures."""
        out = [f"Translation pipeline: {self.name}", ""]
        out.append("Stages:")
        for i, stage in enumerate(self.stages, 1):
            eq = f" [{stage.equation}]" if stage.equation else ""
            out.append(f"  {i}. {stage.name}{eq}: {stage.description}")
        out.append("")
        out.append("Constituent measures:")
        for measure in self.measures:
            out.append(
                f"  - {measure.name} on {measure.model_key} "
                f"({measure.solution.value}): {measure.description}"
            )
        return "\n".join(out)

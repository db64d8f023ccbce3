"""Tests for the model-translation framework (constituents, pipeline,
performability index)."""

import math

import pytest

from repro.core.constituent import (
    ConstituentMeasure,
    EvaluationContext,
    SolutionType,
)
from repro.core.index import PerformabilityIndex, WorthModel
from repro.core.translation import TranslationPipeline, TranslationStage
from repro.san.ctmc_builder import build_ctmc
from repro.san.rewards import RewardStructure


@pytest.fixture
def compiled_failure(absorbing_san):
    return build_ctmc(absorbing_san)


@pytest.fixture
def alive_structure():
    return RewardStructure.from_pairs(
        "alive", [(lambda m: m["failed"] == 0, 1.0)]
    )


class TestEvaluationContext:
    def test_model_lookup(self, compiled_failure):
        ctx = EvaluationContext({"M": compiled_failure})
        assert ctx.model("M") is compiled_failure
        with pytest.raises(KeyError):
            ctx.model("unknown")

    def test_memoisation(self, compiled_failure):
        ctx = EvaluationContext({"M": compiled_failure})
        calls = []

        def compute():
            calls.append(1)
            return 42.0

        assert ctx.memoised(("k",), compute) == 42.0
        assert ctx.memoised(("k",), compute) == 42.0
        assert len(calls) == 1
        assert ctx.cache_size == 1


class TestConstituentMeasure:
    def _measure(self, structure, **kwargs) -> ConstituentMeasure:
        defaults = dict(
            name="survival",
            description="P(no failure by t)",
            model_key="M",
            structure=structure,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["t"],
        )
        defaults.update(kwargs)
        return ConstituentMeasure(**defaults)

    def test_instant_solution(self, compiled_failure, alive_structure):
        ctx = EvaluationContext({"M": compiled_failure}, {"t": 5.0})
        measure = self._measure(alive_structure)
        assert measure.evaluate(ctx) == pytest.approx(
            math.exp(-0.5), rel=1e-7
        )

    def test_interval_solution(self, compiled_failure, alive_structure):
        ctx = EvaluationContext({"M": compiled_failure}, {"t": 5.0})
        measure = self._measure(
            alive_structure, solution=SolutionType.INTERVAL_OF_TIME
        )
        expected = (1 - math.exp(-0.5)) / 0.1
        assert measure.evaluate(ctx) == pytest.approx(expected, rel=1e-7)

    def test_transform_applied(self, compiled_failure, alive_structure):
        ctx = EvaluationContext({"M": compiled_failure}, {"t": 5.0})
        measure = self._measure(alive_structure, transform=lambda x: 1.0 - x)
        assert measure.evaluate(ctx) == pytest.approx(
            1 - math.exp(-0.5), rel=1e-7
        )

    def test_missing_time_expression_rejected(
        self, compiled_failure, alive_structure
    ):
        measure = self._measure(alive_structure, time=None)
        ctx = EvaluationContext({"M": compiled_failure}, {"t": 5.0})
        with pytest.raises(ValueError, match="time expression"):
            measure.evaluate(ctx)

    def test_negative_time_rejected(self, compiled_failure, alive_structure):
        measure = self._measure(alive_structure)
        ctx = EvaluationContext({"M": compiled_failure}, {"t": -1.0})
        with pytest.raises(ValueError, match="negative time"):
            measure.evaluate(ctx)

    def test_steady_state_solution(self, simple_san):
        compiled = build_ctmc(simple_san)
        structure = RewardStructure.from_pairs(
            "in_a", [(lambda m: m["a"] == 1, 1.0)]
        )
        measure = ConstituentMeasure(
            name="occupancy",
            description="steady-state P(a)",
            model_key="M",
            structure=structure,
            solution=SolutionType.STEADY_STATE,
        )
        ctx = EvaluationContext({"M": compiled})
        assert measure.evaluate(ctx) == pytest.approx(2.0 / 3.0)


class TestTranslationPipeline:
    def _pipeline(self, compiled, structure):
        stages = (
            TranslationStage(
                name="definition",
                description="define the measure",
                inputs=("Y",),
                outputs=("survival",),
                equation="Eq. (1)",
            ),
        )
        measure = ConstituentMeasure(
            name="survival",
            description="P(alive at t)",
            model_key="M",
            structure=structure,
            solution=SolutionType.INSTANT_OF_TIME,
            time=lambda p: p["t"],
        )
        return TranslationPipeline(
            name="test-pipeline",
            stages=stages,
            measures=(measure,),
            aggregate=lambda values, params: 2.0 * values["survival"],
        )

    def test_evaluate(self, compiled_failure, alive_structure):
        pipeline = self._pipeline(compiled_failure, alive_structure)
        ctx = EvaluationContext({"M": compiled_failure}, {"t": 5.0})
        result = pipeline.evaluate(ctx)
        assert result.value == pytest.approx(2 * math.exp(-0.5), rel=1e-7)
        assert result["survival"] == pytest.approx(math.exp(-0.5), rel=1e-7)
        assert result.parameters == {"t": 5.0}

    def test_duplicate_measure_names_rejected(
        self, compiled_failure, alive_structure
    ):
        measure = ConstituentMeasure(
            name="m",
            description="",
            model_key="M",
            structure=alive_structure,
            solution=SolutionType.STEADY_STATE,
        )
        with pytest.raises(ValueError, match="duplicate"):
            TranslationPipeline(
                name="dup", stages=(), measures=(measure, measure),
                aggregate=lambda v, p: 0.0,
            )

    def test_unproduced_constituent_rejected(
        self, compiled_failure, alive_structure
    ):
        stage = TranslationStage(
            name="s", description="", inputs=("Y",), outputs=("other",)
        )
        measure = ConstituentMeasure(
            name="m",
            description="",
            model_key="M",
            structure=alive_structure,
            solution=SolutionType.STEADY_STATE,
        )
        with pytest.raises(ValueError, match="not produced"):
            TranslationPipeline(
                name="bad", stages=(stage,), measures=(measure,),
                aggregate=lambda v, p: 0.0,
            )

    def test_dangling_stage_input_rejected(self, alive_structure):
        stages = (
            TranslationStage(name="s1", description="", inputs=("Y",),
                             outputs=("a",)),
            TranslationStage(name="s2", description="", inputs=("ghost",),
                             outputs=("b",)),
        )
        with pytest.raises(ValueError, match="consumes"):
            TranslationPipeline(
                name="bad", stages=stages, measures=(),
                aggregate=lambda v, p: 0.0,
            )

    def test_constituent_lookup(self, compiled_failure, alive_structure):
        pipeline = self._pipeline(compiled_failure, alive_structure)
        assert pipeline.constituent("survival").model_key == "M"
        with pytest.raises(KeyError):
            pipeline.constituent("ghost")

    def test_to_dot_and_describe(self, compiled_failure, alive_structure):
        pipeline = self._pipeline(compiled_failure, alive_structure)
        dot = pipeline.to_dot()
        assert "survival" in dot and "digraph" in dot
        text = pipeline.describe()
        assert "definition" in text and "survival" in text


class TestPerformabilityIndex:
    def test_basic_ratio(self):
        worth = WorthModel(ideal=100.0, unguarded=40.0, guarded=60.0)
        index = PerformabilityIndex(worth)
        assert index.value == pytest.approx(60.0 / 40.0)
        assert index.beneficial
        assert index.degradation_reduction == pytest.approx(20.0)

    def test_not_beneficial(self):
        index = PerformabilityIndex(
            WorthModel(ideal=100.0, unguarded=60.0, guarded=50.0)
        )
        assert index.value < 1.0
        assert not index.beneficial

    def test_infinite_when_no_guarded_degradation(self):
        index = PerformabilityIndex(
            WorthModel(ideal=100.0, unguarded=40.0, guarded=100.0)
        )
        assert math.isinf(index.value)

    def test_float_and_str(self):
        index = PerformabilityIndex(
            WorthModel(ideal=100.0, unguarded=40.0, guarded=60.0)
        )
        assert float(index) == pytest.approx(1.5)
        assert "beneficial" in str(index)

    def test_worth_validation(self):
        with pytest.raises(ValueError):
            WorthModel(ideal=10.0, unguarded=20.0, guarded=5.0)
        with pytest.raises(ValueError):
            WorthModel(ideal=math.nan, unguarded=1.0, guarded=1.0)

    def test_degradations(self):
        worth = WorthModel(ideal=100.0, unguarded=40.0, guarded=60.0)
        assert worth.unguarded_degradation == 60.0
        assert worth.guarded_degradation == 40.0

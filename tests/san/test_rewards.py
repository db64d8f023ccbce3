"""Tests for reward structures and reward-variable solutions."""

import pytest

from repro.san.activities import Case, TimedActivity
from repro.san.ctmc_builder import build_ctmc
from repro.san.errors import RewardSpecificationError
from repro.san.gates import InputGate
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.rewards import (
    ImpulseReward,
    PredicateRatePair,
    RewardStructure,
    activity_throughput,
    instant_of_time,
    interval_of_time,
    steady_state,
    time_averaged,
)


@pytest.fixture
def compiled_cycle(simple_san):
    return build_ctmc(simple_san)


@pytest.fixture
def in_a() -> RewardStructure:
    return RewardStructure.from_pairs("in_a", [(lambda m: m["a"] == 1, 1.0)])


class TestStructureValidation:
    def test_empty_structure_rejected(self):
        with pytest.raises(RewardSpecificationError):
            RewardStructure(name="empty")

    def test_unnamed_structure_rejected(self):
        with pytest.raises(RewardSpecificationError):
            RewardStructure(
                name="",
                rate_rewards=(PredicateRatePair(lambda m: True, 1.0),),
            )

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(RewardSpecificationError):
            PredicateRatePair(lambda m: True, float("nan"))

    def test_noncallable_predicate_rejected(self):
        with pytest.raises(RewardSpecificationError):
            PredicateRatePair("MARK(x)==1", 1.0)

    def test_nonfinite_impulse_rejected(self):
        with pytest.raises(RewardSpecificationError):
            ImpulseReward("act", float("inf"))

    def test_rate_vector(self, compiled_cycle, in_a):
        vec = in_a.rate_vector(compiled_cycle)
        assert vec.sum() == 1.0


class TestSolutions:
    def test_steady_state_cycle(self, compiled_cycle, in_a):
        assert steady_state(compiled_cycle, in_a) == pytest.approx(2.0 / 3.0)

    def test_instant_of_time_at_zero(self, compiled_cycle, in_a):
        assert instant_of_time(compiled_cycle, in_a, 0.0) == pytest.approx(1.0)

    def test_instant_converges_to_steady(self, compiled_cycle, in_a):
        value = instant_of_time(compiled_cycle, in_a, 100.0)
        assert value == pytest.approx(2.0 / 3.0, rel=1e-6)

    def test_interval_of_time_additivity(self, compiled_cycle, in_a):
        # Accumulated reward from 0..t grows monotonically for the
        # indicator structure; at long t slope approaches steady value.
        short = interval_of_time(compiled_cycle, in_a, 10.0)
        long = interval_of_time(compiled_cycle, in_a, 20.0)
        assert long > short
        assert (long - short) / 10.0 == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_time_averaged(self, compiled_cycle, in_a):
        avg = time_averaged(compiled_cycle, in_a, 50.0)
        total = interval_of_time(compiled_cycle, in_a, 50.0)
        assert avg == pytest.approx(total / 50.0)

    def test_time_averaged_rejects_zero_interval(self, compiled_cycle, in_a):
        with pytest.raises(RewardSpecificationError):
            time_averaged(compiled_cycle, in_a, 0.0)

    def test_impulse_rejected_in_instant_of_time(self, compiled_cycle):
        structure = RewardStructure(
            name="imp", impulse_rewards=(ImpulseReward("forward", 1.0),)
        )
        with pytest.raises(RewardSpecificationError):
            instant_of_time(compiled_cycle, structure, 1.0)

    def test_impulse_supported_in_interval_of_time(self, compiled_cycle):
        from repro.san.rewards import expected_completions

        structure = RewardStructure(
            name="imp", impulse_rewards=(ImpulseReward("forward", 2.0),)
        )
        t = 30.0
        expected = 2.0 * expected_completions(compiled_cycle, "forward", t)
        assert interval_of_time(
            compiled_cycle, structure, t
        ) == pytest.approx(expected)

    def test_expected_completions_long_run_matches_throughput(
        self, compiled_cycle
    ):
        from repro.san.rewards import expected_completions

        t = 500.0
        completions = expected_completions(compiled_cycle, "forward", t)
        # Long-run completion count ~ throughput * t (2/3 per unit time).
        assert completions / t == pytest.approx(2.0 / 3.0, rel=1e-2)

    def test_completion_rate_vector(self, compiled_cycle):
        from repro.san.rewards import completion_rate_vector

        vec = completion_rate_vector(compiled_cycle, "forward")
        assert sorted(vec) == [0.0, 1.0]

    def test_completion_counting_rejects_instantaneous(self):
        from repro.san.activities import InstantaneousActivity
        from repro.san.rewards import expected_completions

        places = [Place("a", initial=1), Place("b")]
        t = TimedActivity("t", rate=1.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("b", 1),))])
        i = InstantaneousActivity("i", input_arcs=[("b", 1)],
                                  cases=[Case(output_arcs=(("a", 1),))])
        compiled = build_ctmc(SANModel("m", places, [t], [i]))
        with pytest.raises(RewardSpecificationError):
            expected_completions(compiled, "i", 1.0)


class TestImpulseAndThroughput:
    def test_throughput_of_cycle_activity(self, compiled_cycle):
        # Steady state: pi_a = 2/3; forward fires at rate 1 when in a.
        assert activity_throughput(compiled_cycle, "forward") == pytest.approx(
            2.0 / 3.0
        )
        # Flow balance: both activities have equal throughput.
        assert activity_throughput(compiled_cycle, "backward") == pytest.approx(
            activity_throughput(compiled_cycle, "forward")
        )

    def test_steady_state_with_impulse(self, compiled_cycle):
        structure = RewardStructure(
            name="mixed",
            rate_rewards=(PredicateRatePair(lambda m: m["a"] == 1, 1.0),),
            impulse_rewards=(ImpulseReward("forward", 3.0),),
        )
        expected = 2.0 / 3.0 + 3.0 * (2.0 / 3.0)
        assert steady_state(compiled_cycle, structure) == pytest.approx(expected)

    def test_throughput_of_instantaneous_rejected(self):
        from repro.san.activities import InstantaneousActivity

        places = [Place("a", initial=1), Place("b")]
        t = TimedActivity("t", rate=1.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("b", 1),))])
        i = InstantaneousActivity("i", input_arcs=[("b", 1)],
                                  cases=[Case(output_arcs=(("a", 1),))])
        compiled = build_ctmc(SANModel("m", places, [t], [i]))
        with pytest.raises(RewardSpecificationError):
            activity_throughput(compiled, "i")

    def test_marking_dependent_rate_throughput(self):
        places = [Place("jobs", initial=3, capacity=3)]
        serve = TimedActivity(
            "serve",
            rate=lambda m: 2.0 * m["jobs"],
            input_arcs=[("jobs", 1)],
        )
        refill = TimedActivity(
            "refill", rate=5.0,
            input_gates=[InputGate("ig", predicate=lambda m: m["jobs"] < 3)],
            cases=[Case(output_arcs=(("jobs", 1),))],
        )
        compiled = build_ctmc(SANModel("md", places, [serve, refill]))
        # Flow balance at steady state: serve and refill throughputs equal.
        assert activity_throughput(compiled, "serve") == pytest.approx(
            activity_throughput(compiled, "refill"), rel=1e-9
        )

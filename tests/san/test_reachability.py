"""Tests for reachability-graph generation and vanishing elimination."""

import pytest

from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.errors import StateSpaceError
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.reachability import explore


class TestTangibleExploration:
    def test_cycle_model(self, simple_san):
        graph = explore(simple_san)
        assert graph.num_states == 2
        assert graph.num_vanishing == 0
        idx_a = graph.index_of(Marking(a=1, b=0))
        idx_b = graph.index_of(Marking(a=0, b=1))
        assert graph.rates[(idx_a, idx_b)] == pytest.approx(1.0)
        assert graph.rates[(idx_b, idx_a)] == pytest.approx(2.0)

    def test_absorbing_model(self, absorbing_san):
        graph = explore(absorbing_san)
        assert graph.num_states == 2
        failed = graph.index_of(Marking(working=0, failed=1))
        assert graph.total_exit_rate(failed) == 0.0

    def test_initial_distribution_on_tangible_initial(self, simple_san):
        graph = explore(simple_san)
        idx = graph.index_of(simple_san.initial_marking())
        assert graph.initial_distribution[idx] == 1.0

    def test_case_split_rates(self):
        # One activity, two cases 0.3/0.7 -> rates split accordingly.
        places = [Place("src", initial=1), Place("x"), Place("y")]
        act = TimedActivity(
            "t", rate=10.0, input_arcs=[("src", 1)],
            cases=[
                Case(probability=0.3, output_arcs=(("x", 1),)),
                Case(probability=0.7, output_arcs=(("y", 1),)),
            ],
        )
        graph = explore(SANModel("split", places, [act]))
        src = graph.index_of(Marking(src=1, x=0, y=0))
        x = graph.index_of(Marking(src=0, x=1, y=0))
        y = graph.index_of(Marking(src=0, x=0, y=1))
        assert graph.rates[(src, x)] == pytest.approx(3.0)
        assert graph.rates[(src, y)] == pytest.approx(7.0)

    def test_parallel_activities_accumulate(self):
        places = [Place("a", initial=1), Place("b")]
        acts = [
            TimedActivity("t1", rate=1.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("b", 1),))]),
            TimedActivity("t2", rate=2.5, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("b", 1),))]),
        ]
        graph = explore(SANModel("par", places, acts))
        a = graph.index_of(Marking(a=1, b=0))
        b = graph.index_of(Marking(a=0, b=1))
        assert graph.rates[(a, b)] == pytest.approx(3.5)

    def test_capacity_violation_raises(self):
        places = [Place("p", initial=1, capacity=1)]
        grow = TimedActivity("grow", rate=1.0, cases=[Case(output_arcs=(("p", 1),))])
        with pytest.raises(StateSpaceError):
            explore(SANModel("over", places, [grow]))

    def test_exploration_limit(self):
        places = [Place("p")]
        grow = TimedActivity("grow", rate=1.0, cases=[Case(output_arcs=(("p", 1),))])
        with pytest.raises(StateSpaceError, match="exceeds"):
            explore(SANModel("unbounded", places, [grow]), max_markings=50)


class TestVanishingElimination:
    def test_simple_pass_through(self):
        # timed puts a token in mid (vanishing), instantaneous moves it on.
        places = [Place("a", initial=1), Place("mid"), Place("b")]
        t = TimedActivity("t", rate=2.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("mid", 1),))])
        i = InstantaneousActivity("i", input_arcs=[("mid", 1)],
                                  cases=[Case(output_arcs=(("b", 1),))])
        graph = explore(SANModel("vanish", places, [t], [i]))
        assert graph.num_vanishing == 1
        assert graph.num_states == 2
        a = graph.index_of(Marking(a=1, mid=0, b=0))
        b = graph.index_of(Marking(a=0, mid=0, b=1))
        assert graph.rates[(a, b)] == pytest.approx(2.0)

    def test_probabilistic_split(self):
        places = [Place("a", initial=1), Place("mid"), Place("x"), Place("y")]
        t = TimedActivity("t", rate=4.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("mid", 1),))])
        i = InstantaneousActivity(
            "i", input_arcs=[("mid", 1)],
            cases=[
                Case(probability=0.25, output_arcs=(("x", 1),)),
                Case(probability=0.75, output_arcs=(("y", 1),)),
            ],
        )
        graph = explore(SANModel("vsplit", places, [t], [i]))
        a = graph.index_of(Marking(a=1, mid=0, x=0, y=0))
        x = graph.index_of(Marking(a=0, mid=0, x=1, y=0))
        y = graph.index_of(Marking(a=0, mid=0, x=0, y=1))
        assert graph.rates[(a, x)] == pytest.approx(1.0)
        assert graph.rates[(a, y)] == pytest.approx(3.0)

    def test_weighted_race_between_instantaneous(self):
        places = [Place("mid", initial=1), Place("x"), Place("y")]
        i1 = InstantaneousActivity("i1", input_arcs=[("mid", 1)], weight=1.0,
                                   cases=[Case(output_arcs=(("x", 1),))])
        i2 = InstantaneousActivity("i2", input_arcs=[("mid", 1)], weight=3.0,
                                   cases=[Case(output_arcs=(("y", 1),))])
        # Initial marking is vanishing: initial distribution is split.
        graph = explore(SANModel("race", places, [], [i1, i2]))
        x = graph.index_of(Marking(mid=0, x=1, y=0))
        y = graph.index_of(Marking(mid=0, x=0, y=1))
        assert graph.initial_distribution[x] == pytest.approx(0.25)
        assert graph.initial_distribution[y] == pytest.approx(0.75)

    def test_vanishing_chain(self):
        # Two vanishing hops before the tangible target.
        places = [Place("a", initial=1), Place("v1"), Place("v2"), Place("b")]
        t = TimedActivity("t", rate=1.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("v1", 1),))])
        i1 = InstantaneousActivity("i1", input_arcs=[("v1", 1)],
                                   cases=[Case(output_arcs=(("v2", 1),))])
        i2 = InstantaneousActivity("i2", input_arcs=[("v2", 1)],
                                   cases=[Case(output_arcs=(("b", 1),))])
        graph = explore(SANModel("chain", places, [t], [i1, i2]))
        assert graph.num_vanishing == 2
        a = graph.index_of(Marking(a=1, v1=0, v2=0, b=0))
        b = graph.index_of(Marking(a=0, v1=0, v2=0, b=1))
        assert graph.rates[(a, b)] == pytest.approx(1.0)

    def test_vanishing_loop_with_exit_resolves(self):
        # v1 -> v2 (p=0.5) / exit x (p=0.5); v2 -> v1: geometric loop.
        places = [Place("a", initial=1), Place("v1"), Place("v2"), Place("x")]
        t = TimedActivity("t", rate=1.0, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("v1", 1),))])
        i1 = InstantaneousActivity(
            "i1", input_arcs=[("v1", 1)],
            cases=[
                Case(probability=0.5, output_arcs=(("v2", 1),)),
                Case(probability=0.5, output_arcs=(("x", 1),)),
            ],
        )
        i2 = InstantaneousActivity("i2", input_arcs=[("v2", 1)],
                                   cases=[Case(output_arcs=(("v1", 1),))])
        graph = explore(SANModel("loop", places, [t], [i1, i2]))
        a = graph.index_of(Marking(a=1, v1=0, v2=0, x=0))
        x = graph.index_of(Marking(a=0, v1=0, v2=0, x=1))
        # The loop always terminates at x: full rate flows there.
        assert graph.rates[(a, x)] == pytest.approx(1.0)

    def test_dead_vanishing_loop_rejected(self):
        # v1 <-> v2 with no exit: elimination must fail loudly.
        places = [Place("v1", initial=1), Place("v2")]
        i1 = InstantaneousActivity("i1", input_arcs=[("v1", 1)],
                                   cases=[Case(output_arcs=(("v2", 1),))])
        i2 = InstantaneousActivity("i2", input_arcs=[("v2", 1)],
                                   cases=[Case(output_arcs=(("v1", 1),))])
        with pytest.raises(StateSpaceError):
            explore(SANModel("deadloop", places, [], [i1, i2]))

    def test_no_tangible_markings_rejected(self):
        places = [Place("p", initial=1)]
        i = InstantaneousActivity("i", input_arcs=[("p", 1)],
                                  cases=[Case(output_arcs=(("p", 1),))])
        with pytest.raises(StateSpaceError):
            explore(SANModel("allvanish", places, [], [i]))


class TestGraphAccessors:
    def test_states_where(self, simple_san):
        graph = explore(simple_san)
        states = graph.states_where(lambda m: m["b"] == 1)
        assert len(states) == 1

    def test_index_of_unknown_marking(self, simple_san):
        graph = explore(simple_san)
        with pytest.raises(StateSpaceError):
            graph.index_of(Marking(a=1, b=1))

    def test_deterministic_order(self, simple_san):
        g1 = explore(simple_san)
        g2 = explore(simple_san)
        assert g1.markings == g2.markings
        assert g1.rates == g2.rates

"""Structural facts of reachability graphs, and the exporters.

The structural checks read the explored graph directly: its markings,
its ``(src, dst) -> rate`` edges, and its generator's strongly connected
components.
"""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro.san.activities import Case, TimedActivity
from repro.san.ctmc_builder import build_ctmc
from repro.san.export import (
    graph_to_dict,
    graph_to_dot,
    model_to_dict,
    model_to_dot,
)
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.reachability import explore


def _place_bounds(graph, places):
    return {
        place: (
            min(m[place] for m in graph.markings),
            max(m[place] for m in graph.markings),
        )
        for place in places
    }


def _never_enabled(model, graph):
    return [
        activity.name
        for activity in model.activities()
        if not any(activity.enabled(m) for m in graph.markings)
    ]


def _token_sums(graph, weights):
    return {
        sum(w * m[p] for p, w in weights.items()) for m in graph.markings
    }


def _strong_components(model):
    count, labels = connected_components(
        build_ctmc(model).chain.generator, directed=True, connection="strong"
    )
    return count, np.bincount(labels)


class TestStructuralAnalysis:
    def test_place_bounds(self, simple_san):
        graph = explore(simple_san)
        assert _place_bounds(graph, ["a", "b"]) == {"a": (0, 1), "b": (0, 1)}

    def test_no_dead_activities_in_cycle(self, simple_san):
        assert _never_enabled(simple_san, explore(simple_san)) == []

    def test_dead_activity_detected(self):
        places = [Place("a", initial=1), Place("never")]
        live = TimedActivity("live", rate=1.0, input_arcs=[("a", 1)],
                             cases=[Case(output_arcs=(("a", 1),))])
        dead = TimedActivity("dead", rate=1.0, input_arcs=[("never", 2)])
        model = SANModel("m", places, [live, dead])
        assert _never_enabled(model, explore(model)) == ["dead"]

    def test_absorbing_markings(self, absorbing_san):
        graph = explore(absorbing_san)
        absorbing = [
            m for i, m in enumerate(graph.markings)
            if graph.total_exit_rate(i) == 0.0
        ]
        assert len(absorbing) == 1
        assert absorbing[0]["failed"] == 1

    def test_counts(self, simple_san):
        graph = explore(simple_san)
        assert graph.num_states == 2
        assert graph.num_vanishing == 0


class TestInvariants:
    def test_token_conservation_holds(self, simple_san):
        assert _token_sums(explore(simple_san), {"a": 1, "b": 1}) == {1}

    def test_non_invariant_detected(self, absorbing_san):
        # working - failed is not constant (1 then -1).
        sums = _token_sums(explore(absorbing_san), {"working": 1, "failed": -1})
        assert sums == {1, -1}


class TestGraphAnalysis:
    def test_digraph_structure(self, simple_san):
        graph = explore(simple_san)
        assert graph.num_states == 2
        assert len(graph.rates) == 2
        assert sorted(graph.rates.values()) == [1.0, 2.0]

    def test_irreducibility(self, simple_san, absorbing_san):
        assert _strong_components(simple_san)[0] == 1
        assert _strong_components(absorbing_san)[0] > 1

    def test_scc_sizes(self, absorbing_san):
        _count, sizes = _strong_components(absorbing_san)
        assert sorted(sizes) == [1, 1]


class TestExport:
    def test_model_to_dot_mentions_everything(self, simple_san):
        dot = model_to_dot(simple_san)
        for name in ("a", "b", "forward", "backward"):
            assert name in dot
        assert dot.startswith("digraph")

    def test_graph_to_dot(self, simple_san):
        dot = graph_to_dot(explore(simple_san))
        assert "s0" in dot and "s1" in dot

    def test_graph_to_dot_size_guard(self, simple_san):
        with pytest.raises(ValueError):
            graph_to_dot(explore(simple_san), max_states=1)

    def test_model_to_dict_round_trippable(self, simple_san):
        import json

        data = model_to_dict(simple_san)
        encoded = json.dumps(data)
        assert "forward" in encoded
        assert data["name"] == "cycle"
        assert len(data["places"]) == 2

    def test_graph_to_dict(self, simple_san):
        import json

        data = graph_to_dict(explore(simple_san))
        json.dumps(data)
        assert data["num_tangible"] == 2
        assert len(data["rates"]) == 2
        assert sum(data["initial_distribution"]) == pytest.approx(1.0)

    def test_marking_dependent_rate_flagged(self):
        places = [Place("p", initial=1)]
        act = TimedActivity("t", rate=lambda m: 1.0 + m["p"],
                            input_arcs=[("p", 1)],
                            cases=[Case(output_arcs=(("p", 1),))])
        data = model_to_dict(SANModel("m", places, [act]))
        assert data["timed_activities"][0]["marking_dependent_rate"] is True

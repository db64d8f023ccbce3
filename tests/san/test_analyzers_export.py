"""Tests for structural analyzers and exporters."""

import pytest

from repro.san.activities import Case, TimedActivity
from repro.san.analyzers import (
    analyze_structure,
    is_irreducible,
    reachability_digraph,
    strongly_connected_components,
    verify_invariant,
)
from repro.san.export import (
    graph_to_dict,
    graph_to_dot,
    model_to_dict,
    model_to_dot,
)
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.reachability import explore


class TestStructuralAnalysis:
    def test_place_bounds(self, simple_san):
        graph = explore(simple_san)
        report = analyze_structure(simple_san, graph)
        assert report.place_bounds == {"a": (0, 1), "b": (0, 1)}

    def test_no_dead_activities_in_cycle(self, simple_san):
        graph = explore(simple_san)
        report = analyze_structure(simple_san, graph)
        assert report.dead_activities == ()

    def test_dead_activity_detected(self):
        places = [Place("a", initial=1), Place("never")]
        live = TimedActivity("live", rate=1.0, input_arcs=[("a", 1)],
                             cases=[Case(output_arcs=(("a", 1),))])
        dead = TimedActivity("dead", rate=1.0, input_arcs=[("never", 2)])
        model = SANModel("m", places, [live, dead])
        report = analyze_structure(model, explore(model))
        assert report.dead_activities == ("dead",)

    def test_absorbing_markings(self, absorbing_san):
        graph = explore(absorbing_san)
        report = analyze_structure(absorbing_san, graph)
        assert len(report.absorbing_markings) == 1
        assert report.absorbing_markings[0]["failed"] == 1

    def test_counts(self, simple_san):
        graph = explore(simple_san)
        report = analyze_structure(simple_san, graph)
        assert report.num_tangible == 2
        assert report.num_vanishing == 0


class TestInvariants:
    def test_token_conservation_holds(self, simple_san):
        graph = explore(simple_san)
        assert verify_invariant(graph, {"a": 1, "b": 1}, expected=1)

    def test_wrong_expected_value(self, simple_san):
        graph = explore(simple_san)
        assert not verify_invariant(graph, {"a": 1, "b": 1}, expected=2)

    def test_non_invariant_detected(self, absorbing_san):
        graph = explore(absorbing_san)
        # working - failed is not constant (1 then -1).
        assert not verify_invariant(graph, {"working": 1, "failed": -1})

    def test_invariant_without_expected(self, simple_san):
        graph = explore(simple_san)
        assert verify_invariant(graph, {"a": 2, "b": 2})


class TestGraphAnalysis:
    def test_digraph_structure(self, simple_san):
        graph = explore(simple_san)
        g = reachability_digraph(graph)
        assert g.number_of_nodes() == 2
        assert g.number_of_edges() == 2
        rates = [d["rate"] for _u, _v, d in g.edges(data=True)]
        assert sorted(rates) == [1.0, 2.0]

    def test_irreducibility(self, simple_san, absorbing_san):
        assert is_irreducible(explore(simple_san))
        assert not is_irreducible(explore(absorbing_san))

    def test_scc_sizes(self, absorbing_san):
        comps = strongly_connected_components(explore(absorbing_san))
        assert sorted(len(c) for c in comps) == [1, 1]


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

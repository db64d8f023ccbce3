"""Property-based tests for the SAN framework.

Random cyclic SAN models are generated and checked for:

* reachability determinism and closure (every rate's endpoints exist);
* agreement between numerical steady-state rewards and long-run
  simulation;
* vanishing-elimination flow conservation (total outflow of a tangible
  marking equals the sum of its timed-activity rates);
* token conservation when the model moves a fixed token population.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmc.steady_state import steady_state_distribution
from repro.san.activities import Case, InstantaneousActivity, TimedActivity
from repro.san.ctmc_builder import build_ctmc
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.reachability import explore


@st.composite
def ring_models(draw):
    """Token-ring SANs with random sizes and rates (always ergodic)."""
    n_places = draw(st.integers(2, 5))
    tokens = draw(st.integers(1, 2))
    places = [
        Place(f"p{i}", initial=tokens if i == 0 else 0, capacity=tokens)
        for i in range(n_places)
    ]
    activities = []
    for i in range(n_places):
        rate = draw(st.floats(0.1, 5.0, allow_nan=False))
        activities.append(
            TimedActivity(
                f"t{i}",
                rate=rate,
                input_arcs=[(f"p{i}", 1)],
                cases=[Case(output_arcs=((f"p{(i + 1) % n_places}", 1),))],
            )
        )
    return SANModel("ring", places, activities), tokens


class TestReachabilityProperties:
    @given(data=ring_models())
    @settings(max_examples=40, deadline=None)
    def test_closure_and_conservation(self, data):
        model, tokens = data
        graph = explore(model)
        n = graph.num_states
        for (src, dst), rate in graph.rates.items():
            assert 0 <= src < n and 0 <= dst < n
            assert rate > 0
        for marking in graph.markings:
            assert sum(marking.values()) == tokens

    @given(data=ring_models())
    @settings(max_examples=25, deadline=None)
    def test_outflow_matches_enabled_rates(self, data):
        model, _ = data
        graph = explore(model)
        for i, marking in enumerate(graph.markings):
            expected = sum(
                a.rate_at(marking) for a in model.enabled_timed(marking)
            )
            assert graph.total_exit_rate(i) == pytest.approx(expected)

    @given(data=ring_models())
    @settings(max_examples=15, deadline=None)
    def test_deterministic_generation(self, data):
        model, _ = data
        g1, g2 = explore(model), explore(model)
        assert g1.markings == g2.markings
        assert g1.rates == g2.rates


class TestVanishingProperties:
    @given(
        split=st.floats(0.05, 0.95),
        rate=st.floats(0.5, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_elimination_preserves_flow(self, split, rate):
        # timed -> vanishing -> {x with p, y with 1-p}: effective rates
        # must sum to the timed rate exactly.
        places = [Place("a", initial=1), Place("v"), Place("x"), Place("y")]
        t = TimedActivity("t", rate=rate, input_arcs=[("a", 1)],
                          cases=[Case(output_arcs=(("v", 1),))])
        i = InstantaneousActivity(
            "i", input_arcs=[("v", 1)],
            cases=[
                Case(probability=split, output_arcs=(("x", 1),)),
                Case(probability=1.0 - split, output_arcs=(("y", 1),)),
            ],
        )
        graph = explore(SANModel("v", places, [t], [i]))
        total_out = graph.total_exit_rate(
            graph.index_of(graph.markings[0].update({}))
            if graph.markings[0]["a"] == 1
            else 0
        )
        assert total_out == pytest.approx(rate)


class TestSteadyStateAgreement:
    @given(data=ring_models(), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_simulation_brackets_numerical(self, data, seed):
        from repro.san.rewards import RewardStructure
        from repro.san.simulate import SANSimulator

        model, _tokens = data
        compiled = build_ctmc(model)
        pi = steady_state_distribution(compiled.chain)
        target = RewardStructure.from_pairs(
            "p0_occupied", [(lambda m: m["p0"] >= 1, 1.0)]
        )
        exact = float(pi @ target.rate_vector(compiled))
        sim = SANSimulator(model, seed=seed)
        estimate = sim.estimate_steady_state(
            target, horizon=250.0, warmup=25.0, replications=12
        )
        low, high = estimate.confidence_interval(z=4.0)
        assert low - 0.02 <= exact <= high + 0.02

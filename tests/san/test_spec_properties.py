"""Property-based tests for the textual spec language.

Random predicate ASTs are generated alongside equivalent Python lambdas;
the parsed textual form must agree with the native closure on random
markings.  Random declarative model specs must build chains equivalent
to the same model built through the programmatic API.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.san.marking import Marking
from repro.san.spec import parse_predicate, parse_update

PLACES = ("a", "b", "c")


@st.composite
def predicate_pairs(draw, depth: int = 0):
    """(text, python callable) pairs built from the same random AST."""
    choice = draw(
        st.sampled_from(
            ["cmp", "and", "or", "not"] if depth < 3 else ["cmp"]
        )
    )
    if choice == "cmp":
        place = draw(st.sampled_from(PLACES))
        op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
        value = draw(st.integers(0, 3))
        text = f"MARK({place}) {op} {value}"
        import operator

        ops = {
            "==": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        }
        fn = lambda m, p=place, o=ops[op], v=value: o(m[p], v)
        return text, fn
    if choice == "not":
        text, fn = draw(predicate_pairs(depth=depth + 1))
        return f"!({text})", (lambda m, f=fn: not f(m))
    left_text, left_fn = draw(predicate_pairs(depth=depth + 1))
    right_text, right_fn = draw(predicate_pairs(depth=depth + 1))
    if choice == "and":
        return (
            f"({left_text}) && ({right_text})",
            lambda m, l=left_fn, r=right_fn: l(m) and r(m),
        )
    return (
        f"({left_text}) || ({right_text})",
        lambda m, l=left_fn, r=right_fn: l(m) or r(m),
    )


@st.composite
def markings(draw):
    return Marking({p: draw(st.integers(0, 3)) for p in PLACES})


class TestPredicateEquivalence:
    @given(pair=predicate_pairs(), marking=markings())
    @settings(max_examples=150, deadline=None)
    def test_text_matches_native(self, pair, marking):
        text, native = pair
        parsed = parse_predicate(text)
        assert parsed(marking) == native(marking)


class TestUpdateProperties:
    @given(
        marking=markings(),
        assignments=st.dictionaries(
            st.sampled_from(PLACES), st.integers(0, 5),
            min_size=1, max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_constant_assignments(self, marking, assignments):
        text = "; ".join(f"{k} = {v}" for k, v in assignments.items())
        result = parse_update(text)(marking)
        for place in PLACES:
            expected = assignments.get(place, marking[place])
            assert result[place] == expected

    @given(marking=markings())
    @settings(max_examples=50, deadline=None)
    def test_rotation_is_permutation(self, marking):
        update = parse_update("a = b; b = c; c = a")
        result = update(marking)
        assert sorted(result.values()) == sorted(marking.values())
        assert result["a"] == marking["b"]
        assert result["c"] == marking["a"]


class TestSpecModelEquivalence:
    @given(
        rate1=st.floats(0.1, 5.0),
        rate2=st.floats(0.1, 5.0),
        horizon=st.floats(0.5, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_json_model_matches_programmatic(self, rate1, rate2, horizon):
        from repro.san.activities import Case, TimedActivity
        from repro.san.ctmc_builder import build_ctmc
        from repro.san.model import SANModel
        from repro.san.places import Place
        from repro.san.serialization import model_from_dict
        from repro.ctmc.transient import transient_distribution

        declarative = model_from_dict(
            {
                "name": "cycle",
                "places": [{"name": "x", "initial": 1}, "y"],
                "activities": [
                    {"name": "f", "rate": rate1, "consumes": ["x"],
                     "cases": [{"produces": ["y"]}]},
                    {"name": "g", "rate": rate2, "consumes": ["y"],
                     "cases": [{"produces": ["x"]}]},
                ],
            }
        )
        programmatic = SANModel(
            "cycle",
            [Place("x", initial=1), Place("y")],
            [
                TimedActivity("f", rate=rate1, input_arcs=[("x", 1)],
                              cases=[Case(output_arcs=(("y", 1),))]),
                TimedActivity("g", rate=rate2, input_arcs=[("y", 1)],
                              cases=[Case(output_arcs=(("x", 1),))]),
            ],
        )
        a = build_ctmc(declarative)
        b = build_ctmc(programmatic)
        pi_a = transient_distribution(a.chain, horizon)
        pi_b = transient_distribution(b.chain, horizon)
        # Marking order may differ; compare by marking lookup.
        for marking in a.graph.markings:
            ia = a.graph.index_of(marking)
            ib = b.graph.index_of(marking)
            assert pi_a[ia] == pytest.approx(pi_b[ib], abs=1e-12)

"""Tests for the shared outside-input layer (``repro.query``)."""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.query import (
    PARAM_FIELDS,
    QueryError,
    fleet_params,
    gsu_params,
    phi_grid,
    synthesis_request,
)


class TestPhiGrid:
    @pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, "abc"])
    def test_bad_step_rejected(self, step):
        # A NaN step used to loop forever building the grid.
        with pytest.raises(QueryError, match="invalid step"):
            phi_grid(PAPER_TABLE3, step=step)

    def test_oversized_step_grid_rejected_before_building(self):
        with pytest.raises(QueryError, match="more than 4096 points"):
            phi_grid(PAPER_TABLE3, step=1e-9, max_points=4096)

    def test_explicit_and_step_grids(self):
        assert phi_grid(PAPER_TABLE3, [7000]) == [7000.0]
        assert phi_grid(PAPER_TABLE3, step=5000) == [0.0, 5000.0, 10_000.0]


class TestOverrides:
    def test_cli_flags_are_the_parameter_fields(self):
        fields = tuple(f.name for f in dataclasses.fields(GSUParameters))
        assert PARAM_FIELDS == fields
        args = build_parser().parse_args(["evaluate", "--phi", "1"])
        assert all(getattr(args, name) is None for name in fields)

    def test_no_overrides_is_the_base(self):
        assert gsu_params({}) is PAPER_TABLE3

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"coverage": "x"}, "invalid parameters"),
            ({"mu_new": -1}, "mu_new must be positive"),
            ({"bogus": 1}, "unknown parameter fields"),
        ],
    )
    def test_bad_overrides_rejected(self, overrides, fragment):
        with pytest.raises(QueryError, match=fragment):
            gsu_params(overrides)

    def test_fleet_ints_cast_and_unknown_rejected(self):
        assert fleet_params({"n_processes": 3.0}).n_processes == 3
        with pytest.raises(QueryError, match="unknown fleet fields"):
            fleet_params({"replicas": 3})


class TestSynthesisRequest:
    def test_caps_apply_only_when_given(self):
        problem, config = synthesis_request(
            PAPER_TABLE3, ["phi"], {}, None, 500, 3
        )
        assert config.max_iters == 500 and problem.names == ("phi",)
        with pytest.raises(QueryError, match=r"max_iters must be in \[1, 200\]"):
            synthesis_request(PAPER_TABLE3, ["phi"], {}, None, 500, 3, (200, 9))

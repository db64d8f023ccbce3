"""End-to-end tests for ``POST /fleet`` and the solver dispatch metrics."""

import pytest

from repro.ctmc.config import dispatch_counts
from repro.gsu.fleet import FleetParameters, FleetSolver
from repro.serve.loadgen import request_once
from repro.serve.service import ServeConfig

FLEET = {"n_processes": 3}
PHIS = [0.0, 500.0, 2000.0]


@pytest.fixture(scope="module")
def server():
    from repro.serve.service import start_in_thread

    handle = start_in_thread(ServeConfig(port=0, jobs=2, warm=False))
    yield handle
    handle.stop()


def post_fleet(server, body):
    host, port = server.address
    return request_once(host, port, endpoint="/fleet", method="POST", body=body)


class TestFleetEndpoint:
    def test_answers_match_direct_solver(self, server):
        status, _, payload = post_fleet(
            server, {"fleet": FLEET, "phis": PHIS}
        )
        assert status == 200
        assert payload["mode"] == "lumped"
        assert payload["states"] == FleetParameters(n_processes=3).lumped_states
        solver = FleetSolver(FleetParameters(n_processes=3), mode="lumped")
        expected = solver.batch(PHIS)
        assert [point["phi"] for point in payload["points"]] == PHIS
        for point, want in zip(payload["points"], expected):
            assert point["Y"] == want["Y"]
            assert point["operational_time"] == want["operational_time"]

    def test_second_request_served_from_cache(self, server):
        body = {"fleet": {"n_processes": 2}, "phis": [0.0, 100.0]}
        first_status, _, first = post_fleet(server, body)
        second_status, _, second = post_fleet(server, body)
        assert first_status == second_status == 200
        assert second["provenance"]["sources"] == {"cache": 2}
        assert [p["Y"] for p in first["points"]] == [
            p["Y"] for p in second["points"]
        ]

    def test_default_grid_when_no_phis_given(self, server):
        status, _, payload = post_fleet(server, {"fleet": FLEET})
        assert status == 200
        phis = [point["phi"] for point in payload["points"]]
        assert phis[0] == 0.0
        assert phis[-1] == FleetParameters(n_processes=3).theta
        assert len(phis) == 11

    def test_flat_mode_rejected(self, server):
        # Both served measures are symmetric in the processes, so the
        # exact quotient answers them; the flat chain is not served.
        status, _, payload = post_fleet(
            server,
            {"fleet": {"n_processes": 2}, "phis": [100.0], "mode": "flat"},
        )
        assert status == 400
        assert "lumped quotient" in payload["error"]

    def test_unknown_field_rejected(self, server):
        status, _, payload = post_fleet(
            server, {"fleet": {"replicas": 3}, "phis": [1.0]}
        )
        assert status == 400
        assert "replicas" in payload["error"]

    def test_unknown_mode_rejected(self, server):
        status, _, payload = post_fleet(
            server, {"fleet": FLEET, "phis": [1.0], "mode": "dense"}
        )
        assert status == 400
        assert "dense" in payload["error"]

    def test_invalid_phi_rejected(self, server):
        status, _, payload = post_fleet(
            server, {"fleet": FLEET, "phis": [1e9]}
        )
        assert status == 400
        assert "phi" in payload["error"]

    def test_phis_and_step_mutually_exclusive(self, server):
        status, _, payload = post_fleet(
            server, {"fleet": FLEET, "phis": [1.0], "step": 100.0}
        )
        assert status == 400

    def test_get_method_rejected(self, server):
        host, port = server.address
        status, _, payload = request_once(
            host, port, endpoint="/fleet", method="GET"
        )
        assert status == 405


class TestDispatchMetrics:
    def test_metrics_expose_solver_dispatch_counters(self, server):
        # Counters are process-global and cumulative, so assert on the
        # delta this request contributes, not on absolute contents.
        before = dispatch_counts()
        post_fleet(server, {"fleet": FLEET, "phis": [0.0, 123.0]})
        host, port = server.address
        status, _, payload = request_once(host, port, endpoint="/metrics")
        assert status == 200
        dispatch = payload["solver"]["dispatch"]
        assert isinstance(dispatch, dict)
        assert dispatch, "at least one backend must have been recorded"
        assert all(
            isinstance(count, int) and count >= 1
            for count in dispatch.values()
        )
        delta = {
            backend: count - before.get(backend, 0)
            for backend, count in dispatch.items()
            if count > before.get(backend, 0)
        }
        assert delta, "the fleet solve must have recorded a backend"
        # The tiny lumped fleet stays on the dense-regime backends.
        assert "krylov" not in delta

    def test_fleet_latency_recorded(self, server):
        post_fleet(server, {"fleet": FLEET, "phis": [0.0]})
        host, port = server.address
        _, _, payload = request_once(host, port, endpoint="/metrics")
        assert "fleet" in payload["latency"]

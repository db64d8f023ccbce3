"""End-to-end tests of the serving layer: real sockets, real event loop.

One module-scoped server (ephemeral port) backs the endpoint tests; the
shutdown test boots its own so it can tear it down mid-test.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cli import main
from repro.gsu.measures import ConstituentSolver
from repro.gsu.optimizer import find_optimal_phi
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.serve.loadgen import request_once
from repro.serve.service import (
    ServeConfig,
    default_solve_fn,
    start_in_thread,
)

THETA = PAPER_TABLE3.theta
PHIS = [0.0, THETA / 4, THETA / 2, 3 * THETA / 4, THETA]


@pytest.fixture(scope="module")
def server():
    handle = start_in_thread(ServeConfig(port=0, jobs=2))
    yield handle
    handle.stop()


def raw_request(host, port, method, target, body_bytes):
    """An http.client request exposing status, headers, and payload."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            method,
            target,
            body=body_bytes,
            headers={"Content-Type": "application/json"} if body_bytes else {},
        )
        response = connection.getresponse()
        data = response.read()
        return response.status, dict(response.getheaders()), data
    finally:
        connection.close()


class TestHealthz:
    def test_ok_and_warm(self, server):
        status, _, payload = request_once(*server.address)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["warm"] is True
        assert payload["uptime_seconds"] >= 0.0


class TestEvaluate:
    def test_matches_direct_solver_bitwise(self, server):
        host, port = server.address
        status, _, payload = request_once(
            host, port, "/evaluate", "POST", {"phis": PHIS}
        )
        assert status == 200
        direct = evaluate_batch(
            PAPER_TABLE3, PHIS, solver=ConstituentSolver(PAPER_TABLE3)
        )
        assert [p["phi"] for p in payload["points"]] == PHIS
        assert [p["y"] for p in payload["points"]] == [e.value for e in direct]

    def test_repeat_request_served_from_memory_tier(self, server):
        host, port = server.address
        body = {"phis": [THETA / 5, THETA / 2]}
        first = request_once(host, port, "/evaluate", "POST", body)[2]
        status, _, second = request_once(host, port, "/evaluate", "POST", body)
        assert status == 200
        assert second["provenance"]["sources"] == {"cache": 2}
        assert [p["y"] for p in second["points"]] == [
            p["y"] for p in first["points"]
        ]

    def test_param_override_changes_result_bitwise(self, server):
        host, port = server.address
        overridden = PAPER_TABLE3.with_overrides(coverage=0.5)
        status, _, payload = request_once(
            host,
            port,
            "/evaluate",
            "POST",
            {"params": {"coverage": 0.5}, "phis": [THETA / 2]},
        )
        assert status == 200
        assert payload["params"]["coverage"] == 0.5
        direct = evaluate_batch(
            overridden, [THETA / 2], solver=ConstituentSolver(overridden)
        )
        assert payload["points"][0]["y"] == direct[0].value

    def test_default_body_uses_paper_grid(self, server):
        host, port = server.address
        status, _, payload = request_once(
            host, port, "/evaluate", "POST", {"step": THETA / 2}
        )
        assert status == 200
        assert [p["phi"] for p in payload["points"]] == [0.0, THETA / 2, THETA]

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"params": {"bogus": 1.0}}, "unknown parameter"),
            ({"params": "not-a-dict"}, "must be an object"),
            ({"phis": [0.0], "step": 100.0}, "not both"),
            ({"phis": []}, "non-empty"),
            ({"phis": "nope"}, "non-empty"),
            ({"phis": [1e12]}, "invalid phi"),
            ({"phis": ["abc"]}, "invalid phi"),
            ({"step": -5.0}, "invalid step"),
            ({"step": 0.1}, "more than 4096 points"),
        ],
    )
    def test_validation_errors_are_400(self, server, body, fragment):
        host, port = server.address
        status, _, payload = request_once(
            host, port, "/evaluate", "POST", body
        )
        assert status == 400
        assert fragment in payload["error"]

    @pytest.mark.parametrize(
        "argv, body",
        [
            (
                ["evaluate", "--phi", "100", "--coverage", "2"],
                {"params": {"coverage": 2}, "phis": [100]},
            ),
            (["evaluate", "--phi", "20000"], {"phis": [20000]}),
            (["sweep", "--step", "0"], {"step": 0}),
        ],
        ids=["override", "phi", "step"],
    )
    def test_400_text_is_the_cli_message(self, server, capsys, argv, body):
        assert main(argv) == 2
        cli_message = capsys.readouterr().err.strip()
        status, _, payload = request_once(
            *server.address, "/evaluate", "POST", body
        )
        assert status == 400
        assert cli_message == f"error: {payload['error']}"

    def test_non_object_body_is_400(self, server):
        status, _, data = raw_request(
            *server.address, "POST", "/evaluate", b"[1, 2]"
        )
        assert status == 400
        assert "JSON object" in json.loads(data)["error"]

    def test_malformed_json_is_400(self, server):
        status, _, data = raw_request(
            *server.address, "POST", "/evaluate", b"{nope"
        )
        assert status == 400
        assert "malformed JSON" in json.loads(data)["error"]


class TestOptimal:
    def test_grid_optimum_with_refinement(self, server):
        host, port = server.address
        status, _, payload = request_once(
            host,
            port,
            "/optimal",
            "POST",
            {"step": THETA / 4, "refine": True},
        )
        assert status == 200
        grid = payload["grid"]
        assert len(grid["phis"]) == len(grid["values"]) == 5
        assert payload["y"] >= max(grid["values"])
        assert 0.0 <= payload["phi"] <= THETA
        assert isinstance(payload["beneficial"], bool)
        assert payload["beneficial"] == (payload["y"] > 1.0)

    def test_unrefined_optimum_is_grid_argmax(self, server):
        host, port = server.address
        status, _, payload = request_once(
            host, port, "/optimal", "POST", {"step": THETA / 4}
        )
        assert status == 200
        assert payload["refined"] is False
        grid = payload["grid"]
        best = max(range(len(grid["values"])), key=grid["values"].__getitem__)
        assert payload["phi"] == grid["phis"][best]
        assert payload["y"] == grid["values"][best]

    def test_endpoint_optimum_refined_like_the_cli(self, server):
        # On a {0, theta} grid the optimum is the endpoint theta; the
        # served answer refines [0, theta] exactly as `repro optimal`.
        status, _, payload = request_once(
            *server.address, "/optimal", "POST",
            {"step": 10_000.0, "refine": True},
        )
        assert status == 200
        direct = find_optimal_phi(
            PAPER_TABLE3, step=10_000.0, refine=True,
            solver=ConstituentSolver(PAPER_TABLE3),
        )
        assert payload["refined"] is True
        assert (payload["phi"], payload["y"]) == (direct.phi, direct.y)
        assert (direct.phi, direct.y) == (6677.239089921646, 1.537359972507705)

    def test_bad_step_is_400(self, server):
        status, _, payload = request_once(
            *server.address, "/optimal", "POST", {"step": 0}
        )
        assert status == 400


class TestRouting:
    def test_unknown_path_is_404(self, server):
        status, _, payload = request_once(*server.address, "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        host, port = server.address
        assert request_once(host, port, "/evaluate", "GET")[0] == 405
        assert (
            request_once(host, port, "/healthz", "POST", {})[0] == 405
        )


class TestMetrics:
    def test_shape_and_counters(self, server):
        host, port = server.address
        request_once(host, port, "/evaluate", "POST", {"phis": [THETA / 2]})
        status, _, payload = request_once(host, port, "/metrics")
        assert status == 200
        assert payload["requests_total"] >= 1
        assert payload["responses_by_status"].get("200", 0) >= 1
        assert "evaluate" in payload["latency"]
        summary = payload["latency"]["evaluate"]
        assert summary["count"] >= 1
        assert summary["p50_ms"] >= 0.0
        assert summary["p99_ms"] >= summary["p50_ms"]
        assert payload["solver"]["batches"] >= 1
        assert payload["queue"] == {"depth": 0, "limit": 1024}
        memory = payload["cache"]["memory"]
        assert set(memory) >= {"hits", "misses", "evictions", "hit_rate"}
        assert payload["templates"]["compiles"] + payload["templates"][
            "restamps"
        ] > 0
        assert payload["warm_seconds"] > 0.0
        assert payload["draining"] is False


class TestShutdown:
    def test_clean_stop_refuses_new_connections(self):
        handle = start_in_thread(ServeConfig(port=0, jobs=1, warm=False))
        host, port = handle.address
        assert request_once(host, port)[0] == 200
        handle.stop()
        assert not handle.thread.is_alive()
        with pytest.raises(OSError):
            request_once(host, port)

    def test_stop_is_idempotent_via_request_stop(self):
        handle = start_in_thread(ServeConfig(port=0, jobs=1, warm=False))
        handle.service.request_stop()
        handle.service.request_stop()
        handle.stop()
        assert not handle.thread.is_alive()

    def test_healthz_reports_draining_while_work_is_refused(self):
        """During a graceful drain, probe endpoints answer while work
        endpoints get 503 — an orchestrator can tell a draining
        instance from a dead one."""
        started = threading.Event()
        release = threading.Event()

        def gated_solve(params, phis):
            started.set()
            assert release.wait(30), "test never released the solver gate"
            return default_solve_fn(params, phis)

        handle = start_in_thread(
            ServeConfig(port=0, jobs=1, warm=False), solve_fn=gated_solve
        )
        host, port = handle.address
        result = {}

        def fire():
            result["response"] = request_once(
                host, port, "/evaluate", "POST", {"phis": [1000.0]},
                timeout=120,
            )

        inflight = threading.Thread(target=fire)
        inflight.start()
        try:
            assert started.wait(30), "in-flight solve never started"
            handle.service.request_stop()

            payload = None
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                status, _, payload = request_once(host, port, "/healthz")
                assert status == 200
                if payload["status"] == "draining":
                    break
                time.sleep(0.02)
            assert payload is not None and payload["status"] == "draining"

            status, _, metrics = request_once(host, port, "/metrics")
            assert status == 200
            assert metrics["draining"] is True

            status, _, payload = request_once(
                host, port, "/evaluate", "POST", {"phis": [2000.0]}
            )
            assert status == 503
        finally:
            release.set()
            inflight.join(120)
        assert result["response"][0] == 200
        handle.thread.join(30)
        assert not handle.thread.is_alive()

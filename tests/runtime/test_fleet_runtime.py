"""Tests for fleet task planning, execution, and memory-aware chunking."""

import pytest

from repro.gsu.fleet import FleetParameters, FleetSolver
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    _memory_aware_chunk_length,
    execute_fleet_tasks,
    memory_budget_bytes,
)
from repro.runtime.records import validate_fleet_record, validate_record
from repro.runtime.tasks import FleetTask, plan_fleet_tasks

PARAMS = FleetParameters(n_processes=3)
PHIS = (0.0, 250.0, 1000.0)


class TestPlanning:
    def test_plan_orders_and_numbers_tasks(self):
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        assert [task.index for task in tasks] == [0, 1, 2]
        assert [task.phi for task in tasks] == list(PHIS)
        assert all(task.mode == "lumped" for task in tasks)

    def test_plan_validates_phis_up_front(self):
        with pytest.raises(ValueError):
            plan_fleet_tasks(PARAMS, [0.0, PARAMS.theta + 1.0])

    def test_cache_key_stable_and_position_independent(self):
        a = FleetTask(index=0, params=PARAMS, phi=100.0)
        b = FleetTask(index=7, params=PARAMS, phi=100.0)
        assert a.cache_key() == b.cache_key()

    def test_cache_key_distinguishes_mode_and_inputs(self):
        base = FleetTask(index=0, params=PARAMS, phi=100.0, mode="lumped")
        assert base.cache_key() != FleetTask(
            index=0, params=PARAMS, phi=100.0, mode="flat"
        ).cache_key()
        assert base.cache_key() != FleetTask(
            index=0, params=PARAMS, phi=200.0, mode="lumped"
        ).cache_key()
        assert base.cache_key() != FleetTask(
            index=0,
            params=PARAMS.with_overrides(repair_servers=1),
            phi=100.0,
            mode="lumped",
        ).cache_key()

    def test_key_namespace_is_fleet(self):
        payload = FleetTask(index=0, params=PARAMS, phi=1.0).key_payload()
        assert payload["measure"] == "fleet.Y"


class TestExecution:
    def test_serial_results_match_direct_solver(self):
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        outcomes = execute_fleet_tasks(tasks)
        solver = FleetSolver(PARAMS, mode="lumped")
        expected = solver.batch(PHIS)
        for outcome, want in zip(outcomes, expected):
            assert outcome.record["Y"] == want["Y"]
            assert outcome.record["operational_time"] == (
                want["operational_time"]
            )
            assert outcome.record["kind"] == "fleet.Y"
            assert outcome.record["states"] == PARAMS.lumped_states
            validate_record(outcome.record)

    @pytest.mark.parametrize("backend,jobs", [("thread", 2), ("process", 2)])
    def test_parallel_backends_bitwise_match_serial(self, backend, jobs):
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        serial = execute_fleet_tasks(tasks)
        parallel = execute_fleet_tasks(tasks, backend=backend, jobs=jobs)
        for a, b in zip(serial, parallel):
            assert a.record == b.record

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_chunks_bitwise_match_serial(self, backend):
        # One curve is one chunk by default; an explicit chunk size
        # still spreads it over the pool, one point per chunk.
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        serial = execute_fleet_tasks(tasks)
        chunked = execute_fleet_tasks(
            tasks, backend=backend, jobs=2, chunk_size=1
        )
        for a, b in zip(serial, chunked):
            assert a.record == b.record

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_non_stiff_fleet_independent_of_jobs(self, backend):
        # A short theta takes the uniformization walk, whose rows move
        # in the last bits with the grid; a whole-curve chunk keeps the
        # grid, and so the records, the same at any job count.
        params = FleetParameters(n_processes=3, theta=10.0)
        tasks = plan_fleet_tasks(params, [i * 1.0 for i in range(11)])
        serial = execute_fleet_tasks(tasks)
        parallel = execute_fleet_tasks(tasks, backend=backend, jobs=2)
        assert [o.record for o in parallel] == [o.record for o in serial]

    def test_chunking_never_changes_bits(self):
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        whole = execute_fleet_tasks(tasks)
        chunked = execute_fleet_tasks(tasks, chunk_size=1)
        for a, b in zip(whole, chunked):
            assert a.record == b.record

    def test_cache_round_trip_hits_everything(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        tasks = plan_fleet_tasks(PARAMS, PHIS)
        first = execute_fleet_tasks(tasks, cache=cache)
        assert all(not outcome.cached for outcome in first)
        second = execute_fleet_tasks(tasks, cache=cache)
        assert all(outcome.cached for outcome in second)
        for a, b in zip(first, second):
            assert a.record == b.record

    def test_flat_mode_agrees_with_lumped_to_tolerance(self):
        lumped = execute_fleet_tasks(plan_fleet_tasks(PARAMS, PHIS))
        flat = execute_fleet_tasks(
            plan_fleet_tasks(PARAMS, PHIS, mode="flat")
        )
        for a, b in zip(lumped, flat):
            assert a.record["Y"] == pytest.approx(b.record["Y"], abs=1e-9)
            assert a.record["states"] == PARAMS.lumped_states
            assert b.record["states"] == PARAMS.flat_states

    def test_unknown_backend_rejected(self):
        tasks = plan_fleet_tasks(PARAMS, [0.0])
        with pytest.raises(ValueError):
            execute_fleet_tasks(tasks, backend="gpu")


class TestFleetRecords:
    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            validate_fleet_record({"kind": "fleet.Y", "phi": 1.0})

    def test_bad_mode_rejected(self):
        record = {
            "kind": "fleet.Y",
            "params": PARAMS.to_dict(),
            "phi": 1.0,
            "mode": "dense",
            "Y": 1.0,
            "operational_time": 1.0,
            "states": 20,
        }
        with pytest.raises(ValueError, match="mode"):
            validate_record(record)

    def test_valid_record_passes_both_validators(self):
        record = {
            "kind": "fleet.Y",
            "params": PARAMS.to_dict(),
            "phi": 1.0,
            "mode": "lumped",
            "Y": 0.5,
            "operational_time": 0.9,
            "states": 20,
        }
        validate_fleet_record(record)
        validate_record(record)


class TestMemoryBudget:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "256")
        assert memory_budget_bytes() == 256 * 1024 * 1024

    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "lots")
        with pytest.raises(ValueError, match="REPRO_MEMORY_BUDGET_MB"):
            memory_budget_bytes()

    def test_default_is_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEMORY_BUDGET_MB", raising=False)
        assert memory_budget_bytes() > 0

    def test_explicit_chunk_size_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "1")
        length = _memory_aware_chunk_length(
            group_size=100,
            jobs=1,
            chunk_size=64,
            num_states=4**9,
            workers=1,
        )
        assert length == 64

    def test_small_models_unconstrained(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "1024")
        length = _memory_aware_chunk_length(
            group_size=8,
            jobs=1,
            chunk_size=None,
            num_states=220,
            workers=1,
        )
        assert length == 8

    def test_large_models_get_capped(self, monkeypatch):
        # 16 MiB budget, 262144-state model: the generator share alone
        # is ~40 MiB, so the chunk length collapses to the floor of 1.
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "16")
        length = _memory_aware_chunk_length(
            group_size=1000,
            jobs=1,
            chunk_size=None,
            num_states=4**9,
            workers=4,
        )
        assert length == 1

    def test_cap_scales_with_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "64")
        small_budget = _memory_aware_chunk_length(
            group_size=10_000,
            jobs=1,
            chunk_size=None,
            num_states=100_000,
            workers=1,
        )
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "512")
        big_budget = _memory_aware_chunk_length(
            group_size=10_000,
            jobs=1,
            chunk_size=None,
            num_states=100_000,
            workers=1,
        )
        assert 1 <= small_budget < big_budget

    def test_budget_split_across_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "512")
        one_worker = _memory_aware_chunk_length(
            group_size=10_000,
            jobs=1,
            chunk_size=None,
            num_states=100_000,
            workers=1,
        )
        eight_workers = _memory_aware_chunk_length(
            group_size=10_000,
            jobs=8,
            chunk_size=None,
            num_states=100_000,
            workers=8,
        )
        assert eight_workers < one_worker

    def test_fleet_execution_respects_tiny_budget(self, monkeypatch):
        # A starved budget must still complete (chunk floor of 1) and
        # produce bitwise-identical records.
        reference = execute_fleet_tasks(plan_fleet_tasks(PARAMS, PHIS))
        monkeypatch.setenv("REPRO_MEMORY_BUDGET_MB", "1")
        starved = execute_fleet_tasks(plan_fleet_tasks(PARAMS, PHIS))
        for a, b in zip(reference, starved):
            assert a.record == b.record

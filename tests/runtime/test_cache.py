"""Tests for the content-addressed result cache (ISSUE satellite).

Covers: cold-run population, warm-run identity with *zero* solver
invocations (counted via a stub evaluation function), corruption
fallback, and cache-key sensitivity to every parameter field and to the
key-schema version.
"""

import dataclasses
import json
import logging

import pytest

from repro.gsu.fleet import FleetParameters
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_index
from repro.runtime.cache import (
    MemoryLRUCache,
    ResultCache,
    TieredResultCache,
)
from repro.runtime.campaign import RuntimeConfig, run_campaign
from repro.runtime.executor import execute_fleet_tasks
from repro.runtime.spec import CampaignSpec, CurveSpec
from repro.runtime.tasks import (
    CACHE_KEY_SCHEMA_VERSION,
    plan_campaign,
    plan_fleet_tasks,
)


def small_spec(name="cache-test", phis=(0.0, 4000.0, 10_000.0)):
    return CampaignSpec(
        name=name,
        curves=(
            CurveSpec(label="base", params=PAPER_TABLE3, phis=tuple(phis)),
        ),
    )


class CountingEvaluate:
    """Evaluation stub that counts constituent-solver invocations."""

    def __init__(self):
        self.calls = []

    def __call__(self, params, phi, solver):
        self.calls.append((params, phi))
        return evaluate_index(params, phi, solver=solver)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


class TestColdWarm:
    def test_cold_populates_then_warm_is_solver_free(self, cache):
        spec = small_spec()
        cold_counter = CountingEvaluate()
        cold = run_campaign(spec, cache=cache, evaluate_fn=cold_counter)
        assert len(cold_counter.calls) == 3
        assert cold.cache_stats.misses == 3
        assert cold.cache_stats.writes == 3
        assert len(cache) == 3

        warm_counter = CountingEvaluate()
        warm = run_campaign(spec, cache=cache, evaluate_fn=warm_counter)
        assert warm_counter.calls == []  # zero solver invocations
        assert warm.cache_stats.hits == 3
        assert warm.cache_stats.misses == 0
        assert warm.tasks_computed == 0

        # Identical SweepResult values, bit for bit.
        assert warm.sweeps[0].values == cold.sweeps[0].values
        assert warm.sweeps[0].phis == cold.sweeps[0].phis
        cold_eval = cold.sweeps[0].points[1].evaluation
        warm_eval = warm.sweeps[0].points[1].evaluation
        assert warm_eval.constituents == cold_eval.constituents
        assert warm_eval.worth == cold_eval.worth
        assert warm_eval.gamma == cold_eval.gamma

    def test_partial_warm_run_solves_only_new_points(self, cache):
        run_campaign(small_spec(), cache=cache)
        counter = CountingEvaluate()
        grown = small_spec(phis=(0.0, 2000.0, 4000.0, 10_000.0))
        result = run_campaign(grown, cache=cache, evaluate_fn=counter)
        assert [phi for _, phi in counter.calls] == [2000.0]
        assert result.cache_stats.hits == 3
        assert result.cache_stats.misses == 1


class TestCorruption:
    def _one_entry(self, cache):
        spec = small_spec(phis=(5000.0,))
        run_campaign(spec, cache=cache)
        task = plan_campaign(spec)[0]
        return spec, task, cache.path_for(cache.key_for(task))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_text("{ not json"),
            lambda path: path.write_text(""),
            lambda path: path.write_text(json.dumps({"schema": 999})),
            lambda path: path.write_text(
                json.dumps(
                    {
                        "schema": CACHE_KEY_SCHEMA_VERSION,
                        "key": "0" * 64,
                        "record": {},
                    }
                )
            ),
        ],
        ids=["garbage", "truncated", "wrong-schema", "wrong-key"],
    )
    def test_corrupt_entry_recomputes_and_heals(self, cache, damage):
        spec, task, path = self._one_entry(cache)
        reference = run_campaign(spec, cache=cache)
        damage(path)

        counter = CountingEvaluate()
        result = run_campaign(spec, cache=cache, evaluate_fn=counter)
        assert len(counter.calls) == 1  # recomputed, did not crash
        assert result.cache_stats.corrupt == 1
        assert result.sweeps[0].values == reference.sweeps[0].values
        # The recompute rewrote a valid entry.
        healed = run_campaign(spec, cache=cache)
        assert healed.cache_stats.hits == 1
        assert healed.cache_stats.corrupt == 0

    def test_corrupt_entry_logs_a_warning(self, cache, caplog):
        spec, task, path = self._one_entry(cache)
        path.write_text("{ not json")
        misses_before = cache.stats.misses
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            assert cache.get(task) is None
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "unusable" in m and "recomputing" in m and str(path) in m
            for m in messages
        ), messages
        # Corruption is also a miss: both counters move together.
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == misses_before + 1
        assert cache.stats.hits == 0

    def test_record_with_missing_fields_is_corrupt(self, cache):
        spec, task, path = self._one_entry(cache)
        envelope = json.loads(path.read_text())
        del envelope["record"]["constituents"]
        path.write_text(json.dumps(envelope))
        assert cache.get(task) is None
        assert cache.stats.corrupt == 1


class TestKeying:
    def test_every_parameter_field_changes_the_key(self, cache):
        base_task = plan_campaign(small_spec(phis=(5000.0,)))[0]
        base_key = cache.key_for(base_task)
        overrides = {
            "theta": 12_000.0,
            "lam": 1_100.0,
            "mu_new": 2e-4,
            "mu_old": 2e-8,
            "coverage": 0.9,
            "p_ext": 0.2,
            "alpha": 5_000.0,
            "beta": 5_000.0,
        }
        assert set(overrides) == {
            f.name for f in dataclasses.fields(PAPER_TABLE3)
        }
        for name, value in overrides.items():
            changed = dataclasses.replace(
                base_task, params=PAPER_TABLE3.with_overrides(**{name: value})
            )
            assert cache.key_for(changed) != base_key, name

    def test_schema_version_bump_invalidates(self, tmp_path):
        spec = small_spec(phis=(5000.0,))
        current = ResultCache(root=tmp_path / "cache")
        run_campaign(spec, cache=current)
        assert current.stats.writes == 1

        bumped = ResultCache(
            root=tmp_path / "cache",
            schema_version=CACHE_KEY_SCHEMA_VERSION + 1,
        )
        counter = CountingEvaluate()
        result = run_campaign(spec, cache=bumped, evaluate_fn=counter)
        assert len(counter.calls) == 1  # old entry unreachable after a bump
        assert result.cache_stats.misses == 1
        # Both versions now coexist without clashing.
        assert len(bumped) == 2

    def test_schema_1_entries_are_never_served(self, tmp_path):
        """Schema 2 marks the move of every matrix-exponential answer
        (by about 1e-10) to shared squarings: no tier of a later schema
        serves a schema-1 entry, for campaign points or fleet points."""
        assert CACHE_KEY_SCHEMA_VERSION >= 2
        root = tmp_path / "cache"
        old = ResultCache(root=root, schema_version=1)
        spec = small_spec(phis=(5000.0,))
        run_campaign(spec, cache=old)
        task = plan_campaign(spec)[0]
        fleet_task = plan_fleet_tasks(FleetParameters(n_processes=3), [1000.0])[0]
        execute_fleet_tasks([fleet_task], cache=old)
        assert old.get(task) is not None and old.get(fleet_task) is not None

        served = RuntimeConfig(cache_dir=root, memory_cache=16).make_cache()
        for probe in (ResultCache(root=root), served):
            assert probe.get(task) is None
            assert probe.get(fleet_task) is None
        counter = CountingEvaluate()
        run_campaign(spec, cache=served, evaluate_fn=counter)
        assert len(counter.calls) == 1
        (outcome,) = execute_fleet_tasks([fleet_task], cache=served)
        assert not outcome.cached

    def test_no_cache_flag_bypasses_configured_cache(self, cache):
        spec = small_spec(phis=(5000.0,))
        result = run_campaign(spec, cache=cache, no_cache=True)
        assert result.cache_stats is None
        assert len(cache) == 0


class TestMemoryLRUCache:
    def tasks(self, phis=(0.0, 4000.0, 10_000.0)):
        return plan_campaign(small_spec(phis=phis))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MemoryLRUCache(max_entries=0)

    def test_hit_miss_write_counters(self):
        cache = MemoryLRUCache(max_entries=8)
        task = self.tasks()[0]
        assert cache.get(task) is None
        cache.put(task, {"value": 1.0})
        assert cache.get(task) == {"value": 1.0}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1
        assert cache.stats.evictions == 0
        assert len(cache) == 1

    def test_evicts_least_recently_used(self):
        cache = MemoryLRUCache(max_entries=2)
        first, second, third = self.tasks()
        cache.put(first, {"value": 1.0})
        cache.put(second, {"value": 2.0})
        # Refresh `first` so `second` becomes the LRU entry.
        assert cache.get(first) is not None
        cache.put(third, {"value": 3.0})
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(second) is None
        assert cache.get(first) == {"value": 1.0}
        assert cache.get(third) == {"value": 3.0}

    def test_explicit_evict_and_clear_count_evictions(self):
        cache = MemoryLRUCache(max_entries=8)
        first, second, third = self.tasks()
        for i, task in enumerate((first, second, third)):
            cache.put(task, {"value": float(i)})
        assert cache.evict(cache.key_for(first)) is True
        assert cache.evict(cache.key_for(first)) is False
        assert cache.stats.evictions == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.evictions == 3

    def test_stats_to_dict_reports_evictions_and_hit_rate(self):
        cache = MemoryLRUCache(max_entries=1)
        first, second, _ = self.tasks()
        cache.put(first, {"value": 1.0})
        cache.put(second, {"value": 2.0})
        assert cache.get(second) is not None
        rendered = cache.stats.to_dict()
        assert rendered["evictions"] == 1
        assert rendered["writes"] == 2
        assert rendered["hit_rate"] == 1.0


def full_record(value=1.0, phi=0.0):
    """A minimal record satisfying the disk tier's shape validation."""
    return {
        "phi": phi,
        "value": value,
        "y_s1": value,
        "y_s2": value,
        "gamma": 0.5,
        "worth": {"ideal": 1.0, "unguarded": 1.0, "guarded": 1.0},
        "constituents": {},
    }


class TestTieredResultCache:
    def tasks(self, phis=(0.0, 4000.0, 10_000.0)):
        return plan_campaign(small_spec(phis=phis))

    def test_disk_hit_promoted_into_memory(self, tmp_path):
        disk = ResultCache(root=tmp_path / "cache")
        task = self.tasks()[0]
        disk.put(task, full_record())
        tiered = TieredResultCache(MemoryLRUCache(max_entries=8), disk)
        assert tiered.get(task) == full_record()
        assert tiered.memory.stats.misses == 1
        assert disk.stats.hits == 1
        # Second lookup is answered by the memory tier alone.
        assert tiered.get(task) == full_record()
        assert tiered.memory.stats.hits == 1
        assert disk.stats.hits == 1

    def test_put_lands_in_both_tiers(self, tmp_path):
        disk = ResultCache(root=tmp_path / "cache")
        tiered = TieredResultCache(MemoryLRUCache(max_entries=8), disk)
        task = self.tasks()[0]
        tiered.put(task, full_record())
        assert len(tiered.memory) == 1
        assert len(disk) == 1
        assert disk.get(task) == full_record()

    def test_memory_only_mode(self):
        tiered = TieredResultCache(MemoryLRUCache(max_entries=8))
        task = self.tasks()[0]
        assert tiered.root is None
        assert tiered.get(task) is None
        tiered.put(task, {"value": 1.0})
        assert tiered.get(task) == {"value": 1.0}
        assert tiered.stats.hits == 1
        assert tiered.stats.misses == 1
        assert tiered.tier_stats().keys() == {"memory"}

    def test_combined_stats_count_one_miss_per_lookup(self, tmp_path):
        disk = ResultCache(root=tmp_path / "cache")
        tiered = TieredResultCache(MemoryLRUCache(max_entries=8), disk)
        task = self.tasks()[0]
        assert tiered.get(task) is None  # misses memory AND disk
        combined = tiered.stats
        assert combined.misses == 1
        assert combined.lookups == 1
        tiered.put(task, full_record())
        assert tiered.get(task) == full_record()
        assert tiered.stats.hits == 1
        assert tiered.tier_stats().keys() == {"memory", "disk"}

    def test_schema_mismatch_rejected(self, tmp_path):
        disk = ResultCache(root=tmp_path / "cache")
        with pytest.raises(ValueError):
            TieredResultCache(
                MemoryLRUCache(max_entries=8, schema_version=99), disk
            )

    def test_runtime_config_builds_tiered_cache(self, tmp_path):
        config = RuntimeConfig(
            cache_dir=tmp_path / "cache", memory_cache=16
        )
        built = config.make_cache()
        assert isinstance(built, TieredResultCache)
        assert built.memory.max_entries == 16
        assert built.root == tmp_path / "cache"
        memory_only = RuntimeConfig(memory_cache=16).make_cache()
        assert isinstance(memory_only, TieredResultCache)
        assert memory_only.root is None
        assert RuntimeConfig().make_cache() is None

    def test_campaign_warm_rerun_served_by_memory_tier(self, tmp_path):
        disk = ResultCache(root=tmp_path / "cache")
        tiered = TieredResultCache(MemoryLRUCache(max_entries=8), disk)
        spec = small_spec(phis=(0.0, 5000.0))
        cold = run_campaign(spec, cache=tiered)
        assert cold.cache_stats.misses == 2
        assert cold.cache_tier_stats is not None
        assert cold.cache_tier_stats["memory"].writes == 2
        warm = run_campaign(spec, cache=tiered)
        assert warm.cache_stats.hits == 2
        assert warm.cache_tier_stats["memory"].hits == 2
        assert warm.cache_tier_stats["disk"].lookups == 0

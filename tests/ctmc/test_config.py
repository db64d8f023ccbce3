"""Tests for the unified solver-dispatch configuration."""

import re
import threading
from dataclasses import fields
from pathlib import Path

import pytest

from repro.ctmc import config
from repro.ctmc.config import (
    DispatchCounters,
    SolverLimits,
    dispatch_counts,
    limits,
    record_dispatch,
    reset_dispatch_counts,
)


class TestLimits:
    def test_defaults_match_module_constants(self):
        effective = limits()
        assert effective.auto_stiffness_threshold == (
            config.AUTO_STIFFNESS_THRESHOLD
        )
        assert effective.dense_state_limit == config.DENSE_STATE_LIMIT
        assert effective.spectral_state_limit == config.SPECTRAL_STATE_LIMIT
        assert effective.spectral_condition_limit == (
            config.SPECTRAL_CONDITION_LIMIT
        )
        assert effective.max_uniformization_terms == (
            config.MAX_UNIFORMIZATION_TERMS
        )

    def test_no_overrides_returns_shared_defaults(self):
        # Without environment overrides the same (immutable) instance
        # comes back — no per-dispatch allocation.
        assert limits() is limits()

    def test_env_override_int_field(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_STATE_LIMIT", "17")
        assert limits().dense_state_limit == 17

    def test_env_override_float_field(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTO_STIFFNESS_THRESHOLD", "123.5")
        assert limits().auto_stiffness_threshold == 123.5

    def test_env_override_int_field_accepts_float_syntax(self, monkeypatch):
        # "1e5" is a natural way to write a state-count limit.
        monkeypatch.setenv("REPRO_MAX_UNIFORMIZATION_TERMS", "1e5")
        assert limits().max_uniformization_terms == 100_000

    def test_env_override_read_at_call_time(self, monkeypatch):
        before = limits().spectral_state_limit
        monkeypatch.setenv("REPRO_SPECTRAL_STATE_LIMIT", "3")
        assert limits().spectral_state_limit == 3
        monkeypatch.delenv("REPRO_SPECTRAL_STATE_LIMIT")
        assert limits().spectral_state_limit == before

    def test_unrelated_fields_keep_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_STATE_LIMIT", "1")
        effective = limits()
        assert effective.dense_state_limit == 1
        assert effective.spectral_state_limit == config.SPECTRAL_STATE_LIMIT

    def test_invalid_override_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_STATE_LIMIT", "not-a-number")
        with pytest.raises(ValueError, match="REPRO_DENSE_STATE_LIMIT"):
            limits()

    def test_limits_are_frozen(self):
        with pytest.raises(Exception):
            limits().dense_state_limit = 0  # type: ignore[misc]

    def test_solver_limits_is_plain_dataclass(self):
        custom = SolverLimits(dense_state_limit=2)
        assert custom.dense_state_limit == 2

    def test_architecture_table_lists_every_limit(self):
        # The cutoff table in docs/architecture.md names exactly the
        # fields of SolverLimits, in their module-constant spelling.
        doc = Path(__file__).resolve().parents[2] / "docs" / "architecture.md"
        rows = re.findall(r"^\| `([A-Z_]+)` \|", doc.read_text(), re.MULTILINE)
        assert sorted(rows) == sorted(
            spec.name.upper() for spec in fields(SolverLimits)
        )


class TestDispatchCounters:
    def test_record_and_snapshot(self):
        counters = DispatchCounters()
        counters.record("krylov")
        counters.record("krylov", 2)
        counters.record("dense-expm")
        assert counters.snapshot() == {"krylov": 3, "dense-expm": 1}

    def test_snapshot_is_a_copy(self):
        counters = DispatchCounters()
        counters.record("spectral")
        snap = counters.snapshot()
        snap["spectral"] = 99
        assert counters.snapshot() == {"spectral": 1}

    def test_reset(self):
        counters = DispatchCounters()
        counters.record("uniformization")
        counters.reset()
        assert counters.snapshot() == {}

    def test_module_level_counters(self):
        reset_dispatch_counts()
        try:
            record_dispatch("krylov", 4)
            record_dispatch("krylov")
            assert dispatch_counts()["krylov"] == 5
        finally:
            reset_dispatch_counts()

    def test_concurrent_records_do_not_lose_counts(self):
        counters = DispatchCounters()

        def hammer():
            for _ in range(1000):
                counters.record("uniformization")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.snapshot() == {"uniformization": 8000}

"""Faults of the result-cache store: each ends in a recompute or a loud
error, never a wrong answer.

Covers a damaged store file, a read-only cache directory, a full disk
(simulated: a write that raises ``ENOSPC``), a campaign killed with
``SIGKILL`` and resumed, two processes and many threads writing one
directory, connection lifetime, and old per-file cache trees.
Damaged rows are covered in ``test_cache.py``.
"""

import errno
import gc
import json
import logging
import os
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

import repro
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.runtime import executor
from repro.runtime.cache import STORE_NAME, ResultCache, _error_code
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec, default_grid
from repro.runtime.tasks import plan_campaign
from tests.conftest import store_rows
from tests.runtime.test_cache import full_record

SRC = Path(repro.__file__).resolve().parents[1]


def _spec(curves, phis=(0.0, 5000.0, 10_000.0), name="faults"):
    return CampaignSpec(
        name=name,
        curves=tuple(
            CurveSpec(
                label=f"c{i}",
                params=PAPER_TABLE3.with_overrides(coverage=0.90 + 0.0005 * i),
                phis=tuple(phis),
            )
            for i in range(curves)
        ),
    )


def _records(result):
    return [outcome.record for outcome in result.outcomes]


class CountingEvaluate:
    """Wraps ``evaluate_batch`` and counts the points it solves."""

    def __init__(self):
        self.points = 0

    def __call__(self, params, phis, solver=None):
        self.points += len(phis)
        return evaluate_batch(params, phis, solver=solver)


class TestDamagedStoreFile:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: b"this is not a database " * 200,
            lambda data: data[: len(data) // 2],
        ],
        ids=["garbage", "truncated"],
    )
    def test_damaged_store_is_set_aside_and_recomputed(
        self, tmp_path, damage, caplog
    ):
        root = tmp_path / "cache"
        spec = _spec(30)
        cache = ResultCache(root=root)
        reference = run_campaign(spec, cache=cache)
        cache.close()
        store = root / STORE_NAME
        store.write_bytes(damage(store.read_bytes()))

        cache = ResultCache(root=root)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            result = run_campaign(spec, cache=cache)
        assert any("damaged" in r.getMessage() for r in caplog.records)
        assert result.tasks_computed == len(result.outcomes)
        assert _records(result) == _records(reference)
        assert len(list(root.glob(f"{STORE_NAME}.damaged-*"))) == 1
        # The new store serves the recomputed entries.
        again = run_campaign(spec, cache=ResultCache(root=root))
        assert again.tasks_computed == 0
        assert _records(again) == _records(reference)


    def test_error_code_read_from_message_without_sqlite_errorcode(self):
        """Python 3.10's ``sqlite3`` exceptions carry no result code;
        damage and lock contention are then told apart by message."""
        assert _error_code(sqlite3.DatabaseError("file is not a database")) == 26
        assert _error_code(
            sqlite3.DatabaseError("database disk image is malformed")
        ) == 11
        assert _error_code(sqlite3.OperationalError("database is locked")) == 5
        assert _error_code(sqlite3.OperationalError("disk I/O error")) == 0


class TestReadOnlyDirectory:
    @pytest.mark.parametrize("populated", [False, True], ids=["empty", "populated"])
    def test_read_only_directory_fails_loudly(self, tmp_path, populated):
        root = tmp_path / "cache"
        root.mkdir()
        spec = _spec(2)
        if populated:
            run_campaign(_spec(1), cache_dir=root)
            before = store_rows(root)
        root.chmod(0o555)
        try:
            if os.access(root, os.W_OK):
                pytest.skip("file permissions are not enforced for this user")
            with pytest.raises((OSError, sqlite3.Error)):
                run_campaign(spec, cache_dir=root)
        finally:
            root.chmod(0o755)
        if populated:
            assert store_rows(root) == before
        else:
            assert not (root / STORE_NAME).exists()


class FullDisk:
    """A store connection whose batch write stores one row, then fails
    the way a full disk does."""

    def __init__(self, connection):
        self._connection = connection

    def __enter__(self):
        return self._connection.__enter__()

    def __exit__(self, *exc_info):
        return self._connection.__exit__(*exc_info)

    def execute(self, *args):
        return self._connection.execute(*args)

    def executemany(self, sql, rows):
        self._connection.execute(sql, next(iter(rows)))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFullDisk:
    def test_failed_chunk_writes_nothing_and_resume_solves_the_rest(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        spec = _spec(3)
        opened = ResultCache._connection
        writes = []

        def connection(self, create):
            handle = opened(self, create)
            if create:
                writes.append(None)
                if len(writes) == 2:  # the second chunk's write
                    return FullDisk(handle)
            return handle

        monkeypatch.setattr(ResultCache, "_connection", connection)
        with pytest.raises(OSError) as failure:
            run_campaign(spec, cache_dir=root)
        assert failure.value.errno == errno.ENOSPC
        monkeypatch.undo()

        curves = {}
        for task in plan_campaign(spec):
            curves.setdefault(task.params, set()).add(task.cache_key())
        # The first chunk (one curve) is stored whole, the failed one
        # not at all.
        assert set(store_rows(root)) in curves.values()

        counter = CountingEvaluate()
        monkeypatch.setattr(executor, "evaluate_batch", counter)
        resumed = run_campaign(spec, cache_dir=root)
        assert counter.points == 6
        assert resumed.tasks_computed == 6
        monkeypatch.undo()
        assert _records(resumed) == _records(run_campaign(spec))


class TestKilledCampaign:
    def test_sigkill_mid_run_then_resume(self, tmp_path, monkeypatch):
        grid = tuple(default_grid(PAPER_TABLE3.theta, step=500.0))
        spec = _spec(200, phis=grid, name="killed")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        root = tmp_path / "cache"
        store = root / STORE_NAME
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "--spec",
             str(spec_file), "--cache-dir", str(root), "--no-chart"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and process.poll() is None:
                try:
                    if store.exists() and _row_count(store) > 0:
                        break
                except sqlite3.OperationalError:
                    pass  # the store exists, its table not yet
                time.sleep(0.005)
            process.send_signal(signal.SIGKILL)
        finally:
            process.kill()
            process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

        total = len(grid) * len(spec.curves)
        stored = _row_count(store)
        assert 0 < stored < total

        counter = CountingEvaluate()
        monkeypatch.setattr(executor, "evaluate_batch", counter)
        resumed = run_campaign(spec, cache_dir=root)
        monkeypatch.undo()
        assert counter.points == total - stored
        assert resumed.tasks_computed == total - stored
        assert _records(resumed) == _records(run_campaign(spec))


def _row_count(store: Path) -> int:
    with closing(sqlite3.connect(store, timeout=30)) as connection:
        return connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]


#: One writer process: waits for the start signal, then stores ``count``
#: records in batches of ten — its own keys plus keys every writer shares.
WRITER = """
import json, sys, time
from pathlib import Path
from repro.runtime.cache import ResultCache

root, name, count = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
record = json.loads(sys.argv[4])
(root.parent / f"ready-{name}").touch()
while not (root.parent / "go").exists():
    time.sleep(0.001)
cache = ResultCache(root=root)
for start in range(0, count, 10):
    cache.put_many(
        (f"{owner}-{i:04d}", record)
        for i in range(start, start + 10)
        for owner in (name, "shared")
    )
"""


class TestConcurrentWriters:
    def test_two_processes_write_one_directory(self, tmp_path):
        root = tmp_path / "cache"
        count = 300
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, str(root), name, str(count),
                 json.dumps(full_record())],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in ("a", "b")
        ]
        try:
            deadline = time.monotonic() + 120
            while not all(
                (tmp_path / f"ready-{name}").exists() for name in ("a", "b")
            ):
                assert time.monotonic() < deadline, "writers never started"
                time.sleep(0.01)
            (tmp_path / "go").touch()
            errors = [writer.communicate(timeout=120)[1] for writer in writers]
        finally:
            for writer in writers:
                writer.kill()
                writer.wait(timeout=30)
        assert [writer.returncode for writer in writers] == [0, 0], errors

        keys = [
            f"{owner}-{i:04d}" for owner in ("a", "b", "shared") for i in range(count)
        ]
        rows = store_rows(root)
        assert sorted(rows) == sorted(keys)
        for key, body in rows.items():
            assert json.loads(body) == {
                "schema": ResultCache(root).schema_version,
                "key": key,
                "record": full_record(),
            }


class TestThreads:
    def test_threads_sharing_one_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        workers, batches = 8, 20
        interval = sys.getswitchinterval()

        def work(worker):
            for batch in range(batches):
                entries = [
                    (f"{worker}-{batch}-{i}", full_record(value=float(i)))
                    for i in range(5)
                ]
                cache.put_many(entries)
                keys = [key for key, _ in entries]
                assert cache.get_many(keys) == [record for _, record in entries]

        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [pool.submit(work, w) for w in range(workers)]:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert len(cache) == workers * batches * 5

    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd"
    )
    def test_dropped_caches_close_their_connections(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def use(cache):
            cache.put_many([("k", full_record())])
            assert cache.get_many(["k"]) == [full_record()]
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(cache.get_many, [["k"]] * 4)) == [
                    [full_record()]
                ] * 4

        use(ResultCache(root=tmp_path / "cache"))
        gc.collect()
        before = open_fds()
        for _ in range(200):
            use(ResultCache(root=tmp_path / "cache"))
        gc.collect()
        assert open_fds() <= before


class TestOldLayout:
    def test_per_file_tree_is_ignored(self, tmp_path):
        root = tmp_path / "cache"
        (task,) = plan_campaign(_spec(1, phis=(5000.0,)))
        cache = ResultCache(root=root)
        key = cache.key_for(task)
        (root / key[:2]).mkdir(parents=True)
        (root / key[:2] / f"{key}.json").write_text(
            json.dumps(
                {"schema": cache.schema_version, "key": key,
                 "record": full_record()},
                sort_keys=True,
            )
        )
        assert cache.get(task) is None
        assert len(cache) == 0
        assert cache.stats.corrupt == 0

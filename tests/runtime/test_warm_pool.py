"""The executor's warm process pool: reuse, replacement, failure, lifetime.

One pool serves every ``process`` dispatch of a process while its pid,
``jobs``, the ``ProcessPoolExecutor`` class bound in the executor and
the ``REPRO_*`` environment stay the same.  A failing chunk leaves it
warm; a broken pool is replaced.  Its workers end with their parent,
whether it exits or is killed.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.ctmc.config import DENSE_STATE_LIMIT
from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime import executor
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec

SRC = Path(repro.__file__).resolve().parents[1]
PHIS = (0.0, 2500.0, 5000.0, 7500.0, 10000.0)

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process states in /proc"
)


def _spec(curves: int = 4) -> CampaignSpec:
    return CampaignSpec(
        name="warm",
        curves=tuple(
            CurveSpec(
                label=f"c{i}",
                params=PAPER_TABLE3.with_overrides(coverage=0.90 + 0.01 * i),
                phis=PHIS,
            )
            for i in range(curves)
        ),
    )


def _campaign(backend: str = "process", jobs: int = 2) -> str:
    """Every record of a four-curve campaign, as exact JSON text."""
    result = run_campaign(_spec(), backend=backend, jobs=jobs)
    return json.dumps([outcome.record for outcome in result.outcomes])


def _worker_pids() -> set[int]:
    """The warm pool's worker pids (``ProcessPoolExecutor._processes``)."""
    return set(executor._pool._processes)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _all_gone(pids, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def _report_pid(_task) -> list[tuple[dict, float]]:
    return [({"pid": os.getpid()}, 0.0)]


def _fail_odd(task: int) -> list[tuple[dict, float]]:
    if task % 2:
        raise RuntimeError("injected chunk failure")
    return [({"task": task}, 0.0)]


def _dispatch_each(worker, tasks, jobs: int = 2) -> list:
    """``worker(task)`` for each task, one chunk per task, on the pool."""
    return executor._dispatch(
        tasks, "process", jobs, None, executor._singletons,
        lambda chunk: (worker, chunk[0][1]),
    )


@pytest.fixture(scope="module")
def serial_records() -> str:
    return _campaign("serial", 1)


def test_consecutive_campaigns_run_on_the_same_workers(serial_records):
    assert _campaign() == serial_records
    pool, pids = executor._pool, _worker_pids()
    assert len(pids) == 2
    assert _campaign() == serial_records
    assert executor._pool is pool
    served = {o.record["pid"] for o in _dispatch_each(_report_pid, range(8))}
    assert served <= pids
    assert _worker_pids() == pids


def test_pool_replaced_when_jobs_environment_or_class_changes(monkeypatch):
    _campaign(jobs=2)
    first, first_pids = executor._pool, _worker_pids()

    _campaign(jobs=3)
    second = executor._pool
    assert second is not first and len(_worker_pids()) == 3
    # The old pool was shut down and waited for, not left behind.
    assert not any(_alive(pid) for pid in first_pids)

    monkeypatch.setenv("REPRO_DENSE_STATE_LIMIT", str(DENSE_STATE_LIMIT))
    _campaign(jobs=3)
    third = executor._pool
    assert third is not second
    _campaign(jobs=3)
    assert executor._pool is third

    class OtherPool(executor.ProcessPoolExecutor):
        pass

    monkeypatch.setattr(executor, "ProcessPoolExecutor", OtherPool)
    _campaign(jobs=3)
    assert type(executor._pool) is OtherPool


def test_failed_chunk_leaves_the_pool_warm_and_answers_exact(serial_records):
    _campaign()
    pool = executor._pool
    with pytest.raises(RuntimeError, match="injected"):
        _dispatch_each(_fail_odd, list(range(6)))
    assert executor._pool is pool
    assert _campaign() == serial_records
    assert executor._pool is pool


def test_worker_killed_while_idle_gets_a_fresh_pool(serial_records):
    _campaign()
    pool = executor._pool
    os.kill(min(_worker_pids()), signal.SIGKILL)
    deadline = time.monotonic() + 10
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.02)
    assert pool._broken
    assert _campaign() == serial_records
    assert executor._pool is not pool


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_never_reuses_its_parents_pool(serial_records):
    _campaign()
    pool, pids = executor._pool, _worker_pids()
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the forked child
        verdict = b"0"
        try:
            same = _campaign() == serial_records
            own = executor._pool is not pool and not _worker_pids() & pids
            executor.shutdown_pool()
            verdict = b"1" if same and own else b"0"
        finally:
            os.write(write, verdict)
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 120
    while os.waitpid(child, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("forked child did not finish")
        time.sleep(0.05)
    with os.fdopen(read, "rb") as handle:
        assert handle.read() == b"1"
    # The parent's pool is untouched by the child's.
    assert executor._pool is pool and _worker_pids() == pids
    assert all(_alive(pid) for pid in pids)
    assert _campaign() == serial_records


_CHILD = """
import os, sys, time
from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime import executor
from repro.runtime.campaign import run_campaign
from repro.runtime.spec import CampaignSpec, CurveSpec

spec = CampaignSpec(name="orphans", curves=tuple(
    CurveSpec(label=f"c{i}", params=PAPER_TABLE3.with_overrides(coverage=0.9 + 0.01 * i),
              phis=(0.0, 5000.0, 10000.0))
    for i in range(2)))
# Two chunks on four workers: at least two workers never get a chunk.
run_campaign(spec, backend="process", jobs=4)
print(" ".join(map(str, executor._pool._processes)), flush=True)
if sys.argv[1] == "wait":
    time.sleep(120)
"""


def _child_workers(mode: str) -> tuple[subprocess.Popen, list[int]]:
    environ = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, mode],
        stdout=subprocess.PIPE, env=environ, text=True,
    )
    line = proc.stdout.readline()
    pids = [int(pid) for pid in line.split()]
    assert len(pids) == 4, f"child printed {line!r}"
    return proc, pids


def test_workers_end_when_their_parent_is_killed():
    proc, pids = _child_workers("wait")
    try:
        assert all(_alive(pid) for pid in pids)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert _all_gone(pids, 3.0), [pid for pid in pids if _alive(pid)]
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_workers_end_when_their_parent_exits():
    proc, pids = _child_workers("exit")
    try:
        assert proc.wait(timeout=60) == 0
        # concurrent.futures joins the pool at interpreter exit.
        assert not any(_alive(pid) for pid in pids)
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()

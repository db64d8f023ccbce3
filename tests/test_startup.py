"""Start-up cost of the shipped entry points.

``import repro.cli`` and ``import repro.serve.service`` must not load
the statistics, optimisation and simulation code no ``Y(phi)`` query
uses; each loads on first use, inside the function that needs it.  The
lazily imported paths must still give the answers they gave when the
imports sat at module top.  ``python -m repro`` pins BLAS to one thread
unless the user set the thread count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ctmc.accumulated import transient_accumulated_grid
from repro.ctmc.chain import CTMC
from repro.des.stats import replication_interval

SRC = Path(repro.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

#: Modules an entry point must leave unloaded at import.
DEFERRED = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.interpolate",
    "repro.des",
    "repro.mdcd",
)


def _python(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on this source tree; its stdout."""
    environ = {
        name: value
        for name, value in os.environ.items()
        if not name.endswith("_NUM_THREADS")
    }
    environ["PYTHONPATH"] = str(SRC)
    environ.update(env)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.service"])
def test_entry_point_import_leaves_heavy_modules_unloaded(module):
    code = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {list(DEFERRED)!r} if m in sys.modules]))\n"
    )
    assert json.loads(_python(code)) == []


def test_uniformization_grid_is_bitwise_unchanged():
    """Fox–Glynn windows and the accrual survival series, through the
    lazy ``scipy.stats`` import, give the pinned bits."""
    chain = CTMC.from_rates(
        4,
        {(0, 1): 2.0, (1, 2): 2.0, (2, 3): 2.0,
         (1, 0): 3.0, (2, 1): 3.0, (3, 2): 3.0},
    )
    rows, accumulated = transient_accumulated_grid(
        chain,
        np.array([0.0, 1.0, 2.0, 3.0]),
        [0.0, 0.7, 3.7, 12.0],
        method="uniformization",
    )
    assert [float(x).hex() for x in rows[-1]] == [
        "0x1.a95a95e0b8369p-2", "0x1.1b91b92422645p-2",
        "0x1.7a17a1440d35fp-3", "0x1.f81f81647b2b2p-4",
    ]
    assert [float(x).hex() for x in accumulated] == [
        "0x0.0p+0", "0x1.338cbc8a0f966p-2",
        "0x1.927025307bc57p+1", "0x1.723b043178616p+3",
    ]


def test_replication_interval_is_bitwise_unchanged():
    interval = replication_interval([0.9, 1.3, 1.1, 0.7, 1.25])
    assert interval.mean == 1.05
    assert interval.half_width.hex() == "0x1.3dddb118e7e08p-2"


#: Runs ``python -m repro evaluate --phi 0`` in-process, then reads the
#: thread count from the loaded OpenBLAS the way perfbench does.
_BLAS_PROBE = f"""
import json, os, runpy, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from common import _blas_threads
sys.argv = ["repro", "evaluate", "--phi", "0"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps([_blas_threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def _blas_probe(**env: str) -> tuple:
    threads, variable = json.loads(_python(_BLAS_PROBE, **env).splitlines()[-1])
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS here")
    return threads, variable


def test_python_m_repro_pins_one_blas_thread():
    assert _blas_probe() == (1, "1")


def test_user_blas_thread_setting_wins():
    threads, variable = _blas_probe(OPENBLAS_NUM_THREADS="2")
    assert variable == "2"
    if (os.cpu_count() or 1) >= 2:
        assert threads == 2

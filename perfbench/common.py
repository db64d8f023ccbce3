"""Shared helpers: checkout paths, environment record, statistics, set-up.

Everything the three workloads share and nothing that knows about one
of them.  The benchmark never installs the program: it puts the
checkout's ``src`` directory first on ``sys.path`` (and ``PYTHONPATH``
for the processes it starts), so it always measures the source tree it
was run from.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (``perfbench/`` lives directly under it).
ROOT = Path(__file__).resolve().parent.parent
#: The program's source tree inside the checkout.
SRC = ROOT / "src"
#: Scratch space for caches, artifacts and server logs (ignored by git).
WORK_ROOT = ROOT / "perfbench" / ".work"
#: Per-run result records and traced-run span dumps (ignored by git).
RESULTS = ROOT / "perfbench" / "results"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}/repro")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> dict[str, str]:
    """Environment for processes the benchmark starts.

    ``PYTHONPATH`` (so the child imports this checkout's source) and
    unbuffered output (so readiness lines arrive at once) are set here.
    The child also inherits the BLAS thread pin that ``run.py`` puts in
    the environment; everything else stays as the user would have it.
    """
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.update(extra)
    return env


def make_work_dir(tag: str) -> Path:
    """A fresh scratch directory for one run (removed by ``cleanup``)."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def settle_disk() -> None:
    """Flush written and deleted files before the next timed sample.

    Used between samples, untimed, after a sample's cache directory is
    deleted: the sample's writes, and the block frees of its deletion,
    then reach the disk before the next sample starts, not in the middle
    of it.  Every sample starts from the same idle disk.
    """
    os.sync()


# ----------------------------------------------------------------------
# Resources
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Highest resident set of this process or any child it waited for.

    ``RUSAGE_CHILDREN`` reports the largest single descendant that has
    been reaped (pool workers, the server, set-up interpreters), so the
    maximum of the two is the workload's highest per-process RSS.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_python(code: str, timeout: float = 120.0) -> float:
    """Wall seconds for a fresh interpreter to run ``code`` and exit."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        raise BenchError(
            f"set-up interpreter failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-400:]}"
        )
    return elapsed


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def _git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def source_digest() -> str:
    """SHA-256 over the program's source files (identity without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """OpenBLAS's live thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as handle:
            libraries = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for library in sorted(libraries):
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def environment(seed: int) -> dict:
    """Where and on what a result was measured (goes with every result)."""
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
        }
    except (TypeError, AttributeError):
        pass
    blas["threads"] = _blas_threads()
    blas["env"] = {
        name: os.environ[name]
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def write_result(name: str, payload: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def random_levers(rng) -> dict[str, float]:
    """Six Table 3 levers drawn around the paper's point (one structure class).

    Ranges stay inside the coverage/rate region where every model keeps
    the Table 3 state-space structure, so seeds change the numbers the
    solvers see but not the amount of work they do.
    """
    return {
        "lam": round(rng.uniform(900.0, 1500.0), 3),
        "mu_new": round(rng.uniform(0.7e-4, 1.4e-4), 9),
        "coverage": round(rng.uniform(0.80, 0.995), 6),
        "p_ext": round(rng.uniform(0.05, 0.2), 6),
        "alpha": round(rng.uniform(4000.0, 8000.0), 3),
        "beta": round(rng.uniform(4000.0, 8000.0), 3),
    }

"""Unified solver-dispatch configuration and backend counters.

Every dense/sparse cutoff the ctmc layer dispatches on lives here, in
one documented place, instead of being scattered across
``transient.py``, ``linalg.py`` and the grid solvers:

``AUTO_STIFFNESS_THRESHOLD``
    ``Lambda * t`` above which ``auto`` dispatch considers a problem
    stiff and abandons uniformization for a matrix-exponential backend.
``DENSE_STATE_LIMIT``
    Largest chain the dense backends (``dense-expm``, spectral
    fallback, ``augmented-expm``) will densify.  The two matrix
    exponential backends square one dense ``n x n`` power at a time,
    the chain of squarings shared by every point of a grid, so their
    working set is a few ``n x n`` matrices whatever the grid.  Above
    the limit the solvers stay sparse end-to-end — no path may call
    ``.toarray()`` on a generator beyond this limit.
``SPECTRAL_STATE_LIMIT`` / ``SPECTRAL_CONDITION_LIMIT``
    Eigendecomposition backend bounds (tiny chains only).
``MAX_UNIFORMIZATION_TERMS``
    Bounded truncation: the largest Fox–Glynn window (matrix-vector
    products per segment) uniformization will walk before raising.
    ``auto`` dispatch routes such problems to a matrix-exponential
    backend instead of silently burning hours of matvecs.

Each limit has an environment override (``REPRO_<NAME>``) read at
dispatch time, so a campaign can be re-run with, say,
``REPRO_DENSE_STATE_LIMIT=0`` to force the sparse paths everywhere
without touching code.  The module-level constants are the *defaults*;
call :func:`limits` for the current effective values.

This module also owns the **solver-backend counters**: every solve
records which backend actually ran (dense vs sparse vs uniformization
vs Krylov ...), and the serving layer exposes the counts through
``GET /metrics`` so dispatch behaviour on large models is observable in
production.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields

#: ``Lambda * t`` threshold above which ``auto`` switches away from
#: uniformization (stiffness dispatch).
AUTO_STIFFNESS_THRESHOLD = 50_000.0

#: Largest state count any dense backend accepts (dense ``n x n`` work).
DENSE_STATE_LIMIT = 4_000

#: Largest chain the spectral backend diagonalises.  Deliberately
#: small: eigendecomposition only beats Padé expm when per-call overhead
#: dominates, and its conditioning risk grows with state count.
SPECTRAL_STATE_LIMIT = 32

#: Eigenvector-matrix condition ceiling; beyond it (or on a defective
#: generator) the spectral backend falls back to dense expm.
SPECTRAL_CONDITION_LIMIT = 1e8

#: Largest Fox–Glynn window uniformization will walk per segment.
MAX_UNIFORMIZATION_TERMS = 1_000_000

_ENV_PREFIX = "REPRO_"


@dataclass(frozen=True)
class SolverLimits:
    """The effective dense/sparse dispatch cutoffs."""

    auto_stiffness_threshold: float = AUTO_STIFFNESS_THRESHOLD
    dense_state_limit: int = DENSE_STATE_LIMIT
    spectral_state_limit: int = SPECTRAL_STATE_LIMIT
    spectral_condition_limit: float = SPECTRAL_CONDITION_LIMIT
    max_uniformization_terms: int = MAX_UNIFORMIZATION_TERMS


_DEFAULTS = SolverLimits()


def limits() -> SolverLimits:
    """The current dispatch limits (defaults + environment overrides).

    Each field of :class:`SolverLimits` may be overridden by an
    environment variable named ``REPRO_<FIELD_IN_UPPER_CASE>``
    (e.g. ``REPRO_DENSE_STATE_LIMIT=0``).  Read at every dispatch, so
    overrides apply without restarting long-lived processes.
    """
    overrides = {}
    for spec in fields(SolverLimits):
        raw = os.environ.get(_ENV_PREFIX + spec.name.upper())
        if raw is None:
            continue
        default = getattr(_DEFAULTS, spec.name)
        try:
            value = int(float(raw)) if isinstance(default, int) else float(raw)
        except ValueError as exc:
            raise ValueError(
                f"invalid value {raw!r} for {_ENV_PREFIX + spec.name.upper()}"
            ) from exc
        overrides[spec.name] = value
    if not overrides:
        return _DEFAULTS
    return SolverLimits(
        **{
            spec.name: overrides.get(spec.name, getattr(_DEFAULTS, spec.name))
            for spec in fields(SolverLimits)
        }
    )


# ----------------------------------------------------------------------
# Memory budget
# ----------------------------------------------------------------------
def memory_budget_bytes() -> int:
    """The working-set budget for large-model solver state.

    ``REPRO_MEMORY_BUDGET_MB`` overrides; the default is half of
    physical RAM (graceful fallback to 4 GiB where the sysconf keys are
    unavailable).  Two consumers share this single definition: the
    campaign executor caps *per-chunk* grid blocks with it, and the
    streaming uniformization path (:mod:`repro.ctmc.streaming`) refuses
    to start a solve whose preallocated workspaces would not fit.
    Read at call time, so long-lived processes pick up changes.
    """
    raw = os.environ.get("REPRO_MEMORY_BUDGET_MB")
    if raw is not None:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ValueError(
                f"invalid value {raw!r} for REPRO_MEMORY_BUDGET_MB"
            ) from exc
        if value <= 0:
            raise ValueError(
                f"REPRO_MEMORY_BUDGET_MB must be positive, got {raw!r}"
            )
        return int(value * 1024 * 1024)
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
        if pages > 0 and page_size > 0:
            return (pages * page_size) // 2
    except (ValueError, OSError, AttributeError):
        pass
    return 4 * 1024 ** 3


# ----------------------------------------------------------------------
# Solver-backend dispatch counters
# ----------------------------------------------------------------------
class DispatchCounters:
    """Thread-safe per-backend solve counters.

    Keys are backend names as dispatched (``"uniformization"``,
    ``"dense-expm"``, ``"krylov"``, ``"spectral"``, ``"augmented-expm"``,
    ``"steady-direct"``, ...).  Mutation is a
    single locked int add, cheap enough for every solve to report.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def record(self, backend: str, n: int = 1) -> None:
        """Count ``n`` solves dispatched to ``backend``."""
        with self._lock:
            self._counts[backend] = self._counts.get(backend, 0) + n

    def snapshot(self) -> dict[str, int]:
        """A copy of the current counts."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero all counters (test isolation)."""
        with self._lock:
            self._counts.clear()


_COUNTERS = DispatchCounters()


def record_dispatch(backend: str, n: int = 1) -> None:
    """Record that a solve ran on ``backend`` (process-wide counter)."""
    _COUNTERS.record(backend, n)


def dispatch_counts() -> dict[str, int]:
    """Snapshot of the process-wide per-backend solve counts."""
    return _COUNTERS.snapshot()


def reset_dispatch_counts() -> None:
    """Zero the process-wide backend counters (test isolation)."""
    _COUNTERS.reset()

"""Streaming bounded-truncation uniformization: the one Jensen walk.

Every ``method="uniformization"`` solve — transient, accumulated or
fused, scalar or grid — runs :func:`_stream`, the Fox–Glynn series with
production memory discipline:

* **Preallocated ping-pong workspaces** — four state vectors
  (:class:`StreamingWorkspace`) allocated once and reused across every
  step, segment, and (if the caller keeps the workspace) call.  The
  inner step performs **no O(n) allocation**: the matvec writes into a
  workspace buffer through scipy's ``csr_matvec`` kernel (graceful
  per-step-allocating fallback if the private kernel is unavailable,
  flagged on the certificate).
* **No uniformized matrix** — ``P`` is never formed.  The step is
  ``y = x + (Q^T x) / L`` on the transposed generator, so the only
  matrix copy is the one transpose (same nnz as ``Q``).
* **Budget admission** — the solve refuses to start if workspaces +
  transposed generator + result rows exceed
  :func:`repro.ctmc.config.memory_budget_bytes`
  (``REPRO_MEMORY_BUDGET_MB``), instead of discovering the OOM killer
  mid-walk.  The budget never affects the arithmetic: results are
  bitwise identical across any budget large enough to admit the solve.
* **Certified error accounting** — every result carries a
  :class:`TruncationCertificate` bounding the L1 error of the
  distribution rows (left + right Poisson truncation, renormalisation,
  cross-segment propagation) and the absolute error of accumulated
  rewards (survival-series tail via the closed-form Poisson excess
  mean, plus accrual of the carried distribution error).

The walk is incremental: the distribution at ``times[j]`` seeds the
walk for the segment ``times[j+1] - times[j]``, so a whole curve costs
one pass of length ``Lambda * times[-1]`` rather than one per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.ctmc import config
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import as_csr, uniformization_rate, validate_generator
from repro.ctmc.uniformization import (
    _check_window_bound,
    _validate_time_grid,
    accrual_right_point,
    fox_glynn_weights,
    poisson_excess_mean,
    poisson_survival,
)

try:  # pragma: no cover - exercised implicitly by every streaming test
    from scipy.sparse import _sparsetools as _st

    _CSR_MATVEC = _st.csr_matvec
except (ImportError, AttributeError):  # pragma: no cover - old scipy
    _CSR_MATVEC = None

#: Whether the zero-allocation CSR matvec kernel is available.
ALLOCATION_FREE_KERNEL = _CSR_MATVEC is not None


@dataclass(frozen=True)
class TruncationCertificate:
    """Certified error accounting of one streaming solve.

    Attributes
    ----------
    segments:
        Number of positive-length grid segments walked.
    terms:
        Total Jensen terms (matrix-vector products) across all segments.
    distribution_bound:
        L1 bound on every returned distribution row: the sum over
        segments of ``2 * truncated_mass`` (left + right truncation plus
        renormalisation; propagation through later segments is
        non-expansive because ``P`` is stochastic and Poisson weights
        are a convex combination).
    accrual_bound:
        Absolute bound on every accumulated-reward value: per segment,
        the closed-form survival-series tail
        ``(max|r| / L) * E[(N - R - 1)^+]`` plus the carried
        distribution error accrued over the segment
        (``carried_bound * max|r| * dt``).  Zero when no rewards were
        integrated.
    workspace_bytes:
        Bytes the solve admitted against the budget (workspaces +
        transposed generator + result rows).
    budget_bytes:
        The budget the solve was admitted under.
    allocation_free:
        True when the zero-allocation matvec kernel served every step.
    """

    segments: int
    terms: int
    distribution_bound: float
    accrual_bound: float
    workspace_bytes: int
    budget_bytes: int
    allocation_free: bool


@dataclass(frozen=True)
class StreamingResult:
    """Distribution rows (and optional accumulated rewards) + certificate."""

    rows: np.ndarray
    accumulated: np.ndarray | None
    certificate: TruncationCertificate


class StreamingWorkspace:
    """Preallocated state-vector buffers for the streaming walk.

    Four ``float64`` vectors of length ``num_states``: the current
    Jensen iterate, the matvec target, the weighted accumulator, and a
    scaling scratch.  Allocated once; every streaming call with a
    matching state count reuses them, so a campaign of curves on one
    fleet touches the allocator exactly once.
    """

    #: Number of state vectors the workspace holds.
    VECTORS = 4

    def __init__(self, num_states: int):
        if num_states < 1:
            raise CTMCError(
                f"workspace needs >= 1 state, got {num_states}"
            )
        self.num_states = int(num_states)
        self.vec = np.empty(num_states)
        self.nxt = np.empty(num_states)
        self.acc = np.empty(num_states)
        self.scaled = np.empty(num_states)


def required_bytes(
    num_states: int, nnz: int, grid_points: int, with_accumulated: bool = False
) -> int:
    """Bytes a streaming solve admits against the memory budget.

    Counts the four workspace vectors, the transposed-generator copy
    (data + int32 indices + indptr), the result rows block
    (``grid_points x num_states`` doubles) and, for accumulated solves,
    the rewards vector and totals.  Per-segment Poisson weight arrays
    are O(window length), independent of the state count, and not
    charged.
    """
    vectors = StreamingWorkspace.VECTORS * 8 * num_states
    generator = nnz * 12 + (num_states + 1) * 8
    rows = grid_points * num_states * 8
    extra = (num_states + grid_points) * 8 if with_accumulated else 0
    return vectors + generator + rows + extra


def _admit(
    num_states: int,
    nnz: int,
    grid_points: int,
    with_accumulated: bool,
    budget_bytes: int | None,
) -> tuple[int, int]:
    """Budget admission: returns ``(required, budget)`` or raises."""
    budget = (
        int(budget_bytes)
        if budget_bytes is not None
        else config.memory_budget_bytes()
    )
    required = required_bytes(
        num_states, nnz, grid_points, with_accumulated=with_accumulated
    )
    if required > budget:
        raise CTMCError(
            f"streaming uniformization needs {required} workspace bytes "
            f"({num_states} states, {nnz} nnz, {grid_points} grid points) "
            f"but the memory budget is {budget}; raise "
            f"REPRO_MEMORY_BUDGET_MB or solve fewer grid points per pass"
        )
    return required, budget


def _matvec(at: sp.csr_matrix, x: np.ndarray, y: np.ndarray) -> None:
    """``y = A^T x`` into the preallocated ``y`` (allocation-free kernel
    when available; the certificate records which path served)."""
    if _CSR_MATVEC is not None:
        y[:] = 0.0
        _CSR_MATVEC(
            at.shape[0], at.shape[1], at.indptr, at.indices, at.data, x, y
        )
    else:  # pragma: no cover - old scipy
        y[:] = at @ x


def _step(
    at: sp.csr_matrix, rate: float, ws: StreamingWorkspace
) -> None:
    """One Jensen step ``vec <- vec P`` with ``P = I + Q/L``, in place.

    Computed as ``nxt = vec + (Q^T vec) / L`` — ``P`` is never formed —
    then the two buffers swap roles.
    """
    _matvec(at, ws.vec, ws.nxt)
    np.multiply(ws.nxt, 1.0 / rate, out=ws.nxt)
    np.add(ws.nxt, ws.vec, out=ws.nxt)
    ws.vec, ws.nxt = ws.nxt, ws.vec


def streaming_transient_grid(
    q,
    initial: np.ndarray,
    times,
    tolerance: float = 1e-12,
    budget_bytes: int | None = None,
    workspace: StreamingWorkspace | None = None,
) -> StreamingResult:
    """Transient distributions over a time grid, streamed under budget.

    The incremental Fox–Glynn walk with preallocated workspaces, no
    per-step allocation, budget admission, and a
    :class:`TruncationCertificate`.  The grid must be non-decreasing;
    duplicates are served for free.
    """
    return _stream(
        q, initial, None, times, tolerance, budget_bytes, workspace
    )


def streaming_accumulated_grid(
    q,
    initial: np.ndarray,
    rewards,
    times,
    tolerance: float = 1e-12,
    budget_bytes: int | None = None,
    workspace: StreamingWorkspace | None = None,
) -> StreamingResult:
    """Distribution rows *and* accumulated rewards in one streamed walk.

    One k-walk per segment serves both series — pmf weights rebuild the
    distribution at the segment end, survival weights integrate the
    reward across it — with both error bounds certified.
    """
    r = np.ascontiguousarray(rewards, dtype=np.float64)
    return _stream(q, initial, r, times, tolerance, budget_bytes, workspace)


def _stream(
    q,
    initial: np.ndarray,
    rewards: np.ndarray | None,
    times,
    tolerance: float,
    budget_bytes: int | None,
    workspace: StreamingWorkspace | None,
) -> StreamingResult:
    grid = _validate_time_grid(times)
    q = validate_generator(as_csr(q))
    n = q.shape[0]
    pi0 = np.asarray(initial, dtype=np.float64)
    if pi0.shape != (n,):
        raise CTMCError(
            f"initial distribution has shape {pi0.shape}, expected ({n},)"
        )
    with_acc = rewards is not None
    required, budget = _admit(
        n, int(q.nnz), int(grid.size), with_acc, budget_bytes
    )
    if workspace is None:
        workspace = StreamingWorkspace(n)
    elif workspace.num_states != n:
        raise CTMCError(
            f"workspace sized for {workspace.num_states} states, chain "
            f"has {n}"
        )
    ws = workspace
    at = q.T.tocsr()
    rate = uniformization_rate(q)
    rmax = float(np.max(np.abs(rewards))) if with_acc else 0.0

    rows = np.empty((grid.size, n))
    totals = np.empty(grid.size) if with_acc else None
    ws.vec[:] = pi0
    segments = 0
    terms = 0
    pi_bound = 0.0
    acc_bound = 0.0
    total = 0.0
    prev = 0.0
    for j, t in enumerate(grid):
        dt = float(t) - prev
        if dt > 0.0:
            mean = rate * dt
            window = fox_glynn_weights(mean, tolerance=tolerance)
            right = window.right
            sf_right = -1
            sf_weights = None
            if with_acc:
                # The carried distribution error accrues into the
                # integral over this segment before the walk tightens
                # anything, so charge it against the bound first.
                acc_bound += pi_bound * rmax * dt
                sf_right = accrual_right_point(mean, tolerance)
                sf_weights = poisson_survival(mean, sf_right)
                acc_bound += (rmax / rate) * poisson_excess_mean(
                    mean, sf_right + 1
                )
                right = max(right, sf_right)
            _check_window_bound(right)
            ws.acc[:] = 0.0
            segment = 0.0
            for k in range(right + 1):
                if window.left <= k <= window.right:
                    np.multiply(
                        window.weights[k - window.left],
                        ws.vec,
                        out=ws.scaled,
                    )
                    np.add(ws.acc, ws.scaled, out=ws.acc)
                if with_acc and k <= sf_right:
                    segment += float(sf_weights[k]) * float(ws.vec @ rewards)
                if k < right:
                    _step(at, rate, ws)
                    terms += 1
            mass = window.total_mass
            if mass > 0:
                np.multiply(ws.acc, 1.0 / mass, out=ws.acc)
            ws.vec[:] = ws.acc
            pi_bound += 2.0 * window.truncated_mass
            total += segment / rate
            segments += 1
        rows[j] = ws.vec
        if with_acc:
            totals[j] = total
        prev = float(t)

    certificate = TruncationCertificate(
        segments=segments,
        terms=terms,
        distribution_bound=pi_bound,
        accrual_bound=acc_bound,
        workspace_bytes=required,
        budget_bytes=budget,
        allocation_free=ALLOCATION_FREE_KERNEL,
    )
    return StreamingResult(
        rows=rows, accumulated=totals, certificate=certificate
    )

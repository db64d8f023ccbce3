"""Transient (instant-of-time) solutions and rewards.

One implementation per solve kind: :func:`transient_grid` solves a whole
time grid, and the scalar :func:`transient_distribution` is its
one-point case, so scalar and grid answers agree bitwise by
construction.  Four backends:

* ``"uniformization"`` — Jensen's method with Fox–Glynn truncation, run
  by the streaming walk (:mod:`repro.ctmc.streaming`): one incremental
  pass across the grid with preallocated workspaces and a truncation
  certificate.  Cost grows linearly with ``Lambda * t``, so it suits
  non-stiff problems.  Sparse, no state-count limit; the Fox–Glynn
  window is bounded by ``MAX_UNIFORMIZATION_TERMS`` so a stiff problem
  fails fast instead of walking millions of matvecs.
* ``"spectral"`` — one eigendecomposition of ``Q``, then each time is an
  independent ``O(n^2)`` evaluation.  Stiffness-independent and cheap
  on tiny chains; limited to ``SPECTRAL_STATE_LIMIT`` states and falls
  back to dense expm on defective or ill-conditioned generators.
* ``"dense-expm"`` — scaling and squaring with the squarings shared
  across the grid (:func:`_expm_rows`): one Padé exponential
  ``P_0 = expm(Q h)`` with ``||Q h||_1`` within the Padé-13 bound, then
  one chain of squarings ``P_{j+1} = P_j^2`` for the whole grid.  Each
  time splits exactly as ``t = k h + rem``; its row multiplies ``pi0``
  by the powers for the set bits of ``k`` and finishes with one
  unsquared ``expm(Q rem)``.  Cost is ``O(n^3 log(Lambda t))`` for the
  chain plus ``O(n^2)`` per point and set bit (and one ``O(n^3)``
  Padé per non-dyadic point), essentially independent of stiffness,
  which matters for the paper's models where message rates (1200/h)
  and fault rates (1e-4/h) differ by seven orders of magnitude over
  1e4-hour horizons.  Only one power is held at a time.  Limited to
  ``DENSE_STATE_LIMIT`` states.
* ``"krylov"`` — segment-stepped Krylov actions of the matrix
  exponential (``scipy.sparse.linalg.expm_multiply``).  Sparse, the
  backend for chains too large to densify; not stiffness-tolerant: its
  cost grows linearly with ``||Q|| t`` (Al-Mohy & Higham, 2011).
* ``"auto"`` — :func:`_choose`: uniformization when ``Lambda * t`` is
  small; for stiff problems, spectral on tiny chains, dense expm within
  the dense limit, and Krylov beyond it (the default of the GSU
  measures).

All dispatch cutoffs live in :mod:`repro.ctmc.config` (with env-var
overrides); every solve records its backend there so the serving layer
can expose dense/sparse/uniformization dispatch counts.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.streaming import streaming_transient_grid
from repro.ctmc.uniformization import _validate_time_grid

#: Supported transient backends, scalar and grid alike.
TRANSIENT_METHODS = ("auto", "uniformization", "spectral", "dense-expm", "krylov")

#: Padé-13 scaling bound ``theta_13`` (Higham 2005): ``expm`` of a
#: matrix whose 1-norm is at most this needs no squaring.
_PADE13_THETA = 5.37

#: Smallest normal double.
_TINY = float(np.finfo(float).tiny)


def _check_method(method: str, methods: tuple[str, ...], kind: str) -> None:
    if method not in methods:
        raise CTMCError(
            f"unknown {kind} method {method!r}; expected one of {methods}"
        )


def transient_distribution(
    chain: CTMC,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """State probability vector ``pi(t)`` of ``chain`` at time ``t``.

    The one-point case of :func:`transient_grid`.  ``t = 0`` returns the
    initial distribution without a solve, so it records no backend.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    t:
        Non-negative time horizon.
    method:
        Any entry of :data:`TRANSIENT_METHODS`; ``"uniformization"`` is
        the default.
    tolerance:
        Truncation tolerance for the uniformization backend.
    """
    _check_method(method, TRANSIENT_METHODS, "transient")
    if t < 0:
        raise CTMCError(f"time must be non-negative, got {t}")
    if t == 0.0:
        return chain.initial_distribution
    return transient_grid(chain, [t], method=method, tolerance=tolerance)[0]


def _choose(chain: CTMC, t_max: float) -> str:
    """The ``auto`` rule shared by every solve kind.

    Returns a transient backend by stiffness and size (cutoffs from
    :func:`repro.ctmc.config.limits`); accumulated solves map it to
    their own backend.
    """
    lim = config.limits()
    max_exit = float(np.max(chain.exit_rates(), initial=0.0))
    if max_exit * t_max <= lim.auto_stiffness_threshold:
        return "uniformization"
    if chain.num_states <= lim.spectral_state_limit:
        return "spectral"
    if chain.num_states <= lim.dense_state_limit:
        return "dense-expm"
    # Stiff *and* beyond the dense limit: stay sparse via the Krylov
    # action of the exponential rather than densifying or walking an
    # unbounded uniformization series.
    return "krylov"


def _spectral_rows(chain: CTMC, unique: np.ndarray) -> np.ndarray | None:
    """``pi(t)`` rows per unique time via one eigendecomposition.

    ``pi(t) = pi(0) V e^{diag(w) t} V^{-1}`` with ``Q = V diag(w) V^{-1}``.
    Every time point is an *independent* evaluation from the same
    factorisation, so results do not depend on which other times ride
    along in the grid.  Returns ``None`` when the chain is too large,
    the generator is defective, or the eigenvector matrix is
    ill-conditioned; callers then fall back to dense expm.
    """
    lim = config.limits()
    n = chain.num_states
    if n > lim.spectral_state_limit:
        return None
    q = chain.generator.toarray()
    w, v = np.linalg.eig(q)
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    if (
        not np.all(np.isfinite(vinv))
        or np.linalg.cond(v) > lim.spectral_condition_limit
    ):
        return None
    pi0 = chain.initial_distribution
    coeff = pi0.astype(complex) @ v
    out = np.empty((unique.size, n))
    out[unique == 0.0] = pi0
    positive = np.flatnonzero(unique > 0.0)
    terms = coeff * np.exp(unique[positive][:, None] * w)
    out[positive] = _renormalise_rows(np.real(_stacked_rows(terms, vinv)))
    return out


def _check_dense(chain: CTMC, backend: str) -> None:
    limit = config.limits().dense_state_limit
    if chain.num_states > limit:
        raise CTMCError(
            f"{backend} limited to {limit} states; chain has "
            f"{chain.num_states}"
        )


def transient_grid(
    chain: CTMC,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Transient distributions at every point of a time grid, batched.

    The grid must be non-decreasing.  It is deduplicated up front
    (repeated time points are solved once and broadcast back), then the
    unique points go to one backend of :data:`TRANSIENT_METHODS` (see
    the module docstring).  A spectral or dense-expm row depends only on
    the chain and its own time, so a point's value never depends on its
    companions; uniformization and Krylov step from one point to the
    next.  Returns an array of shape ``(len(times), num_states)``.
    """
    grid = _validate_time_grid(times)
    _check_method(method, TRANSIENT_METHODS, "transient")
    unique, inverse = np.unique(grid, return_inverse=True)
    if method == "auto":
        method = _choose(chain, float(unique[-1]))
    if method == "spectral":
        out = _spectral_rows(chain, unique)
        if out is not None:
            config.record_dispatch("spectral")
            return out[inverse]
        method = "dense-expm"
    if method == "uniformization":
        config.record_dispatch("uniformization")
        out = streaming_transient_grid(
            chain.generator,
            chain.initial_distribution,
            unique,
            tolerance=tolerance,
        ).rows
    elif method == "krylov":
        config.record_dispatch("krylov")
        out = _krylov_grid(chain, unique)
    else:
        out = _dense_expm_grid(chain, unique)
    return out[inverse]


def _dense_expm_grid(chain: CTMC, unique: np.ndarray) -> np.ndarray:
    """``pi(t)`` per unique time from one shared chain of squarings."""
    _check_dense(chain, "dense-expm")
    config.record_dispatch("dense-expm", n=max(int(unique.size), 1))
    rows = _expm_rows(
        chain.generator.toarray(), chain.initial_distribution, unique
    )
    positive = unique > 0.0
    rows[positive] = _renormalise_rows(rows[positive])
    return rows


def _squaring_exponent(a: np.ndarray) -> int:
    """``s = max(0, ceil(log2(||a||_1 / theta_13)))``, computed exactly.

    ``A 2**-s`` then lies within the Padé-13 bound, so its exponential
    needs no squaring of its own.  A zero matrix gives ``s = 0``.
    """
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if norm <= _PADE13_THETA:
        return 0
    mantissa, exponent = math.frexp(norm / _PADE13_THETA)
    return exponent if mantissa > 0.5 else exponent - 1


def _expm_rows(
    a: np.ndarray, state: np.ndarray, unique: np.ndarray
) -> np.ndarray:
    """``state @ expm(a t)`` for every unique time, unnormalised.

    Scaling and squaring with the squarings shared across the grid
    (Moler & Van Loan, "Nineteen Dubious Ways").  The base step
    ``h = 2**-s`` (:func:`_squaring_exponent`) depends only on ``a``.
    Each time splits exactly as ``t = k h + rem`` with ``0 <= rem < h``
    (``h`` is a power of two).  The powers ``P_j = expm(a h)**(2**j)``
    are streamed in ascending ``j``: every row whose ``k`` has bit ``j``
    set is multiplied by ``P_j``, then ``P_j`` is squared into
    ``P_{j+1}``, so only one power is held at a time.  A row with
    ``rem > 0`` finishes with one unsquared ``expm(a rem)``.

    A row's products, their order and every ``P_j`` depend only on
    ``a``, ``state`` and its own ``t``, and each row is multiplied on
    its own (:func:`_stacked_rows`), so a row is bitwise the same in
    any grid.
    """
    s = _squaring_exponent(a)
    h = math.ldexp(1.0, -s)
    rems = [math.fmod(float(t), h) for t in unique]
    counts = [
        int(math.ldexp(float(t) - rem, s)) for t, rem in zip(unique, rems)
    ]
    rows = np.empty((unique.size, state.size))
    rows[:] = state
    bits = max(counts, default=0).bit_length()
    if bits:
        power = dense_expm(a * h)
    for j in range(bits):
        selected = [k for k, count in enumerate(counts) if count >> j & 1]
        rows[selected] = _stacked_rows(rows[selected], power)
        if j + 1 < bits:
            power = power @ power
    for k, rem in enumerate(rems):
        if rem > 0.0:
            rows[k] = rows[k] @ dense_expm(a * rem)
    return rows


def _negligible(at: sp.csr_matrix, dt: float) -> bool:
    """Whether ``at * dt`` is numerically zero: its entries sum below
    the smallest normal double.

    scipy's ``expm_multiply`` rounds its scaling count to zero on such
    an operator and divides by that count, warning, before returning
    the state unchanged.
    """
    return float(np.abs(at.data).sum()) * dt < _TINY


def _krylov_step(at: sp.csr_matrix, dt: float, state: np.ndarray) -> np.ndarray:
    """``state @ expm(A dt)`` as one Krylov action on ``at = A^T``; a
    segment whose scaled operator is :func:`_negligible` leaves the
    state unchanged."""
    if _negligible(at, dt):
        return state
    return expm_multiply(at * dt, state)


def _krylov_grid(chain: CTMC, unique: np.ndarray) -> np.ndarray:
    """Segment-stepped sparse Krylov actions along the grid.

    ``pi(t_{j+1}) = pi(t_j) exp(Q dt_j)`` with each step one
    :func:`_krylov_step` on the transposed CSR generator — memory stays
    ``O(nnz + n)`` regardless of state count.  Uniform grids collapse
    into a *single* ``expm_multiply`` call over the whole grid (scipy
    evaluates all the equally spaced endpoints from one Krylov
    decomposition per step).
    """
    at = chain.generator.T.tocsr()
    pi0 = chain.initial_distribution
    out = np.empty((unique.size, chain.num_states))

    start = 0
    if unique[0] == 0.0:
        out[0] = pi0
        start = 1
    if start >= unique.size:
        return out
    positive = unique[start:]
    diffs = np.diff(np.concatenate(([0.0], positive)))
    # Uniform spacing from t=0: one multi-endpoint Krylov evaluation.
    if (
        positive.size > 1
        and np.allclose(diffs, diffs[0], rtol=1e-12, atol=0.0)
        and not _negligible(at, float(diffs[0]))
    ):
        rows = expm_multiply(
            at,
            pi0,
            start=float(positive[0]),
            stop=float(positive[-1]),
            num=int(positive.size),
            endpoint=True,
        )
        rows = np.atleast_2d(rows)
        for k in range(positive.size):
            out[start + k] = _renormalise(rows[k])
        return out
    vec = pi0.copy()
    prev = 0.0
    for k, t in enumerate(positive):
        vec = _renormalise(_krylov_step(at, float(t) - prev, vec))
        out[start + k] = vec
        prev = float(t)
    return out


def _stacked_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows[k] @ matrix`` for every row ``k``, in one numpy call.

    The rows go in as a stack of ``1 x n`` matrices, and matmul hands
    each one to the same BLAS vector-matrix product as a lone 1-D
    ``row @ matrix``, so every row is bitwise what it would be on its
    own.  A plain 2-D ``rows @ matrix`` is one matrix-matrix product,
    whose blocking can change the last bit with the number of rows.
    """
    return (rows[:, None, :] @ matrix)[:, 0, :]


def _renormalise(row: np.ndarray) -> np.ndarray:
    """Clip tiny negatives and renormalise a probability row."""
    row = np.clip(row, 0.0, None)
    total = row.sum()
    if total > 0:
        row = row / total
    return row


def _renormalise_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`_renormalise` applied to every row of a 2-D block.

    Each row sum is the same pairwise sum over one contiguous row that
    ``row.sum()`` computes, so every row is bitwise what
    :func:`_renormalise` gives it.
    """
    rows = np.clip(rows, 0.0, None)
    totals = rows.sum(axis=1)
    positive = totals > 0
    rows[positive] /= totals[positive, None]
    return rows


def instant_of_time_reward(
    chain: CTMC,
    rewards,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> float:
    """Expected instant-of-time reward ``E[r(X_t)] = pi(t) . r``.

    ``rewards`` is a per-state reward-rate vector.  This is the solver
    behind every ``"expected instant-of-time reward at phi"`` entry in the
    paper's Tables 1 and 2.
    """
    r = validate_rewards(rewards, chain.num_states)
    pi_t = transient_distribution(chain, t, method=method, tolerance=tolerance)
    return float(pi_t @ r)

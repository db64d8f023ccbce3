"""Expected accumulated (interval-of-time) rewards.

Solves ``E[Y(t)] = E[int_0^t r(X_u) du]`` — the reward type used by the
paper for the mean-time-to-detection constituent measure
``int_0^phi tau h(tau) dtau`` (Table 1, row 2), where states in ``A2'``
carry rate +1 and absorbing failure states in ``A4'`` carry rate -1.

One implementation: :func:`transient_accumulated_grid` solves the
distributions and the accumulated rewards over a whole time grid in one
pass; :func:`accumulated_grid` returns its second half and the scalar
:func:`accumulated_reward` is the one-point grid.  Backends:

* ``"uniformization"`` — integrated uniformization on the streaming
  walk (:mod:`repro.ctmc.streaming`); cost linear in ``Lambda * t``.
* ``"augmented-expm"`` — the augmented-generator trick: with
  ``A = [[Q, r], [0, 0]]`` the last component of ``[pi(0), 0] expm(A t)``
  is exactly ``int_0^t pi(u) r du``.  The exponentials come from one
  chain of squarings of ``A`` shared across the grid, as for
  ``dense-expm`` (:func:`repro.ctmc.transient._expm_rows`), so the
  cost barely depends on stiffness — required for the paper's 1e4-hour
  horizons.
* ``"augmented-krylov"`` — the same augmented-generator trick kept
  sparse: segment-stepped Krylov actions (``expm_multiply``) of the CSR
  augmented matrix.  ``O(nnz)`` memory — the large-chain workhorse
  above ``DENSE_STATE_LIMIT`` — but its cost grows linearly with
  ``||Q|| t`` (Al-Mohy & Higham, 2011).
* ``"auto"`` — the shared rule of :func:`repro.ctmc.transient._choose`:
  uniformization when non-stiff; otherwise augmented expm within the
  dense limit and augmented Krylov beyond it.

The slow quadrature reference that cross-checks these backends lives
with the other oracles in :mod:`repro.verify.oracles`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.streaming import streaming_accumulated_grid
from repro.ctmc.transient import (
    _check_dense,
    _check_method,
    _choose,
    _expm_rows,
    _krylov_step,
    _renormalise,
    _renormalise_rows,
)
from repro.ctmc.uniformization import _validate_time_grid

#: Supported accumulated-reward backends: scalar, grid and fused alike.
ACCUMULATED_METHODS = (
    "auto",
    "uniformization",
    "augmented-expm",
    "augmented-krylov",
)

#: The accumulated backend for each answer of the shared ``auto`` rule.
_AUGMENTED = {
    "uniformization": "uniformization",
    "spectral": "augmented-expm",
    "dense-expm": "augmented-expm",
    "krylov": "augmented-krylov",
}


def _augmented_sparse(chain: CTMC, rewards: np.ndarray) -> sp.csr_matrix:
    """The augmented generator ``[[Q, r], [0, 0]]`` assembled in CSR.

    Built from the generator's own CSR triplets — no dense round-trip,
    so it works at any state count.
    """
    q = chain.generator.tocoo()
    n = chain.num_states
    nz = np.nonzero(rewards)[0]
    rows = np.concatenate([q.row, nz])
    cols = np.concatenate([q.col, np.full(nz.size, n, dtype=q.col.dtype)])
    data = np.concatenate([q.data, rewards[nz]])
    return sp.csr_matrix((data, (rows, cols)), shape=(n + 1, n + 1))


def accumulated_reward(
    chain: CTMC,
    rewards,
    t: float,
    method: str = "uniformization",
    tolerance: float = 1e-12,
) -> float:
    """Expected reward accumulated by ``chain`` over ``[0, t]``.

    The one-point case of :func:`accumulated_grid`.  ``t = 0`` returns
    0 without a solve, so it records no backend.

    Parameters
    ----------
    chain:
        The CTMC to solve.
    rewards:
        Per-state reward rates (may be negative — the paper's
        mean-time-to-detection measure uses a -1 rate on undetected
        failure states).
    t:
        Interval length.
    method:
        Any entry of :data:`ACCUMULATED_METHODS`; ``"uniformization"``
        (integrated uniformization) is the default.
    """
    _check_method(method, ACCUMULATED_METHODS, "accumulated")
    if t < 0:
        raise CTMCError(f"time must be non-negative, got {t}")
    r = validate_rewards(rewards, chain.num_states)
    if t == 0.0:
        return 0.0
    return float(
        accumulated_grid(chain, r, [t], method=method, tolerance=tolerance)[0]
    )


def accumulated_grid(
    chain: CTMC,
    rewards,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Accumulated rewards ``E[Y(times[j])]`` for a whole time grid.

    The accumulated half of :func:`transient_accumulated_grid`.  Returns
    an array of shape ``(len(times),)``.
    """
    return transient_accumulated_grid(
        chain, rewards, times, method=method, tolerance=tolerance
    )[1]


def transient_accumulated_grid(
    chain: CTMC,
    rewards,
    times,
    method: str = "auto",
    tolerance: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Transient distributions *and* accumulated rewards, one pass.

    Returns ``(pi_grid, accumulated)`` where ``pi_grid[j]`` is the state
    distribution at ``times[j]`` and ``accumulated[j]`` the reward
    integral over ``[0, times[j]]``.  Both come from a single solver
    pass:

    * ``"augmented-expm"`` — the augmented generator
      ``A = [[Q, r], [0, 0]]`` is block upper-triangular, so
      ``expm(A t)`` embeds ``expm(Q t)`` as its leading block; one
      chain of squarings of ``A`` serves every unique point, and each
      row yields the distribution and the integral together.
    * ``"augmented-krylov"`` — the sparse augmented state
      ``(pi(t), y(t))`` stepped segment to segment.
    * ``"uniformization"`` — the streaming walk; one k-walk per segment
      serves both the distribution and the integral.

    This is the solver behind the GSU batch path, where the same
    ``RMGd`` grid serves three instant measures plus the accumulated
    one, and behind the fleet measures, one call per curve.
    """
    grid = _validate_time_grid(times)
    _check_method(method, ACCUMULATED_METHODS, "accumulated")
    r = validate_rewards(rewards, chain.num_states)
    unique, inverse = np.unique(grid, return_inverse=True)
    if method == "auto":
        method = _AUGMENTED[_choose(chain, float(unique[-1]))]
    if method == "uniformization":
        config.record_dispatch("uniformization")
        result = streaming_accumulated_grid(
            chain.generator,
            chain.initial_distribution,
            r,
            unique,
            tolerance=tolerance,
        )
        rows, acc = result.rows, result.accumulated
    elif method == "augmented-krylov":
        config.record_dispatch("augmented-krylov")
        rows, acc = _augmented_krylov_grid(chain, r, unique)
    else:
        rows, acc = _augmented_expm_grid(chain, r, unique)
    return rows[inverse], acc[inverse]


def _augmented_expm_grid(
    chain: CTMC, rewards: np.ndarray, unique: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``[pi(0), 0] expm(A t)`` with ``A = [[Q, r], [0, 0]]`` per unique
    time, from one shared chain of squarings of ``A``.

    The augmented system evolves ``(pi(t), y(t))`` with
    ``y'(t) = pi(t) . r``, so ``y(t)`` is exactly the accumulated reward.
    """
    _check_dense(chain, "augmented-expm")
    config.record_dispatch("augmented-expm", n=max(int(unique.size), 1))
    n = chain.num_states
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = chain.generator.toarray()
    a[:n, n] = rewards
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    result = _expm_rows(a, state, unique)
    rows = result[:, :n].copy()
    positive = unique > 0.0
    rows[positive] = _renormalise_rows(rows[positive])
    return rows, result[:, n].copy()


def _augmented_krylov_grid(
    chain: CTMC, rewards: np.ndarray, unique: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Step the sparse augmented state along the grid with Krylov actions.

    ``(pi(t), y(t))`` advances segment-to-segment — one
    :func:`~repro.ctmc.transient._krylov_step` per segment — so the
    whole curve costs one pass, and memory stays ``O(nnz + n)``.
    """
    n = chain.num_states
    at = _augmented_sparse(chain, rewards).T.tocsr()
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    rows = np.empty((unique.size, n))
    acc = np.empty(unique.size)
    prev = 0.0
    for k, t in enumerate(unique):
        state = _krylov_step(at, float(t) - prev, state)
        # Keep the carried state normalised too: the augmented walk only
        # drifts by round-off, and renormalising stops it compounding.
        state[:n] = _renormalise(state[:n])
        rows[k] = state[:n]
        acc[k] = state[n]
        prev = float(t)
    return rows, acc


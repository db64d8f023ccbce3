"""Steady-state distribution solver.

The paper's performance-overhead measures ``1 - rho1`` and ``1 - rho2``
(Table 2) are *expected instant-of-time rewards at steady state* of the
irreducible reward model ``RMGp``.  One solver answers ``pi Q = 0,
pi 1 = 1``: sparse LU on ``Q^T`` with the normalisation constraint
replacing one equation, memoised on the chain.

The power, Gauss–Seidel and SOR iterations historically shipped in
tools like UltraSAN cross-check it as references in
:mod:`repro.verify.oracles`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import CTMCError
from repro.ctmc.linalg import validate_rewards


def steady_state_distribution(chain: CTMC) -> np.ndarray:
    """Stationary distribution ``pi`` with ``pi Q = 0`` and ``sum(pi) = 1``.

    The chain must have exactly one closed class, which every state then
    reaches; a chain with a single absorbing state qualifies, and its
    stationary distribution sits on that state.  A chain with more than
    one closed class (two absorbing states, say) has no unique
    stationary distribution, and the solve raises :class:`CTMCError`.
    """
    n = chain.num_states
    if n == 1:
        return np.array([1.0])
    config.record_dispatch("steady-direct")
    # The direct solve is a deterministic pure function of the
    # (immutable) generator, so memoise it on the chain: measures
    # evaluated against the same chain (e.g. rho1 and rho2 on one
    # RMGp instance) share a single factorisation.  Copy out so
    # callers can never corrupt the cache.
    cached = getattr(chain, "_direct_steady_cache", None)
    if cached is None:
        cached = _direct(chain.generator, n)
        chain._direct_steady_cache = cached
    return cached.copy()


def steady_state_reward(chain: CTMC, rewards) -> float:
    """Expected instant-of-time reward at steady state ``pi . r``."""
    r = validate_rewards(rewards, chain.num_states)
    return float(steady_state_distribution(chain) @ r)


def _closed_classes(q: sp.csr_matrix) -> int:
    """Number of closed communicating classes of the generator ``q``.

    A class is closed when no positive rate leaves it.  The direct
    system is singular exactly when there is more than one.  Every
    stored entry is an edge of the transition graph, so explicit zero
    rates are dropped first; diagonal entries are self-loops, which do
    not change the classes.
    """
    if not q.data.all():
        q = q.copy()
        q.eliminate_zeros()
    count, labels = connected_components(q, directed=True, connection="strong")
    if count == 1:
        return 1
    rows = np.repeat(np.arange(q.shape[0]), np.diff(q.indptr))
    leaving = labels[rows] != labels[q.indices]
    return count - np.unique(labels[rows[leaving]]).size


def _direct(q: sp.csr_matrix, n: int) -> np.ndarray:
    """Sparse direct solve of ``Q^T pi^T = 0`` with normalisation.

    The system matrix is ``Q^T`` with the last equation replaced by the
    normalisation ``sum(pi) = 1``.  Because column ``j`` of ``Q^T`` is
    row ``j`` of the CSR generator, and the replaced row is the *last*
    row (so its entry belongs at the end of every sorted CSC column),
    the constrained matrix can be assembled directly from the CSR
    arrays — same values and structure as the historical
    ``tolil``-based row replacement, without its per-entry Python cost.
    """
    closed = _closed_classes(q)
    if closed > 1:
        raise CTMCError(
            f"the chain has {closed} closed classes, so it has no unique "
            "stationary distribution"
        )
    indptr, indices, data = q.indptr, q.indices, q.data
    keep = indices != n - 1
    kept_cumulative = np.concatenate(([0], np.cumsum(keep)))
    kept_per_col = kept_cumulative[indptr[1:]] - kept_cumulative[indptr[:-1]]
    new_indptr = np.concatenate(([0], np.cumsum(kept_per_col + 1)))
    new_indices = np.empty(int(new_indptr[-1]), dtype=np.intp)
    new_data = np.empty(int(new_indptr[-1]))
    old_pos = np.nonzero(keep)[0]
    col_of = np.repeat(np.arange(n), np.diff(indptr))[old_pos]
    rank = kept_cumulative[old_pos] - kept_cumulative[indptr[col_of]]
    target = new_indptr[col_of] + rank
    new_indices[target] = indices[old_pos]
    new_data[target] = data[old_pos]
    segment_last = new_indptr[1:] - 1
    new_indices[segment_last] = n - 1
    new_data[segment_last] = 1.0
    a = sp.csc_matrix((new_data, new_indices, new_indptr), shape=(n, n))
    b = np.zeros(n)
    b[n - 1] = 1.0
    pi = spla.spsolve(a, b)
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise CTMCError("direct steady-state solve produced a zero vector")
    return pi / total

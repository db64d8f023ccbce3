"""The :class:`CTMC` container class.

A :class:`CTMC` couples a validated sparse generator matrix with an
initial probability distribution and optional state labels.  It is the
lingua franca between the SAN layer (which produces chains from
reachability graphs) and the numerical solvers.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.ctmc.errors import DimensionError
from repro.ctmc.linalg import (
    as_csr,
    exit_rates,
    validate_distribution,
    validate_generator,
)


def assemble_generator(
    num_states: int, rates: Mapping[tuple[int, int], float]
) -> sp.csr_matrix:
    """Assemble a generator matrix from a ``{(src, dst): rate}`` mapping.

    The single generator-assembly point: :meth:`CTMC.from_rates` and,
    through it, both the concrete SAN build and the parametric re-stamp
    path funnel here, so the exit-rate accumulation order (mapping
    iteration order) and the diagonal fill are identical everywhere —
    a prerequisite for the re-stamp path's bitwise-equality guarantee.

    Self-loop entries are rejected: they have no effect on a CTMC and
    almost always indicate a modelling bug.
    """
    rows, cols, vals = [], [], []
    exits = np.zeros(num_states)
    for (src, dst), rate in rates.items():
        if src == dst:
            raise ValueError(f"self-loop rate supplied for state {src}")
        if rate < 0:
            raise ValueError(f"negative rate {rate} for {(src, dst)}")
        if rate == 0:
            continue
        rows.append(src)
        cols.append(dst)
        vals.append(float(rate))
        exits[src] += rate
    for i in range(num_states):
        if exits[i] > 0:
            rows.append(i)
            cols.append(i)
            vals.append(-exits[i])
    # The triplets are duplicate-free by construction (unique mapping
    # keys, one diagonal per row, self-loops rejected above), so the
    # canonical CSR arrays can be built directly: no values are ever
    # combined, making this bit-for-bit identical to a COO round-trip
    # while skipping its duplicate-summing machinery.
    row_arr = np.asarray(rows, dtype=np.intp)
    col_arr = np.asarray(cols, dtype=np.intp)
    val_arr = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((col_arr, row_arr))
    indptr = np.zeros(num_states + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_arr, minlength=num_states), out=indptr[1:])
    return sp.csr_matrix(
        (val_arr[order], col_arr[order], indptr),
        shape=(num_states, num_states),
    )


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    generator:
        Square infinitesimal generator matrix ``Q`` (dense or sparse).
        Off-diagonal entries are transition rates; rows sum to zero.
    initial:
        Initial probability distribution over states.  Defaults to unit
        mass on state 0.
    labels:
        Optional sequence of hashable labels, one per state, used to
        address states by name (e.g. SAN markings).
    """

    def __init__(
        self,
        generator,
        initial=None,
        labels: Sequence[Hashable] | None = None,
    ):
        self._q = validate_generator(as_csr(generator))
        n = self._q.shape[0]
        if initial is None:
            init = np.zeros(n)
            init[0] = 1.0
        else:
            init = initial
        self._initial = validate_distribution(init, n)
        if labels is not None:
            labels = list(labels)
            if len(labels) != n:
                raise DimensionError(
                    f"{len(labels)} labels supplied for {n} states"
                )
            if len(set(labels)) != n:
                raise DimensionError("state labels must be unique")
        self._labels = labels
        self._index = (
            {label: i for i, label in enumerate(labels)} if labels else None
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def generator(self) -> sp.csr_matrix:
        """The infinitesimal generator matrix ``Q`` (CSR, read-only use)."""
        return self._q

    @property
    def initial_distribution(self) -> np.ndarray:
        """The initial probability vector (copy)."""
        return self._initial.copy()

    @property
    def num_states(self) -> int:
        """Number of states in the chain."""
        return self._q.shape[0]

    @property
    def labels(self) -> list | None:
        """State labels, if any (copy)."""
        return list(self._labels) if self._labels is not None else None

    def __len__(self) -> int:
        return self.num_states

    def __repr__(self) -> str:
        return (
            f"CTMC(states={self.num_states}, transitions={self.num_transitions},"
            f" absorbing={len(self.absorbing_states())})"
        )

    @property
    def num_transitions(self) -> int:
        """Number of non-zero off-diagonal rate entries."""
        off = self._q - sp.diags(self._q.diagonal())
        return int(off.nnz)

    # ------------------------------------------------------------------
    # State addressing
    # ------------------------------------------------------------------
    def state_index(self, label: Hashable) -> int:
        """Return the index of the state carrying ``label``."""
        if self._index is None:
            raise KeyError("this CTMC has no state labels")
        return self._index[label]

    def indicator(self, predicate) -> np.ndarray:
        """Build a 0/1 vector from a predicate over labels (or indices).

        ``predicate`` receives the state label when labels exist, else the
        integer index, and returns truthy for states in the set.
        """
        n = self.num_states
        out = np.zeros(n)
        for i in range(n):
            key = self._labels[i] if self._labels is not None else i
            if predicate(key):
                out[i] = 1.0
        return out

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def exit_rates(self) -> np.ndarray:
        """Total exit rate of each state."""
        return exit_rates(self._q)

    def absorbing_states(self) -> list[int]:
        """Indices of states with zero exit rate."""
        rates = self.exit_rates()
        return [i for i in range(self.num_states) if rates[i] <= 0.0]

    def rate(self, src: int, dst: int) -> float:
        """The transition rate from state ``src`` to state ``dst``."""
        return float(self._q[src, dst])

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(
        cls,
        num_states: int,
        rates: Mapping[tuple[int, int], float],
        initial=None,
        labels: Sequence[Hashable] | None = None,
    ) -> "CTMC":
        """Build a CTMC from a ``{(src, dst): rate}`` mapping.

        The diagonal is filled automatically so each row sums to zero
        (see :func:`assemble_generator`, the shared assembly point).
        """
        q = assemble_generator(num_states, rates)
        return cls(q, initial=initial, labels=labels)

    @classmethod
    def from_assembled(
        cls,
        q: sp.csr_matrix,
        initial,
        labels: Sequence[Hashable] | None,
        index: Mapping[Hashable, int] | None,
        initial_validated: bool = False,
    ) -> "CTMC":
        """Wrap an already-validated generator without re-checking it.

        The parametric re-stamp path assembles ``q`` with
        :func:`assemble_generator` — the same code a validated fresh
        build runs — so :func:`~repro.ctmc.linalg.validate_generator`
        (a pure check that never modifies its input) is guaranteed to
        pass and is skipped.  ``labels`` and ``index`` are adopted
        as-is and may be shared across instances (callers must treat
        them as immutable).  The initial distribution goes through
        :func:`~repro.ctmc.linalg.validate_distribution`, which
        *transforms* (clips and renormalises), so skipping it would
        change bits — unless the caller passes
        ``initial_validated=True``, promising that ``initial`` is the
        (possibly cached) output of that exact function for these bits;
        the array is then adopted as-is and must be treated as
        read-only.
        """
        chain = cls.__new__(cls)
        chain._q = q
        chain._initial = (
            initial
            if initial_validated
            else validate_distribution(initial, q.shape[0])
        )
        chain._labels = labels
        chain._index = index
        return chain

    @classmethod
    def two_state_failure(cls, failure_rate: float) -> "CTMC":
        """An ``up -> down`` chain — the simplest dependability model.

        State 0 is ``up`` (initial), state 1 is absorbing ``down``.  The
        survival probability at time ``t`` is ``exp(-failure_rate * t)``,
        which makes this chain a convenient analytic cross-check for the
        transient solvers.
        """
        return cls.from_rates(2, {(0, 1): failure_rate}, labels=["up", "down"])

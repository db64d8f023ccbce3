"""Continuous-time Markov chain engine with Markov reward model solvers.

This subpackage provides the numerical substrate for reward model
solutions used throughout the reproduction:

* :class:`~repro.ctmc.chain.CTMC` — a continuous-time Markov chain backed
  by a sparse generator matrix.
* :mod:`~repro.ctmc.uniformization` — Fox–Glynn truncation of the
  Poisson weights and the uniformized DTMC.
* :mod:`~repro.ctmc.streaming` — the Jensen (uniformization) walk, with
  preallocated workspaces and a certified truncation-error bound.
* :mod:`~repro.ctmc.transient` — transient instant-of-time state
  probabilities and expected instant-of-time rewards.  Backends:
  ``uniformization``, ``spectral``, ``dense-expm`` and ``krylov``.
* :mod:`~repro.ctmc.accumulated` — expected accumulated reward over an
  interval ``[0, t]``.  Backends: ``uniformization``,
  ``augmented-expm`` and ``augmented-krylov``.
* :mod:`~repro.ctmc.steady_state` — the steady-state solver (direct
  sparse LU).
* :mod:`~repro.ctmc.lumping` — exact (ordinary) lumping onto a quotient
  chain.
* :mod:`~repro.ctmc.sensitivity` — finite-difference parameter
  sensitivities of reward measures.

Each solve kind has one grid implementation; a scalar call is its
one-point grid, and one ``auto`` rule picks the backend for all of
them.  The slow reference solvers that cross-check these backends
(per-point Padé, quadrature, power, Gauss–Seidel and SOR) live in
:mod:`repro.verify.oracles`.

These are the textbook algorithms implemented inside tools such as
UltraSAN and Möbius; the paper's three SAN reward models are compiled to
CTMCs (see :mod:`repro.san.ctmc_builder`) and then solved here.
"""

from repro.ctmc.chain import CTMC
from repro.ctmc.transient import (
    instant_of_time_reward,
    transient_distribution,
    transient_grid,
)
from repro.ctmc.accumulated import (
    accumulated_grid,
    accumulated_reward,
    transient_accumulated_grid,
)
from repro.ctmc.steady_state import steady_state_distribution, steady_state_reward
from repro.ctmc.uniformization import fox_glynn_weights, uniformize
from repro.ctmc.lumping import LumpedCTMC, lump
from repro.ctmc.sensitivity import finite_difference_sensitivity

__all__ = [
    "CTMC",
    "LumpedCTMC",
    "lump",
    "transient_distribution",
    "transient_grid",
    "instant_of_time_reward",
    "accumulated_reward",
    "accumulated_grid",
    "transient_accumulated_grid",
    "steady_state_distribution",
    "steady_state_reward",
    "fox_glynn_weights",
    "uniformize",
    "finite_difference_sensitivity",
]

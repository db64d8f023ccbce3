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
  ``augmented-expm``, ``augmented-krylov`` and the ``quadrature``
  reference path.
* :mod:`~repro.ctmc.steady_state` — steady-state solvers (direct sparse,
  power method on the uniformized DTMC, Gauss–Seidel, SOR).
* :mod:`~repro.ctmc.absorbing` — absorbing-chain analysis (absorption
  probabilities, expected time to absorption).
* :mod:`~repro.ctmc.dtmc` — embedded and uniformized DTMC helpers.
* :mod:`~repro.ctmc.sensitivity` — finite-difference parameter
  sensitivities of reward measures.

Each solve kind has one grid implementation; a scalar call is its
one-point grid, and one ``auto`` rule picks the backend for all of
them.

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
    averaged_interval_reward,
    transient_accumulated_grid,
)
from repro.ctmc.steady_state import steady_state_distribution, steady_state_reward
from repro.ctmc.absorbing import (
    AbsorbingAnalysis,
    absorption_probabilities,
    mean_time_to_absorption,
)
from repro.ctmc.uniformization import fox_glynn_weights, uniformize
from repro.ctmc.dtmc import DTMC, embedded_dtmc, uniformized_dtmc
from repro.ctmc.first_passage import (
    first_passage_cdf,
    first_passage_quantile,
    make_absorbing,
    mean_first_passage_time,
)
from repro.ctmc.lumping import LumpedCTMC, check_lumpability, lump
from repro.ctmc.moments import (
    AccumulatedRewardMoments,
    accumulated_reward_moments,
    accumulated_reward_std,
)
from repro.ctmc.sensitivity import finite_difference_sensitivity

__all__ = [
    "AccumulatedRewardMoments",
    "LumpedCTMC",
    "check_lumpability",
    "lump",
    "accumulated_reward_moments",
    "accumulated_reward_std",
    "first_passage_cdf",
    "first_passage_quantile",
    "make_absorbing",
    "mean_first_passage_time",
    "CTMC",
    "DTMC",
    "AbsorbingAnalysis",
    "transient_distribution",
    "transient_grid",
    "instant_of_time_reward",
    "accumulated_reward",
    "accumulated_grid",
    "transient_accumulated_grid",
    "averaged_interval_reward",
    "steady_state_distribution",
    "steady_state_reward",
    "absorption_probabilities",
    "mean_time_to_absorption",
    "fox_glynn_weights",
    "uniformize",
    "embedded_dtmc",
    "uniformized_dtmc",
    "finite_difference_sensitivity",
]

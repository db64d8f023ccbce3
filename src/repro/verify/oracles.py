"""Cross-solver oracles: every numerical backend must tell one story.

The transient, accumulated, and steady-state solvers each have several
independent backends (series truncation, matrix exponentials, spectral
decomposition, iterative solves) plus the batched grid paths and the
parametric template re-stamping layered on top.  On any one chain they
must agree to tight tolerances — disagreement localises a bug to the
minority backend without needing a reference solution.

This module provides the comparison machinery; the Hypothesis tests in
``tests/verify/test_oracles.py`` drive it over randomized chains.

Tolerances (documented contract, asserted by the tests):

* :data:`TRANSIENT_TOLERANCE` — instant-of-time rewards are probability
  combinations; backends agree to ``1e-8`` absolute.
* :data:`ACCUMULATED_TOLERANCE` — accumulated rewards scale with
  ``t * max|r|``; backends agree to ``1e-8`` relative to that scale.
* :data:`STEADY_TOLERANCE` — stationary rewards agree to ``1e-7``
  absolute (the iterative backends stop at their own ``1e-10``-ish
  residuals, far inside this envelope).

:func:`pade_transient_rows` and :func:`pade_transient_accumulated` are
the reference for the ``dense-expm`` and ``augmented-expm`` backends:
one independent ``scipy.linalg.expm`` per time point, which scales and
squares ``A t`` on its own, where the backends share one chain of
squarings across the grid.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from repro.ctmc.accumulated import ACCUMULATED_METHODS, accumulated_grid, accumulated_reward
from repro.ctmc.chain import CTMC
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.steady_state import STEADY_METHODS, steady_state_reward
from repro.ctmc.transient import (
    TRANSIENT_METHODS,
    transient_distribution,
    transient_grid,
)

#: Absolute agreement tolerance for instant-of-time rewards.
TRANSIENT_TOLERANCE = 1e-8

#: Relative (to ``t * max|r|``) agreement tolerance for accumulated rewards.
ACCUMULATED_TOLERANCE = 1e-8

#: Absolute agreement tolerance for steady-state rewards.
STEADY_TOLERANCE = 1e-7


def random_chain(
    rng: np.random.Generator,
    num_states: int,
    rate_scale: float = 1.0,
    irreducible: bool = False,
) -> CTMC:
    """A random CTMC for oracle testing.

    Off-diagonal rates are drawn uniformly and thinned to a random
    sparsity pattern; ``irreducible=True`` adds a small cyclic backbone
    so every state communicates (required by the steady-state oracle).
    The initial distribution is a random stochastic vector.
    """
    if num_states < 2:
        raise ValueError("need at least two states")
    rates = rng.uniform(0.1, 1.0, size=(num_states, num_states)) * rate_scale
    mask = rng.random((num_states, num_states)) < 0.5
    rates = np.where(mask, rates, 0.0)
    np.fill_diagonal(rates, 0.0)
    if irreducible:
        for i in range(num_states):
            rates[i, (i + 1) % num_states] += 0.05 * rate_scale
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    initial = rng.random(num_states) + 1e-3
    initial /= initial.sum()
    return CTMC(q, initial=initial)


def pade_transient_rows(chain: CTMC, times) -> np.ndarray:
    """``pi(0) expm(Q t)`` for each time, one Padé exponential per point.

    Rows are not renormalised.  Returns shape ``(len(times), n)``.
    """
    q = chain.generator.toarray()
    pi0 = chain.initial_distribution
    return np.array([pi0 @ expm(q * float(t)) for t in times])


def pade_transient_accumulated(
    chain: CTMC, rewards, times
) -> tuple[np.ndarray, np.ndarray]:
    """``(pi(t), int_0^t pi(u) r du)`` per time, one Padé exponential of
    the augmented generator ``[[Q, r], [0, 0]]`` per point."""
    n = chain.num_states
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = chain.generator.toarray()
    a[:n, n] = validate_rewards(rewards, n)
    state = np.zeros(n + 1)
    state[:n] = chain.initial_distribution
    result = np.array([state @ expm(a * float(t)) for t in times])
    return result[:, :n], result[:, n]


def transient_reward_by_method(
    chain: CTMC, reward: np.ndarray, t: float
) -> dict[str, float]:
    """The instant-of-time reward at ``t`` from every backend.

    Every method of :data:`TRANSIENT_METHODS` runs as a scalar solve
    (key ``"scalar:<m>"``) and on a grid containing ``t`` (key
    ``"grid:<m>"``), so batching effects are exercised.
    """
    reward = np.asarray(reward, dtype=np.float64)
    grid = np.array([0.5 * t, t, 1.5 * t]) if t > 0 else np.array([t])
    values: dict[str, float] = {}
    for method in TRANSIENT_METHODS:
        pi = transient_distribution(chain, t, method=method)
        values[f"scalar:{method}"] = float(pi @ reward)
        rows = transient_grid(chain, grid, method=method)
        values[f"grid:{method}"] = float(rows[np.searchsorted(grid, t)] @ reward)
    return values


def accumulated_reward_by_method(
    chain: CTMC, reward: np.ndarray, t: float
) -> dict[str, float]:
    """The accumulated reward over ``[0, t]`` from every backend.

    Keys as in :func:`transient_reward_by_method`, over
    :data:`ACCUMULATED_METHODS`.
    """
    reward = np.asarray(reward, dtype=np.float64)
    grid = np.array([0.5 * t, t]) if t > 0 else np.array([t])
    values: dict[str, float] = {}
    for method in ACCUMULATED_METHODS:
        values[f"scalar:{method}"] = float(
            accumulated_reward(chain, reward, t, method=method)
        )
        rows = accumulated_grid(chain, reward, grid, method=method)
        values[f"grid:{method}"] = float(rows[np.searchsorted(grid, t)])
    return values


def steady_reward_by_method(chain: CTMC, reward: np.ndarray) -> dict[str, float]:
    """The stationary reward from every steady-state backend."""
    reward = np.asarray(reward, dtype=np.float64)
    return {
        method: float(steady_state_reward(chain, reward, method=method))
        for method in STEADY_METHODS
    }


def max_disagreement(values: dict[str, float]) -> float:
    """Largest pairwise absolute difference across backend results."""
    results = list(values.values())
    return float(max(results) - min(results)) if results else 0.0


def constituent_paths_disagreement(params, phis) -> float:
    """Largest relative disagreement across the GSU evaluation paths.

    Compares, for every ``phi`` and every constituent measure, the
    point-by-point scalar path, the batched grid path, and both with
    parametric template re-stamping disabled — four full pipelines that
    share no caching and (between batch and scalar) different solver
    routes.  Returns the max of ``|a - b| / max(1, |a|)`` over all
    pairs; the tests pin it below :data:`TRANSIENT_TOLERANCE`.
    """
    from repro.gsu.measures import ConstituentSolver

    phi_list = [float(p) for p in phis]
    outputs = []
    for parametric in (True, False):
        solver = ConstituentSolver(params, parametric=parametric)
        outputs.append(solver.batch(phi_list))
        scalar = []
        for phi in phi_list:
            scalar.append(
                {
                    "p_nd_theta": solver.p_normal_no_failure(params.theta, "new"),
                    "p_gd_phi_a1": solver.p_gop_no_error(phi),
                    "p_nd_theta_minus_phi": solver.p_normal_no_failure(
                        params.theta - phi, "new"
                    ),
                    "rho1": solver.rho1(),
                    "rho2": solver.rho2(),
                    "int_h": solver.int_h(phi),
                    "int_tau_h": solver.int_tau_h(phi),
                    "int_hf": solver.int_hf(phi),
                    "int_f": solver.int_f(phi),
                }
            )
        outputs.append(scalar)
    worst = 0.0
    reference = outputs[0]
    for other in outputs[1:]:
        for ref_point, point in zip(reference, other):
            for name, value in ref_point.items():
                scale = max(1.0, abs(value))
                worst = max(worst, abs(value - point[name]) / scale)
    return worst

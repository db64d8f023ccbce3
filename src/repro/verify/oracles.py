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
  absolute (the iterative references stop at their own ``1e-10``-ish
  residuals, far inside this envelope).

The slow reference solvers live here, beside the comparisons that are
their only callers:

* :func:`pade_transient_rows` and :func:`pade_transient_accumulated`
  are the reference for the ``dense-expm`` and ``augmented-expm``
  backends: one independent ``scipy.linalg.expm`` per time point, which
  scales and squares ``A t`` on its own, where the backends share one
  chain of squarings across the grid.
* :func:`quadrature_accumulated` integrates the transient solution by
  adaptive quadrature, independently per point.
* :func:`power_steady_state`, :func:`gauss_seidel_steady_state` and
  :func:`sor_steady_state` are the iterative stationary solvers
  historically shipped in tools like UltraSAN; they check the one
  direct solver of :mod:`repro.ctmc.steady_state`.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from repro.ctmc.accumulated import ACCUMULATED_METHODS, accumulated_grid, accumulated_reward
from repro.ctmc.chain import CTMC
from repro.ctmc.errors import ConvergenceError, CTMCError
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.steady_state import steady_state_distribution
from repro.ctmc.transient import (
    TRANSIENT_METHODS,
    transient_distribution,
    transient_grid,
)
from repro.ctmc.uniformization import _validate_time_grid, uniformize

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


def quadrature_accumulated(chain: CTMC, rewards, times) -> np.ndarray:
    """``int_0^t pi(u) r du`` per time, by adaptive quadrature over the
    transient solution, each unique point integrated independently."""
    grid = _validate_time_grid(times)
    r = validate_rewards(rewards, chain.num_states)
    unique, inverse = np.unique(grid, return_inverse=True)

    def integrand(u: float) -> float:
        return float(transient_distribution(chain, u) @ r)

    out = np.array(
        [quad(integrand, 0.0, float(t), limit=200)[0] for t in unique]
    )
    return out[inverse]


def power_steady_state(
    chain: CTMC, tolerance: float = 1e-12, max_iterations: int = 200_000
) -> np.ndarray:
    """Stationary distribution by power iteration on the (aperiodic)
    uniformized DTMC.

    Raises :class:`ConvergenceError` when successive iterates still
    differ by ``tolerance`` after ``max_iterations`` steps.
    """
    p, _rate = uniformize(chain.generator)
    pi = np.full(chain.num_states, 1.0 / chain.num_states)
    for _ in range(max_iterations):
        nxt = pi @ p
        nxt_sum = nxt.sum()
        if nxt_sum > 0:
            nxt = nxt / nxt_sum
        residual = float(np.abs(nxt - pi).max())
        pi = nxt
        if residual < tolerance:
            return pi
    raise ConvergenceError(
        f"power method did not converge in {max_iterations} iterations",
        iterations=max_iterations,
        residual=residual,
    )


def sor_steady_state(
    chain: CTMC,
    relaxation: float = 1.2,
    tolerance: float = 1e-12,
    max_iterations: int = 200_000,
) -> np.ndarray:
    """Stationary distribution by (over-relaxed) Gauss–Seidel sweeps on
    ``Q^T x = 0``.

    Solves the singular system by sweeping and renormalising; classic
    formulation from the Markov-chain numerical literature (Stewart).
    """
    if not 0 < relaxation < 2:
        raise CTMCError(f"SOR relaxation must be in (0, 2), got {relaxation}")
    n = chain.num_states
    a = chain.generator.T.tocsr()
    diag = a.diagonal()
    if np.any(diag == 0):
        raise CTMCError(
            "SOR requires non-absorbing states (zero diagonal encountered)"
        )
    x = np.full(n, 1.0 / n)
    indptr, indices, data = a.indptr, a.indices, a.data
    for _ in range(max_iterations):
        prev = x.copy()
        for i in range(n):
            acc = 0.0
            for pos in range(indptr[i], indptr[i + 1]):
                j = indices[pos]
                if j != i:
                    acc += data[pos] * x[j]
            gs = -acc / diag[i]
            x[i] = (1.0 - relaxation) * x[i] + relaxation * gs
        x = np.clip(x, 0.0, None)
        total = x.sum()
        if total <= 0:
            raise CTMCError("SOR iterate collapsed to the zero vector")
        x /= total
        residual = float(np.abs(x - prev).max())
        if residual < tolerance:
            return x
    raise ConvergenceError(
        f"SOR did not converge in {max_iterations} iterations",
        iterations=max_iterations,
        residual=residual,
    )


def gauss_seidel_steady_state(
    chain: CTMC, tolerance: float = 1e-12, max_iterations: int = 200_000
) -> np.ndarray:
    """Stationary distribution by Gauss–Seidel sweeps: SOR without
    relaxation."""
    return sor_steady_state(chain, 1.0, tolerance, max_iterations)


#: The iterative steady-state references, by name.
STEADY_REFERENCES = {
    "power": power_steady_state,
    "gauss-seidel": gauss_seidel_steady_state,
    "sor": sor_steady_state,
}


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
    :data:`ACCUMULATED_METHODS` plus the ``"quadrature"`` reference.
    """
    reward = np.asarray(reward, dtype=np.float64)
    grid = np.array([0.5 * t, t]) if t > 0 else np.array([t])
    at = np.searchsorted(grid, t)
    values: dict[str, float] = {}
    for method in ACCUMULATED_METHODS:
        values[f"scalar:{method}"] = float(
            accumulated_reward(chain, reward, t, method=method)
        )
        rows = accumulated_grid(chain, reward, grid, method=method)
        values[f"grid:{method}"] = float(rows[at])
    values["scalar:quadrature"] = float(
        quadrature_accumulated(chain, reward, [t])[0]
    )
    values["grid:quadrature"] = float(
        quadrature_accumulated(chain, reward, grid)[at]
    )
    return values


def steady_reward_by_method(chain: CTMC, reward: np.ndarray) -> dict[str, float]:
    """The stationary reward from the direct solver and every
    iterative reference."""
    reward = np.asarray(reward, dtype=np.float64)
    values = {"direct": float(steady_state_distribution(chain) @ reward)}
    for name, reference in STEADY_REFERENCES.items():
        values[name] = float(reference(chain) @ reward)
    return values


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

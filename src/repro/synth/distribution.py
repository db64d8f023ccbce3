"""Distribution-level measures of accumulated reward.

The campaign layer reports *expected* accumulated rewards; synthesis
also needs the distribution of ``W(t) = int_0^t r(X_s) ds`` — quantiles
of accumulated guarded-overhead reward and exceedance probabilities
``P(W >= y)``.  Three analytic routes, picked by structure:

* ``transient`` — exact, for 0/1 reward vectors whose support ``B``
  cannot be (re-)entered from outside (``Q[not B, B] == 0``).  Reward
  then accrues over one initial sojourn interval, so ``P(W <= w) =
  P(X_w not in B)`` for ``w < t`` with an atom ``P(X_t in B)`` at ``t``
  — every evaluation is one transient solve, stiffness handled by the
  usual backend dispatch.  The guarded-operation reward of Table 1
  (``detected == 0 && failure == 0``) has exactly this shape.
* ``uniformization`` — Sericola's beta-mixture closed form for general
  0/1 rewards: conditioned on ``k`` Poisson jumps and ``m`` of the
  ``k + 1`` sojourn intervals spent in ``B``, ``W/t`` is
  ``Beta(m, k+1-m)``; the mixture weights come from a forward recursion
  over the uniformized DTMC.  Cost grows with ``Lambda * t``, so the
  series is budget-bounded and refuses (``UniformizationBudgetError``)
  rather than walking millions of terms.
* ``gaussian`` — a normal surrogate from the *exact* first two moments
  (Van Loan's block-augmented exponential), for arbitrary reward
  vectors or horizons beyond the uniformization budget.

``accumulated_distribution`` dispatches: exact when possible, beta
mixture when affordable, gaussian otherwise.  Rewards that are a
constant ``c`` on their support are handled by scaling the 0/1 result
(``W = c * W_indicator``).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from scipy.special import betainc, gammaln, ndtr, ndtri

from repro.ctmc import config
from repro.ctmc.chain import CTMC
from repro.ctmc.linalg import validate_rewards
from repro.ctmc.transient import transient_distribution

#: Hard ceiling on the uniformization series length (overridable per
#: call); beyond it the caller falls back to the gaussian surrogate.
MAX_POISSON_TERMS = 4096

#: Supported construction methods.
DISTRIBUTION_METHODS = ("auto", "transient", "uniformization", "gaussian")


class UniformizationBudgetError(RuntimeError):
    """The beta-mixture series needs more Poisson terms than budgeted."""


def accumulated_moments(
    chain: CTMC, rates, t: float
) -> tuple[float, float]:
    """Exact ``(mean, variance)`` of ``W(t)`` via Van Loan's construction.

    The block-triangular generator ``A = [[Q, R, 0], [0, Q, R],
    [0, 0, Q]]`` (``R = diag(rates)``) has ``exp(A t)`` whose first
    block row holds ``e^{Qt}``, ``int e^{Qs} R e^{Q(t-s)} ds`` and the
    ordered double integral — so one action of ``exp(A^T t)`` on
    ``[pi0, 0, 0]`` yields ``E[W]`` and ``E[W^2]/2`` as block sums.

    Whenever the ``3n`` block fits the dense limit, the dense
    scaling-and-squaring exponential (cost ``O(n^3 log(Lambda * t))``)
    solves it at every stiffness: it is deterministic, while the Krylov
    ``expm_multiply`` estimates norms from numpy's global random state,
    so its answer could move with the state's seed in the last bits.
    Beyond the dense limit the Krylov action keeps memory sparse.
    """
    r = validate_rewards(rates, chain.num_states)
    if t < 0:
        raise ValueError(f"horizon must be non-negative, got {t}")
    n = chain.num_states
    if t == 0.0 or not np.any(r):
        return 0.0, 0.0
    q = chain.generator
    rdiag = sp.diags(r)
    a = sp.bmat(
        [[q, rdiag, None], [None, q, rdiag], [None, None, q]]
    )
    v0 = np.concatenate([chain.initial_distribution, np.zeros(2 * n)])
    if 3 * n <= config.limits().dense_state_limit:
        v = dense_expm(a.T.toarray() * float(t)) @ v0
    else:
        v = expm_multiply(a.T.tocsc() * float(t), v0)
    mean = float(np.sum(v[n : 2 * n]))
    second = 2.0 * float(np.sum(v[2 * n :]))
    variance = max(second - mean * mean, 0.0)
    return mean, variance


class AccumulatedRewardDistribution:
    """The distribution of ``W(t)`` for one chain/reward/horizon triple.

    Uniform query surface over the three analytic methods:

    * ``cdf(w)`` — ``P(W <= w)``;
    * ``tail(w)`` — ``P(W > w)``;
    * ``atom(w)`` — the point mass at ``w`` (nonzero only at ``0`` and
      the maximal value ``scale * t`` for the exact methods);
    * ``quantile(q)`` — ``inf{w : cdf(w) >= q}``;
    * ``mean`` / ``variance`` — exact Van Loan moments (all methods).
    """

    def __init__(self, impl, scale: float, t: float, method: str, moments):
        self._impl = impl
        self.scale = float(scale)
        self.t = float(t)
        self.method = method
        self.mean, self.variance = moments

    @property
    def maximum(self) -> float:
        """The largest attainable value ``scale * t``."""
        return self.scale * self.t

    def cdf(self, w: float) -> float:
        if w < 0.0:
            return 0.0
        if w >= self.maximum:
            return 1.0
        return min(max(self._impl.cdf(w / self.scale), 0.0), 1.0)

    def tail(self, w: float) -> float:
        """``P(W > w)`` — exceedance, the ``P(W >= y)`` surface less atoms."""
        return 1.0 - self.cdf(w)

    def atom(self, w: float) -> float:
        if w == 0.0:
            return min(max(self._impl.atom_zero(), 0.0), 1.0)
        if w == self.maximum:
            return min(max(self._impl.atom_full(), 0.0), 1.0)
        return 0.0

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        if q <= self.cdf(0.0):
            return 0.0
        if q > 1.0 - self.atom(self.maximum):
            return self.maximum
        lo, hi = 0.0, self.t
        # Bisect inf{w : cdf(w) >= q}; 60 halvings push the bracket to
        # ~1e-18 of the horizon, far below reward-solver accuracy.
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self._impl.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(self.t, 1.0):
                break
        return hi * self.scale

    def describe(self) -> dict:
        return {
            "method": self.method,
            "horizon": self.t,
            "scale": self.scale,
            "mean": self.mean,
            "variance": self.variance,
            "atom_zero": self.atom(0.0),
            "atom_full": self.atom(self.maximum),
        }


class _TransientExact:
    """Exact one-sojourn distribution: ``cdf(w) = 1 - P(X_w in B)``."""

    def __init__(self, chain: CTMC, indicator: np.ndarray, t: float, method: str):
        self.chain = chain
        self.indicator = indicator
        self.t = t
        self.transient_method = method

    def _in_set(self, w: float) -> float:
        pi = transient_distribution(
            self.chain, w, method=self.transient_method
        )
        return float(pi @ self.indicator)

    def cdf(self, w: float) -> float:
        if w >= self.t:
            return 1.0
        return 1.0 - self._in_set(w)

    def atom_zero(self) -> float:
        return 1.0 - float(
            self.chain.initial_distribution @ self.indicator
        )

    def atom_full(self) -> float:
        return self._in_set(self.t)


class _BetaMixture:
    """Sericola's uniformization mixture for a 0/1 reward vector.

    ``weights[k]`` is the length-``k + 2`` vector ``P(N = k, M_k = m)``
    where ``N`` is the Poisson jump count over ``[0, t]`` and ``M_k``
    counts how many of the ``k + 1`` sojourn intervals the uniformized
    DTMC spends in ``B``.  Then ``P(W/t <= s) = sum_k sum_m
    weights[k][m] I_s(m, k+1-m)`` with the ``m = 0`` and ``m = k+1``
    terms the atoms at ``0`` and ``t``.
    """

    def __init__(
        self,
        chain: CTMC,
        indicator: np.ndarray,
        t: float,
        tolerance: float,
        max_terms: int,
    ):
        self.t = float(t)
        exit_rates = chain.exit_rates()
        rate = float(np.max(exit_rates, initial=0.0))
        if rate <= 0.0:
            # No transitions: the chain sits in its initial state.
            rate = 1.0
        q = rate * t
        in_b = indicator > 0.0
        # P = I + Q / Lambda, applied from the right of a row vector —
        # the recursion propagates column blocks, so keep P^T.
        pt = (
            sp.identity(chain.num_states, format="csr")
            + chain.generator / rate
        ).T.tocsr()

        # Forward recursion on g_j[state, m] = P(X_j = state, M_j = m).
        g = np.zeros((chain.num_states, 2))
        pi0 = chain.initial_distribution
        g[~in_b, 0] = pi0[~in_b]
        g[in_b, 1] = pi0[in_b]

        log_q = math.log(q) if q > 0.0 else -math.inf
        weights: list[np.ndarray] = []
        cumulative = 0.0
        k = 0
        while cumulative < 1.0 - tolerance:
            if k > max_terms:
                raise UniformizationBudgetError(
                    f"beta mixture needs more than {max_terms} Poisson "
                    f"terms (Lambda*t = {q:.3g}); raise max_poisson_terms "
                    f"or fall back to the gaussian surrogate"
                )
            pois = math.exp(-q + k * log_q - gammaln(k + 1)) if q > 0 else (
                1.0 if k == 0 else 0.0
            )
            weights.append(pois * g.sum(axis=0))
            cumulative += pois
            # Advance the DTMC one jump: spread probability, then shift
            # the visit count for rows landing in B.
            h = pt @ g
            nxt = np.zeros((chain.num_states, g.shape[1] + 1))
            nxt[~in_b, :-1] += h[~in_b]
            nxt[in_b, 1:] += h[in_b]
            g = nxt
            k += 1
        self.weights = weights

    def cdf(self, w: float) -> float:
        # ``w`` arrives in indicator units, i.e. on ``[0, t]``.
        s = w / self.t if self.t > 0 else 1.0
        if s >= 1.0:
            return 1.0
        if s < 0.0:
            return 0.0
        total = 0.0
        for k, wk in enumerate(self.weights):
            total += wk[0]  # m = 0: the atom at zero, below any s >= 0
            m = np.arange(1, k + 1)
            if m.size:
                # m = k + 1 (the atom at t) is excluded: I_s(k+1, 0)
                # contributes nothing below s = 1.
                total += float(
                    np.sum(wk[1 : k + 1] * betainc(m, k + 1 - m, s))
                )
        return total

    def atom_zero(self) -> float:
        return float(sum(wk[0] for wk in self.weights))

    def atom_full(self) -> float:
        return float(sum(wk[-1] for wk in self.weights))


class _Gaussian:
    """Normal surrogate on the exact first two moments."""

    def __init__(self, mean: float, variance: float, t: float):
        self.mean = mean
        self.std = math.sqrt(max(variance, 0.0))
        self.t = t

    def cdf(self, w: float) -> float:
        if self.std == 0.0:
            return 1.0 if w >= self.mean else 0.0
        return float(ndtr((w - self.mean) / self.std))

    def atom_zero(self) -> float:
        return 0.0

    def atom_full(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return self.mean + self.std * float(ndtri(q))


def _indicator_form(r: np.ndarray) -> tuple[np.ndarray, float] | None:
    """``(indicator, c)`` when ``r`` is ``c`` on its support, else None."""
    support = r != 0.0
    if not np.any(support):
        return np.zeros_like(r), 1.0
    values = np.unique(r[support])
    if values.size != 1 or values[0] < 0.0:
        return None
    return support.astype(float), float(values[0])


def _is_no_return(chain: CTMC, indicator: np.ndarray) -> bool:
    """True when ``B`` cannot be entered from outside (``Q[~B, B]==0``)."""
    outside = np.flatnonzero(indicator == 0.0)
    inside = np.flatnonzero(indicator > 0.0)
    if outside.size == 0 or inside.size == 0:
        return True
    block = chain.generator[np.ix_(outside, inside)]
    return block.nnz == 0 or float(abs(block).max()) == 0.0


def accumulated_distribution(
    chain: CTMC,
    rates,
    t: float,
    method: str = "auto",
    tolerance: float = 1e-12,
    max_poisson_terms: int = MAX_POISSON_TERMS,
    transient_method: str = "auto",
) -> AccumulatedRewardDistribution:
    """Build the distribution of ``W(t) = int_0^t r(X_s) ds``.

    ``method="auto"`` picks the cheapest applicable route: exact
    transient for no-return indicator rewards, the budget-bounded beta
    mixture for other (scaled) indicator rewards, and the gaussian
    surrogate for everything else.  Explicit methods raise when their
    structural preconditions fail instead of silently degrading.
    """
    if method not in DISTRIBUTION_METHODS:
        raise ValueError(
            f"unknown distribution method {method!r}; expected one of "
            f"{DISTRIBUTION_METHODS}"
        )
    if t < 0:
        raise ValueError(f"horizon must be non-negative, got {t}")
    r = validate_rewards(rates, chain.num_states)
    moments = accumulated_moments(chain, r, t)

    form = _indicator_form(r)
    indicator, scale = form if form is not None else (None, 1.0)

    if method in ("auto", "transient") and indicator is not None:
        if _is_no_return(chain, indicator):
            impl = _TransientExact(chain, indicator, t, transient_method)
            return AccumulatedRewardDistribution(
                impl, scale, t, "transient", moments
            )
        if method == "transient":
            raise ValueError(
                "transient method requires a no-return reward support "
                "(Q[~B, B] == 0); use 'uniformization' or 'auto'"
            )
    elif method == "transient":
        raise ValueError(
            "transient method requires a 0/1 (or uniformly scaled) "
            "reward vector"
        )

    if method in ("auto", "uniformization") and indicator is not None:
        try:
            impl = _BetaMixture(
                chain, indicator, t, tolerance, max_poisson_terms
            )
            return AccumulatedRewardDistribution(
                impl, scale, t, "uniformization", moments
            )
        except UniformizationBudgetError:
            if method == "uniformization":
                raise
    elif method == "uniformization":
        raise ValueError(
            "uniformization method requires a 0/1 (or uniformly scaled) "
            "reward vector"
        )

    mean, variance = moments
    impl = _Gaussian(mean / scale if scale else 0.0, variance / (scale * scale), t)
    return AccumulatedRewardDistribution(impl, scale, t, "gaussian", moments)

"""Analytic cross-checks of the accumulated-reward distribution.

The two-state failure chain gives every method a closed form to hit:
with failure rate ``lam`` and reward 1 in the up state, the accumulated
reward is ``W = min(T, t)`` for ``T ~ Exp(lam)``, so

* ``cdf(w) = 1 - exp(-lam * w)`` for ``w < t``,
* an atom ``exp(-lam * t)`` at the maximum ``t`` and no atom at zero,
* ``quantile(q) = -log(1 - q) / lam`` below the atom,
* ``E[W] = (1 - exp(-lam t)) / lam`` and
  ``E[W^2] = 2/lam^2 - exp(-lam t) (2t/lam + 2/lam^2)``.
"""

import math

import numpy as np
import pytest

from repro.ctmc.chain import CTMC
from repro.synth.distribution import (
    MAX_POISSON_TERMS,
    UniformizationBudgetError,
    accumulated_distribution,
    accumulated_moments,
)

LAM = 0.5
T = 3.0


def closed_form_cdf(w: float) -> float:
    if w >= T:
        return 1.0
    return 1.0 - math.exp(-LAM * w)


def closed_form_moments() -> tuple[float, float]:
    mean = (1.0 - math.exp(-LAM * T)) / LAM
    second = 2.0 / LAM**2 - math.exp(-LAM * T) * (
        2.0 * T / LAM + 2.0 / LAM**2
    )
    return mean, second - mean * mean


@pytest.fixture(scope="module")
def up_down() -> CTMC:
    return CTMC.two_state_failure(LAM)


class TestExactMethods:
    """Transient and uniformization agree with the closed form."""

    @pytest.mark.parametrize("method", ["transient", "uniformization"])
    def test_cdf_matches_closed_form(self, up_down, method):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T, method=method)
        assert dist.method == method
        for w in np.linspace(0.0, T, 13):
            assert dist.cdf(float(w)) == pytest.approx(
                closed_form_cdf(float(w)), abs=1e-12
            )

    @pytest.mark.parametrize("method", ["transient", "uniformization"])
    def test_atoms(self, up_down, method):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T, method=method)
        assert dist.atom(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dist.atom(dist.maximum) == pytest.approx(
            math.exp(-LAM * T), abs=1e-12
        )
        assert dist.atom(0.5 * T) == 0.0

    @pytest.mark.parametrize("method", ["transient", "uniformization"])
    def test_quantiles_invert_the_exponential(self, up_down, method):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T, method=method)
        for q in (0.1, 0.25, 0.5, 0.75):
            assert dist.quantile(q) == pytest.approx(
                -math.log(1.0 - q) / LAM, abs=1e-9
            )
        # Levels inside the atom at the maximum hit the maximum exactly.
        assert dist.quantile(1.0) == dist.maximum
        assert dist.quantile(1.0 - 0.5 * math.exp(-LAM * T)) == dist.maximum

    def test_tail_complements_cdf(self, up_down):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T)
        for w in (0.0, 1.0, 2.9, T, 2.0 * T):
            assert dist.tail(w) == pytest.approx(1.0 - dist.cdf(w), abs=0.0)

    def test_auto_prefers_transient_on_no_return_support(self, up_down):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T, method="auto")
        assert dist.method == "transient"

    def test_scaled_rewards_rescale_the_indicator_result(self, up_down):
        scale = 2.5
        dist = accumulated_distribution(up_down, [scale, 0.0], T)
        assert dist.maximum == pytest.approx(scale * T)
        assert dist.quantile(0.5) == pytest.approx(
            scale * (-math.log(0.5) / LAM), abs=1e-9
        )
        assert dist.cdf(scale * 1.0) == pytest.approx(
            closed_form_cdf(1.0), abs=1e-12
        )


class TestMoments:
    def test_van_loan_moments_match_closed_form(self, up_down):
        mean, variance = accumulated_moments(up_down, [1.0, 0.0], T)
        want_mean, want_var = closed_form_moments()
        assert mean == pytest.approx(want_mean, rel=1e-12)
        assert variance == pytest.approx(want_var, rel=1e-10)

    def test_mean_equals_integral_of_tail(self, birth_death_chain):
        # E[W] = int_0^max P(W > w) dw holds for any distribution; the
        # re-enterable busy-state indicator exercises the beta mixture.
        rates = [0.0, 1.0, 1.0, 1.0]
        t = 2.0
        dist = accumulated_distribution(birth_death_chain, rates, t)
        assert dist.method == "uniformization"
        grid = np.linspace(0.0, dist.maximum, 2001)
        integral = np.trapezoid([dist.tail(float(w)) for w in grid], grid)
        assert integral == pytest.approx(dist.mean, rel=1e-4)

    def test_degenerate_cases(self, up_down):
        assert accumulated_moments(up_down, [1.0, 0.0], 0.0) == (0.0, 0.0)
        assert accumulated_moments(up_down, [0.0, 0.0], T) == (0.0, 0.0)
        with pytest.raises(ValueError):
            accumulated_moments(up_down, [1.0, 0.0], -1.0)

    def test_constant_reward_has_zero_variance(self, birth_death_chain):
        mean, variance = accumulated_moments(birth_death_chain, np.ones(4), 5.0)
        assert mean == pytest.approx(5.0)
        assert variance == pytest.approx(0.0, abs=1e-8)

    def test_variance_matches_san_simulation(self, simple_san):
        from repro.san.ctmc_builder import build_ctmc
        from repro.san.rewards import RewardStructure
        from repro.san.simulate import SANSimulator

        compiled = build_ctmc(simple_san)
        structure = RewardStructure.from_pairs(
            "in_a", [(lambda m: m["a"] == 1, 1.0)]
        )
        t = 6.0
        mean, variance = accumulated_moments(
            compiled.chain, structure.rate_vector(compiled), t
        )

        sim = SANSimulator(simple_san, seed=13)
        samples = []
        for _ in range(3000):
            total = 0.0
            for _entry, marking, dwell in sim.run_trajectory(t):
                if marking["a"] == 1:
                    total += dwell
            samples.append(total)
        samples = np.asarray(samples)
        assert samples.mean() == pytest.approx(mean, rel=0.03)
        assert samples.std() == pytest.approx(math.sqrt(variance), rel=0.08)


class TestSeedIndependence:
    """The moments never read numpy's global random state: within the
    dense limit they come from the deterministic Van Loan exponential,
    not ``expm_multiply``, whose norm estimator draws from that state."""

    @pytest.fixture
    def restore_global_state(self):
        state = np.random.get_state()
        yield
        np.random.set_state(state)

    def test_moments_equal_under_different_global_seeds(
        self, birth_death_chain, restore_global_state, monkeypatch
    ):
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):  # pragma: no cover - the failure
            raise AssertionError("expm_multiply called within the dense limit")

        monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
        monkeypatch.setattr(
            "repro.synth.distribution.expm_multiply", refuse
        )
        answers = set()
        for seed in (0, 1, 7):
            np.random.seed(seed)
            answers.add(accumulated_moments(birth_death_chain, [0, 1, 2, 3], 2.0))
        assert len(answers) == 1

    def test_synthesize_json_equal_under_different_global_seeds(
        self, capsys, restore_global_state
    ):
        from repro.cli import main

        # The synth-smoke model with two levers.  While the non-stiff
        # moments went through expm_multiply, global seeds 0 and 1
        # printed different distribution means here.
        args = [
            "synthesize", "--theta", "20", "--lam", "60", "--mu-new", "0.2",
            "--mu-old", "1e-4", "--alpha", "600", "--beta", "600",
            "--levers", "phi,coverage", "--max-iters", "3", "--starts", "2",
            "--json",
        ]
        outputs = []
        for seed in (0, 1):
            np.random.seed(seed)
            assert main(args) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestBetaMixture:
    def test_cdf_is_monotone_and_bounded(self, birth_death_chain):
        rates = [0.0, 1.0, 1.0, 1.0]
        dist = accumulated_distribution(birth_death_chain, rates, 1.5)
        grid = np.linspace(0.0, dist.maximum, 101)
        values = [dist.cdf(float(w)) for w in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_quantile_cdf_consistency(self, birth_death_chain):
        rates = [0.0, 1.0, 1.0, 1.0]
        dist = accumulated_distribution(birth_death_chain, rates, 1.5)
        for q in (0.05, 0.3, 0.5, 0.8, 0.95):
            w = dist.quantile(q)
            assert dist.cdf(w) >= q - 1e-9

    def test_atoms_are_occupation_probabilities(self, birth_death_chain):
        # Atom at zero: never visit the busy set over [0, t]; with the
        # queue started empty that requires zero arrivals.
        rates = [0.0, 1.0, 1.0, 1.0]
        t = 1.5
        dist = accumulated_distribution(birth_death_chain, rates, t)
        arrival = 2.0
        assert dist.atom(0.0) == pytest.approx(
            math.exp(-arrival * t), rel=1e-10
        )
        assert dist.atom(dist.maximum) == pytest.approx(0.0, abs=1e-12)

    def test_budget_error_surfaces_and_auto_falls_back(self, up_down):
        with pytest.raises(UniformizationBudgetError):
            accumulated_distribution(
                up_down,
                [1.0, 0.0],
                T,
                method="uniformization",
                max_poisson_terms=0,
            )
        dist = accumulated_distribution(
            CTMC.from_rates(2, {(0, 1): 1.0, (1, 0): 1.0}),
            [1.0, 0.0],
            float(MAX_POISSON_TERMS),  # Lambda * t far past the budget
            method="auto",
        )
        assert dist.method == "gaussian"


class TestGaussianSurrogate:
    def test_moments_and_median(self, birth_death_chain):
        rates = [0.0, 1.0, 2.0, 3.0]  # queue length: not an indicator
        t = 2.0
        dist = accumulated_distribution(birth_death_chain, rates, t)
        assert dist.method == "gaussian"
        mean, variance = accumulated_moments(birth_death_chain, rates, t)
        assert dist.mean == pytest.approx(mean)
        assert dist.variance == pytest.approx(variance)
        assert dist.cdf(mean) == pytest.approx(0.5, abs=1e-12)
        assert dist.quantile(0.5) == pytest.approx(mean, abs=1e-9)
        assert dist.atom(0.0) == 0.0

    def test_explicit_gaussian_allowed_for_indicator_rewards(self, up_down):
        dist = accumulated_distribution(
            up_down, [1.0, 0.0], T, method="gaussian"
        )
        assert dist.method == "gaussian"
        mean, _ = closed_form_moments()
        assert dist.mean == pytest.approx(mean, rel=1e-12)


class TestDispatchErrors:
    def test_transient_requires_no_return_support(self, birth_death_chain):
        with pytest.raises(ValueError, match="no-return"):
            accumulated_distribution(
                birth_death_chain, [0.0, 1.0, 1.0, 1.0], 1.0, method="transient"
            )

    @pytest.mark.parametrize("method", ["transient", "uniformization"])
    def test_indicator_methods_reject_general_rewards(
        self, birth_death_chain, method
    ):
        with pytest.raises(ValueError, match="reward vector"):
            accumulated_distribution(
                birth_death_chain, [0.0, 1.0, 2.0, 3.0], 1.0, method=method
            )

    def test_unknown_method_and_negative_horizon(self, up_down):
        with pytest.raises(ValueError, match="unknown distribution method"):
            accumulated_distribution(up_down, [1.0, 0.0], T, method="exact")
        with pytest.raises(ValueError, match="non-negative"):
            accumulated_distribution(up_down, [1.0, 0.0], -1.0)

    def test_quantile_level_validation(self, up_down):
        dist = accumulated_distribution(up_down, [1.0, 0.0], T)
        with pytest.raises(ValueError):
            dist.quantile(1.5)


class TestEdgeCases:
    def test_zero_reward_vector_is_degenerate_at_zero(self, up_down):
        dist = accumulated_distribution(up_down, [0.0, 0.0], T)
        assert dist.cdf(0.0) == 1.0
        assert dist.quantile(0.99) == 0.0
        assert dist.mean == 0.0

    def test_zero_horizon(self, up_down):
        dist = accumulated_distribution(up_down, [1.0, 0.0], 0.0)
        assert dist.maximum == 0.0
        assert dist.cdf(0.0) == 1.0

    def test_describe_is_json_ready(self, up_down):
        info = accumulated_distribution(up_down, [1.0, 0.0], T).describe()
        assert info["method"] == "transient"
        assert info["horizon"] == T
        assert info["atom_full"] == pytest.approx(math.exp(-LAM * T))

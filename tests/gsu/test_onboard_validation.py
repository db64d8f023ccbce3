"""Tests for the onboard-validation stage (Bayesian rate estimation,
stopping rule, upgrade planning)."""

import numpy as np
import pytest

from repro.gsu.onboard_validation import (
    GammaRatePosterior,
    UpgradePlan,
    ValidationLog,
    ValidationStoppingRule,
    plan_guarded_operation,
    simulate_validation_stage,
)
from repro.gsu.parameters import PAPER_TABLE3


class TestGammaPosterior:
    def test_conjugate_update(self):
        posterior = GammaRatePosterior.from_observation(
            events=3, exposure=1000.0, prior_shape=0.5, prior_rate=1.0
        )
        assert posterior.shape == 3.5
        assert posterior.rate == 1001.0
        assert posterior.mean == pytest.approx(3.5 / 1001.0)

    def test_incremental_update_equals_batch(self):
        batch = GammaRatePosterior.from_observation(5, 2000.0)
        incremental = GammaRatePosterior.from_observation(2, 800.0).update(
            3, 1200.0
        )
        assert incremental.shape == batch.shape
        assert incremental.rate == batch.rate

    def test_credible_interval_ordering_and_coverage(self):
        posterior = GammaRatePosterior.from_observation(10, 1e5)
        low, high = posterior.credible_interval()
        assert 0 < low < posterior.mean < high
        narrow_low, narrow_high = posterior.credible_interval(0.5)
        assert narrow_high - narrow_low < high - low

    def test_more_data_tightens_relative_width(self):
        small = GammaRatePosterior.from_observation(2, 2e4)
        big = GammaRatePosterior.from_observation(20, 2e5)

        def rel_width(p):
            low, high = p.credible_interval()
            return (high - low) / p.mean

        assert rel_width(big) < rel_width(small)

    def test_sampling_matches_moments(self):
        posterior = GammaRatePosterior.from_observation(50, 5e5)
        samples = posterior.sample(np.random.default_rng(0), 50_000)
        assert samples.mean() == pytest.approx(posterior.mean, rel=0.02)
        assert samples.std() == pytest.approx(posterior.std, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaRatePosterior(shape=0.0, rate=1.0)
        with pytest.raises(ValueError):
            GammaRatePosterior.from_observation(-1, 100.0)
        with pytest.raises(ValueError):
            GammaRatePosterior.from_observation(1, 0.0)


class TestValidationSimulation:
    def test_event_count_tracks_true_rate(self):
        # Long window, deterministic seed: counts near rate * duration.
        log = simulate_validation_stage(
            true_rate=0.01, duration=50_000.0, seed=1
        )
        assert log.manifestations == pytest.approx(500, rel=0.2)
        assert log.posterior.mean == pytest.approx(0.01, rel=0.2)

    def test_posterior_interval_covers_truth_typically(self):
        covered = 0
        for seed in range(20):
            log = simulate_validation_stage(
                true_rate=1e-3, duration=20_000.0, seed=seed
            )
            low, high = log.posterior.credible_interval()
            covered += 1 if low <= 1e-3 <= high else 0
        assert covered >= 16  # ~95% nominal coverage

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            simulate_validation_stage(1e-4, 0.0)

    def test_reproducible(self):
        a = simulate_validation_stage(1e-3, 5000.0, seed=7)
        b = simulate_validation_stage(1e-3, 5000.0, seed=7)
        assert a.manifestations == b.manifestations


class TestStoppingRule:
    def test_stops_at_cap(self):
        rule = ValidationStoppingRule(relative_width=0.01, max_duration=100.0)
        log = ValidationLog(
            duration=100.0,
            manifestations=0,
            posterior=GammaRatePosterior.from_observation(0, 100.0),
        )
        assert rule.should_stop(log)

    def test_stops_when_tight(self):
        rule = ValidationStoppingRule(relative_width=1.0, max_duration=1e9)
        tight = ValidationLog(
            duration=1e6,
            manifestations=100,
            posterior=GammaRatePosterior.from_observation(100, 1e6),
        )
        assert rule.should_stop(tight)

    def test_continues_when_loose(self):
        rule = ValidationStoppingRule(relative_width=0.5, max_duration=1e9)
        loose = ValidationLog(
            duration=1000.0,
            manifestations=1,
            posterior=GammaRatePosterior.from_observation(1, 1000.0),
        )
        assert not rule.should_stop(loose)

    def test_required_duration_terminates(self):
        rule = ValidationStoppingRule(relative_width=1.5, max_duration=40_000.0)
        log = rule.required_duration(1e-3, increment=5000.0, seed=11)
        assert log.duration <= 40_000.0
        assert rule.should_stop(log)

    def test_increment_validation(self):
        rule = ValidationStoppingRule()
        with pytest.raises(ValueError):
            rule.required_duration(1e-4, increment=0.0)


class TestUpgradePlanning:
    @pytest.fixture(scope="class")
    def plan(self) -> UpgradePlan:
        posterior = GammaRatePosterior.from_observation(2, 20_000.0)
        return plan_guarded_operation(
            PAPER_TABLE3, posterior, posterior_samples=10, seed=2
        )

    def test_phi_on_grid(self, plan):
        assert 0.0 <= plan.phi <= PAPER_TABLE3.theta

    def test_y_interval_reflects_rate_uncertainty(self, plan):
        low, high = plan.y_credible_interval()
        assert low < high
        assert low <= plan.optimum.y <= high * 1.05

    def test_tight_posterior_recovers_paper_optimum(self):
        # Essentially-certain rate of 1e-4: the plan must match Fig. 9.
        posterior = GammaRatePosterior(shape=1e6, rate=1e10)
        assert posterior.mean == pytest.approx(1e-4)
        plan = plan_guarded_operation(
            PAPER_TABLE3, posterior, phi_step=1000.0, posterior_samples=5,
            seed=3,
        )
        assert plan.phi == 7000.0
        low, high = plan.y_credible_interval()
        assert high - low < 0.05  # little rate uncertainty -> tight Y

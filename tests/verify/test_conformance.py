"""Tests for profiles, verdict mechanics, and composed agreement."""

import math

import pytest

from repro.des.stats import ConfidenceInterval
from repro.gsu.measures import ConstituentSolver
from repro.verify.conformance import (
    VERIFY_PROFILES,
    composed_verdicts,
    constituent_verdicts,
    measure_verdict,
    rare_event_bound,
    resolve_profile,
    sidak_confidence,
    verdict_family_size,
)
from repro.verify.estimators import MEASURE_SPECS, MomentSummary

SPEC = {spec.name: spec for spec in MEASURE_SPECS}


class TestProfiles:
    def test_named_profiles_valid(self):
        assert set(VERIFY_PROFILES) == {"table3", "scaled"}
        for profile in VERIFY_PROFILES.values():
            assert profile.confidence == 0.99
            assert all(0.0 < p < profile.params.theta for p in profile.phis)

    def test_block_sizes_sum_to_replications(self):
        profile = VERIFY_PROFILES["table3"].with_overrides(
            replications=100, block_size=48
        )
        assert profile.block_sizes() == (48, 48, 4)
        assert profile.num_blocks == 3
        assert sum(profile.block_sizes()) == 100

    def test_validation(self):
        base = VERIFY_PROFILES["scaled"]
        with pytest.raises(ValueError):
            base.with_overrides(phis=())
        with pytest.raises(ValueError):
            base.with_overrides(phis=(base.params.theta,))
        with pytest.raises(ValueError):
            base.with_overrides(replications=1)
        with pytest.raises(ValueError):
            base.with_overrides(confidence=1.0)

    def test_resolve_overrides(self):
        profile = resolve_profile(
            "scaled", phis=[3.0, 6.0], replications=32, seed=1, confidence=0.95
        )
        assert profile.phis == (3.0, 6.0)
        assert profile.replications == 32
        # Block size shrinks so a tiny run is still a single block.
        assert profile.block_size == 32
        assert profile.seed == 1
        assert profile.confidence == 0.95

    def test_resolve_unknown_name(self):
        with pytest.raises(ValueError, match="unknown verify profile"):
            resolve_profile("nope")


class TestBounds:
    def test_rule_of_three(self):
        # The classical rule of three: ~3/n at 95% confidence.
        assert rare_event_bound(100, 0.95) == pytest.approx(
            -math.log(0.05) / 100
        )
        assert rare_event_bound(100, 0.95) == pytest.approx(0.03, rel=0.01)
        with pytest.raises(ValueError):
            rare_event_bound(0, 0.95)

    def test_sidak_family_coverage(self):
        per_test = sidak_confidence(0.99, 33)
        assert per_test > 0.99
        assert per_test**33 == pytest.approx(0.99, rel=1e-12)
        assert sidak_confidence(0.99, 1) == pytest.approx(0.99)
        with pytest.raises(ValueError):
            sidak_confidence(0.99, 0)
        with pytest.raises(ValueError):
            sidak_confidence(1.0, 5)

    def test_family_size(self):
        # 3 phi-independent measures + (6 phi-dependent + 2 composed)
        # verdicts per phi.
        assert verdict_family_size((2.0,)) == 11
        assert verdict_family_size((2.0, 5.0, 8.0, 12.0, 16.0)) == 43


class TestMeasureVerdict:
    def test_ci_containment_passes(self):
        summary = MomentSummary(count=100, mean=0.30, m2=100 * 0.3 * 0.7)
        verdict = measure_verdict(SPEC["int_h"], summary, 0.28, 0.99, 5.0)
        assert verdict.method == "ci"
        assert verdict.passed
        assert isinstance(verdict.interval, ConfidenceInterval)

    def test_ci_containment_fails_far_value(self):
        summary = MomentSummary(count=100, mean=0.30, m2=100 * 0.3 * 0.7)
        verdict = measure_verdict(SPEC["int_h"], summary, 0.9, 0.99, 5.0)
        assert not verdict.passed

    def test_complement_applied_before_judging(self):
        # rho1 = 1 - raw overhead; the analytic value lives in the
        # constituent domain.
        summary = MomentSummary(count=400, mean=0.02, m2=400 * 1e-5)
        verdict = measure_verdict(SPEC["rho1"], summary, 0.98, 0.99, None)
        assert verdict.passed
        assert verdict.interval.mean == pytest.approx(0.98)

    def test_rare_event_all_zero_passes_small_analytic(self):
        summary = MomentSummary(count=200, mean=0.0, m2=0.0)
        verdict = measure_verdict(SPEC["int_hf"], summary, 1e-6, 0.99, 5.0)
        assert verdict.method == "rare-event"
        assert verdict.passed

    def test_rare_event_all_zero_fails_large_analytic(self):
        summary = MomentSummary(count=200, mean=0.0, m2=0.0)
        verdict = measure_verdict(SPEC["int_hf"], summary, 0.5, 0.99, 5.0)
        assert verdict.method == "rare-event"
        assert not verdict.passed

    def test_rare_event_all_ones_side(self):
        # int_f is a complemented indicator: raw survival all-ones means
        # the constituent estimate is 0, judged against the bound.
        summary = MomentSummary(count=200, mean=1.0, m2=0.0)
        verdict = measure_verdict(SPEC["int_f"], summary, 1e-5, 0.99, 5.0)
        assert verdict.method == "rare-event"
        assert verdict.passed

    def test_non_indicator_never_uses_rare_event(self):
        summary = MomentSummary(count=50, mean=0.0, m2=0.0)
        verdict = measure_verdict(SPEC["int_tau_h"], summary, 0.0, 0.99, 5.0)
        assert verdict.method == "ci"
        assert verdict.passed  # exact agreement within the slack


def analytic_merged(params, phis, noise_m2=1e-8, count=500):
    """Merged summaries whose means equal the analytic solution."""
    solver = ConstituentSolver(params)
    rows = solver.batch(list(phis))
    analytic_by_phi = {phi: row for phi, row in zip(phis, rows)}
    merged = {}
    for phi, row in analytic_by_phi.items():
        for spec in MEASURE_SPECS:
            t = spec.observation_time(phi, params.theta)
            raw = 1.0 - row[spec.name] if spec.complement else row[spec.name]
            merged[(spec.model_key, spec.sample, t)] = MomentSummary(
                count=count, mean=raw, m2=noise_m2
            )
    return merged, analytic_by_phi


class TestVerdictMatrix:
    def test_exact_agreement_passes_everything(self, scaled_params):
        phis = (2.0, 8.0)
        merged, analytic = analytic_merged(scaled_params, phis)
        theta = scaled_params.theta
        measures = constituent_verdicts(merged, analytic, theta, 0.99)
        composed = composed_verdicts(merged, analytic, theta, 0.99)
        assert all(v.passed for v in measures)
        assert all(v.passed for v in composed)
        # 3 judged once + 6 per phi; E_Wphi and Y per phi.
        assert len(measures) == 3 + 6 * len(phis)
        assert len(composed) == 2 * len(phis)

    def test_tampered_constituent_fails_its_verdict(self, scaled_params):
        phis = (8.0,)
        merged, analytic = analytic_merged(scaled_params, phis)
        spec = SPEC["int_h"]
        key = (spec.model_key, spec.sample, 8.0)
        merged[key] = MomentSummary(count=500, mean=0.95, m2=1e-8)
        measures = constituent_verdicts(
            merged, analytic, scaled_params.theta, 0.99
        )
        failed = [v.measure for v in measures if not v.passed]
        assert failed == ["int_h"]

    def test_tampered_constituent_breaks_composition(self, scaled_params):
        phis = (8.0,)
        merged, analytic = analytic_merged(scaled_params, phis)
        spec = SPEC["p_gd_phi_a1"]
        merged[(spec.model_key, spec.sample, 8.0)] = MomentSummary(
            count=500, mean=0.01, m2=1e-8
        )
        composed = composed_verdicts(
            merged, analytic, scaled_params.theta, 0.99
        )
        assert not all(v.passed for v in composed)

    def test_verdict_dicts_are_json_ready(self, scaled_params):
        merged, analytic = analytic_merged(scaled_params, (2.0,))
        theta = scaled_params.theta
        for verdict in constituent_verdicts(merged, analytic, theta, 0.99):
            data = verdict.to_dict()
            assert {"measure", "analytic", "simulated", "passed"} <= set(data)
        for verdict in composed_verdicts(merged, analytic, theta, 0.99):
            data = verdict.to_dict()
            assert {"quantity", "phi", "half_width", "passed"} <= set(data)

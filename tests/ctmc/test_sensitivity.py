"""Tests for finite-difference sensitivity estimation."""

import math

import pytest

from repro.ctmc.sensitivity import finite_difference_sensitivity


class TestFiniteDifference:
    def test_linear_function_exact(self):
        result = finite_difference_sensitivity(lambda x: 3.0 * x + 1.0, at=2.0)
        assert result.derivative == pytest.approx(3.0, rel=1e-6)
        assert result.measure_value == pytest.approx(7.0)

    def test_quadratic_function(self):
        result = finite_difference_sensitivity(lambda x: x * x, at=3.0)
        assert result.derivative == pytest.approx(6.0, rel=1e-5)

    def test_exponential_elasticity(self):
        # f(x) = exp(x): elasticity at x is x (d ln f / d ln x * ... ).
        result = finite_difference_sensitivity(math.exp, at=1.5)
        assert result.elasticity == pytest.approx(1.5, rel=1e-4)

    def test_small_parameter_step_stays_positive(self):
        # Regression: the step must scale with |at| so tiny rates like
        # mu_new = 1e-4 never probe negative values.
        seen = []

        def measure(x):
            seen.append(x)
            return x * 2.0

        finite_difference_sensitivity(measure, at=1e-4, relative_step=0.05)
        assert all(x > 0 for x in seen)

    def test_zero_parameter_uses_absolute_step(self):
        result = finite_difference_sensitivity(lambda x: 5.0 * x, at=0.0)
        assert result.derivative == pytest.approx(5.0, rel=1e-6)
        assert math.isnan(result.elasticity)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference_sensitivity(lambda x: x, at=1.0, relative_step=0.0)

    def test_elasticity_nan_when_measure_zero(self):
        result = finite_difference_sensitivity(lambda x: x - 2.0, at=2.0)
        assert math.isnan(result.elasticity)


class TestBoundedDifferences:
    """Domain-aware stepping: one-sided fallback at parameter bounds."""

    def test_interior_bitwise_identical_to_unbounded(self):
        # With both probes inside the bounds the bounded call must run
        # the exact unbounded central-difference arithmetic.
        unbounded = finite_difference_sensitivity(math.exp, at=1.5)
        bounded = finite_difference_sensitivity(
            math.exp, at=1.5, bounds=(0.0, 10.0)
        )
        assert bounded.derivative == unbounded.derivative
        assert bounded.measure_value == unbounded.measure_value
        assert bounded.elasticity == unbounded.elasticity

    def test_lower_bound_uses_forward_difference(self):
        # Regression: at a rate's lower bound the old code probed the
        # out-of-domain point at - h (a negative rate).  sqrt makes the
        # defect loud.
        seen = []

        def measure(x):
            seen.append(x)
            return math.sqrt(x)

        result = finite_difference_sensitivity(
            measure, at=0.0, relative_step=0.01, bounds=(0.0, 1.0)
        )
        assert all(x >= 0.0 for x in seen)
        h = 0.01
        assert result.derivative == (math.sqrt(h) - 0.0) / h

    def test_upper_bound_uses_backward_difference(self):
        # Coverage c = 1.0: probing c + h would exceed the [0, 1] domain.
        seen = []

        def measure(x):
            seen.append(x)
            return x * x

        result = finite_difference_sensitivity(
            measure, at=1.0, relative_step=0.05, bounds=(0.0, 1.0)
        )
        assert all(x <= 1.0 for x in seen)
        h = 0.05
        assert result.derivative == pytest.approx(
            (1.0 - (1.0 - h) ** 2) / h
        )

    def test_cramped_domain_shrinks_central_step(self):
        # Both probes would leave the domain: the step shrinks to the
        # widest symmetric step that fits and stays central.
        seen = []

        def measure(x):
            seen.append(x)
            return 3.0 * x

        result = finite_difference_sensitivity(
            measure, at=1.0, relative_step=0.5, bounds=(0.9, 1.05)
        )
        assert all(0.9 <= x <= 1.05 for x in seen)
        assert result.derivative == pytest.approx(3.0, rel=1e-9)

    def test_point_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_sensitivity(
                lambda x: x, at=2.0, bounds=(0.0, 1.0)
            )

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_sensitivity(
                lambda x: x, at=1.0, bounds=(1.0, 1.0)
            )

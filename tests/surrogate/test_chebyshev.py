"""Unit tests of the Chebyshev interpolation primitives."""

import math

import numpy as np
import pytest

from repro.surrogate.chebyshev import (
    HOLDOUT_CAP,
    basis,
    basis_many,
    cgl_nodes,
    derivative_tensor,
    from_unit,
    holdout_nodes,
    stacked_eval,
    tensor_fit,
    to_unit,
)


class TestNodes:
    def test_cgl_descending_with_endpoints(self):
        nodes = cgl_nodes(8)
        assert nodes.shape == (9,)
        assert nodes[0] == 1.0
        assert nodes[-1] == -1.0
        assert np.all(np.diff(nodes) < 0)

    def test_cgl_degree_zero_is_centre(self):
        assert cgl_nodes(0).tolist() == [0.0]

    def test_cgl_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            cgl_nodes(-1)

    @pytest.mark.parametrize("degree", [4, 8, 12, 16])
    def test_holdout_disjoint_from_fit_grid(self, degree):
        fit = cgl_nodes(degree)
        hold = holdout_nodes(degree)
        assert hold.size > 0
        gaps = np.abs(hold[:, None] - fit[None, :])
        assert gaps.min() > 1e-12

    def test_holdout_capped_and_still_disjoint(self):
        hold = holdout_nodes(32)
        assert hold.size == HOLDOUT_CAP
        full = holdout_nodes(32, cap=None)
        assert full.size > HOLDOUT_CAP
        # The subsample keeps the extreme interior nodes and is a subset.
        assert hold[0] == full[0]
        assert hold[-1] == full[-1]
        assert set(hold.tolist()) <= set(full.tolist())
        gaps = np.abs(hold[:, None] - cgl_nodes(32)[None, :])
        assert gaps.min() > 1e-12


class TestUnitMap:
    def test_round_trip(self):
        xs = np.linspace(-1.0, 1.0, 11)
        raw = from_unit(xs, 3.0, 9.0)
        back = to_unit(raw, 3.0, 9.0)
        assert np.allclose(back, xs, atol=1e-14)
        assert from_unit(-1.0, 3.0, 9.0) == 3.0
        assert from_unit(1.0, 3.0, 9.0) == 9.0


class TestBasis:
    def test_matches_three_term_recurrence(self):
        for x in (-1.0, -0.73, 0.0, 0.31, 1.0):
            vec = basis(x, 6)
            t0, t1 = 1.0, x
            expected = [t0, t1]
            for _ in range(5):
                t0, t1 = t1, 2.0 * x * t1 - t0
                expected.append(t1)
            assert vec == pytest.approx(expected, abs=1e-12)

    def test_basis_many_matches_basis(self):
        xs = np.linspace(-1.0, 1.0, 7)
        many = basis_many(xs, 5)
        assert many.shape == (7, 6)
        for i, x in enumerate(xs):
            assert np.array_equal(many[i], basis(float(x), 5))

    def test_clips_out_of_range_round_off(self):
        assert basis(1.0 + 1e-15, 3)[1] == 1.0
        assert basis(-1.0 - 1e-15, 3)[1] == -1.0


class TestTensorFit:
    def test_recovers_smooth_function(self):
        degrees = (14, 12)
        grids = [cgl_nodes(d) for d in degrees]

        def f(x, y):
            return np.exp(x) * np.cos(2.0 * y) + x * y

        values = f(grids[0][:, None], grids[1][None, :])
        coeffs = tensor_fit(values, degrees)
        stacked = coeffs[None, :, :]
        rng = np.random.default_rng(3)
        for _ in range(25):
            x, y = rng.uniform(-1.0, 1.0, size=2)
            approx = stacked_eval(stacked, (x, y))[0]
            assert approx == pytest.approx(f(x, y), abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tensor_fit(np.zeros((3, 3)), (4, 2))
        with pytest.raises(ValueError):
            tensor_fit(np.zeros((3, 3)), (2,))

    def test_degree_zero_axis_passthrough(self):
        values = np.array([[1.5], [2.0], [2.5]])
        coeffs = tensor_fit(values, (2, 0))
        assert stacked_eval(coeffs[None], (0.3, 0.0))[0] == pytest.approx(
            np.polynomial.chebyshev.chebval(0.3, coeffs[:, 0]), abs=1e-12
        )


class TestDerivativeTensor:
    def test_matches_numerical_derivative(self):
        degrees = (10, 8)
        grids = [cgl_nodes(d) for d in degrees]
        values = np.sin(2.0 * grids[0][:, None]) * np.exp(grids[1][None, :])
        stacked = tensor_fit(values, degrees)[None]
        for axis in (0, 1):
            deriv = derivative_tensor(stacked, axis)
            assert deriv.shape == stacked.shape
            h = 1e-6
            point = (0.21, -0.4)
            bumped = list(point)
            bumped[axis] += h
            numeric = (
                stacked_eval(stacked, tuple(bumped))[0]
                - stacked_eval(stacked, point)[0]
            ) / h
            analytic = stacked_eval(deriv, point)[0]
            assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_constant_axis_derivative_is_zero(self):
        stacked = np.ones((2, 1, 3))
        assert np.array_equal(
            derivative_tensor(stacked, 0), np.zeros_like(stacked)
        )


def test_holdout_cap_uses_math_gcd_coprime_fine_grid():
    # The fine grid backing the holdout must stay coprime so no node
    # coincides with the fit grid even before subsampling.
    for degree in (6, 10, 16, 32):
        full = holdout_nodes(degree, cap=None)
        fine_degree = degree + 3
        while math.gcd(fine_degree, degree) != 1:
            fine_degree += 1
        assert full.size == fine_degree - 1

"""Special-function checks against independent quadrature oracles."""

import json
import math
import os

import numpy as np
import pytest

from simlab.special import (
    a_n,
    a_n_quadrature,
    bessel_i,
    bessel_i_scaled,
    bessel_i_scaled_orders,
    complex_gaussian_array,
    normal_cdf,
)


class TestBesselSeries:
    def test_order_zero_at_origin(self):
        assert bessel_i(0, 0.0) == 1.0

    def test_positive_orders_vanish_at_origin(self):
        for n in range(1, 12):
            assert bessel_i(n, 0.0) == 0.0

    def test_negative_order_symmetry(self):
        assert bessel_i(-3, 1.7) == bessel_i(3, 1.7)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 20])
    @pytest.mark.parametrize("a", [0.1, 1.0, 4.0, 9.5])
    def test_series_matches_quadrature(self, n, a):
        assert 2.0 * math.pi * bessel_i(n, a) == pytest.approx(
            a_n_quadrature(n, a), abs=1e-8
        )

    @pytest.mark.parametrize("a", [31.0, 55.0, 80.0, 200.0])
    def test_recurrence_continuation(self, a):
        # the scaled recurrence must agree with quadrature of the scaled
        # integrand e^{a(cos u - 1)} cos(nu)
        for n in (0, 1, 4):
            u = np.linspace(0.0, 2.0 * np.pi, 8193)
            oracle = np.trapezoid(np.exp(a * (np.cos(u) - 1.0)) * np.cos(n * u), u)
            assert 2.0 * math.pi * bessel_i_scaled(n, a) == pytest.approx(
                oracle, rel=1e-10
            )

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_small_argument_equivalent(self, n):
        # I_n(a) = (a/2)^n / n! (1 + O(a/n)) for a <= sqrt(n)
        for a in np.linspace(0.05, math.sqrt(n), 7):
            lead = (a / 2.0) ** n / math.factorial(n)
            rel = abs(bessel_i(n, a) / lead - 1.0)
            assert rel < 2.0 * a / n

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_i(2, -1.0)


# e^{-a} I_n(a) for n = 0..80, recorded from the power series (a <= 30) and
# the scalar backward recurrence that bessel_i_scaled_orders replaced; null
# where that series never terminated (a subnormal leading term).
REFERENCE = os.path.join(os.path.dirname(__file__), "data", "bessel_scaled_reference.json")
ORDER_ARGS = (0.0, 1e-8, 0.5, 2.0, 8.0, 29.9, 30.1, 200.0, 700.0, 1e4)


class TestBesselOrders:
    def test_matches_recorded_values(self):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        assert tuple(ref["args"]) == ORDER_ARGS
        got = bessel_i_scaled_orders(80, np.array(ORDER_ARGS))
        assert got.shape == (len(ORDER_ARGS), 81)
        assert np.all(np.isfinite(got))
        checked = 0
        for row, expected in zip(got, ref["scaled"]):
            for value, want in zip(row, expected):
                if want is not None and want > 1e-290:
                    assert value == pytest.approx(want, rel=1e-13)
                    checked += 1
        assert checked == 680

    @pytest.mark.parametrize("a", ORDER_ARGS[:-1])  # e^{1e4} overflows the oracle
    def test_matches_quadrature(self, a):
        # relative 1e-13 down to 1e-2; below it the oracle's own rounding,
        # about 1e-16 of the peak, sets an absolute floor
        got = bessel_i_scaled_orders(80, a)
        for n in range(81):
            oracle = a_n_quadrature(n, a) * math.exp(-a) / (2.0 * math.pi)
            assert abs(got[n] - oracle) <= 1e-13 * max(got[n], 1e-2)

    def test_array_shape_and_scalar_wrappers(self):
        a = np.array([[0.0, 0.3, 4.0], [31.0, 90.0, 1e-8]])
        got = bessel_i_scaled_orders(6, a)
        assert got.shape == (2, 3, 7)
        for idx in np.ndindex(a.shape):
            for n in range(7):
                scalar = bessel_i_scaled(n, a[idx])
                assert scalar == pytest.approx(got[idx][n], rel=1e-14)
                assert bessel_i_scaled(-n, a[idx]) == scalar

    def test_long_argument_arrays_are_split(self):
        # 600 arguments up to 1e4 exceed the work-array bound and are halved
        a = np.linspace(0.0, 1e4, 600)
        got = bessel_i_scaled_orders(3, a)
        for i in (0, 1, 299, 300, 599):
            alone = bessel_i_scaled_orders(3, a[i : i + 1])[0]
            assert got[i] == pytest.approx(alone, rel=1e-13)

    def test_zero_argument(self):
        got = bessel_i_scaled_orders(5, [0.0])
        assert got.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]

    def test_rejects_negative_or_nan_argument(self):
        for bad in ([1.0, -1e-300], [math.nan]):
            with pytest.raises(ValueError):
                bessel_i_scaled_orders(3, bad)


class TestCircularIntegral:
    def test_a0_at_zero(self):
        assert a_n(0, 0.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_an_at_zero_vanishes(self):
        for n in range(1, 8):
            assert a_n(n, 0.0) == 0.0

    def test_series_vs_quadrature_table(self):
        for n in range(0, 21):
            for a in np.arange(0.0, 10.0 + 1e-9, 0.5):
                assert abs(a_n(n, a) - a_n_quadrature(n, float(a))) < 1e-8

    def test_generating_function_identity(self):
        # e^{a cos u} = I_0(a) + 2 sum_m I_m(a) cos(mu)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.uniform(0.0, 10.0)
            u = rng.uniform(0.0, 2.0 * math.pi)
            total = bessel_i(0, a) + 2.0 * sum(
                bessel_i(m, a) * math.cos(m * u) for m in range(1, 61)
            )
            assert abs(total - math.exp(a * math.cos(u))) < 1e-10

    def test_large_argument_lower_bound(self):
        # I_n(a) >= e^a / (2 sqrt(2 pi a)) whenever a >= 4 n^2
        for n in range(0, 4):
            for a in np.linspace(max(4.0 * n**2, 0.5), 100.0, 9):
                lower = 0.5 / math.sqrt(2.0 * math.pi * a)
                assert bessel_i_scaled(n, a) >= lower


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)

    def test_reference_value(self):
        assert normal_cdf(1.0) == pytest.approx(0.841344746, abs=1e-9)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 200)
        vals = [normal_cdf(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestComplexGaussian:
    def test_second_moment(self):
        rng = np.random.default_rng(0)
        z = complex_gaussian_array(rng, 10**6)
        second = np.mean(np.abs(z) ** 2)
        se = np.std(np.abs(z) ** 2) / 1000.0
        assert abs(second - 1.0) < 3.0 * se

    def test_centered(self):
        rng = np.random.default_rng(1)
        z = complex_gaussian_array(rng, 10**6)
        assert abs(np.mean(z)) < 3.0 / 1000.0

    def test_real_imag_independent(self):
        rng = np.random.default_rng(2)
        z = complex_gaussian_array(rng, 10**6)
        corr = np.corrcoef(z.real, z.imag)[0, 1]
        assert abs(corr) < 3.0 / 1000.0

    def test_scalar_sampler_is_array_stream(self):
        # a scalar draw: real part first, then imaginary, each N(0, 1/2)
        scalar, pairs = (np.random.default_rng(4) for _ in range(2))
        for _ in range(5):
            z = complex(complex_gaussian_array(scalar, ()))
            assert z == complex(*pairs.normal(0.0, math.sqrt(0.5), 2))

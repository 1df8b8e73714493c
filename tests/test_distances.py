"""Distance estimators: closed forms, Monte Carlo agreement, bounds."""

import math

import numpy as np
import pytest

from simlab import distances
from simlab.distances import (
    DistanceEstimate,
    NonFiniteDensityError,
    check_sandwich,
    e1_bound,
    e3_bound,
    hellinger_point_shift,
    mc_distance,
    tv_bound_f,
    tv_bound_g,
    tv_gaussians,
)
from simlab.fourier import FourierSeries
from simlab.mixture import MixtureLaw, gaussian_density, log_mixture_density, sample_law
from simlab.shifts import Discrete, raised_cosine_density, uniform_density
from simlab.special import normal_cdf


def random_series(rng, cutoff, scale=0.6):
    c = scale * (rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1))
    return FourierSeries(cutoff, c)


class TestGaussianTV:
    def test_zero_at_equal_means(self):
        z = np.array([0.3 + 0.2j, -0.1j])
        assert tv_gaussians(z, z) == 0.0

    def test_closed_form_value(self):
        # ||z1 - z2|| = 2 with per-part variance 1/2: 2 Phi(sqrt(2)) - 1
        z1 = np.array([2.0 + 0j])
        z2 = np.array([0.0 + 0j])
        assert tv_gaussians(z1, z2) == pytest.approx(
            2.0 * normal_cdf(math.sqrt(2.0)) - 1.0, rel=1e-12
        )

    def test_mismatched_dimensions_are_refused(self):
        # a (1,) and a (3,) mean would broadcast to a distance of sqrt(3)
        with pytest.raises(ValueError, match="share a dimension"):
            tv_gaussians([1.0], [0.0, 0.0, 0.0])

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        th1 = FourierSeries.from_dict({1: 0.7 + 0j}, 1)
        th2 = FourierSeries.from_dict({1: 0.1 + 0.5j}, 1)
        d0 = Discrete.point_mass(0.0)
        est = mc_distance(
            MixtureLaw(th1, d0), MixtureLaw(th2, d0), "TV", 300_000, rng
        )
        closed = tv_gaussians(th1.coeffs, th2.coeffs)
        assert abs(est.value - closed) < 3.0 * est.std_error


class TestHellingerPointShift:
    def test_zero(self):
        th = FourierSeries.from_dict({1: 0.4 + 0j}, 1)
        assert hellinger_point_shift(th, th) == 0.0

    def test_closed_form_value(self):
        # ||f - f~||^2 = 4: d_H^2 = 2 (1 - e^{-1})
        f = FourierSeries.from_dict({1: 2.0 + 0j}, 1)
        f0 = FourierSeries.zero(1)
        assert hellinger_point_shift(f, f0) ** 2 == pytest.approx(
            2.0 * (1.0 - math.exp(-1.0)), rel=1e-12
        )

    def test_quadratic_domination(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = random_series(rng, 2)
            f0 = random_series(rng, 2)
            gap = float(np.sum(np.abs(f.coeffs - f0.coeffs) ** 2))
            assert hellinger_point_shift(f, f0) ** 2 <= gap / 2.0 + 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        f = FourierSeries.from_dict({1: 0.8 + 0j}, 1)
        f0 = FourierSeries.from_dict({1: -0.1 + 0.3j}, 1)
        d0 = Discrete.point_mass(0.0)
        est = mc_distance(
            MixtureLaw(f, d0), MixtureLaw(f0, d0), "H2", 300_000, rng
        )
        assert abs(est.value - hellinger_point_shift(f, f0) ** 2) < (
            3.0 * est.std_error
        )


class TestMcDistance:
    def test_identical_laws(self):
        rng = np.random.default_rng(4)
        law = MixtureLaw(random_series(rng, 1), raised_cosine_density())
        est = mc_distance(law, law, "TV", 20_000, rng)
        assert est.value <= 3.0 * max(est.std_error, 1e-9)

    def test_symmetry_within_noise(self):
        rng = np.random.default_rng(5)
        p = MixtureLaw(random_series(rng, 1), uniform_density())
        q = MixtureLaw(random_series(rng, 1), raised_cosine_density())
        a = mc_distance(p, q, "TV", 40_000, rng)
        b = mc_distance(q, p, "TV", 40_000, rng)
        assert abs(a.value - b.value) < 3.0 * math.hypot(a.std_error, b.std_error)

    def test_kl_asymmetry_detected(self):
        rng = np.random.default_rng(6)
        wide = MixtureLaw(FourierSeries.from_dict({1: 0.9 + 0j}, 1), uniform_density())
        point = MixtureLaw(
            FourierSeries.from_dict({1: 0.9 + 0j}, 1), Discrete.point_mass(0.0)
        )
        kl_pq = mc_distance(wide, point, "KL", 50_000, rng)
        kl_qp = mc_distance(point, wide, "KL", 50_000, rng)
        gap = abs(kl_pq.value - kl_qp.value)
        assert gap > 3.0 * math.hypot(kl_pq.std_error, kl_qp.std_error)

    def test_v_is_second_moment(self):
        rng = np.random.default_rng(7)
        p = MixtureLaw(FourierSeries.from_dict({1: 0.5 + 0j}, 1), uniform_density())
        q = MixtureLaw(FourierSeries.from_dict({1: 0.2 + 0j}, 1), uniform_density())
        v = mc_distance(p, q, "V", 20_000, rng)
        kl = mc_distance(p, q, "KL", 20_000, rng)
        assert v.value >= 0.0
        assert v.value >= kl.value**2 - 3.0 * v.std_error  # Jensen

    def test_far_apart_laws_saturate(self):
        rng = np.random.default_rng(8)
        f = FourierSeries.from_dict({1: 10.0 + 0j}, 1)
        f0 = FourierSeries.zero(1)
        est = mc_distance(
            MixtureLaw(f, Discrete.point_mass(0.0)),
            MixtureLaw(f0, Discrete.point_mass(0.0)),
            "TV",
            50_000,
            rng,
        )
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_quadrature_stability(self):
        rng = np.random.default_rng(9)
        th = random_series(rng, 1)
        a = MixtureLaw(th, raised_cosine_density(512))
        b = MixtureLaw(th, raised_cosine_density(2048))
        est = mc_distance(a, b, "TV", 50_000, rng)
        assert est.value < 1e-3

    def test_metric_validated(self):
        rng = np.random.default_rng(10)
        law = MixtureLaw(FourierSeries.zero(1), uniform_density())
        with pytest.raises(ValueError):
            mc_distance(law, law, "W1", 100, rng)

    @pytest.mark.parametrize("metric", ["TV", "H2", "KL", "V"])
    def test_law_against_itself_is_one_evaluation(self, monkeypatch, metric):
        law = MixtureLaw(random_series(np.random.default_rng(11), 2), raised_cosine_density())
        copy = MixtureLaw(law.theta, law.g, law.freqs)
        kernel, calls = distances.log_mixture_density, []
        monkeypatch.setattr(
            distances, "log_mixture_density", lambda p, z: calls.append(p) or kernel(p, z)
        )
        rng, rng_copy = np.random.default_rng(12), np.random.default_rng(12)
        est = mc_distance(law, law, metric, 3_000, rng)
        assert len(calls) == 1
        assert est == mc_distance(law, copy, metric, 3_000, rng_copy)
        assert est.value == 0.0 and len(calls) == 3
        assert rng.bit_generator.state == rng_copy.bit_generator.state

    def test_estimate_invariants(self):
        est = DistanceEstimate(0.5, 0.01, 100)
        assert est.samples == 100


def patch_log_densities(monkeypatch, p, lp, lq):
    """Make ``mc_distance`` see the log densities ``lp`` under ``p`` and
    ``lq`` under every other law, whatever the sampled rows."""
    monkeypatch.setattr(
        distances, "log_mixture_density", lambda law, z: lp if law is p else lq
    )


LAW = MixtureLaw(FourierSeries.from_dict({1: 1.0 + 0j}, 1), uniform_density())


def kl_with_a_zero_density_under_p(monkeypatch, rng):
    patch_log_densities(monkeypatch, LAW, np.array([-1.0, -np.inf]), np.zeros(2))
    return mc_distance(LAW, MixtureLaw(FourierSeries.zero(1), LAW.g), "KL", 2, rng)


@pytest.mark.parametrize(
    "call, error, named",
    [
        (lambda mp, rng: mc_distance(LAW, MixtureLaw(LAW.theta, LAW.g, freqs=(1,)), "TV", 10,
                                     rng), ValueError, "active frequencies"),
        (lambda mp, rng: mc_distance(LAW, LAW, "TV", 1, rng), ValueError, "two samples"),
        (kl_with_a_zero_density_under_p, NonFiniteDensityError, "density under p"),
    ],
)
def test_mc_distance_refusals(monkeypatch, call, error, named):
    with pytest.raises(error, match=named):
        call(monkeypatch, np.random.default_rng(4))


class TestLogRatioIntegrands:
    P = MixtureLaw(FourierSeries.from_dict({1: 1.0 + 0j}, 1), uniform_density())
    Q = MixtureLaw(FourierSeries.zero(1), uniform_density())
    LP = np.array([-3.0, -0.5, 2.0, -1e4, -np.inf, 7.0, -2.0, 0.0])
    LQ = np.array([-3.5, -0.5, -1.0, 1.0, -4.0, 7.0 - 1e-9, 2000.0, -np.inf])

    @pytest.mark.parametrize("metric", ["TV", "H2"])
    def test_matches_the_density_form(self, monkeypatch, metric):
        patch_log_densities(monkeypatch, self.P, self.LP, self.LQ)
        est = mc_distance(self.P, self.Q, metric, self.LP.size, np.random.default_rng(1))
        m = np.maximum(self.LP, self.LQ)
        a, b = np.exp(self.LP - m), np.exp(self.LQ - m)
        h = np.abs(a - b) / (a + b) if metric == "TV" else 2.0 - 4.0 * np.sqrt(a * b) / (a + b)
        assert est.value == pytest.approx(np.mean(h), rel=1e-14)
        assert est.std_error == pytest.approx(np.std(h, ddof=1) / math.sqrt(h.size), rel=1e-12)

    @pytest.mark.parametrize("metric, ceiling", [("TV", 1.0), ("H2", 2.0)])
    def test_saturated_integrands_give_the_ceiling(self, monkeypatch, metric, ceiling):
        # huge opposite-sign log densities: tanh(|d|/2) is 1 and cosh(d/2)
        # overflows, so every integrand is exactly the metric's ceiling
        lp = np.array([800.0, -800.0, 1e4, -1e4, 3e5, -3e5, 800.0])
        patch_log_densities(monkeypatch, self.P, lp, -lp)
        est = mc_distance(self.P, self.Q, metric, lp.size, np.random.default_rng(3))
        assert est.value == ceiling
        assert est.std_error == 0.0

    @pytest.mark.parametrize("metric", ["TV", "H2"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    def test_undefined_ratio_is_refused(self, monkeypatch, metric, bad):
        # NaN, or both densities zero: the ratio is undefined
        lp, lq = self.LP.copy(), self.LQ.copy()
        lp[2] = lq[2] = bad
        patch_log_densities(monkeypatch, self.P, lp, lq)
        with pytest.raises(NonFiniteDensityError):
            mc_distance(self.P, self.Q, metric, lp.size, np.random.default_rng(2))


class TestSandwich:
    def test_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = MixtureLaw(random_series(rng, 1), uniform_density())
            q = MixtureLaw(random_series(rng, 1), raised_cosine_density())
            report = check_sandwich(p, q, 30_000, rng)
            assert report.all_ok

    def test_identical_laws(self):
        rng = np.random.default_rng(12)
        law = MixtureLaw(random_series(rng, 1), uniform_density())
        report = check_sandwich(law, law, 20_000, rng)
        assert report.all_ok
        assert report.tv.value < 0.01
        assert abs(report.kl.value) < 0.01

    def test_far_apart(self):
        rng = np.random.default_rng(13)
        p = MixtureLaw(
            FourierSeries.from_dict({1: 10.0 + 0j}, 1), Discrete.point_mass(0.0)
        )
        q = MixtureLaw(FourierSeries.zero(1), Discrete.point_mass(0.0))
        report = check_sandwich(p, q, 30_000, rng)
        assert report.tv.value == pytest.approx(1.0, abs=1e-3)
        assert report.all_ok


class TestAnalyticBounds:
    def test_zero_cases(self):
        th = FourierSeries.from_dict({1: 1.0 + 0j}, 1)
        assert tv_bound_f(th, th) == 0.0
        assert tv_bound_g(th, uniform_density(), uniform_density()) == 0.0

    def test_e3_arithmetic(self):
        f = FourierSeries.from_dict({1: 1.0 + 0j}, 1)
        f0 = FourierSeries.zero(1)
        assert e3_bound(f, f0) == pytest.approx(2.0**0.25, rel=1e-12)

    def test_e1_is_tail_norm(self):
        rng = np.random.default_rng(14)
        f = random_series(rng, 3)
        tail = math.sqrt(
            sum(abs(f.coeff(k)) ** 2 for k in range(-3, 4) if abs(k) > 1)
        )
        assert e1_bound(f, 1) == pytest.approx(math.sqrt(2.0) * tail, rel=1e-12)

    def test_bounds_dominate_monte_carlo(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            cutoff = int(rng.integers(1, 4))
            f = random_series(rng, cutoff)
            f2 = random_series(rng, cutoff)
            g = raised_cosine_density(256, float(rng.uniform(0, 0.9)))
            tv = mc_distance(
                MixtureLaw(f, g), MixtureLaw(f2, g), "TV", 20_000, rng
            )
            assert tv.value <= tv_bound_f(f, f2) + 3.0 * tv.std_error


class TestMarginal:
    def test_zero_coefficient_is_standard_gaussian(self):
        th = FourierSeries.from_dict({1: 0.8 + 0j}, 2)  # theta_2 = 0
        law = MixtureLaw(th, raised_cosine_density())
        m = MixtureLaw(th, law.g, freqs=(2,))
        rng = np.random.default_rng(16)
        z = rng.normal(size=(100, 1)) + 1j * rng.normal(size=(100, 1))
        for row in z:
            assert np.exp(log_mixture_density(m, row[None, :])[0]) == pytest.approx(
                gaussian_density(row, np.zeros(1, dtype=complex)), rel=1e-9
            )

    def test_point_mixture_marginal(self):
        th = FourierSeries.from_dict({1: 0.8 + 0j}, 1)
        law = MixtureLaw(th, Discrete.point_mass(0.0))
        m = MixtureLaw(th, law.g, freqs=(1,))
        z = np.array([0.4 - 0.3j])
        assert np.exp(log_mixture_density(m, z[None, :])[0]) == pytest.approx(
            gaussian_density(z, np.array([0.8 + 0j])), rel=1e-12
        )

    def test_data_processing(self):
        rng = np.random.default_rng(17)
        p = MixtureLaw(random_series(rng, 2), raised_cosine_density())
        q = MixtureLaw(random_series(rng, 2), raised_cosine_density())
        joint = mc_distance(p, q, "TV", 40_000, rng)
        p1, q1 = (MixtureLaw(law.theta, law.g, freqs=(1,)) for law in (p, q))
        marg = mc_distance(p1, q1, "TV", 40_000, rng)
        slack = 3.0 * math.hypot(joint.std_error, marg.std_error)
        assert marg.value <= joint.value + slack

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="beyond the shape cutoff"):
            MixtureLaw(FourierSeries.zero(1), uniform_density(), freqs=(3,))

    def test_sampling_matches_density_dimension(self):
        rng = np.random.default_rng(18)
        th = FourierSeries.from_dict({1: 0.5 + 0j, 2: 0.2j}, 2)
        m = MixtureLaw(th, uniform_density(), freqs=(2,))
        z = sample_law(m, 16, rng)
        assert z.shape == (16, 1)

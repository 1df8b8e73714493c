"""Hardness net, bracketing, moment matching, identifiability probes."""

import math

import numpy as np
import pytest

from simlab import shifts
from simlab.distances import mc_distance
from simlab.fourier import FourierSeries, evaluate, h1_norm, is_phase_normalized, rotate
from simlab.mixture import MixtureLaw, gaussian_density
from simlab.nets import (
    MomentMatchError,
    bracket_count_bound,
    bracket_hellinger,
    bracketing_net,
    fano_f_net,
    fano_g_net,
    fano_tv_certificate,
    finite_mixture_match,
    g_separation,
    identifiability_probe,
    make_fano_net,
)
from simlab.shifts import (
    FourierDensity,
    GridDensity,
    fourier_coeff,
    raised_cosine_density,
    sobolev_radius,
    uniform_density,
)


class TestFanoShapes:
    def test_unit_first_harmonic(self):
        for f in fano_f_net(8, 1.0):
            assert f.coeff(1) == 1.0
            assert is_phase_normalized(f)

    def test_pairwise_distances(self):
        p, s = 8, 1.0
        fs = fano_f_net(p, s)
        for j in range(p):
            for j2 in range(p):
                d2 = float(np.sum(np.abs(fs[j].coeffs - fs[j2].coeffs) ** 2))
                expected = 2.0 * p ** (-2 * s) * (
                    1.0 - math.cos(2.0 * math.pi * (j - j2) / p)
                )
                assert d2 == pytest.approx(expected, abs=1e-14)
                if j != j2:
                    assert d2 >= 4.0 * p ** (-2 * s) * math.sin(math.pi / p) ** 2 - 1e-14

    def test_minimum_separation_value(self):
        fs = fano_f_net(8, 1.0)
        gaps = [
            np.linalg.norm(fs[j].coeffs - fs[0].coeffs) for j in range(1, 8)
        ]
        assert min(gaps) == pytest.approx(2.0 / 8.0 * math.sin(math.pi / 8.0), rel=1e-12)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            fano_f_net(1, 1.0)


class TestFanoDensities:
    def test_nonnegative_reconstruction(self):
        for g in fano_g_net(8, 2.5, 1.5, 2.0):
            assert float(g.reconstruct().min()) >= 0.0

    def test_coefficient_l1_certificate(self):
        for g in fano_g_net(8, 2.5, 1.5, 2.0):
            mass = float(np.sum(np.abs(g.coeffs))) - 1.0
            assert mass <= 1.0 + 1e-12

    def test_radius_inside_ball(self):
        for g in fano_g_net(8, 2.5, 1.5, 2.0):
            assert sobolev_radius(g, 1.5) <= 2.0

    def test_moduli_match_base_member(self):
        gs = fano_g_net(8, 2.5, 1.5, 2.0)
        for g in gs[1:]:
            assert np.allclose(np.abs(g.coeffs), np.abs(gs[0].coeffs), atol=1e-14)

    def test_phase_applied_per_block(self):
        p = 8
        gs = fano_g_net(p, 2.5, 1.5, 2.0)
        base = gs[0]
        j = 3
        alpha = (j - 1) / p
        g = gs[j - 1]
        k_max = base.k_max
        for r in range(-k_max, k_max + 1):
            if r == 0:
                continue
            m = ((r + p // 4) % p) - p // 4
            c_base = base.coeffs[r + k_max]
            c_j = g.coeffs[r + k_max]
            if abs(m) <= p // 4:
                ell = (r - m) // p
                expected = c_base * np.exp(-2j * np.pi * ell * alpha)
            else:
                expected = c_base
            assert c_j == pytest.approx(expected, abs=1e-14)

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            fano_g_net(8, 1.5, 1.5, 2.0)

    @pytest.mark.parametrize("beta", [1.0, 0.8])
    def test_beta_at_most_one_refused(self, beta):
        # zeta(1) is infinite and zeta(0.8) negative: the amplitude 1/(2 zeta)
        # would be 0 or negative although beta > nu + 1/2
        with pytest.raises(ValueError, match=r"^field 'beta': need beta > max\(1, nu"):
            fano_g_net(4, beta, 0.2, 2.0)


class TestFanoCertificate:
    def test_reference_member_distance_vanishes(self):
        net = make_fano_net(6, 1.0, 2.5, 1.5, 2.0)
        rng = np.random.default_rng(0)
        cert = fano_tv_certificate(net, 30_000, rng)
        assert cert.matched[0].value <= 3.0 * max(cert.matched[0].std_error, 1e-6)

    def test_certificate_independent_of_workers(self):
        net = make_fano_net(4, 1.0, 2.5, 1.5, 2.0)
        certs = [fano_tv_certificate(net, 2_000, np.random.default_rng(9), workers=w)
                 for w in (1, 2, 5)]
        assert len(certs[0].matched) == len(certs[0].mismatched) == 4
        assert certs[1] == certs[0] and certs[2] == certs[0]

    def test_densities_are_synthesized_once(self, monkeypatch):
        # each member is tabulated when it is built, never by the certificate
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(shifts, "evaluate", counted)
        net = make_fano_net(4, 1.0, 2.5, 1.5, 2.0)
        assert len(calls) == 4
        fano_tv_certificate(net, 200, np.random.default_rng(3))
        assert len(calls) == 4

    def test_ordering_property(self):
        # phase compensation makes matched pairs strictly harder to
        # separate than mismatched ones; tiny sizes here, the acceptance
        # suite drives the full configuration
        net = make_fano_net(8, 1.0, 2.5, 1.5, 2.0)
        rng = np.random.default_rng(1)
        cert = fano_tv_certificate(net, 200_000, rng)
        for j in range(1, net.p):
            assert cert.matched[j].value < cert.mismatched[j].value


class TestBracketing:
    @staticmethod
    def _theta(rng, cutoff=2, target_h1=2.0):
        raw = rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1)
        series = FourierSeries(cutoff, raw)
        return FourierSeries(cutoff, raw * (target_h1 / h1_norm(series)))

    def test_count_within_bound(self):
        rng = np.random.default_rng(2)
        theta = self._theta(rng)
        net = bracketing_net(theta, 0.1)
        assert len(net) <= bracket_count_bound(theta, 0.1)

    def test_cells_cover_the_circle(self):
        rng = np.random.default_rng(3)
        net = bracketing_net(self._theta(rng), 0.1)
        assert net[0].phi_lo == 0.0
        assert net[-1].phi_hi >= 1.0
        for a, b in zip(net, net[1:]):
            assert b.phi_lo == pytest.approx(a.phi_hi, abs=1e-12)

    def test_pointwise_containment(self):
        rng = np.random.default_rng(4)
        theta = self._theta(rng)
        net = bracketing_net(theta, 0.1)
        width = net[0].phi_hi - net[0].phi_lo
        p = 2 * theta.cutoff + 1
        for _ in range(1000):
            phi = rng.uniform(0.0, 1.0)
            cell = net[min(int(phi / width), len(net) - 1)]
            center = rotate(theta, phi).coeffs
            z = center + 0.8 * (rng.normal(size=p) + 1j * rng.normal(size=p))
            target = gaussian_density(z, center)
            assert cell.lower(z) <= target * (1.0 + 1e-12)
            assert cell.upper(z) >= target * (1.0 - 1e-12)

    def test_hellinger_width(self):
        rng = np.random.default_rng(5)
        theta = self._theta(rng)
        net = bracketing_net(theta, 0.1)
        p = 2 * theta.cutoff + 1
        width = bracket_hellinger(p, net[0].delta)
        assert width <= 0.1

    def test_degenerate_orbit(self):
        dc_only = FourierSeries.from_dict({0: 1.5 + 0j}, cutoff=1)
        net = bracketing_net(dc_only, 0.1)
        assert len(net) == 1
        assert net[0].phi_lo == 0.0 and net[0].phi_hi == 1.0

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            bracketing_net(FourierSeries.zero(1), 0.9)


class TestMomentMatching:
    def test_uniform_needs_only_mass(self):
        matched = finite_mixture_match(uniform_density(), 4)
        rs = np.arange(1, 5)
        coeffs = fourier_coeff(matched, rs)
        assert np.max(np.abs(coeffs)) < 1e-8
        assert abs(fourier_coeff(matched, 0) - 1.0) < 1e-8

    def test_raised_cosine_order_three(self):
        matched = finite_mixture_match(raised_cosine_density(), 3)
        assert abs(fourier_coeff(matched, 1) - 0.5) < 1e-8
        assert abs(fourier_coeff(matched, 2)) < 1e-8
        assert abs(fourier_coeff(matched, 3)) < 1e-8

    def test_support_size(self):
        for order in (2, 4, 8):
            matched = finite_mixture_match(raised_cosine_density(), order)
            assert matched.positions.size <= 2 * order + 1

    def test_law_distance_decreases_with_order(self):
        theta = FourierSeries.from_dict({1: 0.8 + 0j}, cutoff=1)
        g = raised_cosine_density()
        rng = np.random.default_rng(7)
        tvs = []
        for order in (2, 4, 8):
            matched = finite_mixture_match(g, order)
            est = mc_distance(
                MixtureLaw(theta, g), MixtureLaw(theta, matched), "TV", 60_000, rng
            )
            tvs.append(est.value)
        assert tvs[0] >= tvs[-1] - 1e-3
        assert tvs[-1] < 0.01

    def test_unreachable_tolerance_reported(self):
        # an off-grid phase with only four candidate atoms cannot satisfy
        # seven moment constraints
        skewed = raised_cosine_density()
        t = np.linspace(0.0, 1.0, 1025)
        from simlab.shifts import GridDensity

        skewed = GridDensity(1.0 + 0.9 * np.cos(2 * np.pi * (t - 0.123)))
        with pytest.raises(MomentMatchError) as err:
            finite_mixture_match(
                skewed,
                3,
                candidate_grid=4,
                tolerance=1e-12,
            )
        assert err.value.achieved > 1e-12


class TestSeparationFunctional:
    def test_vanishes_at_equal_arguments(self):
        g = raised_cosine_density()
        assert g_separation(1.0, g, g) == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a1, a2 = rng.uniform(0, 0.8, 2)
            g1 = raised_cosine_density(256, a1)
            g2 = raised_cosine_density(256, a2)
            assert g_separation(0.9, g1, g2) >= 0.0

    def test_zero_iff_matched_coefficients(self):
        g1 = raised_cosine_density(256, 0.5)
        g2 = raised_cosine_density(256, 0.2)
        assert g_separation(1.0, g1, g2) > 0.0

    def test_lower_bounds_marginal_tv(self):
        rng = np.random.default_rng(9)
        theta1 = 0.8
        for _ in range(5):
            g1 = raised_cosine_density(256, float(rng.uniform(0, 0.8)))
            g2 = raised_cosine_density(256, float(rng.uniform(0, 0.8)))
            bound = g_separation(theta1, g1, g2)
            th = FourierSeries.from_dict({1: theta1 + 0j}, cutoff=1)
            est = mc_distance(
                MixtureLaw(th, g1, freqs=(1,)),
                MixtureLaw(th, g2, freqs=(1,)),
                "TV",
                50_000,
                rng,
            )
            assert bound <= est.value + 3.0 * est.std_error

    def test_requires_positive_first_coeff(self):
        with pytest.raises(ValueError):
            g_separation(0.0, uniform_density(), uniform_density())

    def test_recorded_values(self):
        # recorded when the radial weights took one scalar Bessel call per
        # radius; the vectorized recurrence must reproduce them to 1e-13
        def band_limited(rng, k_max):
            coeffs = np.zeros(2 * k_max + 1, dtype=complex)
            coeffs[k_max] = 1.0
            for k in range(1, k_max + 1):
                mag = rng.uniform(0, 0.9 / (2 * k_max))
                coeffs[k_max + k] = mag * np.exp(2j * np.pi * rng.uniform())
                coeffs[k_max - k] = np.conj(coeffs[k_max + k])
            return FourierDensity(coeffs)

        t = np.linspace(0.0, 1.0, 1025)
        wavy = GridDensity(1.0 + 0.4 * np.cos(6 * np.pi * t) + 0.3 * np.sin(14 * np.pi * t))
        recorded = {
            0.3: (0.0020183083614120113, 0.00013793963461172687, 0.005607259595750452),
            0.8: (0.0056615418856005365, 0.00024669209816017776, 0.015797133735439305),
            2.0: (0.005591198249892095, 0.0005001149431493405, 0.016387691828712598),
            6.0: (0.0020933117279730742, 0.0010461402986348537, 0.0069112801854727055),
        }
        rng = np.random.default_rng(12)
        for theta1, want in recorded.items():
            g1, g2 = band_limited(rng, 4), band_limited(rng, 4)
            got = (
                g_separation(theta1, raised_cosine_density(256, 0.7), raised_cosine_density(256, 0.1)),
                g_separation(theta1, g1, g2, n_max=8),
                g_separation(theta1, wavy, raised_cosine_density(), n_max=40),
            )
            assert got == pytest.approx(want, rel=1e-13)


class TestPerturbationProbe:
    def test_slope_within_window(self):
        rng = np.random.default_rng(10)
        probe = identifiability_probe(
            0.7, uniform_density(), [0.05, 0.1, 0.2], samples=150_000, rng=rng
        )
        assert 1.0 <= probe["slope"] <= 3.5

    def test_zero_perturbation_tv_vanishes(self):
        rng = np.random.default_rng(11)
        th = FourierSeries.from_dict({1: 0.7 + 0j}, cutoff=1)
        law = MixtureLaw(th, uniform_density(), freqs=(1,))
        est = mc_distance(law, law, "TV", 30_000, rng)
        assert est.value <= 3.0 * max(est.std_error, 1e-6)

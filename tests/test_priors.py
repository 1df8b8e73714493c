"""Prior samplers: level law, coefficient variance, stick-breaking moments,
and the integrated-bridge construction."""

import math

import numpy as np
import pytest

from simlab.priors import (
    DirichletPriorConfig,
    RejectionLimitError,
    SievePriorConfig,
    SmoothPriorConfig,
    brownian_bridge,
    j_operator,
    lambda_pmf,
    parse_flat_config,
    psi,
    sample_dp,
    sample_f,
    sample_smooth,
    sample_smooth_with_process,
    stick_weights,
)
from simlab.shifts import sobolev_radius, uniform_density
from simlab.special import complex_gaussian_array


def _stick_broken(v):
    """Reference: the former ``stick_breaking`` of ``k - 1`` stick fractions."""
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - v)])
    return np.append(v * remaining[:-1], remaining[-1])


class TestLevelLaw:
    def test_normalized(self):
        pmf = lambda_pmf(SievePriorConfig.adaptive(100))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        # strictly decreasing wherever the entries have not underflowed
        pmf = lambda_pmf(SievePriorConfig.adaptive(100))
        positive = pmf[pmf > 0]
        assert positive.size >= 10
        assert np.all(np.diff(positive) < 0)

    def test_ratio_arithmetic(self):
        cfg = SievePriorConfig(n=100, c=1.0, rho=1.5)
        pmf = lambda_pmf(cfg)
        assert pmf[1] / pmf[0] == pytest.approx(
            math.exp(-4.0 * math.log(2.0) ** 1.5), rel=1e-12
        )

    def test_exact_proportionality(self):
        cfg = SievePriorConfig(n=50, c=0.7, rho=1.2, l_max=16)
        pmf = lambda_pmf(cfg)
        for level in range(1, 9):
            expected = math.exp(-0.7 * level**2 * math.log(level) ** 1.2)
            assert pmf[level - 1] / pmf[0] == pytest.approx(expected, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SievePriorConfig(n=100, rho=2.5)
        with pytest.raises(ValueError):
            SievePriorConfig(n=1)


class TestSieveSampler:
    def test_variance_formula(self):
        cfg = SievePriorConfig(n=100, mu=0.25, zeta=1.5)
        assert cfg.xi2 == pytest.approx(
            100.0**-0.25 * math.log(100.0) ** -1.5, rel=1e-12
        )
        assert cfg.xi2 == pytest.approx(0.0320, abs=2e-4)

    def test_nonadaptive_preset(self):
        cfg = SievePriorConfig.non_adaptive(100, s=1.0)
        assert cfg.mu == pytest.approx(0.5)
        assert cfg.zeta == 0.0

    def test_levels_follow_pmf(self):
        cfg = SievePriorConfig.adaptive(100, l_max=8)
        rng = np.random.default_rng(0)
        counts = np.zeros(8)
        n = 20_000
        for _ in range(n):
            counts[sample_f(cfg, rng).cutoff - 1] += 1
        pmf = lambda_pmf(cfg)
        assert abs(counts[0] / n - pmf[0]) < 3.0 * math.sqrt(pmf[0] / n)

    def test_coefficients_beyond_level_are_absent(self):
        cfg = SievePriorConfig.adaptive(100, l_max=8)
        rng = np.random.default_rng(1)
        draw = sample_f(cfg, rng)
        assert draw.coeffs.size == 2 * draw.cutoff + 1
        assert draw.coeff(draw.cutoff + 1) == 0.0

    def test_level_is_rng_choice(self):
        # the former draw: numpy's choice over the levels, then the coefficients
        cfg = SievePriorConfig(n=100, c=0.05, l_max=16)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        levels = set()
        for _ in range(200):
            draw = sample_f(cfg, a)
            level = int(b.choice(cfg.l_max, p=lambda_pmf(cfg))) + 1
            coeffs = math.sqrt(cfg.xi2) * complex_gaussian_array(b, 2 * level + 1)
            assert draw.cutoff == level and np.array_equal(draw.coeffs, coeffs)
            levels.add(level)
        assert len(levels) >= 4

    def test_coefficient_variance(self):
        cfg = SievePriorConfig.adaptive(100)
        rng = np.random.default_rng(2)
        n = 10**5
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            vals[i] = sample_f(cfg, rng).coeff(0)
        second = float(np.mean(np.abs(vals) ** 2))
        assert abs(second / cfg.xi2 - 1.0) < 0.02


class TestStickBreaking:
    def test_weights_sum_to_one(self):
        cfg = DirichletPriorConfig(uniform_density(128), 1.0, 200)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = sample_dp(cfg, rng)
            assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_mean_of_half_interval(self):
        cfg = DirichletPriorConfig(uniform_density(128), 1.0, 200)
        rng = np.random.default_rng(4)
        n = 10**4
        vals = np.empty(n)
        for i in range(n):
            g = sample_dp(cfg, rng)
            vals[i] = g.weights[g.positions < 0.5].sum()
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - 0.5) < 3.0 * se

    def test_variance_of_half_interval(self):
        # Var g(A) = q (1 - q) / (m + 1) with q = 1/2, m = 1
        cfg = DirichletPriorConfig(uniform_density(128), 1.0, 200)
        rng = np.random.default_rng(5)
        n = 10**4
        vals = np.empty(n)
        for i in range(n):
            g = sample_dp(cfg, rng)
            vals[i] = g.weights[g.positions < 0.5].sum()
        target = 0.25 / 2.0
        centered_sq = (vals - 0.5) ** 2
        se = centered_sq.std(ddof=1) / math.sqrt(n)
        assert abs(centered_sq.mean() - target) < 3.0 * se

    def test_residual_tail_negligible(self):
        rng = np.random.default_rng(6)
        tails = np.array([stick_weights(np.zeros(200), 1.0, rng)[-1] for _ in range(1000)])
        assert np.mean(tails < 1e-3) >= 0.99
        # expected residual (m / (m+1))^K is far below 1e-6 at the default
        assert 0.5**199 < 1e-6


    @pytest.mark.parametrize("mass, k", [(1.0, 1), (1.0, 2), (0.3, 50), (4.0, 200)])
    def test_prior_sticks_are_beta_1_m(self, mass, k):
        # zero counts: k - 1 i.i.d. Beta(1, m) fractions, stick-broken
        a, b = np.random.default_rng(k), np.random.default_rng(k)
        want = _stick_broken(b.beta(1.0, mass, size=k - 1))
        assert np.array_equal(stick_weights(np.zeros(k), mass, a), want)
        assert a.random() == b.random()

    def test_conditional_sticks(self):
        # the Gibbs refresh's former fractions Beta(1 + n_i, m + sum_{j>i} n_j)
        counts = np.array([3.0, 0.0, 5.0, 1.0, 0.0, 0.0, 2.0])
        tail = np.concatenate([np.cumsum(counts[::-1])[::-1][1:], [0.0]])
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        want = _stick_broken(b.beta(1.0 + counts[:-1], 0.7 + tail[:-1]))
        got = stick_weights(counts, 0.7, a)
        assert np.array_equal(got, want) and got.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sample_dp_draws_sticks_then_atoms(self):
        cfg = DirichletPriorConfig(uniform_density(128), 2.0, 30)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        g = sample_dp(cfg, a)
        w = _stick_broken(b.beta(1.0, 2.0, size=29))
        atoms = np.interp(b.uniform(0.0, 1.0, 30), cfg.base_density.cdf_values(),
                          cfg.base_density.grid)
        order = np.argsort(atoms, kind="stable")
        assert np.array_equal(g.positions, atoms[order])
        assert np.array_equal(g.weights, w[order])


class TestIntegrationOperator:
    @pytest.mark.parametrize("values", [[3.7], [], [[0.0, 1.0], [1.0, 0.0]]])
    def test_needs_a_closed_grid(self, values):
        with pytest.raises(ValueError, match="closed uniform grid"):
            j_operator(np.array(values))

    def test_constant_maps_to_zero(self):
        out = j_operator(np.full(1025, 3.7))
        assert np.max(np.abs(out)) < 1e-12

    def test_linear_input(self):
        t = np.linspace(0, 1, 1025)
        out = j_operator(t)
        assert np.max(np.abs(out - (t**2 - t) / 2.0)) < 1e-6

    def test_endpoints_vanish(self):
        rng = np.random.default_rng(7)
        out = j_operator(rng.normal(size=513))
        assert out[0] == 0.0
        assert abs(out[-1]) < 1e-12

    def test_smoothing_order(self):
        # second differences of J(B) are controlled by h * max|B|
        rng = np.random.default_rng(8)
        b = brownian_bridge(1024, rng)
        jb = j_operator(b)
        second = np.abs(jb[2:] - 2.0 * jb[1:-1] + jb[:-2])
        assert second.max() <= (1.0 / 1024.0) * np.abs(b).max() + 1e-15


class TestPeriodicCorrections:
    def test_value_at_zero(self):
        assert psi(1, 0.0) == 1.0

    def test_periodic_exactly(self):
        for k in (1, 2, 5):
            assert psi(k, 0.0) == psi(k, 1.0)

    def test_zero_mean_by_quadrature(self):
        t = np.arange(8192) / 8192.0
        for k in (1, 2, 3):
            assert abs(np.mean(psi(k, t))) < 1e-10

    def test_index_validated(self):
        with pytest.raises(ValueError):
            psi(0, 0.3)


class TestBridge:
    def test_pinned_ends(self):
        rng = np.random.default_rng(9)
        b = brownian_bridge(512, rng)
        assert b[0] == 0.0
        assert b[-1] == 0.0

    def test_midpoint_variance(self):
        rng = np.random.default_rng(10)
        n = 10**4
        mids = np.array([brownian_bridge(128, rng)[64] for _ in range(n)])
        sq = mids**2
        se = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - 0.25) < 3.0 * se


class TestSmoothPrior:
    CFG = SmoothPriorConfig(nu=1.5, radius=2.0, grid=512)

    def test_k_nu(self):
        assert self.CFG.k_nu == 1
        assert SmoothPriorConfig(nu=0.7, radius=1.0).k_nu == 0
        assert SmoothPriorConfig(nu=3.6, radius=1.0).k_nu == 3

    def test_density_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dens = sample_smooth(self.CFG, rng)
            mass = np.trapezoid(dens.values, dx=1.0 / dens.m)
            assert abs(mass - 1.0) < 1e-9

    def test_process_is_periodic(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            _, w = sample_smooth_with_process(self.CFG, rng)
            assert w[0] == w[-1]

    def test_ball_restriction(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dens = sample_smooth(self.CFG, rng)
            assert sobolev_radius(dens, 1.5) <= 2.0 * self.CFG.radius

    def test_rejection_budget_exhaustion(self):
        tight = SmoothPriorConfig(nu=1.5, radius=1e-6, grid=128, max_rejections=5)
        rng = np.random.default_rng(14)
        with pytest.raises(RejectionLimitError) as err:
            sample_smooth(tight, rng)
        assert err.value.rejections == 6

    def test_degenerate_depth_is_pure_bridge(self):
        # nu < 3/2 has no integration steps and no sinusoid corrections
        cfg = SmoothPriorConfig(nu=0.8, radius=5.0, grid=256)
        rng = np.random.default_rng(15)
        density, w = sample_smooth_with_process(cfg, rng)
        assert cfg.k_nu == 0
        assert w[0] == 0.0 and w[-1] == 0.0


class TestConfigParsing:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text("# comment\nnu = 1.5\nradius = 2.0\n\ngrid=256\n")
        cfg = parse_flat_config(str(path))
        assert cfg == {"nu": "1.5", "radius": "2.0", "grid": "256"}

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_flat_config(str(path))


class TestConfigFieldsNamed:
    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: SievePriorConfig(n=100, c=math.nan), "c"),
            (lambda: SievePriorConfig(n=100, c=-5.0), "c"),
            (lambda: SievePriorConfig(n=100, mu=math.inf), "mu"),
            (lambda: SievePriorConfig(n=100, zeta=math.nan), "zeta"),
            (lambda: SievePriorConfig(n=100, rho=math.nan), "rho"),
            (lambda: SievePriorConfig(n=100, l_max=0), "l_max"),
            (lambda: SievePriorConfig(n=1), "n"),
            (lambda: SievePriorConfig.non_adaptive(100, -1.0), "s"),
            (lambda: SievePriorConfig.non_adaptive(100, math.nan), "s"),
            (lambda: DirichletPriorConfig(uniform_density(64), math.inf), "mass"),
            (lambda: DirichletPriorConfig(uniform_density(64), 0.0), "mass"),
            (lambda: DirichletPriorConfig(uniform_density(64), 1.0, 0), "truncation"),
            (lambda: SmoothPriorConfig(nu=math.inf, radius=1.0), "nu"),
            (lambda: SmoothPriorConfig(nu=1.5, radius=math.nan), "radius"),
            (lambda: SmoothPriorConfig(nu=1.5, radius=1.0, grid=1), "grid"),
            (
                lambda: SmoothPriorConfig(nu=1.5, radius=1.0, max_rejections=-1),
                "max_rejections",
            ),
        ],
    )
    def test_bad_value_names_its_key(self, build, key):
        with pytest.raises(ValueError, match=f"field '{key}'"):
            build()


class TestFlatConfigKeys:
    def test_repeated_key_named(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text("mass = 1.0\nmass = 2.0\n")
        with pytest.raises(ValueError, match="field 'mass'"):
            parse_flat_config(str(path))

    def test_empty_key_refused(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text(" = 1.0\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_flat_config(str(path))

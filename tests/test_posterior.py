"""Posterior machinery: the two samplers, their agreement, and diagnostics."""

import copy
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from simlab import posterior
from simlab.fourier import FourierSeries, project
from simlab.mixture import (
    MixtureLaw,
    _bounded_reduce,
    _draw_factor,
    _fourier_basis,
    _window,
    log_mixture_density,
)
from simlab.model import ObservationSet, simulate
from simlab.posterior import (
    ContractionConfig,
    GibbsSampler,
    PosteriorEnsemble,
    PriorConfig,
    align_pair,
    ball_mass,
    contraction_experiment,
    gibbs_posterior,
    importance_posterior,
    _cluster_sums,
    _exact_draw,
    _inverse_cdf,
    _SLACK_MAX,
    _SmoothShifts,
)
from simlab.priors import (
    DirichletPriorConfig,
    SievePriorConfig,
    SmoothPriorConfig,
    gp_draw,
    lambda_pmf,
    sample_dp,
    sample_smooth_with_process,
    stick_weights,
)
from simlab.shifts import (
    Discrete,
    GridDensity,
    categorical,
    raised_cosine_density,
    uniform_density,
)
from simlab.special import complex_gaussian_array

TRUTH = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)


def dp_prior(n, l_max=2, truncation=50):
    return PriorConfig(
        SievePriorConfig.adaptive(n, l_max=l_max),
        DirichletPriorConfig(uniform_density(256), 1.0, truncation),
    )


def smooth_prior(n, l_max=2, grid=256):
    return PriorConfig(
        SievePriorConfig.adaptive(n, l_max=l_max),
        SmoothPriorConfig(nu=1.5, radius=2.0, grid=grid),
    )


def aligned_first_coeff(ens):
    vals, ws = [], []
    for theta, g, w in ens.samples:
        aligned, _ = align_pair(theta, g)
        vals.append(aligned.coeff(1).real)
        ws.append(w)
    ws = np.asarray(ws)
    xs = np.asarray(vals)
    mean = float(np.sum(ws * xs))
    se = math.sqrt(float(np.sum(ws**2 * (xs - mean) ** 2)))
    return mean, se


class TestEnsembleInvariants:
    def test_weights_validated(self):
        th = FourierSeries.zero(1)
        g = uniform_density()
        with pytest.raises(ValueError):
            PosteriorEnsemble([(th, g, 0.4), (th, g, 0.4)])
        with pytest.raises(ValueError):
            PosteriorEnsemble([(th, g, 1.5), (th, g, -0.5)])

    def test_ess_bounded_by_count(self):
        th = FourierSeries.zero(1)
        g = uniform_density()
        ens = PosteriorEnsemble([(th, g, 0.5), (th, g, 0.5)])
        assert ens.diagnostics["ess"] <= 2.0 + 1e-9


class TestAlignment:
    def test_alignment_preserves_law(self):
        rng = np.random.default_rng(0)
        theta = FourierSeries(2, rng.normal(size=5) + 1j * rng.normal(size=5))
        for g in (
            Discrete(np.array([0.2, 0.8]), np.array([0.5, 0.5])),
            raised_cosine_density(512),
        ):
            a_theta, a_g = align_pair(theta, g)
            assert a_theta.coeff(1).imag == pytest.approx(0.0, abs=1e-12)
            assert a_theta.coeff(1).real > 0
            z = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
            before = log_mixture_density(MixtureLaw(theta, g), z)
            after = log_mixture_density(MixtureLaw(a_theta, a_g), z)
            assert np.allclose(before, after, atol=2e-3)

    def test_translate_density(self):
        g = raised_cosine_density(512)
        moved = g.translate(0.25)
        t = np.linspace(0, 1, 513)
        expected = 1.0 + np.cos(2 * np.pi * (t - 0.25))
        assert np.allclose(moved.values, expected, atol=1e-3)

    def test_zero_first_coeff_untouched(self):
        theta = FourierSeries.from_dict({2: 1.0 + 0j}, cutoff=2)
        out, _ = align_pair(theta, uniform_density())
        assert np.array_equal(out.coeffs, theta.coeffs)


class TestImportance:
    def test_no_data_returns_prior_weights(self):
        obs = ObservationSet(2, 1.0, np.zeros((0, 5), dtype=complex))
        rng = np.random.default_rng(1)
        ens = importance_posterior(obs, dp_prior(10), 50, rng)
        assert np.allclose(ens.weights, 1.0 / 50.0)

    def test_conjugate_dc_posterior(self):
        # only the constant coefficient observed: the mixing law cancels
        # and the posterior mean has the closed conjugate form
        rng = np.random.default_rng(3)
        truth = FourierSeries.from_dict({0: 0.7 + 0.2j}, cutoff=0)
        obs = simulate(truth, uniform_density(), 30, 0, seed=9)
        prior = dp_prior(30, l_max=4)
        ens = importance_posterior(obs, prior, 4000, rng)
        s0 = obs.curves[:, 0].sum()
        closed = s0 / (obs.n + 1.0 / prior.sieve.xi2)
        w = ens.weights
        vals = np.array([t.coeff(0) for t, _, _ in ens.samples])
        mean = np.sum(w * vals)
        se = math.sqrt(float(np.sum(w**2 * np.abs(vals - mean) ** 2)))
        assert abs(mean - closed) < 3.0 * se

    def test_low_ess_flagged_not_fatal(self):
        # a sharp likelihood with few draws collapses the weights; that
        # is reported, not raised
        obs = simulate(TRUTH, raised_cosine_density(), 60, 2, seed=10)
        rng = np.random.default_rng(20)
        ens = importance_posterior(obs, dp_prior(60), 12, rng)
        assert ens.diagnostics["ess"] < 10.0
        assert ens.diagnostics["low_ess_warning"] is True

    def test_error_scales_with_draws(self):
        rng = np.random.default_rng(4)
        obs = simulate(TRUTH, raised_cosine_density(), 10, 2, seed=2)
        prior = dp_prior(10)

        def replicated_se(draws, reps=24):
            means = []
            for _ in range(reps):
                ens = importance_posterior(obs, prior, draws, rng)
                means.append(aligned_first_coeff(ens)[0])
            return np.std(means, ddof=1)

        se_small = replicated_se(150)
        se_big = replicated_se(600)
        # doubling twice should halve the spread
        assert se_big < se_small * 0.75


class TestGibbsConjugacy:
    def test_refresh_moments(self):
        rng = np.random.default_rng(5)
        s_stat = np.array([3.0 - 2.0j])
        n, xi2 = 40.0, 0.05
        draws = np.array(
            [GibbsSampler.conjugate_refresh(s_stat, n, xi2, rng)[0] for _ in range(10**4)]
        )
        prec = n + 1.0 / xi2
        mean_target = s_stat[0] / prec
        var_target = 1.0 / prec
        se_mean = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - mean_target) < 3.0 * se_mean
        sq = np.abs(draws - mean_target) ** 2
        se_var = sq.std(ddof=1) / math.sqrt(draws.size)
        assert abs(sq.mean() - var_target) < 3.0 * se_var

    def test_noiseless_shift_mode(self):
        # with exact data and a flat mixing law, the per-curve shift
        # conditional peaks at the grid point nearest the true shift
        obs = simulate(TRUTH, Discrete.point_mass(0.3), 50, 2, sigma=0.0, seed=1)
        rng = np.random.default_rng(6)
        sampler = GibbsSampler(obs, smooth_prior(50, grid=1024), rng)
        sampler.level = 2
        sampler.theta = project(TRUTH, sampler.l_max).coeffs.copy()
        move = sampler.shift_move
        move.w_process = np.zeros_like(move.w_process)
        logits = _shift_log_weights(sampler)
        modes = move.grid[np.argmax(logits, axis=1)]
        target = round(0.3 * 1024) / 1024.0
        assert np.allclose(modes, target)


def _softmax(row):
    p = np.exp(row - np.max(row))
    return p / p.sum()


class _ConstantUniform:
    """Stand-in generator whose every uniform is the same value."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


class _Recording:
    """Generator wrapper that keeps every array of uniforms it hands out."""

    def __init__(self, rng):
        self.rng, self.uniforms = rng, []

    def beta(self, a, b, size=None):
        return self.rng.beta(a, b, size)

    def random(self, size=None):
        self.uniforms.append(self.rng.random(size))
        return self.uniforms[-1]


def _categorical(logits, rng):
    """Reference draw on explicit logits (overwritten): one index per row with
    probability proportional to ``exp(logits)``, by the sampler's inverse CDF
    with one uniform per row."""
    logits -= logits.max(axis=1, keepdims=True)
    out = np.empty(logits.shape[0], dtype=int)
    u = rng.random(logits.shape[0])
    _inverse_cdf(np.exp(logits, out=logits), u, out, slice(None))
    return out


def _shift_log_weights(sampler):
    """Unnormalized log posterior of each curve's shift over the candidates,
    from the move's basis at the active window."""
    a, move = sampler.active, sampler.shift_move
    b = sampler.Y[:, a] * np.conj(sampler.theta[a])
    cos, sin = _window(move.basis, b.shape[1])
    return move.log_weights() + 2.0 * (b.real @ cos - b.imag @ sin)


def _single_level(logits, u):
    """Reference draw: the count of cumulative masses ``<= u``, with ``u``
    one uniform per row scaled by the row total and held below it."""
    cdf = np.cumsum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1)
    total = cdf[:, -1]
    u = np.minimum(u * total, np.nextafter(total, 0.0))
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _finite_or_neg_inf_rows():
    entry = st.one_of(st.floats(-1e3, 1e3), st.just(-np.inf))
    row = st.lists(entry, min_size=1, max_size=60)
    return row.filter(lambda r: any(np.isfinite(r)))


class TestCategorical:
    @pytest.mark.parametrize(
        "row, draws, seed",
        [
            ([0.3, -np.inf, 1.2, -np.inf, -0.5, 0.0], 20_000, 21),
            (np.linspace(-3.0, 2.0, 50) ** 2 / 4.0, 10**5, 22),
        ],
    )
    def test_matches_softmax(self, row, draws, seed):
        row = np.asarray(row, dtype=float)
        idx = _categorical(np.tile(row, (draws, 1)), np.random.default_rng(seed))
        counts = np.bincount(idx, minlength=row.size)
        p = _softmax(row)
        assert np.all(counts[p == 0.0] == 0)
        pos = p > 0.0
        result = stats.chisquare(counts[pos], draws * p[pos])
        assert result.pvalue > 1e-3

    def test_single_finite_entry(self):
        row = np.array([-np.inf, -np.inf, 2.0, -np.inf])
        idx = _categorical(np.tile(row, (500, 1)), np.random.default_rng(23))
        assert np.all(idx == 2)

    # 1.0 lies outside the generator's range; it stands in for a scaled
    # uniform that rounds up to the row total
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53, 1.0])
    def test_extreme_uniform_never_picks_zero_mass(self, u):
        logits = np.array(
            [
                [-np.inf, 0.0, 1.0, -np.inf, -np.inf],
                [-np.inf, -np.inf, 0.0, -np.inf, 3.0],
                [2.0, -np.inf, -np.inf, 0.5, -np.inf],
                [-800.0, 0.0, -np.inf, 1e-3, -np.inf],
            ]
        )
        p = np.array([_softmax(row) for row in logits])
        idx = _categorical(logits.copy(), _ConstantUniform(u))
        assert np.all(p[np.arange(len(idx)), idx] > 0.0)

    # widths from one entry to past the smooth grid, squares and not; the
    # last-only rows put all mass on a trailing run of entries
    @pytest.mark.parametrize("k", [1, 2, 7, 30, 100, 1000, 1024, 1025])
    def test_same_index_as_single_level_search(self, k):
        rng = np.random.default_rng(k)
        logits = rng.normal(size=(300, k)) * rng.uniform(0.1, 20.0, size=(300, 1))
        logits[rng.random((300, k)) < 0.3] = -np.inf
        logits[:, 0] = np.where(np.isinf(logits).all(axis=1), 0.0, logits[:, 0])
        last_only = np.full((2, k), -np.inf)
        last_only[:, -1] = 0.0
        last_only[1, -(k % math.isqrt(k) or 1) :] = 0.5
        logits = np.vstack([logits, last_only])
        got = _categorical(logits.copy(), np.random.default_rng(99))
        u = np.random.default_rng(99).random(logits.shape[0])
        np.testing.assert_array_equal(got, _single_level(logits, u))
        # at the ends of the unit interval the two searches may round to
        # different entries; both must have positive probability
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        for u in (0.0, 1.0 - 2.0**-53, 1.0):
            got = _categorical(logits.copy(), _ConstantUniform(u))
            assert np.all(p[np.arange(len(got)), got] > 0.0)

    # rows where the top uniform, scaled by the row total, reaches it: unless
    # held below the total, the search runs past the row (the first row ends
    # in zero-probability entries, the second in a small positive one)
    @pytest.mark.parametrize(
        "row",
        [
            [-np.inf, 13.14112901964274, -21.61107467956346, -np.inf, -np.inf, -np.inf],
            [
                -12.760927961147086, -np.inf, -16.777184906670442, -np.inf, -np.inf,
                -3.959870084691328, -np.inf, -np.inf, -14.199752271197298, -np.inf,
                -np.inf, -14.434231766105754, 15.227228652021278, -np.inf,
                -25.994456915756345, 3.540786398577171, -np.inf, 0.4301217866515683,
                -np.inf, -np.inf, -3.0371613973032843, -3.3281947116671065,
                12.517004924644432, -np.inf, 9.60298228965544, -np.inf,
                -4.3105690674306825,
            ],
        ],
    )
    def test_remainder_held_below_block_total(self, row):
        logits = np.array([row])
        p = np.exp(logits - logits.max())
        idx = _categorical(logits.copy(), _ConstantUniform(1.0))
        assert idx[0] < logits.shape[1] and p[0, idx[0]] > 0.0

    @settings(max_examples=300, deadline=None)
    @given(row=_finite_or_neg_inf_rows(), u=st.floats(0.0, 1.0))
    def test_index_has_positive_probability(self, row, u):
        logits = np.array([row])
        p = np.exp(logits - logits.max())
        idx = _categorical(logits.copy(), _ConstantUniform(u))
        assert p[0, idx[0]] > 0.0

    def test_index_array_writes_only_its_rows(self):
        # the redo of floored rows passes an index array, not a slice
        rng = np.random.default_rng(24)
        weights = rng.random((4, 50)) * (rng.random((4, 50)) < 0.5)
        weights[:, 0] = 1.0
        weights[1] = 0.0  # a zero total: a bound-shifted row to be redone
        u, at = rng.random(10), np.array([7, 2, 5, 9])
        out = np.full(10, -1)
        totals = _inverse_cdf(weights.copy(), u, out, at)
        np.testing.assert_allclose(totals, weights.sum(axis=1), rtol=1e-12, atol=0.0)
        assert np.all(np.delete(out, at) == -1)
        for row in (0, 2, 3):
            idx, cdf = out[at[row]], np.cumsum(weights[row])
            v = u[at[row]] * cdf[-1]
            assert weights[row, idx] > 0.0
            assert (cdf[idx - 1] if idx else 0.0) <= v < cdf[idx]


def _draw(b, basis, log_w, rng):
    """``_exact_draw`` with the factor at the window of ``b``."""
    return _exact_draw(b, _draw_factor(basis, b.shape[1], log_w), rng)


def _explicit_logits(b, ks, x, log_w):
    """Reference shift logits ``log w_j + 2 Re sum_k b_k e^{2 pi i k x_j}`` from
    complex exponentials, over the frequencies ``ks`` of the columns of ``b``."""
    return log_w + 2.0 * (b @ np.exp(2j * np.pi * np.outer(ks, x))).real


def _draw_case(rng, n, m, level, scale=1.0, l_max=2):
    """Rows ``b`` at a level's active frequencies, the ``l_max`` basis on the
    open ``m``-grid, and log weights."""
    ks = np.arange(-l_max, l_max + 1)
    x = np.arange(m) / m
    b = scale * (rng.normal(size=(n, 2 * level + 1)) + 1j * rng.normal(size=(n, 2 * level + 1)))
    return b, ks[l_max - level : l_max + level + 1], x, _fourier_basis(ks, x), rng.normal(size=m)


class TestCategoricalProduct:
    """The one-pass shift draw ``_exact_draw`` against ``_categorical`` on
    explicit logits."""

    # the smooth prior's 1,024 grid (n = 400), the Dirichlet prior's 100
    # atoms (n = 800) and its atom draw (8 clusters), and a 1,000 grid,
    # not a power of two
    @pytest.mark.parametrize("n, m", [(400, 1024), (800, 100), (8, 1024), (300, 1000)])
    @pytest.mark.parametrize("level", [1, 2])
    def test_same_index_as_categorical(self, n, m, level):
        rng = np.random.default_rng(1000 * level + m)
        b, ks, x, basis, log_w = _draw_case(rng, n, m, level)
        got = _draw(b, basis, log_w, np.random.default_rng(7))
        want = _categorical(_explicit_logits(b, ks, x, log_w), np.random.default_rng(7))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("modulus", [200.0, 1000.0])
    def test_misaligned_far_rows_take_the_exact_maximum(self, modulus):
        # b_{+-1} = A e^{+-i alpha}, b_{+-2} = -A e^{+-2i alpha}: the row's
        # logits are 4A (cos t - cos 2t) + log w, at most 4.5 A, while the
        # bound is 8 A; ordinary rows sit between them
        rng = np.random.default_rng(int(modulus))
        b, ks, x, basis, log_w = _draw_case(rng, 60, 1024, 2)
        far = np.arange(0, 60, 3)
        alpha = rng.uniform(0.0, 2.0 * np.pi, far.size)[:, None]
        b[far] = modulus * np.exp(1j * alpha * np.array([-2, -1, 0, 1, 2]))
        b[far] *= np.array([-1.0, 1.0, 0.0, 1.0, -1.0])
        logits = _explicit_logits(b, ks, x, log_w)
        bound = 2.0 * np.abs(b).sum(axis=1) + log_w.max()  # the draw's row shift
        gap = bound[far] - logits[far].max(axis=1)
        assert np.all(gap > 600.0 + math.log(1024))
        got = _draw(b, basis, log_w, np.random.default_rng(8))
        np.testing.assert_array_equal(got, _categorical(logits, np.random.default_rng(8)))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        m=st.integers(1, 80),
        level=st.integers(0, 2),
    )
    def test_index_has_positive_probability(self, data, n, m, level):
        width = 2 * level + 1
        part = st.floats(-300.0, 300.0)
        re, im = (np.array(data.draw(st.lists(part, min_size=n * width, max_size=n * width)))
                  for _ in range(2))
        b = (re + 1j * im).reshape(n, width)
        entry = st.one_of(st.floats(-700.0, 700.0), st.just(-np.inf))
        log_w = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)))
        assume(np.isfinite(log_w).any())
        u = data.draw(st.floats(0.0, 1.0))
        ks = np.arange(-2, 3)
        x = np.arange(m) / m
        idx = _draw(b, _fourier_basis(ks, x), log_w, _ConstantUniform(u))
        logits = _explicit_logits(b, ks[2 - level : 3 + level], x, log_w)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.all(p[np.arange(n), idx] > 0.0)

    @pytest.mark.parametrize("prior", [dp_prior(40, l_max=4), smooth_prior(40, l_max=4)],
                             ids=["dp", "smooth"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_sampler_draws_on_the_active_window(self, prior, level):
        # theta is zero beyond the level: the draw over its active columns
        # is the draw over every column
        obs = simulate(TRUTH, raised_cosine_density(), 40, 4, seed=14)
        sampler = GibbsSampler(obs, prior, np.random.default_rng(15))
        sampler.level = level
        sampler.theta = np.where(np.abs(sampler.ks) <= level, 0.8 + 0.3j * sampler.ks, 0.0)
        move = sampler.shift_move
        want = _explicit_logits(sampler.Y * np.conj(sampler.theta), sampler.ks,
                                move.candidates(), move.log_weights())
        np.testing.assert_allclose(_shift_log_weights(sampler), want, rtol=0, atol=1e-12)
        state = np.random.default_rng(16)
        sampler.rng = np.random.default_rng(16)
        sampler.update_shifts()
        if isinstance(move, _SmoothShifts):  # the block-envelope draw over every column
            want_idx = move.draw(sampler.Y * np.conj(sampler.theta), state)
        else:
            want_idx = _categorical(want, state)
        np.testing.assert_array_equal(sampler.assignments, want_idx)

    def test_one_cluster_atom_draw(self):
        # one occupied cluster makes the atom draw a one-row product
        obs = simulate(TRUTH, raised_cosine_density(), 6, 2, seed=31)
        sampler = GibbsSampler(obs, dp_prior(6), np.random.default_rng(32))
        move = sampler.shift_move
        theta = project(TRUTH, sampler.l_max).coeffs
        rng = _Recording(np.random.default_rng(33))
        move.update(np.full(6, 3), sampler.Y, theta, rng)
        b = sampler.Y.sum(axis=0, keepdims=True) * np.conj(theta)
        logits = _explicit_logits(b, sampler.ks, move.grid, move.log_base)
        (u,) = rng.uniforms[-1]  # the occupied cluster's uniform, drawn last
        assert move.atoms[3] == move.grid[_categorical(logits, _ConstantUniform(u))[0]]

    def test_cluster_sums_match_add_at(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=(800, 9)) + 1j * rng.normal(size=(800, 9))
        assignments = rng.integers(0, 100, 800)
        want = np.zeros((100, 9), dtype=complex)
        np.add.at(want, assignments, y)
        assert np.array_equal(_cluster_sums(assignments, y, 100), want)
        # the sampler passes a column window of its curves
        np.add.at(want := np.zeros((100, 5), dtype=complex), assignments, y[:, 2:7])
        assert np.array_equal(_cluster_sums(assignments, y[:, 2:7], 100), want)


def _full_draw(b, basis, log_w, u):
    """Reference draw on every candidate: the bound-shifted product, ``exp``
    and inverse CDF of all the columns through ``mixture._bounded_reduce``,
    with the uniforms ``u``, one per row."""
    s = 2.0 * np.abs(b).sum(axis=1) + log_w.max()
    rows = np.hstack([2.0 * b.real, -2.0 * b.imag, np.ones((len(b), 1)), -s[:, None]])
    idx = np.empty(len(b), dtype=int)
    factor = _draw_factor(basis, b.shape[1], log_w)
    _bounded_reduce(rows, factor, lambda w, at: _inverse_cdf(w, u, idx, at))
    return idx


def _stick_log_weights(counts, seed):
    """Log stick weights given cluster counts, floored at 1e-300 as the
    Dirichlet move floors them."""
    w = stick_weights(np.asarray(counts, dtype=float), 1.0, np.random.default_rng(seed))
    return np.log(np.maximum(w, 1e-300))


def _counts(truncation, occupied):
    counts = np.zeros(truncation)
    counts[list(occupied)] = list(occupied.values())
    return counts


# the ends of the unit interval, and uniforms close below 1 whose scaled
# value falls among the last cumulative masses, past a prefix or just inside
_EDGE_UNIFORMS = [0.0, 0.5, 1.0 - 2.0**-53, *(1.0 - 10.0**-j for j in range(2, 16))]


class TestCertifiedPrefix:
    """``_exact_draw`` settles most rows on a certified prefix of the
    candidates: every row's index is that of the draw on all of them."""

    @staticmethod
    def _check(log_w, level=2, scale=1.0, seed=0, far=()):
        rng = np.random.default_rng(seed)
        b, ks, _, _, _ = _draw_case(rng, 300, log_w.size, level, scale)
        x = rng.random(log_w.size)  # atoms off the grid, as the Dirichlet move's
        basis = _fourier_basis(np.arange(-2, 3), x)
        for i, modulus in zip(range(0, 300, 7), far):
            # misaligned phases: the row's bound sits about 3.5 modulus above its logits
            b[i] = modulus * np.exp(0.7j * i * np.arange(-level, level + 1))
            b[i] *= np.array([-1.0, 1.0, 0.0, 1.0, -1.0])[2 - level : 3 + level]
        for u in _EDGE_UNIFORMS:
            got = _draw(b, basis, log_w, _ConstantUniform(u))
            np.testing.assert_array_equal(got, _full_draw(b, basis, log_w, np.full(300, u)))
        got = _draw(b, basis, log_w, np.random.default_rng(seed + 1))
        u = np.random.default_rng(seed + 1).random(300)
        np.testing.assert_array_equal(got, _full_draw(b, basis, log_w, u))
        logits = _explicit_logits(b, ks, x, log_w)
        want = _categorical(logits.copy(), np.random.default_rng(seed + 1))
        np.testing.assert_array_equal(got, want)
        for u in (0.0, 0.5):
            got = _draw(b, basis, log_w, _ConstantUniform(u))
            np.testing.assert_array_equal(got, _categorical(logits.copy(), _ConstantUniform(u)))
        # at the top the two sums of the last, negligible masses round apart:
        # the pick is the full draw's (above) and has positive probability
        got = _draw(b, basis, log_w, _ConstantUniform(1.0 - 2.0**-53))
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.all(p[np.arange(300), got] > 0.0)

    @pytest.mark.parametrize("occupied", [{0: 300, 1: 200, 2: 150, 3: 100, 5: 50}, {90: 800},
                                          {0: 400, 3: 300, 41: 100}, {}],
                             ids=["leading", "at-90", "spread", "prior"])
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("scale", [0.05, 1.0])
    def test_stick_weights(self, occupied, level, scale):
        log_w = _stick_log_weights(_counts(100, occupied), seed=len(occupied) + level)
        self._check(log_w, level, scale, seed=level)

    # no prefix: the last weight alone is above the tolerance
    @pytest.mark.parametrize("truncation", [1, 2, 5])
    def test_short_truncations(self, truncation):
        for seed in range(3):
            log_w = _stick_log_weights(_counts(truncation, {0: 10}), seed)
            self._check(log_w, seed=seed)

    def test_uniform_weights(self):
        self._check(np.zeros(100))

    def test_weights_at_the_floor(self):
        # the last entry above the floor carries 1e-3: it must be in the prefix
        w = np.zeros(100)
        w[:4] = [0.5, 0.3, 0.199, 1e-3]
        self._check(np.log(np.maximum(w, 1e-300)), scale=0.05)
        self._check(np.log(np.maximum(w, 1e-300)), scale=1.0)

    # rows whose totals fall below e^-600 (200) or to zero (1000) on the prefix
    @pytest.mark.parametrize("modulus", [200.0, 1000.0])
    def test_far_rows(self, modulus):
        log_w = _stick_log_weights(_counts(100, {0: 300, 2: 200}), seed=3)
        self._check(log_w, far=[modulus] * 43)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 120),
        lead=st.integers(1, 120),
        ratio=st.floats(1e-3, 0.9),
        level=st.integers(1, 2),
        scale=st.floats(0.0, 20.0),
        u=st.floats(0.0, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_geometric_tails(self, k, lead, ratio, level, scale, u, seed):
        # a random lead, then weights falling by ``ratio`` each, floored
        rng = np.random.default_rng(seed)
        lead = min(lead, k)
        log_w = np.concatenate([rng.normal(size=lead),
                                math.log(ratio) * np.arange(1, k - lead + 1)])
        log_w = np.maximum(log_w, math.log(1e-300))
        b, _, _, _, _ = _draw_case(rng, 20, k, level, scale)
        basis = _fourier_basis(np.arange(-2, 3), rng.random(k))
        got = _draw(b, basis, log_w, _ConstantUniform(u))
        np.testing.assert_array_equal(got, _full_draw(b, basis, log_w, np.full(20, u)))

    def test_prefix_settles_most_shift_rows(self, monkeypatch):
        # an equivalence test passes on a prefix that always falls back: count
        # the rows that reach the full path from the shift draw (100 atoms;
        # the atom draw's rows have the 1,024 grid points)
        obs = simulate(TRUTH, raised_cosine_density(), 200, 4, seed=51)
        prior = PriorConfig(SievePriorConfig.adaptive(200),
                            DirichletPriorConfig(uniform_density(512), 1.0, 100))
        sampler = GibbsSampler(obs, prior, np.random.default_rng(52))
        for _ in range(50):  # burn-in
            sampler.sweep()
        rows = {100: 0, 1024: 0}

        def counting(r, factor, reduce):
            rows[factor.shape[1]] += r.shape[0]
            return _bounded_reduce(r, factor, reduce)

        monkeypatch.setattr(posterior, "_bounded_reduce", counting)
        for _ in range(100):
            sampler.sweep()
        assert rows[1024] >= 100  # the atom draw's rows: the count sees the calls
        assert rows[100] < 0.1 * 100 * 200


def _smooth_move(m, l_max=4, seed=0):
    """The smooth prior's shift move on the open ``m``-grid, its process drawn
    from the prior."""
    cfg = SmoothPriorConfig(nu=1.5, radius=2.0, grid=m)
    return _SmoothShifts(cfg, np.arange(-l_max, l_max + 1), np.random.default_rng(seed))


def _slack(move, b):
    """The envelope slack of each row of ``b``: half a block's width times
    ``sum_k 4 pi |k| |b_k|``."""
    width = b.shape[1]
    return move.half_width * 4.0 * np.pi * (np.abs(b) @ np.abs(np.arange(width) - width // 2))


def _chi2_pvalue(idx, logits):
    """chi-square p-value of the draws ``idx`` (one row of draws per row of
    ``logits``) against the softmax of ``logits``; each row's cells, in order
    of probability, are pooled into bins of at least 10 expected draws."""
    stat, dof = 0.0, 0
    for draws, row in zip(idx, logits):
        expected = draws.size * _softmax(row)
        order = np.argsort(expected)
        bins, acc, k = np.empty(row.size, dtype=int), 0.0, 0
        for i, e in enumerate(expected[order]):
            bins[i], acc = k, acc + e
            if acc >= 10.0:
                k, acc = k + 1, 0.0
        bins[bins == k] = max(k - 1, 0)  # a short last bin joins the one before
        observed = np.bincount(bins, np.bincount(draws, minlength=row.size)[order])
        want = np.bincount(bins, expected[order])
        stat += float(np.sum((observed - want) ** 2 / want))
        dof += want.size - 1
    return stats.chi2.sf(stat, dof)


def _repeated_draw(move, b, draws, seed):
    """``draws`` draws of every row of ``b``, one row of draws per row.  Even
    at the slack bound a row needs about e^3 = 20 proposals of three uniforms
    on average; a draw that takes 20 times that fails."""
    rows = b.shape[0] * draws
    rng = _CappedUniforms(np.random.default_rng(seed), cap=3 * 400 * rows)
    return move.draw(np.repeat(b, draws, axis=0), rng).reshape(b.shape[0], draws)


class _CappedUniforms:
    """Generator wrapper that fails once more than ``cap`` uniforms are drawn,
    so a draw that would not terminate fails instead of hanging."""

    def __init__(self, rng, cap):
        self.rng, self.cap, self.drawn = rng, cap, 0

    def random(self, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        if self.drawn > self.cap:
            raise AssertionError(f"more than {self.cap} uniforms drawn")
        return self.rng.random(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class _ExtremeProposals:
    """Stand-in generator: every uniform is ``value``, except that each
    rejection round's acceptance uniforms (the last row of its ``(3, k)``
    draw) are 0, so every proposal is accepted."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        u = np.full(size, self.value)
        if u.ndim == 2:
            u[-1] = 0.0
        return u


class TestBlockRejection:
    """The smooth prior's shift draw against its conditional on explicit logits."""

    @pytest.mark.parametrize("m", [64, 256, 1024])
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_matches_explicit_conditional(self, m, level):
        rng = np.random.default_rng(100 * m + level)
        move = _smooth_move(m, seed=level)
        b, ks, x, _, _ = _draw_case(rng, 6, m, level, l_max=4)
        b *= np.array([0.02, 0.1, 0.3, 0.6, 1.0, 3.0])[:, None]
        idx = _repeated_draw(move, b, 4000, seed=m + level)
        logits = _explicit_logits(b, ks, x, move.log_weights())
        assert _chi2_pvalue(idx, logits) > 1e-3

    def test_rows_past_the_slack_bound_take_the_inverse_cdf(self):
        rng = np.random.default_rng(41)
        move = _smooth_move(256)
        b, ks, x, _, _ = _draw_case(rng, 40, 256, 2, scale=0.2, l_max=4)
        far = np.zeros(40, dtype=bool)
        far[::4] = True
        b[far] *= 40.0
        assert np.array_equal(_slack(move, b) > _SLACK_MAX, far)
        # the far rows are drawn first, by the inverse CDF on their own
        got = move.draw(b, _CappedUniforms(np.random.default_rng(42), cap=3 * 400 * 40))
        want = _draw(b[far], move.basis, move.log_weights(), np.random.default_rng(42))
        np.testing.assert_array_equal(got[far], want)
        idx = _repeated_draw(move, b, 2000, seed=43)
        logits = _explicit_logits(b, ks, x, move.log_weights())
        assert _chi2_pvalue(idx[far], logits[far]) > 1e-3
        assert _chi2_pvalue(idx[~far], logits[~far]) > 1e-3

    def test_zero_shape_draws_from_g_alone(self):
        move = _smooth_move(1024)
        n, a, b = 20_000, np.random.default_rng(44), np.random.default_rng(44)
        idx = move.draw(np.zeros((n, 5), dtype=complex), a)
        assert _chi2_pvalue(idx[None, :], move.log_weights()[None, :]) > 1e-3
        # every proposal is accepted: one round of three uniforms per row
        b.random((3, n))
        assert a.random() == b.random()

    @pytest.mark.parametrize("m", [2, 3, 16, 1024])
    def test_high_snr_rows_terminate(self, m):
        # rows far past the slack bound and rows just below it, where the
        # acceptance may be as low as e^{-2 _SLACK_MAX}
        rng = np.random.default_rng(m)
        move = _smooth_move(m)
        b, ks, x, _, _ = _draw_case(rng, 8, m, 4, l_max=4)
        slack = _slack(move, b)
        below = np.arange(8) % 2 == 0
        if move.half_width > 0.0:
            b[below] *= (0.999 * _SLACK_MAX / slack[below])[:, None]
        b[~below] *= 1e3
        idx = _repeated_draw(move, b, 500, seed=m)
        logits = _explicit_logits(b, ks, x, move.log_weights())
        assert _chi2_pvalue(idx, logits) > 1e-3

    def test_sampler_terminates_at_high_snr(self):
        truth = FourierSeries.from_dict({1: 40.0 + 0j, 2: 20.0 + 0j}, cutoff=2)
        obs = simulate(truth, raised_cosine_density(), 400, 4, sigma=0.01, seed=45)
        sampler = GibbsSampler(obs, smooth_prior(400, l_max=4, grid=1024),
                               np.random.default_rng(46))
        sampler.rng = _CappedUniforms(sampler.rng, cap=3 * 3 * 400 * 400)
        sampler.level = 2
        sampler.theta = project(truth, sampler.l_max).coeffs.copy()
        for _ in range(3):
            sampler.sweep()
        assert sampler.assignments.min() >= 0 and sampler.assignments.max() < 1024

    def test_light_block_after_heavy_keeps_its_mass(self):
        # g puts e^-37 of its mass on the second point, below the rounding of
        # a cumulative mass of 1; the data's logit gap of 800 makes that
        # point the conditional's all but certain draw
        move = _smooth_move(2)
        log_w = np.array([24.0, -13.0])
        move.w_process, move.log_mass = np.append(log_w, log_w[0]), 0.0
        b = np.tile([0.0, 0.0, -200.0 + 0j], (5, 1))  # t(x) = -400 cos(2 pi x)
        logits = _explicit_logits(b, np.arange(-1, 2), move.grid, log_w)
        assert np.all(logits[:, 1] - logits[:, 0] > 700.0)
        idx = move.draw(b, _CappedUniforms(np.random.default_rng(0), cap=3 * 400 * 5))
        np.testing.assert_array_equal(idx, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        m=st.integers(2, 80),
        level=st.integers(0, 4),
        scale=st.sampled_from([1e-3, 0.1, 1.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_index_has_positive_probability(self, data, n, m, level, scale, seed):
        width = 2 * level + 1
        part = st.floats(-3.0, 3.0)
        re, im = (np.array(data.draw(st.lists(part, min_size=n * width, max_size=n * width)))
                  for _ in range(2))
        b = scale * (re + 1j * im).reshape(n, width)
        entry = st.one_of(st.floats(-50.0, 50.0), st.just(-np.inf))
        log_w = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)))
        assume(np.isfinite(log_w).any())
        move = _smooth_move(m)
        # log_weights() reads the process less its log mass
        move.w_process, move.log_mass = np.append(log_w, log_w[0]), 0.0
        logits = _explicit_logits(b, np.arange(-level, level + 1), move.grid, log_w)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        idx = move.draw(b, _CappedUniforms(np.random.default_rng(seed), cap=3 * 400 * n))
        assert np.all(p[np.arange(n), idx] > 0.0)
        # at the ends of the unit interval a proposal stays on a point of
        # positive mass under g
        for u in (0.0, 1.0 - 2.0**-53, 1.0):
            idx = move.draw(b, _ExtremeProposals(u))
            assert np.all(np.isfinite(log_w[idx]))


class TestDirichletAtomUpdate:
    def test_atoms_match_gumbel_max_oracle(self):
        # three occupied clusters of two curves each; the other 97 are empty
        obs = simulate(TRUTH, raised_cosine_density(), 6, 2, seed=31)
        prior = PriorConfig(
            SievePriorConfig.adaptive(6, l_max=2),
            DirichletPriorConfig(raised_cosine_density(256), 1.0, 100),
        )
        sampler = GibbsSampler(obs, prior, np.random.default_rng(32))
        move = sampler.shift_move
        sampler.assignments = np.array([0, 0, 1, 1, 7, 7])
        sampler.theta = project(TRUTH, sampler.l_max).coeffs.copy()
        draws = 2000
        got = np.empty((draws, 100))
        for d in range(draws):
            move.update(sampler.assignments, sampler.Y, sampler.theta, sampler.rng)
            got[d] = move.atoms

        # the conditional of every atom by Gumbel-max over all 100 rows
        rng = np.random.default_rng(33)
        sums = np.zeros((100, sampler.p), dtype=complex)
        np.add.at(sums, sampler.assignments, sampler.Y)
        basis = np.exp(2j * np.pi * np.outer(sampler.ks, move.grid))
        logits = move.log_base[None, :] + 2.0 * (
            (sums * np.conj(sampler.theta)) @ basis
        ).real
        want = np.empty((draws, 100))
        for d in range(draws):
            gumbel = rng.gumbel(size=logits.shape)
            want[d] = move.grid[np.argmax(logits + gumbel, axis=1)]

        def same_law(a, b):
            table = np.array(
                [np.bincount((x * 16).astype(int), minlength=16) for x in (a, b)]
            )
            table = table[:, table.sum(axis=0) > 0]
            return stats.chi2_contingency(table)[1] > 1e-3

        occupied = np.isin(np.arange(100), sampler.assignments)
        assert same_law(got[:, ~occupied].ravel(), want[:, ~occupied].ravel())
        for c in np.flatnonzero(occupied):
            assert same_law(got[:, c], want[:, c])

    def test_empty_cluster_atoms_from_base_cdf(self):
        # the former draw: a search of the normalized cumulative base
        # weights, one uniform per empty cluster, drawn before the others
        obs = simulate(TRUTH, raised_cosine_density(), 6, 2, seed=31)
        sampler = GibbsSampler(obs, dp_prior(6), np.random.default_rng(32))
        move, base = sampler.shift_move, sampler.shift_move.cfg.base_density
        theta = project(TRUTH, sampler.l_max).coeffs
        rng = _Recording(np.random.default_rng(34))
        move.update(np.array([0, 0, 4, 4, 4, 9]), sampler.Y, theta, rng)
        cdf = np.cumsum(np.maximum(np.interp(move.grid, base.grid, base.values), 1e-300))
        idx = np.searchsorted(cdf / cdf[-1], rng.uniforms[-2], side="right")
        empty = ~np.isin(np.arange(move.cfg.truncation), [0, 4, 9])
        assert np.array_equal(move.atoms[empty], move.grid[idx])


def _exp_gain(sampler, tau, k, coeff_pos, coeff_neg):
    """Reference: the pair's log-likelihood gain from explicit exponentials."""
    gain = 0.0
    for freq, coeff in ((k, coeff_pos), (-k, coeff_neg)):
        col = sampler.Y[:, freq + sampler.l_max]
        mean = coeff * np.exp(-2j * np.pi * freq * tau)
        gain += float(np.sum(np.abs(col) ** 2 - np.abs(col - mean) ** 2))
    return gain


class TestPhases:
    @pytest.mark.parametrize(
        "prior",
        [dp_prior(20, l_max=3), smooth_prior(20, l_max=3)],
        ids=["dp", "smooth"],
    )
    def test_phases_match_shift_exponentials(self, prior):
        obs = simulate(TRUTH, raised_cosine_density(), 20, 3, seed=12)
        rng = np.random.default_rng(19)
        sampler = GibbsSampler(obs, prior, rng)
        if isinstance(prior.shift_prior, DirichletPriorConfig):
            # the initial atoms come from the prior, off the atom grid
            atoms = sampler.shift_candidates()
            assert not np.isin(atoms, sampler.shift_move.grid).all()

        def check():
            tau = sampler.shift_candidates()[sampler.assignments]
            want_s = np.sum(sampler.Y * np.exp(2j * np.pi * np.outer(tau, sampler.ks)), axis=0)
            np.testing.assert_allclose(sampler.s_stat, want_s, rtol=0.0, atol=1e-12)
            # the gain inside the level ratio is its change from a zero pair:
            # at every k, a birth from level k - 1 and a death from level k
            # (level 0 only moves the prior term, which cancels)
            level = sampler.level
            for k in range(1, sampler.l_max + 1):
                pair = rng.normal(size=2) + 1j * rng.normal(size=2)
                want_gain = _exp_gain(sampler, tau, k, *pair)
                sampler.level = k - 1
                birth = sampler._level_log_ratio(k, *pair) - sampler._level_log_ratio(k, 0, 0)
                sampler.level = k
                death = sampler._level_log_ratio(k - 1, 0, 0) - sampler._level_log_ratio(
                    k - 1, *pair
                )
                assert birth == pytest.approx(want_gain, rel=0.0, abs=1e-12)
                assert death == pytest.approx(want_gain, rel=0.0, abs=1e-12)
            sampler.level = level

        # S is the sweep's from the shape refresh until the mixing-law
        # refresh moves the shifts; the sampler sets it up front too
        check()
        for _ in range(3):
            sampler.update_shifts()
            sampler.update_theta()
            check()
            sampler.update_level()
            check()
            sampler.update_shift_distribution()


class TestLevelMove:
    def test_birth_and_death_ratios_cancel(self):
        # the birth L -> L+1 of a pair and the death L+1 -> L of the same
        # pair are reverse moves: their MH log ratios sum to zero
        obs = simulate(TRUTH, raised_cosine_density(), 15, 3, seed=3)
        rng = np.random.default_rng(7)
        sampler = GibbsSampler(obs, dp_prior(15, l_max=3), rng)
        for _ in range(5):
            sampler.sweep()
        for level in (1, 2):
            k = level + 1
            pair = rng.normal(size=2) + 1j * rng.normal(size=2)
            sampler.level = level
            birth = sampler._level_log_ratio(level + 1, pair[0], pair[1])
            assert birth != pytest.approx(0.0, abs=1e-3)
            sampler.level = level + 1
            sampler.theta[[k + sampler.l_max, -k + sampler.l_max]] = pair
            death = sampler._level_log_ratio(
                level, *sampler.theta[[k + sampler.l_max, -k + sampler.l_max]]
            )
            assert birth + death == pytest.approx(0.0, abs=1e-12)

    def test_level_stays_in_range(self):
        obs = simulate(TRUTH, raised_cosine_density(), 15, 2, seed=4)
        rng = np.random.default_rng(8)
        sampler = GibbsSampler(obs, dp_prior(15), rng)
        for _ in range(60):
            sampler.sweep()
            assert 1 <= sampler.level <= sampler.l_max


class TestCurveCounts:
    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("make", [dp_prior, smooth_prior], ids=["dp", "smooth"])
    def test_no_curve_and_one_curve(self, make, n):
        # the level ratio's closed form uses the curve count explicitly
        curves = simulate(TRUTH, raised_cosine_density(), 1, 3, seed=5).curves[:n]
        obs = ObservationSet(3, 1.0, curves)
        sampler = GibbsSampler(obs, make(10, l_max=3), np.random.default_rng(30 + n))
        ratio, ratios = sampler._level_log_ratio, []

        def recording(*args):
            ratios.append(ratio(*args))
            return ratios[-1]

        sampler._level_log_ratio = recording
        for _ in range(10):
            sampler.sweep()
            assert 1 <= sampler.level <= sampler.l_max
        assert ratios and np.all(np.isfinite(ratios))


# lambda = (2/3, 1/3) on levels 1 and 2, and xi^2 = 1
GEWEKE_SIEVE = SievePriorConfig(
    n=8, mu=0.0, zeta=0.0, c=0.25 / math.sqrt(math.log(2.0)), l_max=2
)


def _ess(x):
    """Effective sample size of a chain by Geyer's initial monotone sequence
    (Statist. Sci. 1992): autocorrelations summed in adjacent pairs up to the
    first nonpositive pair, the pair sums made nonincreasing."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = x.size
    acf = np.fft.irfft(np.abs(np.fft.rfft(x, 2 * n)) ** 2, 2 * n)[:n]
    pairs = (acf[: n - 1 : 2] + acf[1:n:2]) / acf[0]
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else pairs.size])
    return n / (2.0 * pairs.sum() - 1.0)


def _z(chain, mean, var_of_mean=0.0):
    """The chain mean's distance from ``mean`` in standard errors, the chain's
    from its ESS plus ``var_of_mean`` for a target that is itself estimated."""
    se2 = np.var(chain) / _ess(chain) + var_of_mean
    return (np.mean(chain) - mean) / math.sqrt(se2)


def _geweke_chain(shift_prior, seed, burn_in, sweeps):
    """Successive-conditional simulator (Geweke, JASA 2004): each step redraws
    the 8 curves from the current shape and shifts with unit noise, then runs
    one sweep, so the chain's stationary law is the joint prior.  Returns the
    recorded statistics by row: 1{level = 1}, Re, Im and |.|^2 of theta_0 and
    theta_1, |g_1|, and the number of occupied candidates."""
    rng = np.random.default_rng(seed)
    obs = ObservationSet(2, 1.0, np.zeros((8, 5), dtype=complex))
    sampler = GibbsSampler(obs, PriorConfig(GEWEKE_SIEVE, shift_prior), rng)
    rows = []
    for step in range(burn_in + sweeps):
        tau = sampler.shift_candidates()[sampler.assignments]
        mean = sampler.theta * np.exp(-2j * np.pi * np.outer(tau, sampler.ks))
        sampler.Y = mean + complex_gaussian_array(rng, mean.shape)
        sampler.sweep()
        if step >= burn_in:
            t0, t1 = sampler.theta[sampler.l_max : sampler.l_max + 2]
            g1 = sampler.current_g().fourier(np.array([1]))[0]
            occupied = np.unique(sampler.assignments).size
            rows.append((sampler.level == 1, t0.real, t0.imag, abs(t0) ** 2,
                         t1.real, t1.imag, abs(t1) ** 2, abs(g1), occupied))
    return np.array(rows, dtype=float).T


def _direct_dp(cfg, rng):
    g = sample_dp(cfg, rng)
    return g, g.weights


def _direct_smooth(cfg, rng):
    g, w = sample_smooth_with_process(cfg, rng)
    return g, np.exp(w[:-1] - w.max())


class TestGeweke:
    @pytest.mark.parametrize(
        "shift_prior, direct, seeds, sweeps",
        [
            (DirichletPriorConfig(uniform_density(256), 1.0, 50), _direct_dp,
             (2611, 2613), 30_000),
            (SmoothPriorConfig(nu=1.5, radius=2.0, grid=256), _direct_smooth,
             (2612, 2614), 20_000),
        ],
        ids=["dp", "smooth"],
    )
    def test_sweep_keeps_the_joint_prior(self, shift_prior, direct, seeds, sweeps):
        # the level pmf and theta_0, theta_1 ~ CN(0, 1) are exact targets;
        # |g_1| and the occupied count of 8 shifts come from direct prior draws
        stats = _geweke_chain(shift_prior, seeds[0], 1000, sweeps)
        rng = np.random.default_rng(seeds[1])
        draws = np.empty((2, 10_000))
        for i in range(draws.shape[1]):
            g, weights = direct(shift_prior, rng)
            idx = categorical(weights, rng.random(8))
            draws[:, i] = abs(g.fourier(np.array([1]))[0]), np.unique(idx).size
        exact = [lambda_pmf(GEWEKE_SIEVE)[0], 0.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        z = [_z(s, t) for s, t in zip(stats, exact)]
        z += [_z(s, d.mean(), d.var() / d.size) for s, d in zip(stats[7:], draws)]
        assert np.all(np.abs(z) <= 4.0), np.round(z, 2)


class TestGibbsPosterior:
    def test_agrees_with_importance(self):
        obs = simulate(TRUTH, raised_cosine_density(), 20, 2, seed=5)
        prior = dp_prior(20)
        rng = np.random.default_rng(9)
        imp = importance_posterior(obs, prior, 12_000, rng)
        m1, se1 = aligned_first_coeff(imp)
        ens = gibbs_posterior(obs, prior, 1500, rng, max_kept=600)
        xs = []
        for theta, g, _ in ens.samples:
            aligned, _ = align_pair(theta, g)
            xs.append(aligned.coeff(1).real)
        xs = np.array(xs)
        m2 = xs.mean()
        batches = np.array_split(xs, 15)
        se2 = np.std([b.mean() for b in batches], ddof=1) / math.sqrt(15)
        assert abs(m1 - m2) < 3.0 * math.hypot(se1, se2)

    def test_stationarity(self):
        obs = simulate(TRUTH, raised_cosine_density(), 20, 2, seed=6)
        prior = dp_prior(20)
        short = gibbs_posterior(obs, prior, 700, np.random.default_rng(10))
        long = gibbs_posterior(obs, prior, 1400, np.random.default_rng(11))

        def batched(ens):
            xs = []
            for theta, g, _ in ens.samples:
                aligned, _ = align_pair(theta, g)
                xs.append(aligned.coeff(1).real)
            xs = np.array(xs)
            batches = np.array_split(xs, 12)
            means = np.array([b.mean() for b in batches])
            return xs.mean(), means.std(ddof=1) / math.sqrt(12)

        m1, se1 = batched(short)
        m2, se2 = batched(long)
        assert abs(m1 - m2) < 3.0 * math.hypot(se1, se2)

    def test_smooth_prior_path(self):
        obs = simulate(TRUTH, raised_cosine_density(), 12, 2, seed=7)
        rng = np.random.default_rng(12)
        ens = gibbs_posterior(obs, smooth_prior(12), 150, rng)
        assert ens.diagnostics["kept"] > 0
        assert 0.0 <= ens.diagnostics["pcn_acceptance"] <= 1.0
        theta, g, _ = ens.samples[-1]
        assert isinstance(g, GridDensity)

    def test_noiseless_recovery(self):
        # degenerate configuration: point-mass shifts and zero noise put
        # every curve on the same vector, so only the conjugate-update
        # shrinkage separates the posterior mean from the truth
        obs = simulate(TRUTH, Discrete.point_mass(0.3), 400, 2, sigma=0.0, seed=8)
        rng = np.random.default_rng(13)
        ens = gibbs_posterior(obs, dp_prior(400), 250, rng)
        mean = ens.mean_theta(aligned=True)
        err = np.linalg.norm(project(mean, 2).coeffs - project(TRUTH, 2).coeffs)
        xi2 = SievePriorConfig.adaptive(400).xi2
        expected = (1.0 / xi2) / (400 + 1.0 / xi2) * np.linalg.norm(TRUTH.coeffs)
        assert err < expected + 0.05


class TestSmoothLogMass:
    def test_kept_log_mass_is_the_process_log_mass(self):
        # the log mass kept with the process is the one recomputed from it
        obs = simulate(TRUTH, raised_cosine_density(), 12, 2, seed=7)
        sampler = GibbsSampler(obs, smooth_prior(12), np.random.default_rng(12))
        move = sampler.shift_move
        for _ in range(40):
            sampler.sweep()
            w = move.w_process
            top = float(np.max(w))
            mass = float(np.trapezoid(np.exp(w - top), dx=1.0 / (w.size - 1)))
            assert move.log_mass == top + math.log(mass)
            assert np.array_equal(move.law().values, np.exp(w - top) / mass)
        assert move.pcn_accepted > 0


class TestPcnRefusal:
    def test_proposal_outside_twice_the_ball_changes_nothing(self):
        obs = simulate(TRUTH, raised_cosine_density(), 12, 2, seed=7)
        sampler = GibbsSampler(obs, smooth_prior(12), np.random.default_rng(12))
        sampler.sweep()
        move = sampler.shift_move
        # every proposal has a radius above 2e-6, so every one is refused
        move.cfg = dataclasses.replace(move.cfg, radius=1e-6)
        w, g, log_mass = move.w_process.copy(), move.g_density, move.log_mass
        proposed, accepted = move.pcn_proposed, move.pcn_accepted
        twin = copy.deepcopy(sampler.rng)
        sampler.update_shift_distribution()
        assert np.array_equal(move.w_process, w) and move.g_density is g
        assert move.log_mass == log_mass
        assert (move.pcn_proposed, move.pcn_accepted) == (proposed + 1, accepted)
        # a refused proposal draws no acceptance uniform: only the process
        gp_draw(move.cfg, twin)
        assert sampler.rng.bit_generator.state == twin.bit_generator.state


class TestShiftGrid:
    def test_smooth_prior_grid_is_the_shift_grid(self):
        obs = simulate(TRUTH, raised_cosine_density(), 10, 2, seed=11)
        sampler = GibbsSampler(obs, smooth_prior(10, grid=64), np.random.default_rng(18))
        assert sampler.shift_candidates().size == 64
        g = sampler.current_g()
        assert isinstance(g, GridDensity)
        assert g.m == 64


class TestBallMass:
    @staticmethod
    def _small_ensemble():
        obs = simulate(TRUTH, raised_cosine_density(), 15, 2, seed=9)
        rng = np.random.default_rng(14)
        return gibbs_posterior(obs, dp_prior(15), 150, rng, max_kept=12)

    def test_infinite_radius(self):
        ens = self._small_ensemble()
        truth = MixtureLaw(TRUTH, raised_cosine_density())
        rng = np.random.default_rng(15)
        assert ball_mass(ens, truth, math.inf, "H", 500, rng) == 1.0

    def test_zero_radius(self):
        ens = self._small_ensemble()
        truth = MixtureLaw(TRUTH, raised_cosine_density())
        rng = np.random.default_rng(16)
        assert ball_mass(ens, truth, 0.0, "H", 500, rng) == pytest.approx(0.0)

    def test_monotone_in_radius(self):
        ens = self._small_ensemble()
        truth = MixtureLaw(TRUTH, raised_cosine_density())
        masses = [
            ball_mass(ens, truth, r, "H", 500, np.random.default_rng(17))
            for r in (0.1, 0.3, 0.6, 1.0, 1.4)
        ]
        assert all(b >= a for a, b in zip(masses, masses[1:]))


class TestCutoffZero:
    def test_sampler_refuses_cutoff_zero(self):
        obs = simulate(TRUTH, uniform_density(), 10, 0, seed=3)
        with pytest.raises(ValueError, match="field 'cutoff'"):
            GibbsSampler(obs, dp_prior(10), np.random.default_rng(0))


def _run(**kwargs):
    return lambda obs, rng: partial(GibbsSampler(obs, dp_prior(obs.n), rng).run, **kwargs)


@pytest.mark.parametrize(
    "make, named",
    [
        (_run(steps=5, burn_in=10, thin=1), "burn_in"),
        (_run(steps=5, burn_in=5, thin=1), "burn_in"),
        (_run(steps=5, burn_in=-1, thin=1), "burn_in"),
        (_run(steps=5, burn_in=0, thin=0), "thin"),
        (_run(steps=5, burn_in=0, thin=-2), "thin"),
        (_run(steps=0, burn_in=0, thin=1), "steps"),
        (lambda obs, rng: partial(gibbs_posterior, obs, dp_prior(obs.n), 6, rng, max_kept=0),
         "max_kept"),
        (lambda obs, rng: partial(gibbs_posterior, obs, dp_prior(obs.n), 6, rng, max_kept=-3),
         "max_kept"),
        (lambda obs, rng: partial(importance_posterior, obs, dp_prior(obs.n), 0, rng),
         "draws"),
        (lambda obs, rng: partial(contraction_experiment, TRUTH, uniform_density(),
                                  [200, 100], ContractionConfig(), rng),
         "sample sizes must be increasing"),
    ],
)
def test_refused_before_any_draw(make, named):
    # each refusal names its argument, before a sweep or a draw moves the stream
    obs = simulate(TRUTH, raised_cosine_density(), 10, 2, seed=5)
    rng = np.random.default_rng(3)
    call = make(obs, rng)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=named):
        call()
    assert rng.bit_generator.state == state

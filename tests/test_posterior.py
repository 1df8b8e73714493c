"""Posterior machinery: the two samplers, their agreement, and diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from simlab.fourier import FourierSeries, project
from simlab.mixture import MixtureLaw, log_mixture_density
from simlab.model import ObservationSet, simulate
from simlab.posterior import (
    GibbsSampler,
    PosteriorEnsemble,
    PriorConfig,
    align_pair,
    ball_mass,
    gibbs_posterior,
    importance_posterior,
    shift_measure,
    _cluster_sums,
    _exact_draw,
    _fourier_basis,
    _inverse_cdf,
    _SLACK_MAX,
    _SmoothShifts,
    _window,
)
from simlab.priors import DirichletPriorConfig, SievePriorConfig, SmoothPriorConfig
from simlab.shifts import (
    Discrete,
    GridDensity,
    raised_cosine_density,
    uniform_density,
)

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

    def test_shift_measure_density(self):
        g = raised_cosine_density(512)
        moved = shift_measure(g, 0.25)
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
        got = _exact_draw(b, basis, log_w, np.random.default_rng(7))
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
        got = _exact_draw(b, basis, log_w, np.random.default_rng(8))
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
        idx = _exact_draw(b, _fourier_basis(ks, x), log_w, _ConstantUniform(u))
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
        want = _exact_draw(b[far], move.basis, move.log_weights(), np.random.default_rng(42))
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
            want = np.exp(2j * np.pi * np.outer(tau, sampler.ks))
            np.testing.assert_allclose(sampler.phases, want, rtol=0.0, atol=1e-15)
            want_s = np.sum(sampler.Y * want, axis=0)
            got_s = sampler._suff_stats()
            np.testing.assert_allclose(got_s, want_s, rtol=0.0, atol=1e-12)
            for k in range(1, sampler.l_max + 1):
                pair = rng.normal(size=2) + 1j * rng.normal(size=2)
                want_gain = _exp_gain(sampler, tau, k, *pair)
                got = sampler._pair_loglik_gain(k, *pair)
                assert got == pytest.approx(want_gain, rel=0.0, abs=1e-12)

        check()
        for _ in range(3):
            for move in (
                sampler.update_shifts,
                sampler.update_theta,
                sampler.update_level,
                sampler.update_shift_distribution,
            ):
                move()
                check()


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

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.

The criteria pin closed-form reproduction, estimator cross-validation,
inequality domination, prior moments, posterior-oracle agreement, the
qualitative shrinkage experiment, and the hardness-net certificates, at
fixed tolerances.  Everything is seeded; sample sizes are part of the
criteria.
"""

import math
import time

import numpy as np
import pytest

from simlab.cli import distance_verification_rows
from simlab.distances import (
    mc_distance,
    hellinger_point_shift,
    tv_gaussians,
)
from simlab.fourier import FourierSeries, h1_norm, is_phase_normalized, rotate
from simlab.mixture import (
    MixtureLaw,
    gaussian_density,
    girsanov_log_ratio,
    log_mixture_density,
    sample_law,
)
from simlab.model import simulate
from simlab.nets import (
    bracket_count_bound,
    bracket_hellinger,
    bracketing_net,
    fano_tv_certificate,
    g_separation,
    identifiability_probe,
    make_fano_net,
)
from simlab.posterior import (
    ContractionConfig,
    GibbsSampler,
    PriorConfig,
    align_pair,
    contraction_experiment,
    gibbs_posterior,
    importance_posterior,
)
from simlab.priors import (
    DirichletPriorConfig,
    SievePriorConfig,
    SmoothPriorConfig,
    lambda_pmf,
    sample_dp,
    sample_f,
    sample_smooth_with_process,
)
from simlab.shifts import (
    Discrete,
    FourierDensity,
    raised_cosine_density,
    sobolev_radius,
    uniform_density,
)
from simlab.special import a_n, a_n_quadrature, bessel_i


_CAPSYS = None


@pytest.fixture(autouse=True)
def _passthrough_capture(capsys):
    # let the per-criterion verdict lines reach the real terminal even
    # under pytest's fd-level capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(criterion: int, ok: bool, detail: str):
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def random_point_pair(rng, cutoff):
    scale = 0.8
    a = scale * (rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1))
    b = scale * (rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1))
    return FourierSeries(cutoff, a), FourierSeries(cutoff, b)


def test_criterion_1_closed_form_oracles():
    rng = np.random.default_rng(101)
    start = time.time()
    worst_tv = worst_h2 = 0.0
    for i in range(20):
        cutoff = 0 if i < 10 else 1
        f, f2 = random_point_pair(rng, cutoff)
        shift = float(rng.uniform(0, 1))
        g = Discrete.point_mass(shift)
        p_law = MixtureLaw(f, g)
        q_law = MixtureLaw(f2, g)
        tv = mc_distance(p_law, q_law, "TV", 10**6, rng)
        closed_tv = tv_gaussians(rotate(f, shift).coeffs, rotate(f2, shift).coeffs)
        worst_tv = max(worst_tv, abs(tv.value - closed_tv) / tv.std_error)
        h2 = mc_distance(p_law, q_law, "H2", 10**6, rng)
        closed_h2 = hellinger_point_shift(f, f2) ** 2
        worst_h2 = max(worst_h2, abs(h2.value - closed_h2) / h2.std_error)
    elapsed = time.time() - start
    ok = worst_tv <= 3.0 and worst_h2 <= 3.0 and elapsed < 120.0
    report(
        1,
        ok,
        f"closed forms vs MC at 1e6: worst TV {worst_tv:.2f} sigma, "
        f"worst H2 {worst_h2:.2f} sigma, {elapsed:.0f}s",
    )


def test_criterion_2_inequality_suite():
    start = time.time()
    rng = np.random.default_rng(202)
    rows = distance_verification_rows(instances=100, samples=12_000, rng=rng)
    violations = [row for row in rows if not row[4]]
    elapsed = time.time() - start
    report(
        2,
        len(violations) == 0,
        f"{len(rows)} bound checks over 100 random instances, "
        f"{len(violations)} violations, {elapsed:.0f}s",
    )


def test_criterion_3_bessel():
    start = time.time()
    worst_gap = 0.0
    for n in range(0, 21):
        for a in np.arange(0.0, 10.0 + 1e-9, 0.5):
            worst_gap = max(worst_gap, abs(a_n(n, float(a)) - a_n_quadrature(n, float(a))))
    rng = np.random.default_rng(303)
    worst_gen = 0.0
    for _ in range(100):
        a = float(rng.uniform(0, 10))
        u = float(rng.uniform(0, 2 * math.pi))
        series = bessel_i(0, a) + 2.0 * sum(
            bessel_i(m, a) * math.cos(m * u) for m in range(1, 61)
        )
        worst_gen = max(worst_gen, abs(series - math.exp(a * math.cos(u))))
    equiv_ok = True
    for n in (4, 9, 16):
        for a in np.linspace(0.05, math.sqrt(n), 9):
            lead = (a / 2.0) ** n / math.factorial(n)
            if abs(bessel_i(n, float(a)) / lead - 1.0) >= 2.0 * a / n:
                equiv_ok = False
    ok = worst_gap < 1e-8 and worst_gen < 1e-10 and equiv_ok
    elapsed = time.time() - start
    report(
        3,
        ok,
        f"series vs quadrature gap {worst_gap:.1e}, generating identity "
        f"{worst_gen:.1e}, small-argument equivalent {'ok' if equiv_ok else 'bad'}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_girsanov():
    start = time.time()
    rng = np.random.default_rng(404)
    worst_identity = 0.0
    for _ in range(100):
        cutoff = int(rng.integers(1, 3))
        f, f2 = random_point_pair(rng, cutoff)
        g1 = raised_cosine_density(256, float(rng.uniform(0, 0.9)))
        g2 = raised_cosine_density(256, float(rng.uniform(0, 0.9)))
        law = MixtureLaw(f, g1)
        law0 = MixtureLaw(f2, g2)
        y = rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1)
        lr = girsanov_log_ratio(law, law0, y)
        diff = float(
            log_mixture_density(law, y[None, :])[0]
            - log_mixture_density(law0, y[None, :])[0]
        )
        worst_identity = max(worst_identity, abs(lr - diff))

    truth = FourierSeries.from_dict({1: 0.9 + 0j, 2: 0.4j}, cutoff=2)
    bump = FourierSeries(2, truth.coeffs + np.array([0, 0.1j, 0, 0.15, 0]))
    g0 = raised_cosine_density()
    f0_law = MixtureLaw(truth, g0)
    f_law = MixtureLaw(bump, g0)
    y = sample_law(f0_law, 10**5, rng)
    ratios = np.exp(log_mixture_density(f_law, y) - log_mixture_density(f0_law, y))
    se = ratios.std(ddof=1) / math.sqrt(y.shape[0])
    mean_gap = abs(ratios.mean() - 1.0) / se
    ok = worst_identity < 1e-10 and mean_gap <= 3.0
    elapsed = time.time() - start
    report(
        4,
        ok,
        f"ratio identity {worst_identity:.1e}, change-of-measure mean "
        f"{mean_gap:.2f} sigma at 1e5 curves, {elapsed:.0f}s",
    )


def test_criterion_5_priors():
    start = time.time()
    rng = np.random.default_rng(505)
    sieve = SievePriorConfig.adaptive(100)
    pmf = lambda_pmf(sieve)
    norm_ok = abs(pmf.sum() - 1.0) < 1e-12
    draws = np.array([sample_f(sieve, rng).coeff(0) for _ in range(10**5)])
    var_rel = abs(np.mean(np.abs(draws) ** 2) / sieve.xi2 - 1.0)

    dp = DirichletPriorConfig(uniform_density(128), 1.0, 200)
    mass = np.empty(10**4)
    for i in range(mass.size):
        g = sample_dp(dp, rng)
        mass[i] = g.weights[g.positions < 0.5].sum()
    se_mean = mass.std(ddof=1) / 100.0
    mean_gap = abs(mass.mean() - 0.5) / se_mean
    sq = (mass - 0.5) ** 2
    var_gap = abs(sq.mean() - 0.125) / (sq.std(ddof=1) / 100.0)

    smooth = SmoothPriorConfig(nu=1.5, radius=2.0, grid=512)
    smooth_ok = True
    for _ in range(20):
        dens, w = sample_smooth_with_process(smooth, rng)
        mass_err = abs(np.trapezoid(dens.values, dx=1.0 / dens.m) - 1.0)
        if mass_err > 1e-9 or w[0] != w[-1]:
            smooth_ok = False
        if sobolev_radius(dens, 1.5) > 2.0 * smooth.radius:
            smooth_ok = False

    ok = norm_ok and var_rel < 0.02 and mean_gap <= 3.0 and var_gap <= 3.0 and smooth_ok
    elapsed = time.time() - start
    report(
        5,
        ok,
        f"level law normalized {norm_ok}, coefficient variance off by "
        f"{100 * var_rel:.2f}%, stick moments {mean_gap:.2f}/{var_gap:.2f} sigma, "
        f"smooth draws {'ok' if smooth_ok else 'bad'}, {elapsed:.0f}s",
    )


def _aligned_first_coeff_stats(samples):
    xs, ws = [], []
    for theta, g, w in samples:
        aligned, _ = align_pair(theta, g)
        xs.append(aligned.coeff(1).real)
        ws.append(w)
    xs = np.asarray(xs)
    ws = np.asarray(ws)
    mean = float(np.sum(ws * xs))
    se = math.sqrt(float(np.sum(ws**2 * (xs - mean) ** 2)))
    return mean, se, xs


def test_criterion_6_posterior_oracles():
    start = time.time()
    truth = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
    obs = simulate(truth, raised_cosine_density(), 20, 2, sigma=1.0, seed=606)
    prior = PriorConfig(
        SievePriorConfig.adaptive(20, l_max=2),
        DirichletPriorConfig(uniform_density(256), 1.0, 50),
    )
    rng = np.random.default_rng(606)
    imp = importance_posterior(obs, prior, 25_000, rng)
    m_imp, se_imp, _ = _aligned_first_coeff_stats(imp.samples)
    gibbs = gibbs_posterior(obs, prior, 2500, rng, max_kept=800)
    m_gibbs, _, xs = _aligned_first_coeff_stats(gibbs.samples)
    batches = np.array_split(xs, 20)
    se_gibbs = np.std([b.mean() for b in batches], ddof=1) / math.sqrt(20)
    gap_sigma = abs(m_imp - m_gibbs) / math.hypot(se_imp, se_gibbs)

    refresh_rng = np.random.default_rng(607)
    s_stat = np.array([4.0 + 1.0j])
    n_eff, xi2 = 25.0, 0.08
    refreshed = np.array(
        [
            GibbsSampler.conjugate_refresh(s_stat, n_eff, xi2, refresh_rng)[0]
            for _ in range(10**4)
        ]
    )
    prec = n_eff + 1.0 / xi2
    mean_gap = abs(refreshed.mean() - s_stat[0] / prec) / (
        refreshed.std(ddof=1) / 100.0
    )
    sq = np.abs(refreshed - s_stat[0] / prec) ** 2
    var_gap = abs(sq.mean() - 1.0 / prec) / (sq.std(ddof=1) / 100.0)
    ok = gap_sigma <= 3.0 and mean_gap <= 3.0 and var_gap <= 3.0
    elapsed = time.time() - start
    report(
        6,
        ok,
        f"two posterior routes differ by {gap_sigma:.2f} sigma; conjugate "
        f"refresh moments {mean_gap:.2f}/{var_gap:.2f} sigma, {elapsed:.0f}s",
    )


def test_criterion_7_contraction_experiment():
    start = time.time()
    truth = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
    g0 = raised_cosine_density()
    cfg = ContractionConfig(
        s=1.0,
        sigma=1.0,
        cutoff=4,
        steps=600,
        control_n=6000,
    )
    rng = np.random.default_rng(7)
    rows = contraction_experiment(truth, g0, [50, 200, 800], cfg, rng)
    elapsed = time.time() - start
    rates = [row["eps_n"] for row in rows[:3]]
    # arithmetic oracle: n^{-1/4} log n at 50, 200, 800
    rates_ok = np.allclose(rates, [1.471163, 1.408958, 1.256936], atol=1e-3)
    dhs = [row["median_dh"] for row in rows[:3]]
    decreasing = dhs[0] > dhs[1] > dhs[2]
    control = rows[3]
    control_ok = control["sigma"] == 0.0 and control["f_err_aligned"] < 0.05
    ok = rates_ok and decreasing and control_ok and elapsed < 1800.0
    report(
        7,
        ok,
        f"median d_H {dhs[0]:.3f} > {dhs[1]:.3f} > {dhs[2]:.3f}; noise-free "
        f"control error {control['f_err_aligned']:.3f}; {elapsed:.0f}s",
    )


def test_criterion_8_fano_net():
    start = time.time()
    net = make_fano_net(8, 1.0, 2.5, 1.5, 2.0)
    invariants = all(is_phase_normalized(f) for f in net.fs)
    for g in net.gs:
        if float(np.sum(np.abs(g.coeffs))) - 1.0 > 1.0 + 1e-12:
            invariants = False
        if float(g.reconstruct().min()) < 0.0:
            invariants = False
        if sobolev_radius(g, 1.5) > 2.0:
            invariants = False
    gaps = [
        float(np.linalg.norm(net.fs[j].coeffs - net.fs[0].coeffs))
        for j in range(1, 8)
    ]
    sep_ok = min(gaps) >= 2.0 / 8.0 * math.sin(math.pi / 8.0) - 1e-12

    rng = np.random.default_rng(808)
    cert = fano_tv_certificate(net, 10**6, rng)
    ordering = all(
        cert.matched[j].value < cert.mismatched[j].value for j in range(1, 8)
    )
    # regression bound frozen from the first full-size certificate run
    # (observed max matched TV 1.9e-4 at one million samples)
    matched_small = max(e.value for e in cert.matched) < 1e-3
    ok = invariants and sep_ok and ordering and matched_small
    elapsed = time.time() - start
    report(
        8,
        ok,
        f"net invariants {invariants}, min shape gap {min(gaps):.4f}, "
        f"matched < mismatched for all members: {ordering}, "
        f"max matched TV {max(e.value for e in cert.matched):.1e}, {elapsed:.0f}s",
    )


def test_criterion_9_bracketing():
    start = time.time()
    rng = np.random.default_rng(909)
    raw = rng.normal(size=5) + 1j * rng.normal(size=5)
    theta = FourierSeries(2, raw)
    theta = FourierSeries(2, raw * (2.0 / h1_norm(theta)))
    eps = 0.1
    net = bracketing_net(theta, eps)
    count_ok = len(net) <= bracket_count_bound(theta, eps)
    width_ok = bracket_hellinger(5, net[0].delta) <= eps
    cell_width = net[0].phi_hi - net[0].phi_lo
    containment_ok = True
    for _ in range(1000):
        phi = float(rng.uniform(0, 1))
        cell = net[min(int(phi / cell_width), len(net) - 1)]
        center = rotate(theta, phi).coeffs
        z = center + 0.8 * (rng.normal(size=5) + 1j * rng.normal(size=5))
        target = gaussian_density(z, center)
        if not (
            cell.lower(z) <= target * (1 + 1e-12)
            and cell.upper(z) >= target * (1 - 1e-12)
        ):
            containment_ok = False
    ok = count_ok and width_ok and containment_ok
    elapsed = time.time() - start
    report(
        9,
        ok,
        f"{len(net)} cells (cap {bracket_count_bound(theta, eps)}), pair "
        f"width {bracket_hellinger(5, net[0].delta):.3f} <= {eps}, "
        f"containment {'ok' if containment_ok else 'bad'}, {elapsed:.0f}s",
    )


def _random_band_limited_density(rng):
    k_max = int(rng.integers(1, 5))
    coeffs = np.zeros(2 * k_max + 1, dtype=complex)
    coeffs[k_max] = 1.0
    budget = 0.9
    for k in range(1, k_max + 1):
        mag = rng.uniform(0, budget / (2.0 * k_max))
        phase = rng.uniform(0, 2 * math.pi)
        coeffs[k_max + k] = mag * np.exp(1j * phase)
        coeffs[k_max - k] = np.conj(coeffs[k_max + k])
    return FourierDensity(coeffs)


def test_criterion_10_identifiability():
    start = time.time()
    rng = np.random.default_rng(1010)
    theta1 = 0.8
    th = FourierSeries.from_dict({1: theta1 + 0j}, cutoff=1)
    worst = -math.inf
    zero_ok = True
    for _ in range(20):
        g1 = _random_band_limited_density(rng)
        g2 = _random_band_limited_density(rng)
        functional = g_separation(theta1, g1, g2, n_max=8)
        if functional < 0.0:
            zero_ok = False
        est = mc_distance(
            MixtureLaw(th, g1.to_grid(512), freqs=(1,)),
            MixtureLaw(th, g2.to_grid(512), freqs=(1,)),
            "TV",
            60_000,
            rng,
        )
        worst = max(worst, functional - est.value - 3.0 * est.std_error)
    g = _random_band_limited_density(rng)
    zero_ok = zero_ok and g_separation(theta1, g, g) == 0.0

    probe = identifiability_probe(
        0.7, uniform_density(), [0.05, 0.1, 0.2], samples=400_000,
        rng=np.random.default_rng(1011),
    )
    slope_ok = 1.0 <= probe["slope"] <= 3.5
    ok = zero_ok and worst <= 0.0 and slope_ok
    elapsed = time.time() - start
    report(
        10,
        ok,
        f"functional >= 0 and zero at equality {zero_ok}; lower-bounds TV "
        f"with margin {-worst:.1e}; perturbation slope {probe['slope']:.3f}, "
        f"{elapsed:.0f}s",
    )

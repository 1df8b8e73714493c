"""Posterior computation over (shape, shift distribution).

Two independent routes to the same posterior: self-normalized
importance sampling from the prior (exact in expectation, usable as an
oracle at small sample sizes) and a data-augmented Gibbs sampler whose
latent per-curve shifts make the shape update conjugate.  The sampler
moves are:

* shifts given shape and mixing law (categorical over atoms or a grid),
* shape coefficients given shifts (complex-Gaussian conjugate refresh),
* activation level via a birth/death Metropolis step whose new
  coefficients are proposed from the prior,
* the mixing law itself: a blocked stick-breaking refresh for the
  Dirichlet prior, or a preconditioned Crank-Nicolson move on the
  underlying Gaussian process for the smooth prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierSeries, project, rotate
from .mixture import MixtureLaw, _bounded_reduce, log_likelihood
from .model import ObservationSet, simulate
from .distances import mc_distance
from .priors import (
    DirichletPriorConfig,
    SievePriorConfig,
    SmoothPriorConfig,
    exp_density,
    gp_draw,
    lambda_pmf,
    sample_dp,
    sample_f,
    sample_smooth,
    sample_smooth_with_process,
    stick_weights,
)
from .shifts import Discrete, ShiftDistribution, categorical, sobolev_radius
from .shifts import uniform_density
from .special import complex_gaussian_array

__all__ = [
    "PriorConfig",
    "PosteriorEnsemble",
    "importance_posterior",
    "GibbsSampler",
    "gibbs_posterior",
    "ball_mass",
    "ContractionConfig",
    "contraction_experiment",
    "align_pair",
    "shift_measure",
]

# pCN step size of the smooth prior's Gaussian-process move
PCN_BETA = 0.1
# closed grid on which shift densities are averaged and compared
G_GRID = 256
# grid on which the Dirichlet prior's atoms are redrawn
SHIFT_GRID = 1024


@dataclass(frozen=True)
class PriorConfig:
    """Joint prior: sieve prior on the shape, one of two priors on shifts."""

    sieve: SievePriorConfig
    shift_prior: DirichletPriorConfig | SmoothPriorConfig


@dataclass
class PosteriorEnsemble:
    """Weighted collection of (shape, shift-distribution) posterior samples."""

    samples: list[tuple[FourierSeries, ShiftDistribution, float]]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        w = np.array([s[2] for s in self.samples])
        if w.size:
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")
            ess = 1.0 / float(np.sum(w**2))
            if ess > w.size + 1e-9:
                raise ValueError("effective sample size cannot exceed the count")
            self.diagnostics.setdefault("ess", ess)

    @property
    def weights(self) -> np.ndarray:
        return np.array([s[2] for s in self.samples])

    def max_cutoff(self) -> int:
        return max(s[0].cutoff for s in self.samples)

    def mean_theta(self, aligned: bool = True) -> FourierSeries:
        """Weighted posterior mean of the shape coefficients.

        With ``aligned=True`` every sample is first rotated into the
        gauge where its first coefficient has zero phase.
        """
        cut = self.max_cutoff()
        acc = np.zeros(2 * cut + 1, dtype=complex)
        for theta, g, w in self.samples:
            c = _gauge(theta) if aligned else None
            acc += w * project(theta if c is None else rotate(theta, c), cut).coeffs
        return FourierSeries(cut, acc)

    def mean_g_grid(self) -> np.ndarray:
        """Weighted posterior mean of the aligned shift densities on the
        closed ``G_GRID``-grid."""
        acc = np.zeros(G_GRID + 1)
        for theta, g, w in self.samples:
            acc += w * align_pair(theta, g)[1].on_grid(G_GRID)
        return acc


def shift_measure(g: ShiftDistribution, delta: float) -> ShiftDistribution:
    """Translate a shift distribution: the new measure of ``A`` is the old
    measure of ``A - delta`` (densities move as ``x -> x - delta``)."""
    return g.translate(float(delta) % 1.0)


def align_pair(
    theta: FourierSeries, g: ShiftDistribution
) -> tuple[FourierSeries, ShiftDistribution]:
    """Rotate a sample into the zero-phase gauge of its first coefficient.

    The mixing law is counter-shifted so the induced observation law is
    unchanged; samples with a vanishing first coefficient are returned
    as they are.
    """
    c = _gauge(theta)
    return (theta, g) if c is None else (rotate(theta, c), shift_measure(g, -c))


def _gauge(theta: FourierSeries) -> float | None:
    """The rotation giving the first coefficient zero phase; None if it vanishes."""
    c1 = theta.coeff(1)
    return None if abs(c1) < 1e-12 else math.atan2(c1.imag, c1.real) / (2.0 * math.pi)


def importance_posterior(
    obs: ObservationSet,
    prior_cfg: PriorConfig,
    draws: int,
    rng: np.random.Generator,
) -> PosteriorEnsemble:
    """Prior draws reweighted by their likelihood (common frequency window).

    Every drawn shape is zero-padded to the observation cutoff before
    the likelihood is evaluated, so weights are comparable across draws
    with different activation levels.  Exact in expectation for any
    integrable posterior functional.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    sample_g = _SHIFT_MOVES[type(prior_cfg.shift_prior)].sample_prior
    thetas = []
    gs = []
    logl = np.empty(draws)
    for d in range(draws):
        theta = sample_f(prior_cfg.sieve, rng)
        g = sample_g(prior_cfg.shift_prior, rng)
        thetas.append(theta)
        gs.append(g)
        law = MixtureLaw(project(theta, obs.cutoff), g)
        logl[d] = log_likelihood(law, obs)
    w = np.exp(logl - logl.max())
    w /= w.sum()
    ess = 1.0 / float(np.sum(w**2))
    diag = {"ess": ess, "low_ess_warning": bool(ess < 10.0)}
    samples = [(thetas[d], gs[d], float(w[d])) for d in range(draws)]
    return PosteriorEnsemble(samples, diag)


class _DirichletShifts:
    """Shift move of the Dirichlet prior: the blocked Gibbs update of the
    truncated stick-breaking measure (Ishwaran & James, JASA 2001).

    The latent shifts live on the measure's atoms.  A refresh draws the
    stick fractions from their Beta conditionals and every atom on the
    ``SHIFT_GRID``-point grid.
    """

    sample_prior = staticmethod(sample_dp)
    pcn_accepted = pcn_proposed = 0  # the refresh is exact; no pCN move

    def __init__(self, cfg: DirichletPriorConfig, ks: np.ndarray, rng):
        self.cfg = cfg
        self.grid = np.arange(SHIFT_GRID) / SHIFT_GRID
        self.grid_basis = _fourier_basis(ks, self.grid)
        g0 = sample_dp(cfg, rng)
        self.atoms = g0.positions.copy()
        # the atoms' basis; once they are redrawn, columns of grid_basis
        self.basis = _fourier_basis(ks, self.atoms)
        self.stick_w = g0.weights.copy()
        base = cfg.base_density
        self.base = np.maximum(np.interp(self.grid, base.grid, base.values), 1e-300)
        self.log_base = np.log(self.base)

    def candidates(self) -> np.ndarray:
        return self.atoms

    def log_weights(self) -> np.ndarray:
        return np.log(np.maximum(self.stick_w, 1e-300))

    def update(self, assignments, y, theta, rng):
        # y and theta hold the active columns only, a centred window of ks
        k = self.cfg.truncation
        counts = np.bincount(assignments, minlength=k).astype(float)
        self.stick_w = stick_weights(counts, self.cfg.total_mass, rng)
        # atom locations: categorical on the grid, conjugate to the
        # per-cluster sums of rotated observations; an empty cluster's sum
        # is zero, so its atom comes from the base density
        cluster_sums = _cluster_sums(assignments, y, k)
        occupied = counts > 0
        idx = np.empty(k, dtype=int)
        u = rng.random(k - int(occupied.sum()))
        idx[~occupied] = categorical(self.base, u)
        b = cluster_sums[occupied] * np.conj(theta)
        rows, factor = _logit_factors(b, self.grid_basis, self.log_base)
        idx[occupied] = _categorical_product(rows, factor, rng)
        self.atoms, self.basis = self.grid[idx], self.grid_basis[:, idx]

    def law(self) -> Discrete:
        return Discrete(self.atoms, self.stick_w / self.stick_w.sum())


class _SmoothShifts:
    """Shift move of the smooth prior: the latent shifts live on the open
    grid ``i / cfg.grid``, and the Gaussian process behind the density
    (on the closed grid) takes a preconditioned Crank-Nicolson step of
    size ``PCN_BETA``, refused outside twice the smoothness ball."""

    sample_prior = staticmethod(sample_smooth)

    def __init__(self, cfg: SmoothPriorConfig, ks: np.ndarray, rng):
        self.cfg = cfg
        self.grid = np.arange(cfg.grid) / cfg.grid
        self.basis = _fourier_basis(ks, self.grid)
        self.g_density, self.w_process = sample_smooth_with_process(cfg, rng)
        self.log_mass = exp_density(self.w_process)[1]  # log int_0^1 e^w
        self.pcn_accepted = self.pcn_proposed = 0

    def candidates(self) -> np.ndarray:
        return self.grid

    def log_weights(self) -> np.ndarray:
        return self.w_process[:-1] - self.log_mass

    def update(self, assignments, y, theta, rng):
        self.pcn_proposed += 1
        fresh = gp_draw(self.cfg, rng)
        proposal = math.sqrt(1.0 - PCN_BETA**2) * self.w_process + PCN_BETA * fresh
        density, log_mass = exp_density(proposal)
        if sobolev_radius(density, self.cfg.nu) > 2.0 * self.cfg.radius:
            return
        log_r = float(np.sum(proposal[assignments] - self.w_process[assignments]))
        log_r -= assignments.size * (log_mass - self.log_mass)
        if math.log(rng.random()) < min(0.0, log_r):
            self.pcn_accepted += 1
            self.w_process, self.g_density, self.log_mass = proposal, density, log_mass

    def law(self) -> ShiftDistribution:
        return self.g_density


# the shift move of each shift prior's config class: the one place the
# samplers look at which shift prior they run
_SHIFT_MOVES = {
    DirichletPriorConfig: _DirichletShifts,
    SmoothPriorConfig: _SmoothShifts,
}


class GibbsSampler:
    """Data-augmented Gibbs sampler over (level, shape, shifts, mixing law).

    The shift prior's part of the chain (candidate shifts and their
    basis, their log weights, the mixing-law refresh given the active
    columns of the curves and shape, and the current law) is one
    move object, ``_DirichletShifts`` or ``_SmoothShifts``, chosen by the
    prior's config class.  All conditional updates are exact given the
    shift grid and truncation.
    """

    def __init__(self, obs: ObservationSet, prior: PriorConfig, rng):
        if obs.cutoff < 1:
            raise ValueError("field 'cutoff': the sampler needs 1 or more, got 0")
        self.rng = rng
        self.n = obs.n
        self.l_max = min(prior.sieve.l_max, obs.cutoff)
        self.ks = np.arange(-self.l_max, self.l_max + 1)
        self.p = self.ks.size
        self.Y = obs.curves[:, obs.cutoff - self.l_max : obs.cutoff + self.l_max + 1]
        self.xi2 = prior.sieve.xi2
        self.level_pmf = lambda_pmf(prior.sieve)
        self.level_accepted = 0
        self.level_proposed = 0

        self.level = 1
        self.theta = np.zeros(self.p, dtype=complex)
        self.theta[self.active] = math.sqrt(self.xi2) * complex_gaussian_array(
            rng, 2 * self.level + 1
        )
        move = _SHIFT_MOVES[type(prior.shift_prior)]
        self.shift_move = move(prior.shift_prior, self.ks, rng)
        # each curve's shift is shift_candidates()[assignments]
        self.assignments = rng.integers(0, self.shift_candidates().size, size=self.n)

    # the shift move's pCN counters (always 0 with the Dirichlet prior)
    pcn_accepted = property(lambda self: self.shift_move.pcn_accepted)
    pcn_proposed = property(lambda self: self.shift_move.pcn_proposed)

    @property
    def active(self) -> slice:
        """The columns of ``ks`` with ``|k| <= level``; theta is zero elsewhere."""
        return slice(self.l_max - self.level, self.l_max + self.level + 1)

    # -- shift update -------------------------------------------------

    def shift_candidates(self) -> np.ndarray:
        return self.shift_move.candidates()

    def _shift_factors(self):
        b = self.Y[:, self.active] * np.conj(self.theta[self.active])
        return _logit_factors(b, self.shift_move.basis, self.shift_move.log_weights())

    def update_shifts(self):
        self.assignments = _categorical_product(*self._shift_factors(), self.rng)

    @property
    def phases(self) -> np.ndarray:
        """``e^{2 pi i k tau_j}`` per curve: the candidate basis's columns."""
        cols = self.shift_move.basis.T[self.assignments]
        return cols[:, : self.p] + 1j * cols[:, self.p :]

    # -- shape update -------------------------------------------------

    @staticmethod
    def conjugate_refresh(s_stat, count: float, xi2: float, rng) -> np.ndarray:
        """Exact coefficient refresh given shifts.

        Posterior of one coefficient with sufficient statistic
        ``S = sum_j y_j e^{+i 2 pi k tau_j}`` is complex Gaussian with
        mean ``S / (count + xi2^{-1})`` and variance ``1 / (count + xi2^{-1})``.
        """
        s_stat = np.atleast_1d(np.asarray(s_stat, dtype=complex))
        prec = count + 1.0 / xi2
        noise = complex_gaussian_array(rng, s_stat.shape)
        return s_stat / prec + noise / math.sqrt(prec)

    def _suff_stats(self) -> np.ndarray:
        return np.sum(self.Y * self.phases, axis=0)

    def update_theta(self):
        s_stat = self._suff_stats()
        draws = self.conjugate_refresh(s_stat[self.active], self.n, self.xi2, self.rng)
        self.theta = np.zeros(self.p, dtype=complex)
        self.theta[self.active] = draws

    # -- activation level ---------------------------------------------

    def _pair_loglik_gain(self, k: int, coeff_pos: complex, coeff_neg: complex):
        """Log-likelihood change of activating ``(theta_k, theta_{-k})``
        versus leaving them at zero, holding the shifts fixed."""
        gain = 0.0
        for freq, coeff in ((k, coeff_pos), (-k, coeff_neg)):
            i = freq + self.l_max
            col = self.Y[:, i]
            # the curves' phases at freq alone: two rows of the basis
            cos, sin = self.shift_move.basis[[i, i + self.p]][:, self.assignments]
            mean = coeff * (cos - 1j * sin)
            gain += float(np.sum(np.abs(col) ** 2 - np.abs(col - mean) ** 2))
        return gain

    def _level_log_ratio(self, new_level: int, coeff_pos, coeff_neg) -> float:
        """MH log ratio for moving between adjacent levels.

        ``new_level = level + 1`` activates the supplied pair (proposed
        from the prior, whose density cancels against the proposal);
        ``new_level = level - 1`` removes the current boundary pair.
        """
        if abs(new_level - self.level) != 1:
            raise ValueError("level moves are between adjacent levels only")
        lam = self.level_pmf
        prior_term = math.log(lam[new_level - 1]) - math.log(lam[self.level - 1])
        gain = self._pair_loglik_gain(max(new_level, self.level), coeff_pos, coeff_neg)
        return prior_term + gain if new_level > self.level else prior_term - gain

    def update_level(self):
        self.level_proposed += 1
        go_up = self.rng.random() < 0.5
        new_level = self.level + 1 if go_up else self.level - 1
        if not 1 <= new_level <= self.l_max:
            return
        k = max(new_level, self.level)
        pair_idx = [k + self.l_max, -k + self.l_max]
        if go_up:
            pair = math.sqrt(self.xi2) * complex_gaussian_array(self.rng, 2)
        else:
            pair = self.theta[pair_idx]
        log_r = self._level_log_ratio(new_level, pair[0], pair[1])
        if math.log(self.rng.random()) < min(0.0, log_r):
            self.level_accepted += 1
            self.theta[pair_idx] = pair if go_up else 0.0
            self.level = new_level

    # -- mixing law ----------------------------------------------------

    def update_shift_distribution(self):
        a = self.active
        self.shift_move.update(self.assignments, self.Y[:, a], self.theta[a], self.rng)

    # -- driver ---------------------------------------------------------

    def current_g(self) -> ShiftDistribution:
        return self.shift_move.law()

    def current_theta(self) -> FourierSeries:
        return FourierSeries(self.level, self.theta[self.active].copy())

    def sweep(self):
        self.update_shifts()
        self.update_theta()
        self.update_level()
        self.update_shift_distribution()

    def run(self, steps: int, burn_in: int, thin: int) -> PosteriorEnsemble:
        if steps < 1:
            raise ValueError("need at least one sweep")
        kept = []
        for step in range(steps):
            self.sweep()
            if step >= burn_in and (step - burn_in) % thin == 0:
                kept.append((self.current_theta(), self.current_g()))
        weight = 1.0 / len(kept)
        samples = [(t, g, weight) for t, g in kept]
        diag = {
            "level_acceptance": self.level_accepted / max(1, self.level_proposed),
            "pcn_acceptance": self.pcn_accepted / max(1, self.pcn_proposed),
            "pcn_beta": PCN_BETA,
            "kept": len(kept),
        }
        return PosteriorEnsemble(samples, diag)


def _cluster_sums(assignments: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Sum of the rows of ``y`` in each of ``k`` clusters: one ``bincount`` per
    real column, adding in input order as ``np.add.at`` does, so the same bits."""
    cols = [np.bincount(assignments, col, k) for col in y.view(float).T]
    return np.column_stack(cols).view(complex)


def _fourier_basis(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The ``(2p, len(x))`` real basis ``[cos; sin](2 pi k x)`` over ``ks``."""
    arg = 2.0 * np.pi * np.outer(ks, x)
    return np.concatenate([np.cos(arg), np.sin(arg)])


def _logit_factors(b: np.ndarray, basis: np.ndarray, log_w: np.ndarray):
    """``rows`` and ``factor`` with ``rows @ factor`` each row's shift logits
    less a bound on them.

    ``b`` holds a centred window of the columns of ``y conj(theta)`` (the
    active frequencies), ``basis`` is ``[cos; sin](2 pi k x)`` over all of
    them.  The logit of candidate ``x_j`` is ``log w_j + 2 Re sum_k b_k
    e^{2 pi i k x_j}``, at most ``s = 2 sum_k |b_k| + max_j log w_j``, so
    ``rows = [2 Re b, -2 Im b, 1, -s]`` and ``factor = [cos; sin; log w; 1]``
    at the window's rows of the basis."""
    p, width = basis.shape[0] // 2, b.shape[1]
    lo = (p - width) // 2
    factor = np.vstack(
        [basis[lo : lo + width], basis[p + lo : p + lo + width], log_w, np.ones_like(log_w)]
    )
    s = 2.0 * np.abs(b).sum(axis=1) + log_w.max()
    rows = np.hstack([2.0 * b.real, -2.0 * b.imag, np.ones((b.shape[0], 1)), -s[:, None]])
    return rows, factor


def _categorical_product(rows: np.ndarray, factor: np.ndarray, rng) -> np.ndarray:
    """One index per row with probability proportional to ``exp`` of the
    logits ``rows @ factor`` (the last column of ``rows`` a shift against the
    last row of ``factor``, all ones), without forming them: one uniform per
    row is drawn first, then :func:`mixture._bounded_reduce` runs the
    two-level search of :func:`_inverse_cdf` on each block, redoing a row
    whose total is below ``e^-600`` with its exact maximum and the same
    uniform."""
    n = rows.shape[0]
    u, idx = rng.random(n), np.empty(n, dtype=int)
    _bounded_reduce(rows, factor, _inverse_cdf, u, idx)
    return idx


def _inverse_cdf(weights: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write to ``out`` one index per row of the nonnegative ``weights`` for
    its uniform ``u``, by a two-level inverse CDF, and return the row totals.

    ``u`` scaled by the row total picks a block of ``isqrt(k)`` entries and
    its remainder an entry in it; each is held below its total, so no
    zero-probability index.  Rows are zero-padded to whole blocks, so the
    block sums are one ``einsum`` and the chosen blocks one gather over a
    reshape."""
    rows, k = weights.shape
    width, r = math.isqrt(k), np.arange(rows)
    pad = -k % width
    if pad:  # a partial last block
        weights = np.hstack([weights, np.zeros((rows, pad))])
    blocks = weights.reshape(rows, -1, width)
    cdf = np.zeros((rows, blocks.shape[1] + 1))  # cumulative block sums after a 0
    np.cumsum(np.einsum("ijk->ij", blocks), axis=1, out=cdf[:, 1:])
    total = cdf[:, -1]
    u = u * total
    # a zero total (a bound-shifted row to be redone) would count every block
    block = np.minimum(_search(cdf[:, 1:], u), blocks.shape[1] - 1)
    u -= cdf[r, block]
    inside = blocks[r, block]
    out[:] = block * width + _search(np.cumsum(inside, axis=1, out=inside), u)
    return total


def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of cumulative masses ``<= u`` per row, ``u`` held below the total."""
    u = np.minimum(u, np.nextafter(cdf[:, -1], 0.0))
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def gibbs_posterior(
    obs: ObservationSet,
    prior_cfg: PriorConfig,
    steps: int,
    rng: np.random.Generator,
    max_kept: int = 400,
) -> PosteriorEnsemble:
    """Run the Gibbs sampler and return the thinned post-burn-in ensemble."""
    sampler = GibbsSampler(obs, prior_cfg, rng)
    burn = steps // 3
    thin = max(1, (steps - burn) // max_kept)
    return sampler.run(steps, burn_in=burn, thin=thin)


def ball_mass(
    ens: PosteriorEnsemble,
    truth: MixtureLaw,
    radius: float,
    metric: str,
    mc_samples: int,
    rng: np.random.Generator,
) -> float:
    """Posterior mass of the ``metric``-ball of the given radius.

    Metric "H" thresholds the square root of the squared-Hellinger
    estimate; per-sample distances are Monte-Carlo estimates at the
    common frequency window.
    """
    if radius == math.inf:
        return 1.0
    dists = _sample_distances(ens, truth, metric, mc_samples, rng)
    return sum((w for (_, _, w), d in zip(ens.samples, dists) if d <= radius), 0.0)


def _sample_distances(ens, truth: MixtureLaw, metric: str, mc_samples: int, rng):
    """Monte-Carlo ``metric`` distance from each sample's law to ``truth``,
    in sample order, at their common frequency window; "H" is the square
    root of the squared-Hellinger estimate."""
    cut = max(ens.max_cutoff(), truth.theta.cutoff)
    truth = MixtureLaw(project(truth.theta, cut), truth.g)
    base = "H2" if metric == "H" else metric
    laws = [MixtureLaw(project(theta, cut), g) for theta, g, _ in ens.samples]
    est = [mc_distance(law, truth, base, mc_samples, rng).value for law in laws]
    return np.sqrt(np.maximum(est, 0.0)) if metric == "H" else np.asarray(est)


@dataclass(frozen=True)
class ContractionConfig:
    """Settings of the posterior-shrinkage experiment that callers vary.

    The rest is fixed: each row's prior is the adaptive sieve with a
    Dirichlet shift prior (mass 1, truncation 100, uniform base density
    on a 512-grid), the chain keeps at most 80 draws, each kept draw's
    Hellinger distance takes 2,000 Monte-Carlo samples, and shift
    densities are compared on the ``G_GRID``-grid.  The noise-free
    control run (240 sweeps) uses a point mass at 0.3: with a
    spread-out shift law, zero-noise data is an orbit-supported measure
    whose best fit under the unit-noise likelihood is *not* the true
    pair, so only the fully degenerate configuration isolates the
    prior-shrinkage bias.  Its sample size is chosen so that the bias
    ``xi^{-2} / (n + xi^{-2}) ||theta||`` is a few percent.
    """

    s: float = 1.0
    sigma: float = 1.0
    cutoff: int = 4
    steps: int = 600
    control_n: int = 6000


def _rate(n: int, s: float) -> float:
    return n ** (-s / (2.0 * s + 2.0)) * math.log(n)


def _experiment_row(
    truth_theta: FourierSeries,
    truth_g: ShiftDistribution,
    n: int,
    sigma: float,
    steps: int,
    cfg: ContractionConfig,
    rng: np.random.Generator,
) -> dict:
    seed = int(rng.integers(2**31 - 1))
    obs = simulate(truth_theta, truth_g, n, cfg.cutoff, sigma=sigma, seed=seed)
    dp = DirichletPriorConfig(uniform_density(512), total_mass=1.0, truncation=100)
    prior = PriorConfig(SievePriorConfig.adaptive(n), dp)
    ens = gibbs_posterior(obs, prior, steps, rng, max_kept=80)
    dhs = _sample_distances(ens, MixtureLaw(truth_theta, truth_g), "H", 2000, rng)
    cut = max(ens.max_cutoff(), truth_theta.cutoff)
    truth_coeffs = project(truth_theta, cut).coeffs
    mean_aligned = project(ens.mean_theta(aligned=True), cut).coeffs
    mean_raw = project(ens.mean_theta(aligned=False), cut).coeffs
    g_mean = ens.mean_g_grid()
    t = np.linspace(0.0, 1.0, G_GRID + 1)
    g_truth = truth_g.on_grid(G_GRID)
    g_err = math.sqrt(float(np.trapezoid((g_mean - g_truth) ** 2, t)))
    return {
        "n": n,
        "sigma": sigma,
        "eps_n": _rate(n, cfg.s),
        "median_dh": float(np.median(dhs)),
        "f_err_aligned": float(np.linalg.norm(mean_aligned - truth_coeffs)),
        "f_err_raw": float(np.linalg.norm(mean_raw - truth_coeffs)),
        "g_err": g_err,
        "level_acceptance": ens.diagnostics.get("level_acceptance", math.nan),
    }


def contraction_experiment(
    truth_theta: FourierSeries,
    truth_g: ShiftDistribution,
    n_list: list[int],
    cfg: ContractionConfig,
    rng: np.random.Generator,
    include_control: bool = True,
) -> list[dict]:
    """Posterior shrinkage table over growing sample sizes.

    One row per ``n`` (fresh prior per ``n`` since its variance depends
    on the sample size), plus an optional noise-free control run whose
    aligned shape error isolates the prior-shrinkage bias.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("sample sizes must be increasing")
    rows = [
        _experiment_row(truth_theta, truth_g, n, cfg.sigma, cfg.steps, cfg, rng)
        for n in n_list
    ]
    if include_control:
        point, n = Discrete.point_mass(0.3), cfg.control_n
        rows.append(_experiment_row(truth_theta, point, n, 0.0, 240, cfg, rng))
    return rows

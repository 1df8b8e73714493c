"""Posterior computation over (shape, shift distribution).

Two independent routes to the same posterior: self-normalized
importance sampling from the prior (exact in expectation, usable as an
oracle at small sample sizes) and a data-augmented Gibbs sampler whose
latent per-curve shifts make the shape update conjugate.  The sampler
moves are:

* shifts given shape and mixing law: with the Dirichlet prior a
  categorical over the atoms by inverse CDF; with the smooth
  prior exact rejection from a block envelope on the grid (``isqrt(grid)``
  points per block, each curve's trigonometric logit bounded on a block by
  its value at the centre plus ``half-width * sum_k 4 pi |k| |b_k|``; a curve
  whose slack exceeds ``_SLACK_MAX`` takes the inverse CDF),
* shape coefficients given shifts (complex-Gaussian conjugate refresh),
* activation level via a birth/death Metropolis step whose new
  coefficients are proposed from the prior and whose ratio reads the
  sweep's ``S`` (one sum per frequency, set by the shape refresh),
* the mixing law itself: a blocked stick-breaking refresh for the
  Dirichlet prior, or a preconditioned Crank-Nicolson move on the
  underlying Gaussian process for the smooth prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierSeries, project, rotate
from .mixture import _SUM_FLOOR, MixtureLaw, _bounded_reduce, _draw_factor, _fourier_basis
from .mixture import _row_reduce, _shifted_rows, _window, log_likelihood
from .model import ObservationSet, simulate
from .distances import mc_distance
from .priors import (
    DirichletPriorConfig,
    SievePriorConfig,
    SmoothPriorConfig,
    _require,
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
]

# pCN step size of the smooth prior's Gaussian-process move
PCN_BETA = 0.1
# closed grid on which shift densities are averaged and compared
G_GRID = 256
# envelope slack (nats) above which a curve's smooth-prior shift draw takes
# the inverse CDF: rejection accepts at least e^{-2 slack} of its proposals
_SLACK_MAX = 1.5
# proposals per pending curve in each rejection round after the first
_RETRY_PROPOSALS = 4
# largest sum of relative weights past an exact draw's certified prefix of candidates
_PREFIX_TOL = 1e-9


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


def align_pair(
    theta: FourierSeries, g: ShiftDistribution
) -> tuple[FourierSeries, ShiftDistribution]:
    """Rotate a sample into the zero-phase gauge of its first coefficient.

    The mixing law is counter-shifted so the induced observation law is
    unchanged; samples with a vanishing first coefficient are returned
    as they are.
    """
    c = _gauge(theta)
    return (theta, g) if c is None else (rotate(theta, c), g.translate(-c % 1.0))


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
    _require(draws >= 1, "draws", "must be at least 1", draws)
    sample_g = _SHIFT_MOVES[type(prior_cfg.shift_prior)].sample_prior
    # the likelihood draws nothing: all pairs first is the per-draw stream
    pairs = [(sample_f(prior_cfg.sieve, rng), sample_g(prior_cfg.shift_prior, rng))
             for _ in range(draws)]
    logl = np.array([log_likelihood(MixtureLaw(project(theta, obs.cutoff), g), obs)
                     for theta, g in pairs])
    w = np.exp(logl - logl.max())
    w /= w.sum()
    ess = 1.0 / float(np.sum(w**2))
    if ess > w.size + 1e-9:
        raise ValueError("effective sample size cannot exceed the count")
    diag = {"ess": ess, "low_ess_warning": bool(ess < 10.0)}
    return PosteriorEnsemble([(theta, g, float(wd)) for (theta, g), wd in zip(pairs, w)], diag)


class _DirichletShifts:
    """Shift move of the Dirichlet prior: the blocked Gibbs update of the
    truncated stick-breaking measure (Ishwaran & James, JASA 2001).

    The latent shifts live on the measure's atoms, and the atoms on the
    base law's own nodes, where ``sample_dp`` draws them.  A refresh draws
    the stick fractions from their Beta conditionals and every atom on
    those nodes.
    """

    sample_prior = staticmethod(sample_dp)
    pcn_accepted = pcn_proposed = 0  # the refresh is exact; no pCN move

    def __init__(self, cfg: DirichletPriorConfig, ks: np.ndarray, rng):
        self.cfg = cfg
        self.grid, self.base = cfg.base_density.nodes()
        with np.errstate(divide="ignore"):  # log 0 = -inf: zero-weight nodes
            self.log_base = np.log(self.base)
        self.grid_basis = _fourier_basis(ks, self.grid)
        g0 = sample_dp(cfg, rng)
        idx = np.searchsorted(self.grid, g0.positions)
        self.atoms, self.basis = self.grid[idx], self.grid_basis[:, idx]
        self.stick_w = g0.weights.copy()
        self.atom_factors = {}  # the atom draw's factor at each window width met

    def candidates(self) -> np.ndarray:
        return self.atoms

    def log_weights(self) -> np.ndarray:
        return np.log(np.maximum(self.stick_w, 1e-300))

    def draw(self, b: np.ndarray, rng) -> np.ndarray:
        """One atom index per row of ``b`` (a centred window of the columns of
        ``y conj(theta)``) from its conditional, by the inverse CDF."""
        return _exact_draw(b, _draw_factor(self.basis, b.shape[1], self.log_weights()), rng)

    def update(self, assignments, y, theta, rng):
        # y and theta hold the active columns only, a centred window of ks
        k = self.cfg.truncation
        counts = np.bincount(assignments, minlength=k).astype(float)
        self.stick_w = stick_weights(counts, self.cfg.total_mass, rng)
        # atom locations: categorical on the base nodes, conjugate to the
        # per-cluster sums of rotated observations; an empty cluster's sum
        # is zero, so its atom comes from the base law
        cluster_sums = _cluster_sums(assignments, y, k)
        occupied = counts > 0
        idx = np.empty(k, dtype=int)
        u = rng.random(k - int(occupied.sum()))
        idx[~occupied] = categorical(self.base, u)
        b = cluster_sums[occupied] * np.conj(theta)
        factor = self.atom_factors.get(b.shape[1])
        if factor is None:
            factor = _draw_factor(self.grid_basis, b.shape[1], self.log_base)
            self.atom_factors[b.shape[1]] = factor
        idx[occupied] = _exact_draw(b, factor, rng)
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
        # the shift draw's blocks of isqrt(grid) points: their edges, the basis
        # at their centres, and the largest distance from a centre to its points
        self.block = block = math.isqrt(cfg.grid)
        edges = np.append(np.arange(0, cfg.grid, block), cfg.grid)
        centres = (edges[:-1] + edges[1:] - 1) / (2.0 * cfg.grid)
        self.centre_basis = _fourier_basis(ks, centres)
        self.half_width = (block - 1) / (2.0 * cfg.grid)
        self.g_density, self.w_process = sample_smooth_with_process(cfg, rng)
        self.log_mass = exp_density(self.w_process)[1]  # log int_0^1 e^w
        self.pcn_accepted = self.pcn_proposed = 0

    def candidates(self) -> np.ndarray:
        return self.grid

    def log_weights(self) -> np.ndarray:
        return self.w_process[:-1] - self.log_mass

    def draw(self, b: np.ndarray, rng) -> np.ndarray:
        """One grid index per row of ``b`` (a centred window of the columns of
        ``y conj(theta)``) from its conditional ``g(x) e^{t(x)}``, ``t(x) = 2 Re
        sum_k b_k e^{2 pi i k x}``, by rejection from a block envelope
        (Devroye, Non-Uniform Random Variate Generation, 1986, II.3).

        ``|t'| <= sum_k 4 pi |k| |b_k|``, so on a block ``t`` is at most its
        value at the centre plus the row's slack, ``half_width`` times that.
        A block is proposed in proportion to its ``g``-mass times ``e^`` that
        bound, a point in it from ``g`` alone, and the point is accepted with
        probability ``e^{t(x) - bound}``, at least ``e^{-2 slack}``.  Rows
        whose slack exceeds ``_SLACK_MAX`` are drawn first, by the inverse
        CDF.  Each round draws three uniforms per proposal; after the first,
        a pending row makes ``_RETRY_PROPOSALS`` proposals and keeps the
        first accepted."""
        n, width = b.shape
        absb, log_g = np.abs(b), self.log_weights()
        # 1e-12 |b_k| more guards the bound against the rounding of t
        freqs = self.half_width * 4.0 * np.pi * np.abs(np.arange(width) - width // 2)
        slack = absb @ (freqs + 1e-12)
        idx = np.empty(n, dtype=int)
        far = slack > _SLACK_MAX
        near = np.flatnonzero(~far)
        if near.size < n:
            idx[far] = _exact_draw(b[far], _draw_factor(self.basis, width, log_g), rng)
            b, absb, slack = b[near], absb[near], slack[near]
        coef = _shifted_rows(b, absb, log_g)[:, : 2 * width]
        bound = coef @ np.vstack(_window(self.centre_basis, width))
        # g's cumulative masses within each block, from the block's largest
        # weight: a light block after heavy ones keeps its mass (a difference
        # of cumulative masses from 0 would round it away), and a point
        # inside a block is a search of its own row
        rows_g = np.full(self.centre_basis.shape[1] * self.block, -np.inf)
        rows_g[: log_g.size] = log_g
        rows_g = rows_g.reshape(-1, self.block)
        peak = rows_g.max(axis=1)
        peak[np.isneginf(peak)] = 0.0  # a block of zero mass
        cdf = np.zeros((peak.size, self.block + 1))
        np.cumsum(np.exp(rows_g - peak[:, None]), axis=1, out=cdf[:, 1:])
        with np.errstate(divide="ignore"):
            log_w = bound + (peak + np.log(cdf[:, -1]))
        outer = np.cumsum(np.exp(log_w - log_w.max(axis=1, keepdims=True)), axis=1)
        # a row's slack is the same on all its blocks: it enters the acceptance only
        bound += slack[:, None]
        points = np.vstack(_window(self.basis, width)).T.copy()
        pending, tries = np.arange(b.shape[0]), 1
        while pending.size:
            rows = np.repeat(pending, tries)
            u = rng.random((3, rows.size))
            blk = _search(outer[rows], u[0] * outer[rows, -1])
            x = blk * self.block + _search(cdf[blk], u[1] * cdf[blk, -1]) - 1
            t = np.einsum("ij,ij->i", coef[rows], points[x])
            ok = (u[2] < np.exp(t - bound[rows, blk])).reshape(-1, tries)
            hit = ok.any(axis=1)
            idx[near[pending[hit]]] = x.reshape(-1, tries)[hit, ok[hit].argmax(axis=1)]
            pending, tries = pending[~hit], _RETRY_PROPOSALS
        return idx

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
    basis, their log weights, the curves' shift draw, the mixing-law
    refresh given the active columns of the curves and shape, and the
    current law) is one
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
        self._suff_stats()  # so that the level move may run first

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

    def update_shifts(self):
        b = self.Y[:, self.active] * np.conj(self.theta[self.active])
        self.assignments = self.shift_move.draw(b, self.rng)

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

    def _suff_stats(self):
        """The sweep's ``s_stat``: ``S_k = sum_j y_jk e^{2 pi i k tau_j}`` at every
        frequency, from the candidate basis's columns at the assignments."""
        cols = self.shift_move.basis.T[self.assignments]
        self.s_stat = np.sum(self.Y * (cols[:, : self.p] + 1j * cols[:, self.p :]), axis=0)

    def update_theta(self):
        self._suff_stats()  # valid until the mixing-law refresh moves the shifts
        draws = self.conjugate_refresh(self.s_stat[self.active], self.n, self.xi2, self.rng)
        self.theta = np.zeros(self.p, dtype=complex)
        self.theta[self.active] = draws

    # -- activation level ---------------------------------------------

    def _level_log_ratio(self, new_level: int, coeff_pos, coeff_neg) -> float:
        """MH log ratio for moving between adjacent levels.

        ``new_level = level + 1`` activates the supplied pair (proposed
        from the prior, whose density cancels against the proposal);
        ``new_level = level - 1`` removes the current boundary pair.  The pair's
        log-likelihood gain is ``sum_{f = +-k} 2 Re(conj(c_f) S_f) - n |c_f|^2``.
        """
        lam = self.level_pmf
        prior_term = math.log(lam[new_level - 1]) - math.log(lam[self.level - 1])
        k = max(new_level, self.level)
        s_pos, s_neg = self.s_stat[[self.l_max + k, self.l_max - k]].tolist()
        gain = sum(2.0 * (c.conjugate() * s).real - self.n * abs(c) ** 2
                   for c, s in ((complex(coeff_pos), s_pos), (complex(coeff_neg), s_neg)))
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
        _require(steps >= 1, "steps", "must be at least 1", steps)
        _require(0 <= burn_in < steps, "burn_in", f"must lie in [0, {steps})", burn_in)
        _require(thin >= 1, "thin", "must be at least 1", thin)
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


def _exact_draw(b: np.ndarray, factor: np.ndarray, rng) -> np.ndarray:
    """One candidate index per row of ``b`` from its shift conditional,
    without forming the logits.

    ``b`` holds a centred window of the columns of ``y conj(theta)`` (the
    active frequencies), ``factor`` is :func:`mixture._draw_factor` at its
    width: the rows of :func:`mixture._shifted_rows` times ``factor`` are the
    logits ``log w_j + 2 Re sum_k b_k e^{2 pi i k x_j}`` less their bound ``s
    = 2 sum_k |b_k| + max_j log w_j``, each ``exp`` at most ``w_j / max w``.
    One uniform per row is drawn first.  ``m`` is the shortest prefix whose
    suffix of ``w_j / max w`` is at most ``_PREFIX_TOL``: a row's total lies
    between its head total (``m`` columns, whose cumulative sums are the full
    row's first ones) and that plus twice the suffix, ``k`` ulps wider.  A row
    keeps its head index when the count of cumulative masses at or below the
    scaled uniform is the same at both ends, below ``m``, and its head total
    is at least ``e^-600``.  The other rows, and all rows when the last weight
    alone exceeds the tolerance (an O(1) test), take
    :func:`mixture._bounded_reduce` with :func:`_inverse_cdf` on all ``k``
    columns and the same uniforms.  So the draws are the full inverse CDF's,
    bit for bit; on ``contraction-dp``'s chains the median ``m`` is about 28
    of 100."""
    n, k, log_w = b.shape[0], factor.shape[1], factor[-2]
    top = log_w.max()
    rows = _shifted_rows(b, np.abs(b), log_w)
    u, idx = rng.random(n), np.empty(n, dtype=int)
    rest = np.arange(n)
    if math.exp(log_w[-1] - top) <= _PREFIX_TOL:
        suffix = np.cumsum(np.exp(log_w[::-1] - top))[::-1]
        m = int(np.count_nonzero(suffix > _PREFIX_TOL))
        tail, sure = 2.0 * suffix[m], np.zeros(n, dtype=bool)

        def head(w, at):
            total = _inverse_cdf(np.exp(w, out=w), u, idx, at)  # w: the cumulative sums
            hi = total * (1.0 + k * np.finfo(float).eps) + tail
            r = np.flatnonzero(idx[at] < m)  # their next cumulative mass is in the head
            v = np.minimum(u[at][r] * hi[r], np.nextafter(hi[r], 0.0))
            sure[at][r] = (w[r, idx[at][r]] > v) & (total[r] >= _SUM_FLOOR)
            return total

        _row_reduce(rows, factor[:, :m], head)
        rest = np.flatnonzero(~sure)
    if rest.size:
        _bounded_reduce(rows[rest], factor, lambda w, at: _inverse_cdf(w, u, idx, rest[at]))
    return idx


def _inverse_cdf(weights: np.ndarray, u: np.ndarray, out: np.ndarray, at) -> np.ndarray:
    """Write to ``out[at]`` one index per row of the nonnegative ``weights`` for
    its uniform ``u[at]`` by inverse CDF, and return the row totals.

    The cumulative sums overwrite ``weights``; ``u`` scaled by the row total
    is held below it, so no zero-probability index."""
    cdf = np.cumsum(weights, axis=1, out=weights)
    total = cdf[:, -1]
    out[at] = _search(cdf, u[at] * total)
    return total


def _search(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of cumulative masses ``<= u`` per row, ``u`` held below the total."""
    u = np.minimum(u, np.nextafter(cdf[:, -1], 0.0))
    return (cdf <= u[:, None]).sum(axis=1)


def gibbs_posterior(
    obs: ObservationSet,
    prior_cfg: PriorConfig,
    steps: int,
    rng: np.random.Generator,
    max_kept: int = 400,
) -> PosteriorEnsemble:
    """Run the Gibbs sampler and return the thinned post-burn-in ensemble."""
    _require(max_kept >= 1, "max_kept", "must be at least 1", max_kept)
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

"""Distances between mixture laws: closed forms, Monte Carlo, and bounds.

The closed forms cover the point-mixture (single rotation) case; the
Monte-Carlo estimators handle arbitrary mixing distributions.  Total
variation and squared Hellinger use importance sampling from the
equal-weight average of the two laws, which keeps every integrand in
[0, 1] and gives clean root-N error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, h1_norm, project
from .mixture import MixtureLaw, log_mixture_density, sample_law
from .shifts import ShiftDistribution, wasserstein1
from .special import normal_cdf

__all__ = [
    "DistanceEstimate",
    "NonFiniteDensityError",
    "tv_gaussians",
    "hellinger_point_shift",
    "mc_distance",
    "check_sandwich",
    "hellinger_estimate",
    "SandwichReport",
    "tv_bound_f",
    "tv_bound_g",
    "e1_bound",
    "e3_bound",
]

_METRICS = ("TV", "H2", "KL", "V")
_RATIO_FLOOR = 1e-300
# an inequality holds when it holds within this many combined standard errors
N_SIGMA = 3.0


class NonFiniteDensityError(RuntimeError):
    """A Monte-Carlo density ratio came out NaN or infinite."""


@dataclass(frozen=True)
class DistanceEstimate:
    """A Monte-Carlo distance value, its standard error and sample count.

    TV and squared-Hellinger values lie in the metric's range ([0, 1] and
    [0, 2]), since every integrand does and a mean stays within its range.
    """

    value: float
    std_error: float
    samples: int = 0


def tv_gaussians(z1: np.ndarray, z2: np.ndarray) -> float:
    """Total variation between standard complex Gaussians at two means.

    With per-coordinate real/imaginary variance 1/2, projecting onto the
    mean-difference direction gives ``2 Phi(||z1 - z2|| / sqrt(2)) - 1``.
    """
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    if z1.shape != z2.shape:
        raise ValueError("mean vectors must share a dimension")
    return 2.0 * normal_cdf(float(np.linalg.norm(z1 - z2)) / math.sqrt(2.0)) - 1.0


def hellinger_point_shift(f: FourierSeries, f_tilde: FourierSeries) -> float:
    """Hellinger distance between the two point-mixture laws of ``f``, ``f~``.

    Uses the closed form ``d_H^2 = 2 (1 - exp(-||f - f~||^2 / 4))``.
    """
    cut = max(f.cutoff, f_tilde.cutoff)
    diff = project(f, cut).coeffs - project(f_tilde, cut).coeffs
    sq = float(np.sum(np.abs(diff) ** 2))
    return math.sqrt(2.0 * -math.expm1(-sq / 4.0))


def mc_distance(
    p: MixtureLaw,
    q: MixtureLaw,
    metric: str,
    samples: int,
    rng: np.random.Generator,
) -> DistanceEstimate:
    """Monte-Carlo distance estimate between two laws of equal dimension.

    TV and H2 draw from the average law ``(p + q) / 2`` so the integrand
    is bounded; KL and its second moment V are sampled under ``p`` with
    density ratios floored at 1e-300.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}")
    if not np.array_equal(p.active_freqs, q.active_freqs):
        raise ValueError("laws must share their active frequencies")
    if samples < 2:
        raise ValueError("need at least two samples")

    if metric in ("TV", "H2"):
        n_p = int(rng.binomial(samples, 0.5))
        parts = []
        if n_p > 0:
            parts.append(sample_law(p, n_p, rng))
        if samples - n_p > 0:
            parts.append(sample_law(q, samples - n_p, rng))
        z = np.concatenate(parts)
    else:
        z = sample_law(p, samples, rng)
    lp = log_mixture_density(p, z)
    lq = lp if q is p else log_mixture_density(q, z)  # a law against itself: one evaluation
    if metric in ("KL", "V"):
        if not np.all(np.isfinite(lp)):
            raise NonFiniteDensityError("non-finite sample density under p")
        d = lp - np.maximum(lq, lp + math.log(_RATIO_FLOOR))
        h = d if metric == "KL" else d**2
    else:
        # both integrands depend on the log ratio only: |p - q| / (p + q) =
        # tanh(|d| / 2) and 2 - 4 sqrt(pq) / (p + q) = 2 - 2 / cosh(d / 2)
        d = lp - lq
        if metric == "TV":
            h = np.tanh(np.abs(d) / 2.0)
        else:
            with np.errstate(over="ignore"):  # cosh -> inf gives h = 2
                h = 2.0 - 2.0 / np.cosh(d / 2.0)
        if not np.all(np.isfinite(h)):
            raise NonFiniteDensityError("non-finite density ratio in TV/H2 estimate")
    value = float(np.mean(h))
    se = float(np.std(h, ddof=1) / math.sqrt(samples))
    return DistanceEstimate(value, se, samples)


@dataclass(frozen=True)
class SandwichReport:
    """Joint check of the TV/Hellinger sandwich and Pinsker's inequality."""

    tv: DistanceEstimate
    h2: DistanceEstimate
    kl: DistanceEstimate
    lower_ok: bool
    upper_ok: bool
    pinsker_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.pinsker_ok


def check_sandwich(
    p: MixtureLaw,
    q: MixtureLaw,
    samples: int,
    rng: np.random.Generator,
) -> SandwichReport:
    """Verify ``d_H^2 / 2 <= d_TV <= d_H`` and ``sqrt(d_KL / 2) >= d_TV``.

    Each link is accepted when it holds within ``N_SIGMA`` combined
    standard errors of the Monte-Carlo estimates involved.
    """
    tv = mc_distance(p, q, "TV", samples, rng)
    h2 = mc_distance(p, q, "H2", samples, rng)
    kl = mc_distance(p, q, "KL", samples, rng)
    dh = hellinger_estimate(h2)
    lower_ok = 0.5 * h2.value <= tv.value + N_SIGMA * math.hypot(
        0.5 * h2.std_error, tv.std_error
    )
    upper_ok = tv.value <= dh.value + N_SIGMA * math.hypot(dh.std_error, tv.std_error)
    kl_pos = max(kl.value, 0.0)
    pinsker = math.sqrt(kl_pos / 2.0)
    pinsker_se = (
        kl.std_error / (2.0 * math.sqrt(2.0 * kl_pos))
        if kl_pos > 1e-6
        else math.sqrt(kl.std_error)
    )
    pinsker_ok = pinsker >= tv.value - N_SIGMA * math.hypot(pinsker_se, tv.std_error)
    return SandwichReport(tv, h2, kl, lower_ok, upper_ok, pinsker_ok)


def hellinger_estimate(h2: DistanceEstimate) -> DistanceEstimate:
    """``d_H = sqrt(H2)`` from a squared-Hellinger estimate."""
    dh = math.sqrt(max(h2.value, 0.0))
    # delta method: se(sqrt(x)) = se(x) / (2 sqrt(x)), guarded near zero
    dh_se = h2.std_error / (2.0 * dh) if dh > 1e-6 else math.sqrt(h2.std_error)
    return DistanceEstimate(dh, dh_se, h2.samples)


def tv_bound_f(f: FourierSeries, f_tilde: FourierSeries) -> float:
    """``d_TV(P_{f,g}, P_{f~,g}) <= ||f - f~|| / sqrt(2)`` for any shared ``g``."""
    cut = max(f.cutoff, f_tilde.cutoff)
    diff = project(f, cut).coeffs - project(f_tilde, cut).coeffs
    return float(np.linalg.norm(diff)) / math.sqrt(2.0)


def tv_bound_g(
    f: FourierSeries, g: ShiftDistribution, g_tilde: ShiftDistribution
) -> float:
    """Transport bound ``sqrt(2) pi ||f||_H1 W_1(g, g~)`` on the TV in ``g``."""
    return math.sqrt(2.0) * math.pi * h1_norm(f) * wasserstein1(g, g_tilde)


def e1_bound(f0: FourierSeries, level: int) -> float:
    """Hellinger bound ``sqrt(2) ||f0 - f0_l||`` for truncating the shape."""
    tail = f0.coeffs - project(project(f0, level), f0.cutoff).coeffs
    return math.sqrt(2.0) * float(np.linalg.norm(tail))


def e3_bound(f: FourierSeries, f0_l: FourierSeries) -> float:
    """Hellinger bound ``2^{1/4} sqrt(||f - f0_l||)`` at a common mixing law."""
    cut = max(f.cutoff, f0_l.cutoff)
    diff = project(f, cut).coeffs - project(f0_l, cut).coeffs
    return 2.0**0.25 * math.sqrt(float(np.linalg.norm(diff)))

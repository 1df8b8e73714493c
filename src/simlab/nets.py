"""Constructive hardness and approximation objects.

* a Fano-style net of (shape, shift-density) pairs whose induced
  observation laws are nearly indistinguishable while the parameters
  stay far apart,
* an explicit Hellinger bracketing of the rotation orbit of a Gaussian
  location family,
* finite atomic measures matching the trigonometric moments of a given
  mixing law,
* numerical identifiability probes built on the modified-Bessel
  quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distances import DistanceEstimate, mc_distance
from .fourier import FourierSeries, h1_norm
from .mixture import MixtureLaw
from .model import task_map
from .shifts import Discrete, FourierDensity, ShiftDistribution, fourier_coeff
from .special import bessel_i_scaled_orders

__all__ = [
    "FanoNet",
    "fano_f_net",
    "fano_g_net",
    "make_fano_net",
    "FanoCertificate",
    "fano_tv_certificate",
    "Bracket",
    "bracketing_net",
    "bracket_count_bound",
    "bracket_hellinger",
    "MomentMatchError",
    "finite_mixture_match",
    "g_separation",
    "identifiability_probe",
]


# ---------------------------------------------------------------------------
# Fano net


@dataclass(frozen=True)
class FanoNet:
    """Family of ``p`` hard-to-distinguish (shape, shift-density) pairs."""

    p: int
    s: float
    beta: float
    nu: float
    radius: float
    fs: list = field(repr=False)
    gs: list = field(repr=False)


def fano_f_net(p: int, s: float) -> list[FourierSeries]:
    """Shapes ``f_j`` with unit first harmonic and a rotated top harmonic.

    ``theta_1(f_j) = 1`` and ``theta_p(f_j) = p^{-s} e^{i 2 pi (j-1)/p}``,
    all other coefficients zero.
    """
    if p < 2:
        raise ValueError("net size must be at least 2")
    out = []
    for j in range(1, p + 1):
        alpha = (j - 1) / p
        top = p ** (-s) * np.exp(2j * np.pi * alpha)
        out.append(FourierSeries.from_dict({1: 1.0 + 0.0j, p: top}, cutoff=p))
    return out


def fano_g_net(p: int, beta: float, nu: float, radius: float) -> list[FourierDensity]:
    """Shift densities whose low-order mixed moments cancel the
    shape rotations.

    The base density has coefficients ``a |k|^{-beta}`` with the
    amplitude chosen so that the coefficient l1 norm stays below 1
    (nonnegativity certificate) and the regularity-``nu`` radius stays
    inside the ball.  Member ``j`` carries the phase
    ``e^{-i 2 pi l (j-1)/p}`` on every frequency ``r = m + l p`` with
    ``|m| <= p/4``; frequencies without such a decomposition are copied
    unchanged.  The coefficients stop at ``|k| = 6 p``.
    """
    from scipy.special import zeta  # scipy loads only where it is used

    if beta <= max(1.0, nu + 0.5):  # zeta(beta) is finite and positive only above 1
        raise ValueError(f"field 'beta': need beta > max(1, nu + 1/2), got {beta!r}")
    k_max = 6 * p
    # two constraints: the regularity radius (first branch) and the
    # coefficient l1 norm <= 1, which certifies nonnegativity uniformly
    # over the phase twists (second branch)
    amp = min(
        radius / math.sqrt(2.0 * zeta(2.0 * beta - 2.0 * nu)),
        1.0 / (2.0 * zeta(beta)),
    )
    ks = np.arange(-k_max, k_max + 1)
    base = np.zeros(2 * k_max + 1, dtype=complex)
    nz = ks != 0
    base[nz] = amp * np.abs(ks[nz]).astype(float) ** (-beta)
    base[k_max] = 1.0
    d = p // 4
    m = (ks + d) % p - d  # representative of k mod p in [-d, p-d)
    twist = (np.abs(m) <= d) & nz
    ell = (ks[twist] - m[twist]) // p
    out = []
    for j in range(p):
        coeffs = base.copy()
        coeffs[twist] = base[twist] * np.exp(-2j * np.pi * ell * (j / p))
        out.append(FourierDensity(coeffs))
    return out


def make_fano_net(p: int, s: float, beta: float, nu: float, radius: float) -> FanoNet:
    return FanoNet(
        p, s, beta, nu, radius, fano_f_net(p, s), fano_g_net(p, beta, nu, radius)
    )


@dataclass(frozen=True)
class FanoCertificate:
    """Pairwise TV estimates against the first net member.

    ``matched[j]`` compares the joint two-frequency law of
    ``(f_{j+1}, g_{j+1})`` with that of ``(f_1, g_1)``; ``mismatched[j]``
    uses ``g_1`` with ``f_{j+1}`` instead, showing what the phase
    compensation buys.
    """

    matched: list[DistanceEstimate]
    mismatched: list[DistanceEstimate]


def fano_tv_certificate(
    net: FanoNet, samples: int, rng: np.random.Generator, workers: int | None = None
) -> FanoCertificate:
    """Monte-Carlo TV certificate on the active frequencies {1, p}.

    The remaining coefficients of every net shape vanish, so they
    contribute identical Gaussian factors to every law and drop out of
    the total variation.  The net densities are band-limited, so a
    moderate shift quadrature (a budget of 256 nodes, densities tabulated
    on the 1,024-point default grid, fewer nodes where the aliasing bound
    allows) is already exact to well below the certificate gaps.  The ``2 p``
    estimates run on ``workers`` threads, each on its own stream (``task_map``).
    """
    gs, freqs = net.gs, (1, net.p)
    ref = MixtureLaw(net.fs[0], gs[0], 256, freqs)
    laws = [  # member j's matched law, then its mismatched one; member 1 is ref
        MixtureLaw(f, g, 256, freqs) if j else ref
        for j, f in enumerate(net.fs) for g in (gs[j], gs[0])
    ]
    tv = task_map(lambda law, child: mc_distance(law, ref, "TV", samples, child),
                  laws, rng, workers)
    return FanoCertificate(tv[0::2], tv[1::2])


# ---------------------------------------------------------------------------
# Bracketing of the rotation orbit


@dataclass(frozen=True)
class Bracket:
    """Lower/upper envelope pair over one shift cell.

    The envelopes are scaled isotropic complex Gaussians centered at the
    cell's left-edge rotation: the lower one shrunk by ``1/(1+delta)``
    with variance ``(1+delta)^{-alpha}``, the upper one inflated
    symmetrically.
    """

    theta: FourierSeries
    phi_lo: float
    phi_hi: float
    delta: float
    alpha: float

    def _center(self) -> np.ndarray:
        ks = self.theta.ks
        return self.theta.coeffs * np.exp(-2j * np.pi * ks * self.phi_lo)

    def _gauss(self, z: np.ndarray, variance: float) -> float:
        z = np.asarray(z, dtype=complex)
        p = z.size
        sq = float(np.sum(np.abs(z - self._center()) ** 2))
        return (math.pi * variance) ** (-p) * math.exp(-sq / variance)

    def lower(self, z) -> float:
        return self._gauss(z, (1.0 + self.delta) ** (-self.alpha)) / (1.0 + self.delta)

    def upper(self, z) -> float:
        return self._gauss(z, (1.0 + self.delta) ** self.alpha) * (1.0 + self.delta)


def bracket_hellinger(p: int, delta: float) -> float:
    """Hellinger width ``sqrt(delta^2 + 2 [1 - 2^p sqrt(1+delta) /
    (1 + (1+delta)^{1/p})^p])`` of one bracket pair in dimension ``p``."""
    ratio = 2.0**p * math.sqrt(1.0 + delta) / (1.0 + (1.0 + delta) ** (1.0 / p)) ** p
    return math.sqrt(delta**2 + 2.0 * (1.0 - ratio))


def bracket_count_bound(theta: FourierSeries, epsilon: float) -> int:
    """Cell-count cap ``ceil(4 pi sqrt(2p) ||theta||_H1 / (0.9 eps)) + 1``."""
    p = 2 * theta.cutoff + 1
    return (
        math.ceil(4.0 * math.pi * math.sqrt(2.0 * p) * h1_norm(theta) / epsilon / 0.9)
        + 1
    )


def bracketing_net(theta: FourierSeries, epsilon: float) -> list[Bracket]:
    """Hellinger bracketing of the rotation orbit of ``gamma_theta``.

    ``K = ceil(1/Delta_phi)`` cells of width
    ``Delta_phi = 0.9 eps / (sqrt(32) pi sqrt(p) ||theta||_H1)``, with
    ``delta = eps / sqrt(2)`` and ``alpha = 1/(2p)``; the 0.9 slack
    absorbs the second-order terms so the envelopes hold at finite
    ``eps``.  A shape with vanishing first-order norm has a rotation
    orbit reduced to a point and gets the single trivial cell.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 0.5]")
    p = 2 * theta.cutoff + 1
    delta = epsilon / math.sqrt(2.0)
    alpha = 1.0 / (2.0 * p)
    norm = h1_norm(theta)
    if norm == 0.0:
        return [Bracket(theta, 0.0, 1.0, delta, alpha)]
    width = 0.9 * epsilon / (math.sqrt(32.0) * math.pi * math.sqrt(p) * norm)
    count = math.ceil(1.0 / width)
    return [
        Bracket(theta, i * width, min((i + 1) * width, 1.0), delta, alpha)
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Finite moment matching


class MomentMatchError(RuntimeError):
    """Moment matching missed its tolerance; carries the achieved error."""

    def __init__(self, achieved: float, tolerance: float):
        self.achieved = achieved
        self.tolerance = tolerance
        super().__init__(
            f"trigonometric moments matched to {achieved:.3e}"
            f" (needed {tolerance:.0e})"
        )


def finite_mixture_match(
    g: ShiftDistribution,
    order: int,
    candidate_grid: int = 4096,
    tolerance: float = 1e-8,
) -> Discrete:
    """Atomic measure matching ``c_r(g)`` for ``|r| <= order``.

    Nonnegative least squares over a fine candidate grid of atom
    locations; the active set of the solution has at most ``2 R + 1``
    atoms, all on the grid.
    """
    from scipy.optimize import nnls  # scipy loads only where it is used

    if order < 1:
        raise ValueError("order must be at least 1")
    grid = np.arange(candidate_grid) / candidate_grid
    rs = np.arange(order + 1)
    target_c = np.atleast_1d(fourier_coeff(g, rs))
    # rows: Re c_0 (total mass), then Re/Im of c_r for r >= 1
    basis = np.exp(-2j * np.pi * np.outer(rs, grid))
    a_mat = np.vstack([basis[:1].real, basis[1:].real, basis[1:].imag])
    b_vec = np.concatenate([target_c[:1].real, target_c[1:].real, target_c[1:].imag])
    weights, _ = nnls(a_mat, b_vec)
    keep = weights > 1e-14
    result = Discrete(grid[keep], weights[keep] / weights[keep].sum())
    achieved = float(
        np.max(np.abs(np.atleast_1d(fourier_coeff(result, rs)) - target_c))
    )
    if achieved > tolerance:
        raise MomentMatchError(achieved, tolerance)
    return result


# ---------------------------------------------------------------------------
# Identifiability probes


@lru_cache(maxsize=4096)
def _radial_weight(n: int, theta1: float) -> float:
    """``int_0^inf rho e^{-(rho + theta1)^2} A_n(2 rho theta1)^2 drho``.

    Written with exponentially scaled Bessel values:
    ``rho (2 pi Ie_n(2 rho theta1))^2 e^{-(rho - theta1)^2}``, which
    stays finite for any ``theta1``.  Cached: the weights depend only on
    the frequency and the first coefficient, not on the densities being
    compared.
    """
    rho = np.linspace(0.0, theta1 + 12.0, 2049)
    scaled = bessel_i_scaled_orders(n, 2.0 * rho * theta1)[:, n]
    integrand = rho * (2.0 * math.pi * scaled) ** 2 * np.exp(-((rho - theta1) ** 2))
    return float(np.trapezoid(integrand, rho))


def g_separation(
    theta1_0: float,
    g: ShiftDistribution,
    g0: ShiftDistribution,
    n_max: int = 40,
) -> float:
    """Quadratic lower-bound functional on the first-frequency TV.

    ``(1/8 pi^2) sum_n |c_n(g - g0)|^2 int rho e^{-(rho + theta1)^2}
    A_n(2 rho theta1)^2 drho``: positive semidefinite in the coefficient
    differences and zero exactly when all matched coefficients agree.
    """
    if theta1_0 <= 0:
        raise ValueError("the first coefficient must be positive")
    total = 0.0
    for n in range(-n_max, n_max + 1):
        diff = fourier_coeff(g, n) - fourier_coeff(g0, n)
        mag = abs(diff) ** 2
        if mag == 0.0:
            continue
        total += mag * _radial_weight(abs(n), theta1_0)
    return total / (8.0 * math.pi**2)


def identifiability_probe(
    theta1_0: float,
    g0: ShiftDistribution,
    eta_list: list[float],
    samples: int,
    rng: np.random.Generator,
) -> dict:
    """First-coefficient perturbation probe.

    Estimates the TV between the first-frequency marginals at
    ``theta_1 = theta1_0`` and ``theta1_0 + eta`` for each ``eta`` and
    fits the log-log slope.  The separation is guaranteed to vanish no
    faster than cubically, so the slope of the estimates stays below
    that order (plus noise).
    """
    if theta1_0 <= 0:
        raise ValueError("the first coefficient must be positive")
    base = MixtureLaw(
        FourierSeries.from_dict({1: theta1_0 + 0.0j}, cutoff=1), g0, freqs=(1,)
    )
    tvs = []
    for eta in eta_list:
        law = MixtureLaw(
            FourierSeries.from_dict({1: theta1_0 + eta + 0.0j}, cutoff=1),
            g0,
            freqs=(1,),
        )
        tvs.append(mc_distance(law, base, "TV", samples, rng))
    logs = np.log([max(t.value, 1e-12) for t in tvs])
    slope = float(np.polyfit(np.log(eta_list), logs, 1)[0])
    return {"etas": list(eta_list), "tv": tvs, "slope": slope}

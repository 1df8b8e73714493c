"""Prior samplers: sieve Gaussian shapes, stick-breaking measures, and
log-Gaussian smooth densities.

The shape prior activates all frequencies up to a random level drawn
from ``lambda(l) ~ exp(-c l^2 (log l)^rho)`` and fills them with
centered complex Gaussians of sample-size-dependent variance
``xi_n^2 = n^{-mu} (log n)^{-zeta}``.  The shift prior is either a
truncated stick-breaking (Dirichlet-process) measure or the
exponentiated, normalized sum of a repeatedly centered-integrated
Brownian bridge and low-frequency sinusoids, restricted to a smoothness
ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries
from .shifts import Discrete, GridDensity, categorical, cumulative_trapezoid
from .shifts import sample as sample_shift, sobolev_radius
from .special import complex_gaussian_array

__all__ = [
    "SievePriorConfig",
    "DirichletPriorConfig",
    "SmoothPriorConfig",
    "RejectionLimitError",
    "lambda_pmf",
    "sample_f",
    "sample_dp",
    "j_operator",
    "psi",
    "brownian_bridge",
    "sample_smooth",
    "sample_smooth_with_process",
    "parse_flat_config",
]


def _require(ok: bool, key: str, rule: str, value) -> None:
    """Refuse ``value`` with a ``ValueError`` naming config key ``key``."""
    if not ok:
        raise ValueError(f"field '{key}': {rule}, got {value!r}")


@dataclass(frozen=True)
class SievePriorConfig:
    """Parameters of the Gaussian sieve prior on shapes.

    ``c`` is the single decay constant of the level distribution (the
    admissible family is bracketed between two such exponentials; taking
    them equal picks its simplest member), ``rho`` the log power in
    (1, 2), and ``(mu, zeta)`` the variance exponents.  The three config
    classes refuse a bad value with a ``ValueError`` that names its key
    in the flat config file.
    """

    n: int
    mu: float = 0.25
    zeta: float = 1.5
    c: float = 1.0
    rho: float = 1.5
    l_max: int = 64

    def __post_init__(self):
        _require(self.n >= 2, "n", "need n >= 2 so that log n > 0", self.n)
        _require(math.isfinite(self.mu), "mu", "must be finite", self.mu)
        _require(math.isfinite(self.zeta), "zeta", "must be finite", self.zeta)
        _require(0.0 <= self.c < math.inf, "c", "must be finite and >= 0", self.c)
        _require(1.0 < self.rho < 2.0, "rho", "must lie in (1, 2)", self.rho)
        _require(self.l_max >= 1, "l_max", "must be at least 1", self.l_max)

    @property
    def xi2(self) -> float:
        """Coefficient variance ``n^{-mu} (log n)^{-zeta}``."""
        return self.n ** (-self.mu) * math.log(self.n) ** (-self.zeta)

    @staticmethod
    def adaptive(n: int, **kw) -> "SievePriorConfig":
        """Smoothness-agnostic preset ``mu = 1/4, zeta = 3/2``."""
        return SievePriorConfig(n=n, mu=0.25, zeta=1.5, **kw)

    @staticmethod
    def non_adaptive(n: int, s: float, **kw) -> "SievePriorConfig":
        """Preset ``mu = 2 / (2s + 2), zeta = 0`` tied to smoothness ``s``."""
        _require(0.0 < s < math.inf, "s", "must be finite and > 0", s)
        return SievePriorConfig(n=n, mu=2.0 / (2.0 * s + 2.0), zeta=0.0, **kw)


def lambda_pmf(cfg: SievePriorConfig) -> np.ndarray:
    """Level distribution on ``{1, .., l_max}``.

    ``lambda(l)`` is proportional to ``exp(-c l^2 (log l)^rho)``; the
    entry for ``l = 1`` is proportional to 1 since ``log 1 = 0``.
    """
    levels = np.arange(1, cfg.l_max + 1, dtype=float)
    weights = np.exp(-cfg.c * levels**2 * np.log(levels) ** cfg.rho)
    return weights / weights.sum()


def sample_f(cfg: SievePriorConfig, rng: np.random.Generator) -> FourierSeries:
    """One shape draw: pick a level, then i.i.d. complex Gaussians below it."""
    pmf = lambda_pmf(cfg)
    level = int(categorical(pmf, rng.random())) + 1
    coeffs = math.sqrt(cfg.xi2) * complex_gaussian_array(rng, 2 * level + 1)
    return FourierSeries(level, coeffs)


@dataclass(frozen=True)
class DirichletPriorConfig:
    """Stick-breaking prior: base density, total mass (config key
    ``mass``), and truncation."""

    base_density: GridDensity
    total_mass: float = 1.0
    truncation: int = 200

    def __post_init__(self):
        mass, truncation = self.total_mass, self.truncation
        _require(0.0 < mass < math.inf, "mass", "must be finite and > 0", mass)
        _require(truncation >= 1, "truncation", "must be at least 1", truncation)


def stick_weights(counts: np.ndarray, total_mass: float, rng) -> np.ndarray:
    """Truncated stick-breaking weights given ``k`` cluster counts ``n_i``.

    ``V_i ~ Beta(1 + n_i, m + sum_{j>i} n_j)`` for ``i < k`` and ``w_i =
    V_i prod_{j<i} (1 - V_j)``; the ``k``-th stick takes whatever is left,
    so the weights sum to one.  Zero counts draw from the prior.
    """
    tail = np.cumsum(counts[::-1])[::-1][1:]
    v = rng.beta(1.0 + counts[:-1], total_mass + tail)
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - v)])
    return np.append(v * remaining[:-1], remaining[-1])


def sample_dp(cfg: DirichletPriorConfig, rng: np.random.Generator) -> Discrete:
    """One random measure from the truncated Dirichlet process."""
    w = stick_weights(np.zeros(cfg.truncation), cfg.total_mass, rng)
    atoms = sample_shift(cfg.base_density, cfg.truncation, rng)
    return Discrete(atoms, w)


@dataclass(frozen=True)
class SmoothPriorConfig:
    """Log-Gaussian smooth-density prior on a regularity-``nu`` ball."""

    nu: float
    radius: float
    grid: int = 1024
    max_rejections: int = 1000

    def __post_init__(self):
        nu, radius, rejections = self.nu, self.radius, self.max_rejections
        _require(0.5 <= nu < math.inf, "nu", "must be finite and >= 1/2", nu)
        _require(0.0 < radius < math.inf, "radius", "must be finite and > 0", radius)
        _require(self.grid >= 2, "grid", "must be at least 2", self.grid)
        _require(rejections >= 0, "max_rejections", "must be >= 0", rejections)

    @property
    def k_nu(self) -> int:
        """Integration depth ``floor(nu - 1/2)``."""
        return int(math.floor(self.nu - 0.5))


class RejectionLimitError(RuntimeError):
    """Smoothness-ball rejection sampling exhausted its retry budget."""

    def __init__(self, rejections: int):
        self.rejections = rejections
        super().__init__(
            f"smooth prior rejected {rejections} consecutive draws outside the ball"
        )


def j_operator(values: np.ndarray) -> np.ndarray:
    """Centered integration ``t -> int_0^t f - t int_0^1 f`` on a closed grid.

    The output vanishes at both endpoints by construction.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("need a closed uniform grid of values")
    cum = cumulative_trapezoid(v)
    t = np.linspace(0.0, 1.0, v.size)
    return cum - t * cum[-1]


def psi(k: int, t):
    """Periodic correction map ``sin(2 pi k t) + cos(2 pi k t)``, ``k >= 1``.

    Arguments are reduced modulo 1 first, so the periodicity holds
    exactly in floating point.
    """
    if k < 1:
        raise ValueError("index must be at least 1")
    tt = np.mod(np.asarray(t, dtype=float), 1.0)
    out = np.sin(2.0 * np.pi * k * tt) + np.cos(2.0 * np.pi * k * tt)
    if np.isscalar(t):
        return float(out)
    return out


def brownian_bridge(grid: int, rng: np.random.Generator) -> np.ndarray:
    """Scaled random walk pinned at both ends, on the closed grid ``i/grid``."""
    steps = rng.normal(0.0, math.sqrt(1.0 / grid), size=grid)
    w = np.concatenate([[0.0], np.cumsum(steps)])
    t = np.linspace(0.0, 1.0, grid + 1)
    return w - t * w[-1]


def gp_draw(cfg: SmoothPriorConfig, rng: np.random.Generator) -> np.ndarray:
    """One trajectory of the underlying Gaussian process on the closed grid."""
    w = brownian_bridge(cfg.grid, rng)
    for _ in range(cfg.k_nu):
        w = j_operator(w)
    t = np.linspace(0.0, 1.0, cfg.grid + 1)
    for i in range(1, cfg.k_nu + 1):
        w = w + rng.normal() * psi(i, t)
    return w


def exp_density(w: np.ndarray) -> tuple[GridDensity, float]:
    """Density proportional to ``e^w`` on the closed grid (trapezoid mass 1)
    and ``log int_0^1 e^w`` by the same trapezoid."""
    top = np.max(w)
    scaled = np.exp(w - top)
    mass = np.trapezoid(scaled, dx=1.0 / (scaled.size - 1))
    return GridDensity(scaled / mass), float(top) + math.log(mass)


def sample_smooth_with_process(
    cfg: SmoothPriorConfig, rng: np.random.Generator
) -> tuple[GridDensity, np.ndarray]:
    """Draw one density and return the Gaussian process behind it.

    Draws are rejected until the density's smoothness radius fits inside
    twice the configured ball radius.
    """
    for attempt in range(cfg.max_rejections + 1):
        w = gp_draw(cfg, rng)
        density, _ = exp_density(w)
        if sobolev_radius(density, cfg.nu) <= 2.0 * cfg.radius:
            return density, w
    raise RejectionLimitError(cfg.max_rejections + 1)


def sample_smooth(cfg: SmoothPriorConfig, rng: np.random.Generator) -> GridDensity:
    """One draw of the smooth shift-density prior."""
    density, _ = sample_smooth_with_process(cfg, rng)
    return density


def parse_flat_config(path: str) -> dict:
    """Read a flat ``key = value`` text file; '#' starts a comment.  A key
    given twice is refused by name."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not (key and eq):
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key in out:
                raise ValueError(f"field '{key}': given twice")
            out[key] = value
    return out

"""Probability distributions of random shifts on the circle [0, 1).

Three interchangeable representations: a finite atomic measure, a density
tabulated on a uniform closed grid, and a truncated Fourier coefficient
vector.  Coefficients follow the convention
``c_k(g) = int_0^1 e^{-i 2 pi k phi} dg(phi)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierSeries, complex_from_json, complex_to_json, evaluate
from .fourier import floats_from_json, pairs_from_json

__all__ = [
    "ShiftDistribution",
    "Discrete",
    "GridDensity",
    "FourierDensity",
    "fourier_coeff",
    "wasserstein1",
    "tv_density",
    "sobolev_radius",
    "sample",
    "discretize",
    "uniform_density",
    "raised_cosine_density",
    "shift_to_json",
    "shift_from_json",
]

DEFAULT_GRID = 1024
_WEIGHT_TOL = 1e-12
_MASS_TOL = 1e-9
_NEG_TOL = 1e-9


class ShiftDistribution:
    """Common base for the three shift-distribution representations.

    Each one implements the single-law operations as methods: ``fourier``,
    ``nodes`` (the atoms and weights that the shift integral of a mixture
    law sums over: the law's own measure), ``on_grid``, ``translate``,
    ``radius_cutoff`` (for the smoothness radius) and ``to_json``.  A new
    representation is one class plus its ``kind`` entry in ``_FROM_JSON``.
    Every law samples the measure of its ``nodes``, through ``quantile``.
    """

    def quantile(self, u) -> np.ndarray:
        """Inverse CDF of the law's own measure, its ``nodes()``."""
        phi, w = self.nodes()
        return phi[np.minimum(categorical(w, u), phi.size - 1)]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF draws: one uniform per draw through the quantile."""
        return self.quantile(rng.uniform(0.0, 1.0, count))


@dataclass(frozen=True)
class Discrete(ShiftDistribution):
    """Finite atomic measure: positions in [0, 1) with nonnegative weights."""

    positions: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pos.ndim != 1 or pos.shape != w.shape:
            raise ValueError("positions and weights must be 1-d arrays of equal length")
        if not np.all((pos >= 0.0) & (pos < 1.0)):
            raise ValueError("positions must lie in [0, 1)")
        if not np.all(w >= 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        order = np.argsort(pos, kind="stable")
        object.__setattr__(self, "positions", pos[order])
        object.__setattr__(self, "weights", w[order])

    @staticmethod
    def point_mass(a: float) -> "Discrete":
        return Discrete(np.array([a]), np.array([1.0]))

    def fourier(self, ks: np.ndarray) -> np.ndarray:
        phases = np.exp(-2j * np.pi * np.multiply.outer(ks, self.positions))
        return phases @ self.weights

    def nodes(self):
        return self.positions, self.weights

    def on_grid(self, m: int) -> np.ndarray:
        """Atoms binned at resolution ``1/m``."""
        hist, _ = np.histogram(
            self.positions, bins=m, range=(0.0, 1.0), weights=self.weights
        )
        vals = hist * m
        return np.concatenate([vals, vals[:1]])

    def translate(self, delta: float) -> "Discrete":
        return Discrete((self.positions + delta) % 1.0, self.weights)

    def radius_cutoff(self) -> int:
        raise TypeError("atomic measures have no finite smoothness radius")

    def to_json(self) -> dict:
        atoms = np.column_stack([self.positions, self.weights]).tolist()
        return {"kind": "discrete", "atoms": atoms}


@dataclass(frozen=True)
class GridDensity(ShiftDistribution):
    """Density on the closed uniform grid ``t_i = i/m, i = 0..m``.

    The first and last values describe the same circle point; the
    trapezoid integral over [0, 1] must equal 1.
    """

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 3:
            raise ValueError("grid density needs at least 3 closed-grid values")
        if not np.all(v >= -_NEG_TOL):
            raise ValueError("density values must be nonnegative")
        v = np.clip(v, 0.0, None)
        mass = np.trapezoid(v, dx=1.0 / (v.size - 1))
        if abs(mass - 1.0) > _MASS_TOL:
            raise ValueError(f"density must integrate to 1, got {mass!r}")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        """Number of grid intervals."""
        return self.values.size - 1

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    def fourier(self, ks: np.ndarray) -> np.ndarray:
        """Closed-grid trapezoid sum via one FFT of the open grid, for integer
        ``k``: ``(fft(v[:-1])[k mod m] + (v[m] - v[0]) / 2) / m``."""
        if not np.all(np.mod(ks, 1) == 0):
            raise ValueError("grid-density coefficients need integer frequencies")
        v, m = self.values, self.m
        return (np.fft.fft(v[:-1])[np.asarray(ks, int) % m] + (v[m] - v[0]) / 2) / m

    def nodes(self):
        """The open grid ``i/m`` with trapezoid weights, renormalized:
        ``(v_0 + v_m) / 2m`` at 0 and ``v_i / m`` elsewhere, the measure
        whose coefficients :meth:`fourier` returns."""
        v, m = self.values, self.m
        w = v[:-1] / m
        w[0] = (v[0] + v[m]) / (2 * m)
        return np.arange(m) / m, w / w.sum()

    def on_grid(self, m: int) -> np.ndarray:
        return np.interp(np.linspace(0.0, 1.0, m + 1), self.grid, self.values)

    def translate(self, delta: float) -> "GridDensity":
        """Values move as ``x -> x - delta``; the mass is renormalized."""
        t = self.grid
        shifted = np.interp((t - delta) % 1.0, t, self.values)
        shifted[-1] = shifted[0]
        return GridDensity(shifted / np.trapezoid(shifted, t))

    def radius_cutoff(self) -> int:
        """Highest frequency the grid resolves, ``m/2``."""
        return self.m // 2

    def to_json(self) -> dict:
        return {"kind": "grid", "values": self.values.tolist()}


@dataclass(frozen=True)
class FourierDensity(GridDensity):
    """Truncated coefficient vector ``c_k, |k| <= K`` of a density.

    Requires ``c_0 = 1`` and Hermitian symmetry; the synthesized density
    must be nonnegative up to a small rounding tolerance.  Its ``values``
    are that synthesis on the closed ``DEFAULT_GRID`` grid, tabulated once,
    so it samples, translates and takes shift nodes as that grid law.
    """

    values: np.ndarray = field(init=False, repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if not np.all(np.isfinite(c)):
            raise ValueError("field 'coeffs': coefficients must be finite")
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coefficients must have odd length (k = -K..K)")
        object.__setattr__(self, "coeffs", c)
        k0 = c.size // 2
        if not abs(c[k0] - 1.0) <= _WEIGHT_TOL:
            raise ValueError("c_0 must equal 1")
        if np.max(np.abs(c[::-1].conj() - c)) > 1e-9:
            raise ValueError("coefficients must be Hermitian (c_{-k} = conj(c_k))")
        object.__setattr__(self, "values", self.on_grid(DEFAULT_GRID))
        super().__post_init__()

    @property
    def k_max(self) -> int:
        return self.coeffs.size // 2

    def reconstruct(self, m: int = DEFAULT_GRID) -> np.ndarray:
        """Density values on the closed m-grid via Fourier synthesis."""
        t = np.linspace(0.0, 1.0, m + 1)
        return evaluate(FourierSeries(self.k_max, self.coeffs), t).real

    def on_grid(self, m: int) -> np.ndarray:
        """The synthesis on the closed m-grid, clipped at 0."""
        vals = self.reconstruct(m)
        if not float(vals.min()) >= -_NEG_TOL:
            raise ValueError("reconstructed density is negative beyond tolerance")
        return np.clip(vals, 0.0, None)

    def fourier(self, ks: np.ndarray) -> np.ndarray:
        flat = np.atleast_1d(ks)
        out = np.zeros(flat.shape, dtype=complex)
        inside = np.abs(flat) <= self.k_max
        out[inside] = self.coeffs[flat[inside] + self.k_max]
        return out.reshape(np.shape(ks))

    def radius_cutoff(self) -> int:
        return self.k_max

    def to_json(self) -> dict:
        return {"kind": "fourier", "coeffs": complex_to_json(self.coeffs)}


def uniform_density(m: int = DEFAULT_GRID) -> GridDensity:
    return GridDensity(np.ones(m + 1))


def raised_cosine_density(m: int = DEFAULT_GRID, amplitude: float = 1.0) -> GridDensity:
    """Density ``1 + amplitude * cos(2 pi x)`` for ``|amplitude| <= 1``."""
    if abs(amplitude) > 1.0:
        raise ValueError("amplitude must lie in [-1, 1]")
    t = np.linspace(0.0, 1.0, m + 1)
    return GridDensity(1.0 + amplitude * np.cos(2.0 * np.pi * t))


def fourier_coeff(g: ShiftDistribution, k):
    """Coefficient ``c_k(g) = int e^{-i 2 pi k phi} dg(phi)``.

    Exact sum for atoms, trapezoid quadrature for grids, direct lookup
    (zero beyond the truncation) for coefficient vectors.  Vectorizes
    over an array of frequencies.
    """
    ks = np.asarray(k)
    out = g.fourier(ks)
    if ks.ndim == 0:
        return complex(out)
    return out


def wasserstein1(g: ShiftDistribution, g_tilde: ShiftDistribution) -> float:
    """Order-1 transport distance ``int_0^1 |G^{-1}(u) - Gt^{-1}(u)| du``.

    Midpoint quadrature over 4,096 values of ``u``.
    """
    u = (np.arange(4096) + 0.5) / 4096
    return float(np.mean(np.abs(g.quantile(u) - g_tilde.quantile(u))))


def tv_density(g: ShiftDistribution, g_tilde: ShiftDistribution) -> float:
    """Total variation ``(1/2) int |g - g_tilde|``.

    Atom pairs are handled exactly; otherwise both sides are reduced to a
    common grid and integrated by the trapezoid rule.
    """
    if isinstance(g, Discrete) and isinstance(g_tilde, Discrete):
        support = np.union1d(g.positions, g_tilde.positions)
        wa = np.zeros(support.size)
        wb = np.zeros(support.size)
        np.add.at(wa, np.searchsorted(support, g.positions), g.weights)
        np.add.at(wb, np.searchsorted(support, g_tilde.positions), g_tilde.weights)
        return float(0.5 * np.sum(np.abs(wa - wb)))
    pair = (g, g_tilde)
    if any(isinstance(x, Discrete) for x in pair):
        raise TypeError("density-based distance needs grid or Fourier inputs")
    m = max(x.m for x in pair)
    ga, gb = (GridDensity(x.on_grid(m)) for x in pair)
    return float(0.5 * np.trapezoid(np.abs(ga.values - gb.values), ga.grid))


def sobolev_radius(g: ShiftDistribution, nu: float) -> float:
    """Smoothness radius ``sqrt(sum_{k != 0} k^{2 nu} |c_k(g)|^2)``.

    Grid densities are transformed up to ``K = m/2``; coefficient vectors
    use their stored truncation.
    """
    if nu < 0.5:
        raise ValueError("regularity must satisfy nu >= 1/2")
    ks = np.arange(1, g.radius_cutoff() + 1)
    coeffs = fourier_coeff(g, ks)
    total = 2.0 * np.sum(ks ** (2.0 * nu) * np.abs(coeffs) ** 2)
    return float(np.sqrt(total))


def cumulative_trapezoid(v: np.ndarray) -> np.ndarray:
    """Trapezoid integrals from 0 to each node of values on a closed uniform grid."""
    inc = 0.5 * (1.0 / (v.size - 1)) * (v[1:] + v[:-1])
    return np.concatenate([[0.0], np.cumsum(inc)])


def categorical(p: np.ndarray, u) -> np.ndarray:
    """Inverse CDF of the weights ``p`` at the uniforms ``u``: numpy
    ``Generator.choice``'s own steps, so on ``rng.random`` its very draws."""
    cdf = np.cumsum(p)
    return np.searchsorted(cdf / cdf[-1], u, side="right")


def sample(g: ShiftDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` i.i.d. draws from ``g``; deterministic given the rng state."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return g.sample(count, rng)


def discretize(g: ShiftDistribution, atom_count: int) -> Discrete:
    """Equal-mass quantization at the quantiles ``(2i - 1) / (2 J)``.

    Duplicate quantile positions are consolidated so point masses map to
    themselves.
    """
    if atom_count < 1:
        raise ValueError("atom_count must be at least 1")
    u = (2.0 * np.arange(1, atom_count + 1) - 1.0) / (2.0 * atom_count)
    uniq, inverse = np.unique(g.quantile(u), return_inverse=True)
    w = np.zeros(uniq.size)
    np.add.at(w, inverse, 1.0 / atom_count)
    return Discrete(uniq, w)


_FROM_JSON = {
    "discrete": lambda obj: Discrete(*pairs_from_json(obj["atoms"], "atoms").T),
    "grid": lambda obj: GridDensity(floats_from_json(obj["values"], "values")),
    "fourier": lambda obj: FourierDensity(complex_from_json(obj["coeffs"], "coeffs")),
}


def shift_to_json(g: ShiftDistribution) -> dict:
    """JSON form with a ``kind`` discriminator mirroring the three variants."""
    return g.to_json()


def shift_from_json(obj: dict) -> ShiftDistribution:
    """Inverse of :func:`shift_to_json`; malformed input raises ValueError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("shift distribution JSON must contain 'kind'")
    kind = obj["kind"]
    decode = _FROM_JSON.get(kind) if isinstance(kind, str) else None
    if decode is None:
        raise ValueError(f"unknown shift distribution kind {kind!r}")
    try:
        return decode(obj)
    except KeyError as exc:
        raise ValueError(f"field {exc}: missing") from exc

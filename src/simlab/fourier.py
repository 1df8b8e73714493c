"""Complex Fourier series on the unit circle.

A 1-periodic function is stored through its coefficients
``theta_k = int_0^1 e^{-i 2 pi k t} h(t) dt`` on the window
``k = -cutoff .. cutoff``; synthesis uses ``e^{+i 2 pi k x}``.  A time
shift by ``phi`` acts as the rotation ``theta_k -> theta_k e^{-i 2 pi k phi}``.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FourierSeries",
    "rotate",
    "h1_norm",
    "sobolev_s_norm",
    "project",
    "evaluate",
    "is_phase_normalized",
    "series_to_json",
    "series_from_json",
]


@dataclass(frozen=True)
class FourierSeries:
    """Truncated coefficient vector of a 1-periodic complex function.

    Parameters
    ----------
    cutoff : int
        Largest retained frequency ``l >= 0``.
    coeffs : array_like
        Complex coefficients ordered ``k = -cutoff .. cutoff``
        (length ``2 * cutoff + 1``).
    """

    cutoff: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (2 * self.cutoff + 1,):
            raise ValueError(
                f"expected {2 * self.cutoff + 1} coefficients, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)

    @property
    def ks(self) -> np.ndarray:
        """Frequency index vector ``-cutoff .. cutoff``."""
        return np.arange(-self.cutoff, self.cutoff + 1)

    def coeff(self, k: int) -> complex:
        """Coefficient at frequency ``k`` (zero beyond the cutoff)."""
        if abs(k) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.cutoff])

    @staticmethod
    def zero(cutoff: int) -> "FourierSeries":
        return FourierSeries(cutoff, np.zeros(2 * cutoff + 1, dtype=complex))

    @staticmethod
    def from_dict(entries: dict, cutoff: int) -> "FourierSeries":
        """Build a series from a ``{frequency: coefficient}`` mapping."""
        coeffs = np.zeros(2 * cutoff + 1, dtype=complex)
        for k, v in entries.items():
            if abs(k) > cutoff:
                raise ValueError(f"frequency {k} beyond cutoff {cutoff}")
            coeffs[k + cutoff] = v
        return FourierSeries(cutoff, coeffs)


def rotate(theta: FourierSeries, phi: float) -> FourierSeries:
    """Rotate every coefficient: ``theta_k -> theta_k e^{-i 2 pi k phi}``.

    This is the Fourier-domain action of shifting the function by ``phi``.
    """
    phases = np.exp(-2j * np.pi * theta.ks * phi)
    return FourierSeries(theta.cutoff, theta.coeffs * phases)


def h1_norm(theta: FourierSeries) -> float:
    """First-order Sobolev seminorm ``sqrt(sum k^2 |theta_k|^2)``."""
    return float(np.sqrt(np.sum(theta.ks**2 * np.abs(theta.coeffs) ** 2)))


def sobolev_s_norm(theta: FourierSeries, s: float) -> float:
    """Norm ``sqrt(sum (1 + |k|^{2s}) |theta_k|^2)`` of the smoothness-``s`` class."""
    if s < 1:
        raise ValueError("smoothness must satisfy s >= 1")
    weights = 1.0 + np.abs(theta.ks.astype(float)) ** (2.0 * s)
    return float(np.sqrt(np.sum(weights * np.abs(theta.coeffs) ** 2)))


def project(theta: FourierSeries, new_cutoff: int) -> FourierSeries:
    """Frequency truncation / zero-padded embedding to ``new_cutoff``.

    Coefficients with ``|k| <= min(cutoff, new_cutoff)`` are copied,
    everything else is zero.
    """
    if new_cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    out = np.zeros(2 * new_cutoff + 1, dtype=complex)
    m = min(theta.cutoff, new_cutoff)
    out[new_cutoff - m : new_cutoff + m + 1] = theta.coeffs[
        theta.cutoff - m : theta.cutoff + m + 1
    ]
    return FourierSeries(new_cutoff, out)


def evaluate(theta: FourierSeries, x) -> complex | np.ndarray:
    """Synthesize the function value ``sum_k theta_k e^{+i 2 pi k x}``.

    1-periodic in ``x``; accepts scalars or arrays.
    """
    x_arr = np.asarray(x, dtype=float)
    phases = np.exp(2j * np.pi * np.multiply.outer(x_arr, theta.ks))
    vals = phases @ theta.coeffs
    if np.isscalar(x) or x_arr.ndim == 0:
        return complex(vals)
    return vals


def is_phase_normalized(theta: FourierSeries) -> bool:
    """Whether the first coefficient is strictly positive real (imaginary
    part within 1e-12).

    This is the gauge that pins down the shift ambiguity: a shifted copy
    of the function can always be rotated so that ``theta_1 > 0``.
    """
    c1 = theta.coeff(1)
    return c1.real > 0.0 and abs(c1.imag) <= 1e-12


def series_to_json(theta: FourierSeries) -> dict:
    """JSON form ``{"cutoff": l, "coeffs": [[re, im], ...]}``, k ascending."""
    return {"cutoff": int(theta.cutoff), "coeffs": complex_to_json(theta.coeffs)}


def series_from_json(obj: dict) -> FourierSeries:
    if not isinstance(obj, dict) or "cutoff" not in obj or "coeffs" not in obj:
        raise ValueError("series JSON must contain 'cutoff' and 'coeffs'")
    cutoff = int_from_json(obj["cutoff"], "cutoff")
    return FourierSeries(cutoff, complex_from_json(obj["coeffs"], "coeffs"))


def int_from_json(value, name: str) -> int:
    """A JSON integer; floats such as 1.9, booleans and strings raise a
    ``ValueError`` that names the field instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"field '{name}': expected an integer, got {value!r}")
    return int(value)


def complex_to_json(values) -> list:
    """JSON form ``[[re, im], ...]`` of a complex vector; the pairs of an
    array nest under its leading axes."""
    arr = np.ascontiguousarray(values, dtype=complex)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def complex_from_json(value, name: str) -> np.ndarray:
    """Inverse of :func:`complex_to_json`, exact to the bit."""
    return pairs_from_json(value, name).view(complex)[:, 0]


def pairs_from_json(value, name: str) -> np.ndarray:
    """``(n, 2)`` float array from a JSON list of number pairs."""
    arr = floats_from_json(value, name)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"field '{name}': expected a list of [a, b] number pairs")
    return arr


def floats_from_json(value, name: str) -> np.ndarray:
    """Float array from nested JSON lists of numbers; anything else, JSON
    booleans included, raises a ``ValueError`` that names the field."""
    try:
        arr = np.array(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"field '{name}': {exc}") from exc
    # numpy upcasts a boolean mixed with numbers, so look at the entries
    for _ in range(arr.ndim - 1):
        value = itertools.chain.from_iterable(value)
    if arr.dtype.kind not in "iuf" or (arr.ndim and bool in map(type, value)):
        raise ValueError(f"field '{name}': expected numbers")
    return arr.astype(float)

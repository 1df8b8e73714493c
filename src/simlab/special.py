"""Self-contained special functions.

Modified Bessel functions of the first kind ``I_n``, the circular
exponential integral ``A_n(a) = int_0^{2pi} e^{a cos u} cos(nu) du``,
the standard normal CDF, and the standard complex Gaussian sampler.

The Bessel evaluation uses the power series for small arguments and a
normalized backward (Miller) recurrence for large ones; the recurrence
works directly on the exponentially scaled values ``e^{-a} I_n(a)`` so
no intermediate quantity can overflow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_i",
    "bessel_i_scaled",
    "a_n",
    "a_n_scaled",
    "a_n_quadrature",
    "normal_cdf",
    "sample_complex_gaussian",
    "complex_gaussian_array",
]

# Below this argument the raw power series converges quickly and safely;
# above it we go through the scaled recurrence.
_SERIES_SWITCH = 30.0


def _series_i(n: int, a: float) -> float:
    """Power series sum_{k>=0} (a/2)^{2k+n} / (k! (k+n)!)."""
    half = 0.5 * a
    try:
        term = half**n / math.factorial(n)
    except OverflowError:
        return math.inf
    if term == 0.0:
        return 0.0
    total = term
    k = 1
    while True:
        term *= half * half / (k * (k + n))
        total += term
        if term < 1e-18 * total:
            return total
        k += 1


def bessel_i_scaled(n: int, a: float) -> float:
    """Exponentially scaled modified Bessel function ``e^{-a} I_n(a)``.

    Parameters
    ----------
    n : int
        Order; negative orders use ``I_{-n} = I_n``.
    a : float
        Nonnegative argument.
    """
    n = abs(int(n))
    a = float(a)
    if a < 0:
        raise ValueError("argument must be nonnegative")
    if a == 0.0:
        return 1.0 if n == 0 else 0.0
    if a <= _SERIES_SWITCH:
        return _series_i(n, a) * math.exp(-a)

    # Miller backward recurrence: I_{k-1} = I_{k+1} + (2k/a) I_k, seeded
    # high above max(n, a) and normalized with the generating-function
    # identity I_0 + 2 sum_{m>=1} I_m = e^a, i.e. scaled values sum to 1.
    start = int(max(n, a) + 2.0 * math.sqrt(max(n, a)) + 40)
    b_up = 0.0
    b = 1e-300
    norm = 0.0
    result = b if n == start else 0.0
    for k in range(start, 0, -1):
        b_down = b_up + (2.0 * k / a) * b
        norm += 2.0 * b
        b_up, b = b, b_down
        if k - 1 == n:
            result = b
        if b > 1e250:
            b *= 1e-250
            b_up *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    norm += b  # k = 0 term enters once
    return result / norm


def bessel_i(n: int, a: float) -> float:
    """Modified Bessel function of the first kind ``I_n(a)`` for ``a >= 0``.

    Series evaluation below ``a = 30``; scaled recurrence above.  Values
    overflow the double range for ``a`` beyond ~709 as ``I_n`` grows like
    ``e^a``; use :func:`bessel_i_scaled` in that regime.
    """
    a = float(a)
    if 0.0 < a <= _SERIES_SWITCH:
        return _series_i(abs(int(n)), a)
    # zero and negative arguments are handled (or rejected) by the scaled form
    return math.exp(a) * bessel_i_scaled(n, a)


def a_n(n: int, a: float) -> float:
    """``A_n(a) = int_0^{2pi} e^{a cos u} cos(nu) du = 2 pi I_n(a)``."""
    return 2.0 * math.pi * bessel_i(n, a)


def a_n_scaled(n: int, a: float) -> float:
    """``e^{-a} A_n(a)``; stable for arbitrarily large ``a``."""
    return 2.0 * math.pi * bessel_i_scaled(n, a)


def a_n_quadrature(n: int, a: float) -> float:
    """Independent composite-trapezoid evaluation of ``A_n(a)`` on 4,096
    intervals.

    Exposed as an oracle for testing the series path; the integrand is
    1-periodic and analytic so the trapezoid rule converges geometrically.
    """
    u = np.linspace(0.0, 2.0 * np.pi, 4097)
    vals = np.exp(a * np.cos(u)) * np.cos(n * u)
    return float(np.trapezoid(vals, u))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def sample_complex_gaussian(rng: np.random.Generator) -> complex:
    """One draw of the standard complex Gaussian.

    Real and imaginary parts are independent centered normals of
    variance 1/2, so ``E|z|^2 = 1``.
    """
    return complex(complex_gaussian_array(rng, ()))


def complex_gaussian_array(rng: np.random.Generator, shape) -> np.ndarray:
    """Array of i.i.d. standard complex Gaussians with the same convention."""
    scale = math.sqrt(0.5)
    return rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)

"""Self-contained special functions.

Modified Bessel functions of the first kind ``I_n``, the circular
exponential integral ``A_n(a) = int_0^{2pi} e^{a cos u} cos(nu) du``,
the standard normal CDF, and the standard complex Gaussian sampler.

Every Bessel value comes from one normalized backward (Miller)
recurrence, :func:`bessel_i_scaled_orders`, which returns the
exponentially scaled values ``e^{-a} I_n(a)`` for all orders ``0..N`` at
an array of arguments in a single pass.  It runs on the order ratios
``I_k / I_{k-1}``, which lie in ``[0, 1)``, so no intermediate quantity
can overflow; the scalar functions are thin wrappers around it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_i_scaled_orders",
    "bessel_i",
    "bessel_i_scaled",
    "a_n",
    "a_n_quadrature",
    "normal_cdf",
    "complex_gaussian_array",
]


def bessel_i_scaled_orders(n_max: int, a) -> np.ndarray:
    """``e^{-a} I_n(a)`` for every order ``n = 0..n_max`` at each argument.

    Returns an array of shape ``np.shape(a) + (n_max + 1,)``.  The ratios
    ``rho_k = I_k / I_{k-1} = a / (2k + a rho_{k+1})`` are run down from
    ``rho = 0`` well above ``max(n_max, a)``; their cumulative products give
    ``I_n / I_0``, and the identity ``I_0 + 2 sum_{k>=1} I_k = e^a`` fixes
    the scale.  Values below the double range underflow to zero.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(a >= 0.0):
        raise ValueError("argument must be nonnegative")
    flat = a.reshape(-1)
    top = max(n_max, float(flat.max(initial=0.0)))
    start = int(top + 2.0 * math.sqrt(top) + 40)
    if flat.size > 1 and start * flat.size > 4e6:  # bound the work arrays
        out = [bessel_i_scaled_orders(n_max, part) for part in np.array_split(flat, 2)]
        return np.vstack(out).reshape(a.shape + (n_max + 1,))
    with np.errstate(divide="ignore", over="ignore"):  # a ~ 0: every ratio is 0
        twice_k_over_a = 2.0 * np.arange(start, 0, -1)[:, None] / flat
    rho = np.empty_like(twice_k_over_a)
    prev = np.zeros(flat.size)
    for c, r in zip(twice_k_over_a, rho):
        np.add(c, prev, out=r)
        prev = np.reciprocal(r, out=r)
    ratios = np.cumprod(rho[::-1], axis=0)  # I_k / I_0 for k = 1..start
    i0 = 1.0 / (1.0 + 2.0 * ratios.sum(axis=0))
    out = i0 * np.vstack([np.ones(flat.size), ratios[:n_max]])
    return out.T.reshape(a.shape + (n_max + 1,))


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
    return float(bessel_i_scaled_orders(n, float(a))[n])


def bessel_i(n: int, a: float) -> float:
    """Modified Bessel function of the first kind ``I_n(a)`` for ``a >= 0``.

    Values overflow the double range for ``a`` beyond ~709 as ``I_n`` grows
    like ``e^a``; use :func:`bessel_i_scaled` in that regime.
    """
    return math.exp(a) * bessel_i_scaled(n, a)


def a_n(n: int, a: float) -> float:
    """``A_n(a) = int_0^{2pi} e^{a cos u} cos(nu) du = 2 pi I_n(a)``."""
    return 2.0 * math.pi * bessel_i(n, a)


def a_n_quadrature(n: int, a: float) -> float:
    """Independent composite-trapezoid evaluation of ``A_n(a)`` on 4,096
    intervals.

    Exposed as an oracle for testing the recurrence; the integrand is
    1-periodic and analytic so the trapezoid rule converges geometrically.
    """
    u = np.linspace(0.0, 2.0 * np.pi, 4097)
    vals = np.exp(a * np.cos(u)) * np.cos(n * u)
    return float(np.trapezoid(vals, u))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def complex_gaussian_array(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussians: independent N(0, 1/2) real and imaginary parts."""
    scale = math.sqrt(0.5)
    return rng.normal(0.0, scale, shape) + 1j * rng.normal(0.0, scale, shape)

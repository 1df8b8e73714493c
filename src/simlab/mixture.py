"""Finite-dimensional mixture laws of rotated Gaussian vectors.

A shape ``theta`` (cutoff ``l``) and a shift distribution ``g`` induce
the location mixture ``p(z) = int gamma(z - theta . phi) dg(phi)`` on
``C^p``: ``gamma(z) = pi^{-p} e^{-||z||^2}`` and ``(theta . phi)_k =
theta_k e^{-i 2 pi k phi}``.  A law may be restricted to a subset of
frequencies, which realizes single-coordinate marginals and small joint
blocks without changing the machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import FourierSeries, h1_norm, project
from .model import ObservationSet
from .shifts import FourierDensity, GridDensity, ShiftDistribution
from .shifts import sample as sample_shift
from .special import bessel_i_scaled_orders, complex_gaussian_array

__all__ = [
    "MixtureLaw",
    "gaussian_density",
    "log_gaussian_density",
    "mixture_density",
    "log_mixture_density",
    "log_likelihood",
    "girsanov_log_ratio",
    "sample_law",
]

_MIN_QUAD = 64
# Largest relative change of a row's shift sum that dropping nodes may cause.
_NODE_TOL = 1e-13
# Exponents per block of the shift sums: 512 KB, so a block stays in L2.
_BLOCK = 65_536
# A split call's bulk: rows with each |z_k| at most this quantile of its column.
# Fano certificate laws (30,000 rows): 0.99 still thins to 128 of 256, 0.995 not.
_BULK_QUANTILE = 0.98
# Least rows x nodes for the split: halving them saves 1.25 ns each against the
# bulk bound's ~0.6 ms (measured on one thread of a 2-core x86-64 machine).
_SPLIT_MIN = 500_000
# A row whose bound-shifted sum falls below this is redone with its maximum.
_SUM_FLOOR = math.exp(-600.0)


def default_quadrature_points(theta: FourierSeries) -> int:
    """Node budget of the shift integral: ``max(512, 64 ceil(||theta||_H1))``.

    The integrand sharpens as the shape's first-order norm grows, so the
    budget scales with it; grid laws may use fewer nodes (``_shift_nodes``).
    """
    return max(512, _MIN_QUAD * math.ceil(h1_norm(theta)))


@dataclass(frozen=True)
class MixtureLaw:
    """Law of the observed coefficient vector for one curve.

    Parameters
    ----------
    theta : FourierSeries
        Shape coefficients (cutoff ``l``).
    g : ShiftDistribution
        Mixing distribution of the random shift.
    quadrature_points : int, optional
        Node budget of the shift quadrature for continuous ``g``; defaults
        to the norm-scaled rule.  Grid laws may use a divisor of it.
    freqs : tuple of int, optional
        Active frequency subset; ``None`` means all of ``-l .. l``.
    """

    theta: FourierSeries
    g: ShiftDistribution
    quadrature_points: int | None = None
    freqs: tuple | None = None

    def __post_init__(self):
        if self.quadrature_points is not None and self.quadrature_points < _MIN_QUAD:
            raise ValueError(f"quadrature_points must be >= {_MIN_QUAD}")
        if self.freqs is not None:
            freqs = tuple(int(k) for k in self.freqs)
            if any(abs(k) > self.theta.cutoff for k in freqs):
                raise ValueError("active frequency beyond the shape cutoff")
            object.__setattr__(self, "freqs", freqs)

    @property
    def active_freqs(self) -> np.ndarray:
        if self.freqs is not None:
            return np.asarray(self.freqs, dtype=int)
        return self.theta.ks

    @property
    def dim(self) -> int:
        """Complex dimension ``p`` of the observed vector."""
        return self.active_freqs.size


def _means(law: MixtureLaw, phi: np.ndarray) -> np.ndarray:
    """Matrix of mixture means ``(theta . phi_i)_k``, shape (K, p)."""
    ks = law.active_freqs
    coeffs = law.theta.coeffs[ks + law.theta.cutoff]
    return coeffs[None, :] * np.exp(-2j * np.pi * np.outer(phi, ks))


def log_gaussian_density(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Log of ``gamma(z - mu) = pi^{-p} exp(-||z - mu||^2)``, row-wise."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    mu = np.asarray(mu, dtype=complex)
    if z.shape[-1] != mu.shape[-1]:
        raise ValueError("dimension mismatch between point and mean")
    p = z.shape[-1]
    sq = np.sum(np.abs(z - mu) ** 2, axis=-1)
    return -p * math.log(math.pi) - sq


def gaussian_density(z, mu) -> float | np.ndarray:
    """Standard complex Gaussian density ``pi^{-p} exp(-||z - mu||^2)``."""
    return _exp_rows(z, log_gaussian_density(z, mu))


def _exp_rows(z, log_density: np.ndarray) -> float | np.ndarray:
    """``exp`` of row-wise log densities; a float for a single ``(p,)`` point."""
    out = np.exp(log_density)
    return float(out[0]) if np.ndim(z) <= 1 else out


def _node_stride(law: MixtureLaw, absz: np.ndarray, w: np.ndarray) -> int:
    """Largest ``s`` dividing the budget ``K0 = w.size`` such that keeping every
    ``s``-th node moves no row's shift sum by over ``_NODE_TOL`` (relative).

    With ``K = K0 / s`` the sums differ by the K0-point DFT coefficients of
    ``w e^E`` at the nonzero multiples of K, ``E`` a row's node exponent, whose
    cosine at ``|k|`` has amplitude at most ``a = sum_{+-k} 2 max|z_k| |theta_k|``
    (``absz`` holds the rows' moduli ``|z|``).
    By Jacobi-Anger they are at most ``e^{sum a} |W| * B`` (``W`` the weights'
    DFT, ``B`` the direct convolution of the scaled ``I_r(a)`` put at ``r|k|``);
    Jensen bounds the sum below by ``e^{-sum a |W_k|}``; renormalizing adds
    the weights' aliasing ``sum |W_rK|``.  Trefethen & Weideman, SIAM Rev. 2014.
    """
    k0, ks = w.size, law.active_freqs
    spec = np.abs(np.fft.fft(w))
    spec[spec < 64.0 * np.finfo(float).eps * spec[0]] = 0.0  # tabulation rounding
    # column maxima of a Fortran copy: numpy reduces narrow C arrays slowly
    zmax = np.asfortranarray(absz).max(axis=0)
    theta = np.abs(law.theta.coeffs[ks + law.theta.cutoff])
    amp = np.bincount(np.abs(ks), 2.0 * zmax * theta)
    freqs = np.flatnonzero(amp[1:]) + 1
    a = amp[freqs]
    log_gain = float(np.sum(a * (1.0 + spec[freqs % k0])))
    # orders n >= a - 1 with e^{-a} I_{n+1} <= (a/2)^{n+1} / (n+1)! <= tail; as
    # I_{r+1} / I_r <= a / (2r + 2) <= 1/2 above, the rest hold 2 tail a side
    r = np.arange(1, k0 + 1)
    with np.errstate(divide="ignore"):  # a / 2 may underflow to 0: order 0
        lead = r * np.log(a[:, None] / 2.0) - np.cumsum(np.log(r))
    ok = (lead <= math.log(1e-3 * _NODE_TOL / k0) - log_gain) & (r >= a[:, None])
    # past e^600 a Bessel product that underflowed could still matter
    if log_gain > 600.0 or not np.all(ok.any(axis=1)):
        return 1
    orders = np.argmax(ok, axis=1)

    def aliasing(rows):  # the bound at every index, from e^{-a} I_r(a) rows
        b = np.ones(1)
        for f, n, row in zip(freqs, orders, rows):
            factor = np.zeros(2 * n * f + 1)
            factor[::f] = np.concatenate([row[n:0:-1], row[: n + 1]])
            b = np.convolve(b, factor)
        b = np.bincount((np.arange(b.size) - b.size // 2) % k0, b, k0)
        c = np.bincount(np.arange(2 * k0 - 1) % k0, np.convolve(spec, b), k0)
        return math.exp(log_gain) * c + spec + 4e-3 * _NODE_TOL / k0 * a.size * spec.sum()

    # Each candidate K divides a maximal divisor D = K0 / prime, so its sum
    # holds bound[D].  The bound grows with the rows, and e^{-a} (a/2)^r / r!
    # <= e^{-a} I_r(a): if even these rows put every bound[D] over 2 tol (a
    # margin for rounding), no candidate passes and the recurrence is skipped.
    divisors = np.flatnonzero(k0 % np.arange(1, k0) == 0) + 1
    above = (divisors[None, :] > divisors[:, None]) & (divisors % divisors[:, None] == 0)
    maximal = divisors[~above.any(axis=1)]
    first = [np.exp(np.append(0.0, lead[i, :n]) - a[i]) for i, n in enumerate(orders)]
    if np.all(aliasing(first)[maximal] > 2.0 * _NODE_TOL):
        return 1
    bound = aliasing(bessel_i_scaled_orders(orders.max(initial=0), a))
    for k in divisors:
        if bound[k::k].sum() <= _NODE_TOL:
            return k0 // k
    return 1


def _budget_nodes(law: MixtureLaw):
    """Budget nodes and weights, and whether the law's grid lets the rule thin them."""
    k0 = law.quadrature_points or default_quadrature_points(law.theta)
    g = law.g.to_grid() if isinstance(law.g, FourierDensity) else law.g
    return *g.nodes(k0), isinstance(g, GridDensity) and g.m % k0 == 0


def _shift_nodes(law: MixtureLaw, absz: np.ndarray, budget=None):
    """Shift nodes and weights for rows of moduli ``absz``: the ``budget``'s, or
    every ``s``-th of them (:func:`_node_stride`), still on grid points."""
    phi, w, on_grid = budget or _budget_nodes(law)
    step = _node_stride(law, absz, w) if on_grid else 1
    if step > 1:
        phi, w = phi[::step], w[::step] / w[::step].sum()
    return phi, w


def _row_reduce(rows: np.ndarray, b: np.ndarray, reduce, index=None) -> np.ndarray:
    """``reduce(e, at)`` of each block ``e`` of ``rows @ b``, ``_BLOCK``
    exponents at a time in one reused buffer (``reduce`` may overwrite it),
    ``at`` the block's row indices: its slice of ``rows`` or of ``index``.
    A block holds two rows or more: numpy hands a one-row product to gemv,
    whose last bits differ from gemm's, so a lone row is computed twice over."""
    n, k = rows.shape[0], b.shape[1]
    step = max(2, _BLOCK // k)
    expo = np.empty((max(2, min(step, n)), k))
    out = np.empty(n)
    for lo in range(0, n, step):
        part = rows[lo : lo + step]
        m = part.shape[0]
        pair = part if m > 1 else np.repeat(part, 2, axis=0)
        e = np.matmul(pair, b, out=expo[: max(m, 2)])[:m]
        at = slice(lo, lo + m) if index is None else index[lo : lo + m]
        out[lo : lo + m] = reduce(e, at)
    return out


def _bounded_reduce(rows: np.ndarray, b: np.ndarray, reduce):
    """``reduce`` of each row of ``exp(rows @ b)``, with the shifts: ``rows``
    are laid out as ``[..., 1, -s]``, the last column the row's shift ``s``
    against the last row of ``b`` (all ones), ``s`` at or above the row's
    largest exponent.  A row whose total falls below ``_SUM_FLOOR`` (``s``
    far above that maximum) is redone with its exact maximum as the shift;
    ``reduce`` gets each block's row indices in ``rows`` (:func:`_row_reduce`),
    the redo's among them.  Returns the totals and each row's shift."""

    def reduce_exp(e, at):
        return reduce(np.exp(e, out=e), at)

    totals = _row_reduce(rows, b, reduce_exp)
    shift = -rows[:, -1]
    low = np.flatnonzero(totals < _SUM_FLOOR)
    if low.size:
        redo = rows[low]
        redo[:, -1] = 0.0
        shift[low] = _row_reduce(redo, b, lambda e, _: np.max(e, axis=1))
        redo[:, -1] = -shift[low]
        totals[low] = _row_reduce(redo, b, reduce_exp, low)
    return totals, shift


def log_mixture_density(law: MixtureLaw, z: np.ndarray) -> np.ndarray:
    """Log mixture density at the rows of ``z`` (shape (N, p) or (p,)).

    The node exponents ``E_i = 2 Re<z, mu_i> - ||mu_i||^2 + log w_i`` are
    bounded above by ``s(z) = sum_k |z_k| 2 max_i |mu_ik| + max_i (log w_i -
    ||mu_i||^2)``, and any shift at or above the largest exponent serves the
    log-sum-exp (Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021).  So
    ``E_i - s(z)`` is one real matrix product ``[Re z, Im z, 1, -s] @ B`` and
    each block of rows is one product, one ``exp`` and one row sum.  A row
    whose shifted sum is below ``e^-600`` (far out, phases misaligned) is
    redone with its exact maximum.  The common ``-||z||^2`` is added last.
    A large call on a law the node rule may thin takes every row on the nodes
    certified for the columns' ``_BULK_QUANTILE`` of ``|z_k|``, then redoes
    the tail rows, with a modulus above it, on the call's own nodes.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    if z.shape[1] != law.dim:
        raise ValueError(f"points must have dimension {law.dim}, got {z.shape[1]}")
    absz, budget, n = np.abs(z), _budget_nodes(law), z.shape[0]
    phi, w = _shift_nodes(law, absz, budget)
    if budget[2] and n * phi.size >= _SPLIT_MIN:
        kth = int(_BULK_QUANTILE * (n - 1))
        thr = np.partition(absz, kth, axis=0)[kth]
        bulk = _shift_nodes(law, thr[None, :], budget)
        if bulk[0].size < phi.size:
            out = _log_density(law, z, absz, *bulk)
            tail = np.flatnonzero((absz > thr).any(axis=1))
            out[tail] = _log_density(law, z[tail], absz[tail], phi, w)
            return out
    return _log_density(law, z, absz, phi, w)


def _log_density(law, z, absz, phi, w) -> np.ndarray:
    """The log density at rows ``z`` (moduli ``absz``) on nodes ``phi``, ``w``."""
    mu, p = _means(law, phi), law.dim
    with np.errstate(divide="ignore"):  # zero-weight atoms: log w = -inf
        const = np.log(w) - np.sum(np.abs(mu) ** 2, axis=1)
    b = np.vstack([2.0 * mu.real.T, 2.0 * mu.imag.T, const, np.ones(const.size)])
    shift = np.einsum("ij,j->i", absz, 2.0 * np.abs(mu).max(axis=0)) + const.max()
    rows = np.hstack([z.real, z.imag, np.ones((z.shape[0], 1)), -shift[:, None]])
    sums, shift = _bounded_reduce(rows, b, lambda w, _: np.einsum("ij->i", w))
    with np.errstate(divide="ignore"):
        out = shift + np.log(sums)
    sq = np.einsum("ij,ij->i", rows[:, : 2 * p], rows[:, : 2 * p])
    return out - sq - p * math.log(math.pi)


def mixture_density(law: MixtureLaw, z) -> float | np.ndarray:
    """Mixture density ``int gamma(z - theta . phi) dg(phi)`` at ``z``."""
    return _exp_rows(z, log_mixture_density(law, z))


def log_likelihood(law: MixtureLaw, obs: ObservationSet) -> float:
    """Joint log density of the curves under the law.

    Evaluated at the common frequency window ``|k| <= min(l, L)``:
    observed coefficients beyond the shape cutoff would contribute
    pure-noise factors identical for every shape of that cutoff and are
    dropped, while a shape cutoff above ``L`` is truncated, which is the
    exact marginalization onto the observed window.
    """
    if law.freqs is not None:
        raise ValueError("likelihood expects a full-window law")
    if obs.n == 0:
        return 0.0
    m = min(law.theta.cutoff, obs.cutoff)
    sub = MixtureLaw(project(law.theta, m), law.g, law.quadrature_points)
    z = obs.curves[:, obs.cutoff - m : obs.cutoff + m + 1]
    return float(np.sum(log_mixture_density(sub, z)))


def girsanov_log_ratio(f: MixtureLaw, f0: MixtureLaw, y: np.ndarray) -> float:
    """Log likelihood ratio of two mixture laws at one observed vector.

    The difference of the two log mixture densities at the common cutoff
    (the larger of the two, with zero padding): the Gaussian base factor
    ``pi^{-p} e^{-||y||^2}`` is common to both laws and cancels, leaving the
    log ratio of the shift integrals of ``exp(2 Re<theta . phi, y> - ||theta||^2)``.
    """
    if f.freqs is not None or f0.freqs is not None:
        raise ValueError("likelihood ratio expects full-window laws")
    cut = max(f.theta.cutoff, f0.theta.cutoff)
    y = np.asarray(y, dtype=complex)
    if y.shape != (2 * cut + 1,):
        raise ValueError(f"observation must have dimension {2 * cut + 1}")
    num = MixtureLaw(project(f.theta, cut), f.g, f.quadrature_points)
    den = MixtureLaw(project(f0.theta, cut), f0.g, f0.quadrature_points)
    return float(log_mixture_density(num, y)[0] - log_mixture_density(den, y)[0])


def sample_law(law: MixtureLaw, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` vectors from the law: rotate by a shift, add noise."""
    phi = sample_shift(law.g, size, rng)
    means = _means(law, phi)
    return means + complex_gaussian_array(rng, means.shape)

"""Rank-normalized bulk effective sample size of one chain.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner, "Rank-normalization,
folding, and localization: an improved R-hat for assessing convergence of
MCMC", Bayesian Analysis 16 (2021): the chain is split in two halves, the
pooled draws are replaced by normal scores of their ranks, and the
autocorrelation sum is truncated by Geyer's initial monotone sequence.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` at lags ``0 .. n-1``."""
    n = x.shape[1]
    size = 1 << (2 * n - 1).bit_length()
    centred = x - x.mean(axis=1, keepdims=True)
    spectrum = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), size, axis=1)[:, :n] / n


def _ess(x: np.ndarray) -> float:
    """Multi-chain ESS of ``x`` (chains, draws), Stan's estimator."""
    chains, n = x.shape
    acov = _autocovariance(x)
    mean_var = acov[:, 0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n
    if chains > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    rho = np.zeros(n)
    rho[0] = 1.0
    even = 1.0
    odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    rho[1] = odd
    # Geyer's initial positive sequence
    t = 1
    while t < n - 3 and even + odd > 0:
        even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if even + odd >= 0:
            rho[t + 1], rho[t + 2] = even, odd
        t += 2
    max_t = t - 2
    if even > 0:
        rho[max_t + 1] = even
    # Geyer's initial monotone sequence
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    total = chains * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1]
    return total / max(tau, 1.0 / math.log10(total))


def bulk_ess(draws) -> float:
    """Bulk-ESS of one chain of scalar draws (at least 8 of them)."""
    x = np.asarray(draws, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("bulk-ESS needs a chain of at least 8 scalar draws")
    half = x.size // 2
    split = np.stack([x[:half], x[x.size - half :]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    return _ess(ndtri((ranks - 0.375) / (split.size + 0.25)))

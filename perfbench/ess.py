"""Effective sample size, numpy and stdlib only.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021),
"Rank-normalization, folding, and localization" (arXiv 1903.08008):
per-chain autocovariances by FFT, the multi-chain combination of
within- and between-chain variance, and Geyer's initial-monotone
truncation of the autocorrelation sum.  ``bulk_ess`` adds chain splitting
and rank normalization.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of ``x`` at lags 0..n-1, by FFT."""
    n = x.shape[1]
    size = 1 << (2 * n - 1).bit_length()
    centred = x - x.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(centred, n=size, axis=1)
    return np.fft.irfft(spec * np.conjugate(spec), n=size, axis=1)[:, :n] / n


def ess(chains) -> float:
    """ESS of draws shaped (n,) for one chain or (m, n) for m chains.

    A sequence with no variance has no information about its spread and
    is reported as 0, never NaN.
    """
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    m, n = x.shape
    if n < 4:
        raise ValueError("ESS needs at least 4 draws per chain")
    if np.ptp(x) == 0.0:
        return 0.0
    acov = _autocovariance(x)
    chain_var = acov[:, 0] * n / (n - 1.0)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return 0.0
    mean_acov = acov.mean(axis=0)
    rho = 1.0 - (mean_var - mean_acov) / var_plus
    rho[0] = 1.0

    # Geyer's initial positive sequence over pairs (rho_2t + rho_2t+1)...
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    negative = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: negative[0]] if negative.size else pairs
    # ... made monotone non-increasing.
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(m * n))
    return float(m * n / tau)


def _split(x: np.ndarray) -> np.ndarray:
    half = x.shape[1] // 2
    return np.vstack([x[:, :half], x[:, x.shape[1] - half :]])


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (average rank for ties)."""
    flat = x.ravel()
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(flat.size)
    ranks[order] = np.arange(1, flat.size + 1)
    # average the ranks within each run of tied values
    sorted_vals = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], flat.size]
    mean_rank = (starts + ends + 1) / 2.0
    ranks[order] = np.repeat(mean_rank, ends - starts)
    inv = NormalDist().inv_cdf
    scores = np.array([inv(p) for p in (ranks - 0.375) / (flat.size + 0.25)])
    return scores.reshape(x.shape)


def bulk_ess(chains) -> float:
    """Bulk ESS: split chains in half, rank-normalize, then :func:`ess`."""
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    return ess(rank_normalize(_split(x)))

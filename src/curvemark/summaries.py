"""Posterior summarization, marginal densities, the reconstruction-distance
criterion for choosing the landmark count, and extrinsic mean curves."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curves import CLOSED, CurveError, PlanarCurve
from .model import CurveSample, ModelSpec, total_reconstruction_error_sq_batch
from .rwm import ChainConfig, PosteriorSampleSet, run_chain


# Values per KDE temporary (64 KB): a larger one is given back to the
# OS when freed, and the next chunk faults its pages in again.
_KDE_CHUNK = 1 << 13


def _quantiles(x: np.ndarray, qs) -> list[float]:
    """Type-7 quantiles (Hyndman & Fan 1996) of ``x`` at the fractions
    ``qs``, from one sort and equal to numpy's bit for bit: ``q = 0.5``
    gives ``np.median``, any other ``q`` ``np.quantile``'s linear method."""
    xs = np.sort(x).tolist()
    n = len(xs)
    out = []
    for q in qs:
        if q == 0.5:
            out.append((xs[(n - 1) // 2] + xs[n // 2]) / 2)
            continue
        h = (n - 1) * q
        i = int(h)
        a, b, t = xs[i], xs[min(i + 1, n - 1)], h - i
        # as numpy interpolates: from the nearer of the two values
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def _circular_mean(x: np.ndarray) -> float:
    ang = 2.0 * np.pi * x
    return float(np.mod(np.arctan2(np.sin(ang).mean(), np.cos(ang).mean()) / (2.0 * np.pi), 1.0))


def summarize(samples: PosteriorSampleSet) -> dict:
    """Per-component mean, median, and equal-tailed 95% interval, plus the
    MAP sample (the retained draw with the highest recorded log posterior).

    Closed-curve samples are expected to be label-aligned first; their
    per-component location summaries are circular (values are unwrapped
    around the circular mean before taking percentiles).  ``accept_rate``
    is None when the sample set does not know it (a table read back from
    CSV).
    """
    if samples.n == 0:
        raise ValueError("empty sample set")
    th = samples.theta_matrix()
    closed = samples.topology == CLOSED
    means, quantiles = [], []
    for j in range(th.shape[1]):
        x = th[:, j]
        if closed:
            c = _circular_mean(x)
            qs = _quantiles(np.mod(x - c + 0.5, 1.0) - 0.5, (0.5, 0.025, 0.975))
            means.append(c)
            quantiles.append([float(np.mod(c + v, 1.0)) for v in qs])
        else:
            means.append(float(np.mean(x)))
            quantiles.append(_quantiles(x, (0.5, 0.025, 0.975)))
    medians, lo, hi = map(list, zip(*quantiles))
    imax = int(np.argmax(samples.log_post))
    return {
        "mean": means,
        "median": medians,
        "ci_lower": lo,
        "ci_upper": hi,
        "map": th[imax].tolist(),
        "map_log_post": float(samples.log_post[imax]),
        "accept_rate": None if np.isnan(samples.accept_rate) else float(samples.accept_rate),
        "n_samples": samples.n,
        "k": int(th.shape[1]),
    }


def marginal_density(samples: PosteriorSampleSet, component: int, n_grid: int = 512):
    """Gaussian kernel density estimate of one landmark's marginal on a
    uniform grid over [0, 1], Silverman bandwidth.

    Boundary mass is handled by reflection for open curves and by wrapping
    for closed ones, so the estimate integrates to 1 on [0, 1].
    Returns ``(grid, density)``.
    """
    x = samples.theta_matrix()[:, component]
    n = x.size
    if n < 50:
        raise ValueError("need at least 50 samples for a density estimate")
    sd = float(np.std(x, ddof=1))
    q75, q25 = _quantiles(x, (0.75, 0.25))
    iqr = q75 - q25
    scales = [s for s in (sd, iqr / 1.34) if s > 0.0]
    bw = 0.9 * min(scales) * n ** (-0.2) if scales else 1e-3
    bw = max(bw, 1e-3)
    if samples.topology == CLOSED:
        data = np.concatenate([x - 1.0, x, x + 1.0])
    else:
        data = np.concatenate([-x, x, 2.0 - x])
    grid = np.linspace(0.0, 1.0, n_grid)
    # a node farther than 40 bandwidths from every datum sums terms of at
    # most exp(-800), each exactly 0.0, so only the other nodes are evaluated
    srt = np.append(np.sort(data), np.inf)
    near = np.flatnonzero(srt[srt.searchsorted(grid - 40.0 * bw)] <= grid + 40.0 * bw)
    dens = np.zeros(n_grid)
    # at most 64 grid rows per chunk, fewer where each temporary would
    # otherwise hold more than _KDE_CHUNK values; a row is never split
    rows = min(64, max(1, _KDE_CHUNK // data.size))
    for lo in range(0, near.size, rows):
        at = near[lo : lo + rows]
        z = (grid[at, None] - data[None, :]) / bw
        dens[at] = np.exp(-0.5 * z * z).sum(axis=1)
    dens /= n * bw * np.sqrt(2.0 * np.pi)
    return grid, dens


def distance_criterion(
    sample: CurveSample,
    spec: ModelSpec,
    k_values,
    cfg: ChainConfig,
) -> list[tuple[int, float]]:
    """Average cumulative squared reconstruction error per landmark count.

    Runs the fixed-k sampler for each candidate k and averages the summed
    squared error over the retained posterior samples.  Each run gets its
    own child seed, spawned from ``cfg.seed`` by
    ``np.random.SeedSequence``, so no two runs share a seed, whether they
    differ in k or in the base seed.  The resulting curve is meant for
    elbow inspection; no automatic elbow pick is attempted.
    """
    k_values = list(k_values)
    children = np.random.SeedSequence(cfg.seed).spawn(len(k_values))
    out = []
    for k, child in zip(k_values, children):
        seed = int(child.generate_state(1)[0])
        res = run_chain(sample, spec, replace(cfg, seed=seed), k=k)
        d = np.mean(total_reconstruction_error_sq_batch(sample, res.theta_matrix()))
        out.append((int(k), float(d)))
    return out


def extrinsic_mean(sample: CurveSample) -> PlanarCurve:
    """Pointwise coordinate average of the sample's (aligned) curves."""
    n = sample.curves[0].n_points
    if any(c.n_points != n for c in sample.curves):
        raise CurveError("extrinsic mean needs a common sampling resolution")
    pts = np.mean([c.points for c in sample.curves], axis=0)
    return PlanarCurve(pts, sample.curves[0].topology)

"""Posterior summarization, marginal densities, the reconstruction-distance
criterion for choosing the landmark count, and extrinsic mean curves."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curves import CLOSED, CurveError, PlanarCurve
from .model import CurveSample, ModelSpec, total_reconstruction_error_sq_batch
from .rwm import ChainConfig, PosteriorSampleSet, run_chain


_KDE_CHUNK = 1 << 20


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
    means, medians, lo, hi = [], [], [], []
    for j in range(th.shape[1]):
        x = th[:, j]
        if closed:
            c = _circular_mean(x)
            shifted = np.mod(x - c + 0.5, 1.0) - 0.5
            means.append(c)
            medians.append(float(np.mod(c + np.median(shifted), 1.0)))
            lo.append(float(np.mod(c + np.percentile(shifted, 2.5), 1.0)))
            hi.append(float(np.mod(c + np.percentile(shifted, 97.5), 1.0)))
        else:
            means.append(float(np.mean(x)))
            medians.append(float(np.median(x)))
            lo.append(float(np.percentile(x, 2.5)))
            hi.append(float(np.percentile(x, 97.5)))
    imax = int(np.argmax(samples.log_post))
    return {
        "mean": means,
        "median": medians,
        "ci_lower": lo,
        "ci_upper": hi,
        "map": [float(v) for v in samples.thetas[imax]],
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
    iqr = float(np.subtract(*np.percentile(x, [75.0, 25.0])))
    scales = [s for s in (sd, iqr / 1.34) if s > 0.0]
    bw = 0.9 * min(scales) * n ** (-0.2) if scales else 1e-3
    bw = max(bw, 1e-3)
    if samples.topology == CLOSED:
        data = np.concatenate([x - 1.0, x, x + 1.0])
    else:
        data = np.concatenate([-x, x, 2.0 - x])
    grid = np.linspace(0.0, 1.0, n_grid)
    dens = np.empty(n_grid)
    # at most 64 grid rows per chunk, fewer where each temporary would
    # otherwise hold more than 2^20 values
    rows = min(64, max(1, _KDE_CHUNK // data.size))
    for lo in range(0, n_grid, rows):
        z = (grid[lo : lo + rows, None] - data[None, :]) / bw
        dens[lo : lo + rows] = np.exp(-0.5 * z * z).sum(axis=1)
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

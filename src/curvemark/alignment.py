"""Identifiability machinery for closed curves.

A closed domain has no natural start point, so inference anchors t=0 at the
maximal-curvature node of the first curve, shifts the remaining curves to
the cyclic offset closest to the first in SRVF distance, and relabels
posterior samples by the cyclic permutation closest to the first sample
under a circular metric.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .curves import CLOSED, CurveError, PlanarCurve, compute_srvf, discrete_curvature, evaluate_at
from .model import CurveSample
from .rwm import PosteriorSampleSet


def select_reference_point(curve: PlanarCurve) -> int:
    """Index of the node maximizing discrete curvature (ties: lowest index)."""
    return int(np.argmax(discrete_curvature(curve)))


def _shift_start(curve: PlanarCurve, t0: float) -> PlanarCurve:
    """Re-sample a closed curve so its parameter origin sits at t0."""
    n = curve.n_points
    ts = np.mod(t0 + np.arange(n) / n, 1.0)
    return PlanarCurve(evaluate_at(curve, ts), CLOSED)


def best_start_offset(q: np.ndarray, q_ref: np.ndarray) -> int:
    """Cyclic grid offset m minimizing sum_j |q[(j + m) mod N] - q_ref[j]|^2
    over all N offsets; ties go to the lowest offset.

    The cross term of every offset comes from one real FFT per coordinate.
    Offsets whose FFT cost is within 1e-9 (1 + |q|^2 + |q_ref|^2) of the
    smallest, far more than the FFT's rounding error, which scales with
    those norms, are re-scored by the direct sum; the lowest direct cost
    wins, so the pick is the direct search's.
    """
    n = len(q)
    norms = float(np.sum(q * q) + np.sum(q_ref * q_ref))
    spectrum = np.fft.rfft(q, axis=0) * np.conj(np.fft.rfft(q_ref, axis=0))
    costs = norms - 2.0 * np.fft.irfft(spectrum.sum(axis=1), n)
    near = np.flatnonzero(costs <= costs.min() + 1e-9 * (1.0 + norms))
    direct = [float(np.sum((np.roll(q, -m, axis=0) - q_ref) ** 2)) for m in near]
    return int(near[np.argmin(direct)])


def align_sample_starts(sample: CurveSample) -> CurveSample:
    """Anchor the sample's start points.

    The first curve is shifted so t=0 is its maximal-curvature node; every
    other curve is shifted by the integer grid offset minimizing the squared
    SRVF distance to the first (:func:`best_start_offset`, over all N
    shifts).
    """
    if sample.grid.topology != CLOSED:
        raise CurveError("start alignment applies to closed curves only")
    grid = sample.grid
    first = sample.curves[0]
    i0 = select_reference_point(first)
    aligned = [_shift_start(first, i0 / first.n_points)]
    q_ref = compute_srvf(aligned[0], grid)
    for curve, q in zip(sample.curves[1:], sample.srvfs[1:]):
        m_best = best_start_offset(q, q_ref)
        aligned.append(_shift_start(curve, m_best / grid.n_eval))
    return CurveSample.build(aligned, grid)


def circular_component_distance(a, b):
    """Circular distance min{|a-b|, 1-|a-b|} between locations in [0, 1);
    elementwise on arrays."""
    d = np.abs(np.subtract(a, b))
    return np.minimum(d, 1.0 - d)


def align_posterior_samples(samples: PosteriorSampleSet) -> PosteriorSampleSet:
    """Relabel each sample by the cyclic permutation minimizing its summed
    circular distance to the first sample.

    Only the k cyclic rotations are searched; landmark order around a closed
    curve is cyclic by construction.  Each rotation is scored for all
    samples at once.  Ties break toward the smallest rotation offset, which
    makes the operation idempotent.
    """
    if samples.topology != CLOSED:
        raise ValueError("posterior alignment applies to closed-curve samples")
    if samples.n == 0:
        return samples
    th = samples.theta_matrix()  # one landmark count, or ValueError
    n, k = th.shape
    rolls = (np.arange(k)[:, None] + np.arange(k)) % k  # row r rolls left by r
    cost = np.column_stack(
        [circular_component_distance(th[:, roll], th[0]).sum(axis=1) for roll in rolls]
    )
    best = th[np.arange(n)[:, None], rolls[cost.argmin(axis=1)]]
    return replace(samples, thetas=best)

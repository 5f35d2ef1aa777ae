"""Priors, marginal likelihood, and log-posterior evaluation.

All densities are computed in log space: the Gamma function arguments grow
with N*M and overflow otherwise.  The precision of the SRVF noise model is
marginalized analytically against its Gamma prior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import OPEN, CurveError, EvaluationGrid, compute_srvf
from .reconstruct import (
    CacheStack,
    LandmarkError,
    _error_sq_rows,
    _error_sq_sum,
    _row_spacings,
    _valid_spacings,
    k_min_for,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class ModelSpec:
    """Hyperparameters of the landmark model.

    ``a``, ``b`` parameterize the Gamma prior on the marginalized noise
    precision; ``alpha`` is the Dirichlet concentration on spacings; ``lam``
    is the shifted-Poisson rate on the landmark count (variable-k mode
    only).  ``k_max`` caps dimension growth in trans-dimensional runs.
    """

    n_eval: int
    topology: str = OPEN
    a: float = 1.0
    b: float = 0.01
    alpha: float = 1.0
    lam: float | None = None
    k_max: int = 50

    def __post_init__(self):
        if self.n_eval < 16:
            raise ValueError("n_eval must be at least 16")
        for name in ("a", "b", "alpha", "lam"):
            value = getattr(self, name)
            if not (name == "lam" and value is None or 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, not {value}")
        if self.k_max < k_min_for(self.topology):
            raise ValueError("k_max below the minimum landmark count")

    @property
    def min_spacing(self) -> float:
        # below grid resolution the reconstruction is ill-defined
        return 1.0 / (4.0 * self.n_eval)


@dataclass
class CurveSample:
    """Preprocessed curves with their SRVFs on a shared grid (one (N, 2)
    array per curve).  What the likelihood reads of them
    (:class:`CacheStack`) is built on first use."""

    curves: list
    srvfs: list
    grid: EvaluationGrid

    @classmethod
    def build(cls, curves, grid: EvaluationGrid) -> "CurveSample":
        curves = list(curves)
        if not curves:
            raise CurveError("need at least one curve")
        for c in curves:
            if c.topology != grid.topology:
                raise CurveError("all curves must share the grid topology")
        return cls(curves, [compute_srvf(c, grid) for c in curves], grid)

    @functools.cached_property
    def stack(self) -> CacheStack:
        return CacheStack(self.curves, self.srvfs)

    @property
    def m(self) -> int:
        return len(self.curves)


def _floats(theta) -> list:
    return theta.tolist() if isinstance(theta, np.ndarray) else [float(v) for v in theta]


def _dirichlet_norm(p: int, alpha: float) -> float:
    """Log normalizer of the symmetric Dirichlet over p spacings."""
    return math.lgamma(p * alpha) - p * math.lgamma(alpha)


def _dirichlet_sum(s: list, alpha: float) -> float:
    """The spacing-dependent part of the Dirichlet log density."""
    return (alpha - 1.0) * sum(map(math.log, s))


def log_prior_spacing(s, spec: ModelSpec) -> float:
    """Log density of the symmetric Dirichlet at a spacing vector."""
    vals = np.asarray(s, dtype=float).ravel().tolist()
    if any(not v > 0.0 for v in vals):
        return NEG_INF
    return _dirichlet_norm(len(vals), spec.alpha) + _dirichlet_sum(vals, spec.alpha)


def log_prior_k(k: int, spec: ModelSpec) -> float:
    """Shifted Poisson log-pmf on the landmark count."""
    if spec.lam is None:
        raise ValueError("ModelSpec.lam is required for variable-k inference")
    nu = k - k_min_for(spec.topology)
    if nu < 0 or k > spec.k_max:
        return NEG_INF
    return nu * math.log(spec.lam) - spec.lam - math.lgamma(nu + 1.0)


@functools.lru_cache(maxsize=64)
def _k_terms(spec: ModelSpec, n: int, variable_k: bool):
    """The per-k constants of the log posterior for k < n, computed once:
    the Dirichlet log normalizer of k landmarks' spacings and, in
    variable-k mode, :func:`log_prior_k` (0 otherwise); -inf below the
    minimum landmark count.  Returned as the two lists and as one array of
    their sums, for indexing by a batch's landmark counts.  Callers pass
    ``n = max(spec.k_max, largest k) + 2``, which covers a birth from
    ``k_max`` and keeps one table per spec unless a fixed-k chain runs
    beyond ``k_max``."""
    k_min = k_min_for(spec.topology)
    gaps = 1 if spec.topology == OPEN else 0  # spacings less landmarks
    norms = [_dirichlet_norm(k + gaps, spec.alpha) if k >= k_min else NEG_INF for k in range(n)]
    priors = [log_prior_k(k, spec) if variable_k else 0.0 for k in range(n)]
    return norms, priors, np.array(norms) + np.array(priors)


def total_reconstruction_error_sq(sample: CurveSample, theta) -> float:
    """Sum over the sample's curves of the squared reconstruction error:
    the discrete squared L2 distance between the SRVFs of a curve and of
    its linear reconstruction through the landmarks ``theta``, read from
    each curve's cached prefix sums in O(k) (see
    :class:`~curvemark.reconstruct.CacheStack`).

    Both SRVFs come from the same centred finite differences on the grid
    (one-sided at open ends), so the two sides share discretization bias.
    Raises :class:`LandmarkError` for a landmark vector outside the
    support.
    """
    th = _floats(theta)
    if _valid_spacings(th, sample.grid.topology) is None:
        raise LandmarkError(f"invalid landmark vector for {sample.grid.topology} curve: {th}")
    return _error_sq_sum(sample.stack, th, sample.grid)


def total_reconstruction_error_sq_batch(sample: CurveSample, thetas) -> np.ndarray:
    """:func:`total_reconstruction_error_sq` of every landmark vector in
    ``thetas`` (a (B, k) array, or a sequence of vectors of any lengths),
    in one batched evaluation."""
    th, ks = _stack_rows(thetas)
    if not (_row_spacings(th.T, ks, sample.grid.topology)[1] > 0.0).all():
        raise LandmarkError("invalid landmark vector in the batch")
    return _error_sq_chunked(sample, th.T)


# Rows times curves per call of the batched engine, whose temporaries grow
# as M * rows * k; larger ones go back to the OS when freed and fault in
# again: 20,000 rows at M = 1, N = 100, k = 10 took 106-111 ms in 320-row
# chunks and 215-220 ms (5.8k-35.8k minor faults) in 1,024-row chunks.
_CURVE_ROWS = 320


def _error_sq_chunked(sample: CurveSample, th: np.ndarray) -> np.ndarray:
    """:func:`_error_sq_rows` of a (K, B) landmark array, ``_CURVE_ROWS // M`` rows a call."""
    rows = max(1, _CURVE_ROWS // sample.m)
    return np.concatenate([
        _error_sq_rows(sample.stack, th[:, i : i + rows], sample.grid)
        for i in range(0, th.shape[1], rows)
    ])


@functools.lru_cache(maxsize=64)
def _log_marginal_const(spec: ModelSpec, m: int) -> float:
    nm = spec.n_eval * m
    a, b = spec.a, spec.b
    return -nm * math.log(math.pi) + math.lgamma(a + nm) + a * math.log(b) - math.lgamma(a)


def _log_marginal_from_error(total_sq, spec: ModelSpec, m: int, log=math.log):
    """Log marginal likelihood at a total squared error (an array of them
    with ``log=np.log``)."""
    shape = spec.a + spec.n_eval * m
    return _log_marginal_const(spec, m) - shape * log(spec.b + total_sq)


def _log_likelihood(sample: CurveSample, th: list, s: list, spec: ModelSpec) -> float:
    """Log marginal likelihood at a landmark list in the support, with
    spacings ``s``: -inf when a spacing is below the grid-resolution guard."""
    if min(s) < spec.min_spacing:
        return NEG_INF
    return _log_marginal_from_error(total_reconstruction_error_sq(sample, th), spec, sample.m)


def log_marginal_likelihood(sample: CurveSample, theta, spec: ModelSpec) -> float:
    """Likelihood of the sample with the noise precision integrated out.

    Landmark vectors outside the support, or with any spacing below the
    grid-resolution guard, are assigned -inf.
    """
    th = _floats(theta)
    s = _valid_spacings(th, spec.topology)
    return NEG_INF if s is None else _log_likelihood(sample, th, s, spec)


def log_posterior_theta(
    sample: CurveSample,
    theta: np.ndarray,
    spec: ModelSpec,
    variable_k: bool = False,
    include_likelihood: bool = True,
) -> float:
    """Log posterior evaluated on a raw landmark array.

    Invalid orderings return -inf rather than raising, which is what the
    samplers rely on to auto-reject.  ``include_likelihood=False`` gives the
    prior alone (validation mode).
    """
    th = _floats(theta)
    s = _valid_spacings(th, spec.topology)
    if s is None:
        return NEG_INF
    k = len(th)
    norms, priors, _ = _k_terms(spec, max(spec.k_max, k) + 2, variable_k)
    lp = norms[k] + _dirichlet_sum(s, spec.alpha)
    if variable_k:
        lp += priors[k]
    if lp == NEG_INF:
        return NEG_INF
    if include_likelihood:
        lp += _log_likelihood(sample, th, s, spec)
    return lp


def _stack_rows(thetas):
    """Landmark vectors as a (B, K) array, each row padded with its own
    last value, and the vectors' lengths."""
    if isinstance(thetas, np.ndarray) and thetas.ndim == 2:
        th = thetas.astype(float, copy=False)
        return th, np.full(th.shape[0], th.shape[1])
    ks = np.array([len(t) for t in thetas])
    if ks.min() < 1:
        raise LandmarkError("empty landmark vector in the batch")
    start = np.cumsum(ks) - ks
    col = np.minimum(np.arange(ks.max()), ks[:, None] - 1)
    return np.concatenate(thetas).astype(float, copy=False)[start[:, None] + col], ks


def log_posterior_batch(
    sample: CurveSample,
    thetas,
    spec: ModelSpec,
    variable_k: bool = False,
    include_likelihood: bool = True,
    ks=None,
) -> np.ndarray:
    """:func:`log_posterior_theta` of every landmark vector in ``thetas``
    (a (B, k) array, or a sequence of vectors of any lengths), in one
    batched evaluation.  With ``ks``, ``thetas`` is a (B, K) array whose
    row r holds ``ks[r]`` landmarks padded with its last one (the layout
    the samplers' blocks build, whose (K, B) arrays pass in as their
    ``.T`` view without a copy: the batch is scored with rows last).

    Vectors that :func:`log_posterior_theta` would reject (invalid ordering
    or support, a spacing below the grid-resolution guard) get -inf; the
    others agree with it to rounding, since only the order of the
    summation differs.
    """
    if ks is None:
        th, ks = _stack_rows(thetas)
    else:
        th, ks = np.asarray(thetas, dtype=float), np.asarray(ks)
        if th.ndim != 2 or ks.shape != th.shape[:1] or ks.min() < 1 or ks.max() > th.shape[1]:
            raise LandmarkError("ks must give each row's landmark count, 1 to K")
    th = th.T
    s, least = _row_spacings(th, ks, spec.topology)
    lp = _k_terms(spec, max(spec.k_max, th.shape[0]) + 2, variable_k)[2].take(ks)
    if spec.alpha != 1.0:  # otherwise the term is 0 * sum, exactly 0
        lp += (spec.alpha - 1.0) * np.log(np.where(least > 0.0, s, 1.0)).sum(axis=0)
    # the support, and with the likelihood the grid-resolution guard
    valid = least >= spec.min_spacing if include_likelihood else least > 0.0
    if include_likelihood:
        keep = np.flatnonzero(valid)
        if keep.size == len(ks):  # every row is scored: no selection, no -inf
            total = _error_sq_chunked(sample, th)
            return lp + _log_marginal_from_error(total, spec, sample.m, np.log)
        if keep.size:
            total = _error_sq_chunked(sample, th.take(keep, 1))
            lp[keep] += _log_marginal_from_error(total, spec, sample.m, np.log)
    return np.where(valid, lp, NEG_INF)

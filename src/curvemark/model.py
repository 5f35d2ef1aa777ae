"""Priors, marginal likelihood, and log-posterior evaluation.

All densities are computed in log space: the Gamma function arguments grow
with N*M and overflow otherwise.  The precision of the SRVF noise model is
marginalized analytically against its Gamma prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import OPEN, CurveError, EvaluationGrid, compute_srvf
from .reconstruct import (
    CacheStack,
    CurveCache,
    LandmarkConfig,
    LandmarkError,
    SpacingVector,
    _error_sq_rows,
    _error_sq_sum,
    _min_count,
    _row_spacings,
    _spacing_list,
    _valid_spacings,
)

NEG_INF = float("-inf")


def k_min_for(topology: str) -> int:
    """Smallest admissible landmark count: 1 for open curves, 3 for closed
    (a closed reconstruction needs three vertices)."""
    return _min_count(topology)


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
        if self.a <= 0 or self.b <= 0 or self.alpha <= 0:
            raise ValueError("a, b, alpha must be positive")
        if self.lam is not None and self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.k_max < k_min_for(self.topology):
            raise ValueError("k_max below the minimum landmark count")

    @property
    def min_spacing(self) -> float:
        # below grid resolution the reconstruction is ill-defined
        return 1.0 / (4.0 * self.n_eval)

    def grid(self) -> EvaluationGrid:
        return EvaluationGrid(self.n_eval, self.topology)


@dataclass
class CurveSample:
    """Preprocessed curves with cached SRVFs on a shared grid, plus the
    per-curve buffers the likelihood reads (:class:`CurveCache`) and the
    same buffers stacked for batched evaluation (:class:`CacheStack`)."""

    curves: list
    srvfs: list
    grid: EvaluationGrid
    caches: list
    stack: CacheStack

    @classmethod
    def build(cls, curves, grid: EvaluationGrid) -> "CurveSample":
        curves = list(curves)
        if not curves:
            raise CurveError("need at least one curve")
        for c in curves:
            if c.topology != grid.topology:
                raise CurveError("all curves must share the grid topology")
        srvfs = [compute_srvf(c, grid) for c in curves]
        caches = [CurveCache(c, q.values) for c, q in zip(curves, srvfs)]
        return cls(curves, srvfs, grid, caches, CacheStack(caches))

    @property
    def m(self) -> int:
        return len(self.curves)


def _floats(theta) -> list:
    return theta.tolist() if isinstance(theta, np.ndarray) else [float(v) for v in theta]


def _dirichlet_norm(p: int, alpha: float) -> float:
    """Log normalizer of the symmetric Dirichlet over p spacings."""
    return math.lgamma(p * alpha) - p * math.lgamma(alpha)


def _log_dirichlet(s: list, alpha: float) -> float:
    return _dirichlet_norm(len(s), alpha) + (alpha - 1.0) * sum(map(math.log, s))


def log_prior_spacing(s, spec: ModelSpec) -> float:
    """Log density of the symmetric Dirichlet at a spacing vector."""
    vals = np.asarray(s.s if isinstance(s, SpacingVector) else s, dtype=float).ravel().tolist()
    if any(not v > 0.0 for v in vals):
        return NEG_INF
    return _log_dirichlet(vals, spec.alpha)


def log_prior_k(k: int, spec: ModelSpec) -> float:
    """Shifted Poisson log-pmf on the landmark count."""
    if spec.lam is None:
        raise ValueError("ModelSpec.lam is required for variable-k inference")
    nu = k - k_min_for(spec.topology)
    if nu < 0 or k > spec.k_max:
        return NEG_INF
    return nu * math.log(spec.lam) - spec.lam - math.lgamma(nu + 1.0)


def total_reconstruction_error_sq(sample: CurveSample, theta) -> float:
    """Sum of squared reconstruction errors over the sample's curves,
    from each curve's cached prefix sums in O(k) (see
    :class:`~curvemark.reconstruct.CurveCache`)."""
    return _error_sq_sum(sample.caches, _floats(theta), sample.grid)


def total_reconstruction_error_sq_batch(sample: CurveSample, thetas) -> np.ndarray:
    """:func:`total_reconstruction_error_sq` of every landmark vector in
    ``thetas`` (a (B, k) array, or a sequence of vectors of any lengths),
    in one batched evaluation."""
    th, ks = _stack_rows(thetas)
    if not _row_spacings(th, ks, sample.grid.topology)[1].all():
        raise LandmarkError("invalid landmark vector in the batch")
    return _error_sq_chunked(sample, th, ks)


# Rows per call of the batched engine, whose temporaries grow as M * rows
# * k: 1024 rows peak at about 25 MB (M = 5, k = 10, tracemalloc) and
# cost no more per row than larger chunks.
_BATCH_ROWS = 1024


def _error_sq_chunked(sample: CurveSample, th: np.ndarray, ks: np.ndarray) -> np.ndarray:
    return np.concatenate([
        _error_sq_rows(sample.stack, th[i : i + _BATCH_ROWS], ks[i : i + _BATCH_ROWS], sample.grid)
        for i in range(0, len(ks), _BATCH_ROWS)
    ])


def _log_marginal_const(spec: ModelSpec, m: int) -> float:
    nm = spec.n_eval * m
    a, b = spec.a, spec.b
    return -nm * math.log(math.pi) + math.lgamma(a + nm) + a * math.log(b) - math.lgamma(a)


def _log_marginal_from_error(total_sq, spec: ModelSpec, m: int, log=math.log):
    """Log marginal likelihood at a total squared error (an array of them
    with ``log=np.log``)."""
    shape = spec.a + spec.n_eval * m
    return _log_marginal_const(spec, m) - shape * log(spec.b + total_sq)


def log_marginal_likelihood(
    sample: CurveSample, cfg: LandmarkConfig, spec: ModelSpec
) -> float:
    """Likelihood of the sample with the noise precision integrated out.

    Configurations with any spacing below the grid-resolution guard are
    assigned -inf.
    """
    th = cfg.theta.tolist()
    if min(_spacing_list(th, cfg.topology)) < spec.min_spacing:
        return NEG_INF
    return _log_marginal_from_error(total_reconstruction_error_sq(sample, th), spec, sample.m)


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
    lp = _log_dirichlet(s, spec.alpha)
    if variable_k:
        lp += log_prior_k(len(th), spec)
    if lp == NEG_INF:
        return NEG_INF
    if include_likelihood:
        if min(s) < spec.min_spacing:
            return NEG_INF
        lp += _log_marginal_from_error(
            total_reconstruction_error_sq(sample, th), spec, sample.m
        )
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
) -> np.ndarray:
    """:func:`log_posterior_theta` of every landmark vector in ``thetas``
    (a (B, k) array, or a sequence of vectors of any lengths), in one
    batched evaluation.

    Vectors that :func:`log_posterior_theta` would reject (invalid ordering
    or support, a spacing below the grid-resolution guard) get -inf; the
    others agree with it to rounding, since only the order of the
    summation differs.
    """
    th, ks = _stack_rows(thetas)
    s, valid = _row_spacings(th, ks, spec.topology)
    counts = ks.tolist()
    # the Dirichlet normalizer of each landmark count in the batch
    norm = {}
    for k in set(ks[valid].tolist()):
        norm[k] = _dirichlet_norm(k + 1 if spec.topology == OPEN else k, spec.alpha)
    lp = np.array([norm.get(k, NEG_INF) for k in counts])
    if spec.alpha != 1.0:  # otherwise the term is 0 * sum, exactly 0
        lp += (spec.alpha - 1.0) * np.log(np.where(valid[:, None], s, 1.0)).sum(axis=1)
    if variable_k:
        prior = {k: log_prior_k(k, spec) for k in norm}
        lp += np.array([prior.get(k, NEG_INF) for k in counts])
    valid &= lp > NEG_INF
    if include_likelihood:
        valid &= s.min(axis=1) >= spec.min_spacing
        keep = np.flatnonzero(valid)
        if keep.size:
            total = _error_sq_chunked(sample, th[keep], ks[keep])
            lp[keep] += _log_marginal_from_error(total, spec, sample.m, np.log)
    return np.where(valid, lp, NEG_INF)


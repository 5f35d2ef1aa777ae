"""Priors, marginal likelihood, and log-posterior evaluation.

All densities are computed in log space: the Gamma function arguments grow
with N*M and overflow otherwise.  The precision of the SRVF noise model is
marginalized analytically against its Gamma prior; an optional Gibbs draw
of it is available for users who want precision inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import CLOSED, OPEN, CurveError, EvaluationGrid, compute_srvf
from .reconstruct import (
    CurveCache,
    LandmarkConfig,
    SpacingVector,
    _error_sq_sum,
    _spacing_list,
    _valid_spacings,
)

NEG_INF = float("-inf")


def k_min_for(topology: str) -> int:
    """Smallest admissible landmark count: 1 for open curves, 3 for closed
    (a closed reconstruction needs three vertices)."""
    return 3 if topology == CLOSED else 1


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
    per-curve buffers the likelihood reads (:class:`CurveCache`)."""

    curves: list
    srvfs: list
    grid: EvaluationGrid
    caches: list

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
        return cls(curves, srvfs, grid, caches)

    @property
    def m(self) -> int:
        return len(self.curves)


def _floats(theta) -> list:
    return theta.tolist() if isinstance(theta, np.ndarray) else [float(v) for v in theta]


def _log_dirichlet(s: list, alpha: float) -> float:
    p = len(s)
    return (
        math.lgamma(p * alpha)
        - p * math.lgamma(alpha)
        + (alpha - 1.0) * sum(map(math.log, s))
    )


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


def _log_marginal_from_error(total_sq: float, spec: ModelSpec, m: int) -> float:
    nm = spec.n_eval * m
    a, b = spec.a, spec.b
    return (
        -nm * math.log(math.pi)
        + math.lgamma(a + nm)
        + a * math.log(b)
        - math.lgamma(a)
        - (a + nm) * math.log(b + total_sq)
    )


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


def log_posterior(
    sample: CurveSample,
    cfg: LandmarkConfig,
    spec: ModelSpec,
    variable_k: bool = False,
) -> float:
    """Unnormalized log posterior of a landmark configuration."""
    return log_posterior_theta(sample, cfg.theta, spec, variable_k=variable_k)


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


def sample_precision(
    rng: np.random.Generator,
    sample: CurveSample,
    cfg: LandmarkConfig,
    spec: ModelSpec,
) -> float:
    """Gibbs draw of the noise precision from its full conditional,
    Gamma(a + NM, b + total squared error).  Optional; the default
    inference path never samples it."""
    total = total_reconstruction_error_sq(sample, cfg.theta)
    shape = spec.a + spec.n_eval * sample.m
    return float(rng.gamma(shape, 1.0 / (spec.b + total)))

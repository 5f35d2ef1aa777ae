"""Bayesian landmark detection on elastic planar curves.

Curves are represented through their square-root velocity fields; a
piecewise-linear reconstruction through candidate landmarks induces a
likelihood whose noise precision is marginalized analytically.  Posterior
sampling runs either a fixed-dimension random-walk Metropolis chain or a
birth-death reversible-jump chain when the landmark count is unknown.
"""

from .alignment import (
    align_posterior_samples,
    align_sample_starts,
    circular_component_distance,
    select_reference_point,
)
from .curves import (
    CLOSED,
    OPEN,
    CurveError,
    EvaluationGrid,
    PlanarCurve,
    compute_srvf,
    discrete_curvature,
    evaluate_at,
    polygonal_length,
    resample,
    rescale_unit_length,
    srvf_to_curve,
)
from .io import InputError, RunConfig, load_curves, persist_results, read_samples_csv
from .model import (
    CurveSample,
    ModelSpec,
    k_min_for,
    log_marginal_likelihood,
    log_posterior_batch,
    log_posterior_theta,
    log_prior_k,
    log_prior_spacing,
    total_reconstruction_error_sq,
    total_reconstruction_error_sq_batch,
)
from .reconstruct import (
    LandmarkError,
    linear_reconstruction,
    spacing_from_theta,
    spacing_to_theta,
    theta_is_valid,
)
from .rjmcmc import propose_birth, propose_death, run_rjmcmc
from .rwm import ChainConfig, PosteriorSampleSet, run_chain, rwm_step
from .summaries import distance_criterion, extrinsic_mean, marginal_density, summarize
from .synthetic import cut_half_circle, generate, half_circle, scaled_sine_family, sine_curve

__version__ = "0.1.0"

__all__ = [
    "CLOSED",
    "ChainConfig",
    "OPEN",
    "CurveError",
    "CurveSample",
    "EvaluationGrid",
    "InputError",
    "LandmarkError",
    "ModelSpec",
    "PlanarCurve",
    "PosteriorSampleSet",
    "RunConfig",
    "align_posterior_samples",
    "align_sample_starts",
    "circular_component_distance",
    "compute_srvf",
    "cut_half_circle",
    "discrete_curvature",
    "distance_criterion",
    "evaluate_at",
    "extrinsic_mean",
    "generate",
    "half_circle",
    "k_min_for",
    "linear_reconstruction",
    "load_curves",
    "log_marginal_likelihood",
    "log_posterior_batch",
    "log_posterior_theta",
    "log_prior_k",
    "log_prior_spacing",
    "marginal_density",
    "persist_results",
    "polygonal_length",
    "propose_birth",
    "propose_death",
    "read_samples_csv",
    "resample",
    "rescale_unit_length",
    "run_chain",
    "run_rjmcmc",
    "rwm_step",
    "scaled_sine_family",
    "select_reference_point",
    "sine_curve",
    "spacing_from_theta",
    "spacing_to_theta",
    "srvf_to_curve",
    "summarize",
    "theta_is_valid",
    "total_reconstruction_error_sq",
    "total_reconstruction_error_sq_batch",
]

"""Birth-death-stay reversible-jump sampler over (k, theta).

Births insert a uniformly drawn location and deaths remove a uniformly
chosen landmark, so the dimension-matching Jacobian is 1 and the proposal
ratio reduces to move probabilities and selection counts.  At the minimum
landmark count the death mass is reassigned to births, with the asymmetry
carried in the acceptance ratio.  :func:`_moves` is the per-k move table
that the chain driver and both jump proposals read.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .model import CurveSample, ModelSpec, NEG_INF, k_min_for, log_prior_k
from .rwm import ChainConfig, PosteriorSampleSet, _sample_chain, draw_initial_theta


def move_probabilities(k: int, k_min: int, move_probs) -> tuple[float, float, float]:
    """(birth, death, stay) probabilities at dimension k; death mass moves
    to birth at the boundary."""
    pb, pd, ps = move_probs
    if k <= k_min:
        pb, pd = pb + pd, 0.0
    return pb, pd, ps


@functools.lru_cache(maxsize=256)
def _moves(k: int, topology: str, move_probs: tuple) -> tuple[float, float, float, float]:
    """The move table's row at k: the birth and death probabilities and the
    log proposal ratios of a birth from k and of a death from k (-inf where
    no death is allowed)."""
    k_min = k_min_for(topology)
    pb, pd, _ = move_probabilities(k, k_min, move_probs)
    pd_next = move_probabilities(k + 1, k_min, move_probs)[1]
    birth = float(np.log(pd_next) - np.log(k + 1.0) - np.log(pb))
    if k <= k_min:
        return pb, pd, birth, NEG_INF
    pb_prev = move_probabilities(k - 1, k_min, move_probs)[0]
    return pb, pd, birth, float(np.log(pb_prev) + np.log(float(k)) - np.log(pd))


def propose_birth(theta: np.ndarray, where: float, spec: ModelSpec, move_probs):
    """Insert a new landmark at ``where``, the iteration's uniform location
    on [0, 1) (see ``rwm._random_table``); returns the grown vector and the
    log proposal ratio for the acceptance test.

    The location is uniform on [0, 1) even where it falls within the
    grid-resolution spacing of a landmark: the log posterior rejects such
    states, and redrawing them instead would bias the birth density away
    from the one the acceptance ratio assumes.
    """
    th = theta.tolist()
    log_ratio = _moves(len(th), spec.topology, tuple(move_probs))[2]
    bisect.insort(th, where)
    return np.array(th), log_ratio


def propose_death(theta: np.ndarray, where: float, spec: ModelSpec, move_probs):
    """Remove the landmark ``where`` picks, index ``min(floor(where * k),
    k - 1)``: uniformly chosen for ``where`` uniform on [0, 1).  Reciprocal
    of the matched birth."""
    k = theta.size
    log_ratio = _moves(k, spec.topology, tuple(move_probs))[3]
    if log_ratio == NEG_INF:
        raise ValueError("death move proposed at the minimum landmark count")
    th = theta.tolist()
    del th[min(int(where * k), k - 1)]
    return np.array(th), log_ratio


def draw_initial_state(rng: np.random.Generator, spec: ModelSpec) -> np.ndarray:
    """Prior draw of (k, theta): k from the truncated shifted Poisson
    :func:`~curvemark.model.log_prior_k`, then spacings from the Dirichlet."""
    ks = np.arange(k_min_for(spec.topology), spec.k_max + 1)
    logp = np.array([log_prior_k(k, spec) for k in ks.tolist()])
    p = np.exp(logp - logp.max())
    return draw_initial_theta(rng, spec, int(rng.choice(ks, p=p / p.sum())))


def run_rjmcmc(
    sample: CurveSample,
    spec: ModelSpec,
    cfg: ChainConfig,
    prior_only: bool = False,
) -> PosteriorSampleSet:
    """Run the birth-death-stay chain over (k, theta)."""
    return _sample_chain(
        sample, spec, cfg, prior_only,
        draw_prior=lambda rng: draw_initial_state(rng, spec),
        moves=lambda k: _moves(k, spec.topology, tuple(cfg.move_probs)),
        jumps=(propose_birth, propose_death),
    )

"""Birth-death-stay reversible-jump sampler over (k, theta).

Births insert a uniformly drawn location and deaths remove a uniformly
chosen landmark, so the dimension-matching Jacobian is 1 and the proposal
ratio reduces to move probabilities and selection counts.  At the minimum
landmark count the death mass is reassigned to births, with the asymmetry
carried in the acceptance ratio.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

from .curves import CLOSED
from .model import CurveSample, ModelSpec, NEG_INF, k_min_for, log_prior_k
from .rwm import (
    ChainConfig,
    PosteriorSampleSet,
    _block_proposals,
    _sample_chain,
    draw_initial_theta,
)


def move_probabilities(k: int, k_min: int, move_probs) -> tuple[float, float, float]:
    """(birth, death, stay) probabilities at dimension k; death mass moves
    to birth at the boundary."""
    pb, pd, ps = move_probs
    if k <= k_min:
        pb, pd = pb + pd, 0.0
    return pb, pd, ps


@functools.lru_cache(maxsize=256)
def _jump_log_ratios(k: int, topology: str, move_probs: tuple) -> tuple[float, float]:
    """Log proposal ratios of a birth from k and of a death from k (-inf
    where no death is allowed)."""
    k_min = k_min_for(topology)
    pb = move_probabilities(k, k_min, move_probs)[0]
    pd_next = move_probabilities(k + 1, k_min, move_probs)[1]
    birth = float(np.log(pd_next) - np.log(k + 1.0) - np.log(pb))
    if k <= k_min:
        return birth, NEG_INF
    pd = move_probabilities(k, k_min, move_probs)[1]
    pb_prev = move_probabilities(k - 1, k_min, move_probs)[0]
    return birth, float(np.log(pb_prev) + np.log(float(k)) - np.log(pd))


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
    log_ratio = _jump_log_ratios(len(th), spec.topology, tuple(move_probs))[0]
    bisect.insort(th, where)
    return np.array(th), log_ratio


def propose_death(theta: np.ndarray, where: float, spec: ModelSpec, move_probs):
    """Remove the landmark ``where`` picks, index ``min(floor(where * k),
    k - 1)``: uniformly chosen for ``where`` uniform on [0, 1).  Reciprocal
    of the matched birth."""
    k = theta.size
    log_ratio = _jump_log_ratios(k, spec.topology, tuple(move_probs))[1]
    if log_ratio == NEG_INF:
        raise ValueError("death move proposed at the minimum landmark count")
    th = theta.tolist()
    del th[min(int(where * k), k - 1)]
    return np.array(th), log_ratio


def _jump_block(theta, block, moves, sd, topology, move_probs):
    """The proposals of a table slice for the rows' moves ``moves``, built
    at once by ``rwm._block_proposals`` with the log ratios of a birth and
    a death from ``theta``."""
    ratios = _jump_log_ratios(theta.size, topology, tuple(move_probs))
    return _block_proposals(theta, block, moves, sd, topology == CLOSED, *ratios)


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
    k_min = k_min_for(spec.topology)
    sd = math.sqrt(cfg.proposal_var)
    return _sample_chain(
        sample, spec, cfg, prior_only,
        draw_prior=lambda rng: draw_initial_state(rng, spec),
        probs=lambda k: move_probabilities(k, k_min, cfg.move_probs),
        jumps=(propose_birth, propose_death),
        build=lambda th, block, moves: _jump_block(
            th, block, moves, sd, spec.topology, cfg.move_probs
        ),
    )

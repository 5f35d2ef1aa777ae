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

from .model import CurveSample, ModelSpec, NEG_INF, k_min_for, log_posterior_theta
from .rwm import (
    ChainConfig,
    PosteriorSampleSet,
    _decide,
    _propose_stay,
    _sample_chain,
    draw_initial_theta,
    rwm_step,
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


def propose_birth(theta: np.ndarray, rng: np.random.Generator, spec: ModelSpec, move_probs):
    """Insert a uniform new landmark; returns the grown vector and the log
    proposal ratio for the acceptance test.

    The location is uniform on [0, 1) even where it falls within the
    grid-resolution spacing of a landmark: the log posterior rejects such
    states, and redrawing them instead would bias the birth density away
    from the one the acceptance ratio assumes.
    """
    return _birth(theta, rng, spec, move_probs)


def propose_death(theta: np.ndarray, rng: np.random.Generator, spec: ModelSpec, move_probs):
    """Remove a uniformly chosen landmark; reciprocal of the matched birth."""
    return _death(theta, rng, spec, move_probs)


# The bodies of propose_birth and propose_death.  The samplers' block loop
# draws ahead with these, so that the public move functions run once per
# chain iteration (see rwm._run_path).


def _birth(theta, rng, spec, move_probs):
    th = theta.tolist()
    u = rng.random()
    log_ratio = _jump_log_ratios(len(th), spec.topology, tuple(move_probs))[0]
    bisect.insort(th, u)
    return np.array(th), log_ratio


def _death(theta, rng, spec, move_probs):
    k = theta.size
    log_ratio = _jump_log_ratios(k, spec.topology, tuple(move_probs))[1]
    if log_ratio == NEG_INF:
        raise ValueError("death move proposed at the minimum landmark count")
    th = theta.tolist()
    del th[int(rng.integers(k))]
    return np.array(th), log_ratio


def draw_initial_state(rng: np.random.Generator, spec: ModelSpec) -> np.ndarray:
    """Prior draw of (k, theta): shifted Poisson truncated at k_max, then
    spacings from the Dirichlet."""
    if spec.lam is None:
        raise ValueError("ModelSpec.lam is required for variable-k inference")
    k_min = k_min_for(spec.topology)
    nus = np.arange(spec.k_max - k_min + 1)
    log_lam = math.log(spec.lam)
    logp = np.array([nu * log_lam - math.lgamma(nu + 1.0) for nu in range(nus.size)])
    p = np.exp(logp - logp.max())
    k = k_min + int(rng.choice(nus, p=p / p.sum()))
    return draw_initial_theta(rng, spec, k)


def run_rjmcmc(
    sample: CurveSample,
    spec: ModelSpec,
    cfg: ChainConfig,
    prior_only: bool = False,
) -> PosteriorSampleSet:
    """Run the birth-death-stay chain over (k, theta)."""
    rng = np.random.default_rng(cfg.seed)
    k_min = k_min_for(spec.topology)
    sd = math.sqrt(cfg.proposal_var)

    def choose(th):
        """Draw the move: 0 birth, 1 death, 2 stay."""
        pb, pd, _ = move_probabilities(th.size, k_min, cfg.move_probs)
        u = rng.random()
        return 0 if u < pb else 1 if u < pb + pd else 2

    def draw(th):
        move = choose(th)
        if move == 0:
            return _birth(th, rng, spec, cfg.move_probs)
        if move == 1:
            return _death(th, rng, spec, cfg.move_probs)
        return _propose_stay(th, rng, spec.topology, sd), 0.0

    def step(th, lp, logp_new=None):
        move = choose(th)
        if move == 2:
            return rwm_step(
                th,
                lp,
                sample,
                spec,
                cfg.proposal_var,
                rng,
                variable_k=True,
                prior_only=prior_only,
                logp_new=logp_new,
            )
        if move == 0:
            prop, log_ratio = propose_birth(th, rng, spec, cfg.move_probs)
        else:
            prop, log_ratio = propose_death(th, rng, spec, cfg.move_probs)
        if logp_new is None:
            logp_new = log_posterior_theta(
                sample, prop, spec, variable_k=True, include_likelihood=not prior_only
            )
        return _decide(th, lp, prop, logp_new, log_ratio, rng)

    return _sample_chain(
        sample,
        spec,
        cfg,
        rng,
        prior_only,
        variable_k=True,
        draw_prior=lambda: draw_initial_state(rng, spec),
        step=step,
        draw=draw,
    )

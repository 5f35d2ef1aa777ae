"""Birth-death-stay reversible-jump sampler over (k, theta).

Births insert a uniformly drawn location and deaths remove a uniformly
chosen landmark, so the dimension-matching Jacobian is 1 and the proposal
ratio reduces to move probabilities and selection counts.  At the minimum
landmark count the death mass is reassigned to births, with the asymmetry
carried in the acceptance ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import CLOSED
from .model import CurveSample, ModelSpec, NEG_INF, k_min_for, log_posterior_theta
from .rwm import PosteriorSampleSet, draw_initial_theta, rwm_step


@dataclass(frozen=True)
class RjmcmcConfig:
    """Trans-dimensional chain settings; ``proposal_var`` drives the
    within-dimension stay move."""

    n_iter: int = 100_000
    burn_in_frac: float = 0.1
    thin: int = 100
    proposal_var: float = 0.02
    seed: int = 0
    move_probs: tuple = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def __post_init__(self):
        if self.n_iter < 1000:
            raise ValueError("n_iter must be at least 1000")
        if not 0.0 <= self.burn_in_frac < 1.0:
            raise ValueError("burn_in_frac must be in [0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.proposal_var <= 0.0:
            raise ValueError("proposal_var must be positive")
        p = np.asarray(self.move_probs, dtype=float)
        if p.size != 3 or np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("move_probs must be 3 positive values summing to 1")


def move_probabilities(k: int, k_min: int, move_probs) -> tuple[float, float, float]:
    """(birth, death, stay) probabilities at dimension k; death mass moves
    to birth at the boundary."""
    pb, pd, ps = move_probs
    if k <= k_min:
        pb, pd = pb + pd, 0.0
    return pb, pd, ps


def propose_birth(
    theta: np.ndarray,
    rng: np.random.Generator,
    spec: ModelSpec,
    move_probs,
    guard: bool = True,
):
    """Insert a uniform new landmark; returns the grown vector and the log
    proposal ratio for the acceptance test.

    With ``guard`` on, draws colliding with an existing landmark (within the
    grid-resolution spacing) are redrawn; such states carry zero likelihood
    anyway.  The guard is dropped in prior-only validation runs to keep the
    proposal density exactly uniform.
    """
    k = theta.size
    k_min = k_min_for(spec.topology)
    u = rng.uniform()
    if guard:
        for _ in range(100):
            if spec.topology == CLOSED:
                d = np.abs(theta - u)
                gap = np.min(np.minimum(d, 1.0 - d))
            else:
                gap = np.min(np.abs(theta - u))
            if gap >= spec.min_spacing:
                break
            u = rng.uniform()
    new = np.sort(np.append(theta, u))
    pb = move_probabilities(k, k_min, move_probs)[0]
    pd_next = move_probabilities(k + 1, k_min, move_probs)[1]
    log_ratio = np.log(pd_next) - np.log(k + 1.0) - np.log(pb)
    return new, float(log_ratio)


def propose_death(theta: np.ndarray, rng: np.random.Generator, spec: ModelSpec, move_probs):
    """Remove a uniformly chosen landmark; reciprocal of the matched birth."""
    k = theta.size
    k_min = k_min_for(spec.topology)
    if k <= k_min:
        raise ValueError("death move proposed at the minimum landmark count")
    i = int(rng.integers(k))
    new = np.delete(theta, i)
    pd = move_probabilities(k, k_min, move_probs)[1]
    pb_prev = move_probabilities(k - 1, k_min, move_probs)[0]
    log_ratio = np.log(pb_prev) + np.log(float(k)) - np.log(pd)
    return new, float(log_ratio)


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
    cfg: RjmcmcConfig,
    init=None,
    prior_only: bool = False,
) -> PosteriorSampleSet:
    """Run the birth-death-stay chain over (k, theta)."""
    rng = np.random.default_rng(cfg.seed)
    k_min = k_min_for(spec.topology)

    def logpost(th):
        return log_posterior_theta(
            sample, th, spec, variable_k=True, include_likelihood=not prior_only
        )

    if init is not None:
        theta = np.asarray(init.theta, dtype=float)
        logp = logpost(theta)
    else:
        logp = NEG_INF
        for _ in range(100):
            theta = draw_initial_state(rng, spec)
            logp = logpost(theta)
            if logp > NEG_INF:
                break
    if logp == NEG_INF:
        raise RuntimeError("could not find an initial state with finite posterior")

    burn_in = int(round(cfg.n_iter * cfg.burn_in_frac))
    kept_theta: list[np.ndarray] = []
    kept_logp: list[float] = []
    accepted = 0
    for t in range(cfg.n_iter):
        pb, pd, _ = move_probabilities(theta.size, k_min, cfg.move_probs)
        u = rng.uniform()
        if u < pb:
            prop, log_ratio = propose_birth(
                theta, rng, spec, cfg.move_probs, guard=not prior_only
            )
        elif u < pb + pd:
            prop, log_ratio = propose_death(theta, rng, spec, cfg.move_probs)
        else:
            theta, logp, acc = rwm_step(
                theta,
                logp,
                sample,
                spec,
                cfg.proposal_var,
                rng,
                variable_k=True,
                prior_only=prior_only,
            )
            accepted += acc
            if t >= burn_in and (t - burn_in) % cfg.thin == 0:
                kept_theta.append(theta.copy())
                kept_logp.append(logp)
            continue
        logp_new = logpost(prop)
        a = rng.uniform()
        if logp_new > NEG_INF and np.log(a) < (logp_new - logp) + log_ratio:
            theta, logp = prop, logp_new
            accepted += 1
        if t >= burn_in and (t - burn_in) % cfg.thin == 0:
            kept_theta.append(theta.copy())
            kept_logp.append(logp)
    rate = accepted / cfg.n_iter
    if accepted == 0:
        warnings.warn("chain accepted no proposals; check the proposal settings")
    ks = np.array([th.size for th in kept_theta], dtype=int)
    return PosteriorSampleSet(
        kept_theta, ks, np.asarray(kept_logp), rate, spec.topology
    )

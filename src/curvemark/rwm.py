"""Random-walk Metropolis sampler over landmark locations for fixed k,
and what it shares with the reversible-jump sampler: the chain settings,
the start path and the iteration loop."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .curves import CLOSED
from .model import CurveSample, ModelSpec, NEG_INF, log_posterior_batch, log_posterior_theta


@dataclass(frozen=True)
class ChainConfig:
    """Chain settings.  Defaults follow the usual recipe: 10% burn-in,
    thin by 100, normal proposal variance 0.02.  ``move_probs`` are the
    (birth, death, stay) probabilities of the variable-k chain; the
    fixed-k chain only stays."""

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


@dataclass
class PosteriorSampleSet:
    """Retained chain output: landmark vectors, per-sample log posterior,
    and the overall acceptance rate."""

    thetas: list
    ks: np.ndarray
    log_post: np.ndarray
    accept_rate: float
    topology: str

    @property
    def n(self) -> int:
        return len(self.thetas)

    def theta_matrix(self, k: int | None = None) -> np.ndarray:
        """Samples stacked as an (n, k) array.

        With ``k=None`` all samples must share one dimension; otherwise the
        chain is filtered to the requested landmark count first.
        """
        if k is None:
            uniq = np.unique(self.ks)
            if uniq.size != 1:
                raise ValueError(
                    "mixed landmark counts; pass k to select a stratum"
                )
            return np.array(self.thetas)
        rows = [th for th, kk in zip(self.thetas, self.ks) if kk == k]
        if not rows:
            raise ValueError(f"no retained samples with k={k}")
        return np.array(rows)

    def select_k(self, k: int) -> "PosteriorSampleSet":
        mask = self.ks == k
        thetas = [th for th, keep in zip(self.thetas, mask) if keep]
        return PosteriorSampleSet(
            thetas,
            self.ks[mask],
            self.log_post[mask],
            self.accept_rate,
            self.topology,
        )

    def k_counts(self) -> dict[int, int]:
        uniq, counts = np.unique(self.ks, return_counts=True)
        return {int(k): int(c) for k, c in zip(uniq, counts)}


def draw_initial_theta(rng: np.random.Generator, spec: ModelSpec, k: int) -> np.ndarray:
    """Draw a landmark vector from the prior: spacings from the symmetric
    Dirichlet, plus a uniform anchor point on closed curves."""
    if spec.topology == CLOSED:
        s = rng.dirichlet(np.full(k, spec.alpha))
        start = rng.uniform()
        return np.sort(np.mod(start + np.concatenate([[0.0], np.cumsum(s[:-1])]), 1.0))
    s = rng.dirichlet(np.full(k + 1, spec.alpha))
    return np.cumsum(s)[:-1]


def _propose_stay(theta: np.ndarray, rng: np.random.Generator, topology: str, sd: float):
    """Random-walk proposal of one uniformly chosen component; closed
    curves wrap it mod 1 and re-sort."""
    j = int(rng.integers(theta.size))
    prop = theta.tolist()
    prop[j] += rng.standard_normal() * sd
    if topology == CLOSED:
        prop[j] = float(np.mod(prop[j], 1.0))
        prop.sort()
    return np.array(prop)


def _decide(theta, logp, prop, logp_new, log_ratio, rng):
    """Metropolis-Hastings accept test; draws the test's uniform."""
    u = rng.random()
    if logp_new > NEG_INF and np.log(u) < (logp_new - logp) + log_ratio:
        return prop, logp_new, True
    return theta, logp, False


def rwm_step(
    theta: np.ndarray,
    logp: float,
    sample: CurveSample,
    spec: ModelSpec,
    proposal_var: float,
    rng: np.random.Generator,
    variable_k: bool = False,
    prior_only: bool = False,
    logp_new: float | None = None,
):
    """One Metropolis update of a uniformly chosen landmark component.

    The proposal is normal with the given variance; closed-curve proposals
    wrap mod 1 (and the vector is re-sorted), open-curve proposals that
    break the ordering carry prior support 0 and are auto-rejected.
    ``logp_new``, when given, is taken as the proposal's log posterior
    instead of evaluating it (the block loop of the samplers passes the
    batched score of a proposal it has already drawn).
    Returns ``(theta, logp, accepted)``.
    """
    prop = _propose_stay(theta, rng, spec.topology, math.sqrt(proposal_var))
    if logp_new is None:
        logp_new = log_posterior_theta(
            sample,
            prop,
            spec,
            variable_k=variable_k,
            include_likelihood=not prior_only,
        )
    return _decide(theta, logp, prop, logp_new, 0.0, rng)


# Blocks along the rejection path: a chain that has rejected at least
# _RUN_FOR_BLOCKS proposals in a row, and has accepted at most
# _BLOCK_ACCEPT_RATE of its iterations so far, scores its next proposals
# in blocks of min(_BLOCK_CAP, 2 * run, remaining iterations).  One batched
# call costs about as much as eight scalar evaluations, so blocks pay only
# where rejections come in long runs: without the acceptance gate, chains
# accepting 9-43% of their proposals, which often reject 4 in a row but
# rarely many more, ran 1.1-2.6x slower than with it (sine, N=25, k=2).
# A batched score decides a row only when it rejects by more than
# _MARGIN * (1 + |score|) in log units, far above the rounding by which it
# differs from the scalar log posterior; every other row is scored again
# by the scalar log posterior.
_RUN_FOR_BLOCKS = 4
_BLOCK_ACCEPT_RATE = 0.05
_BLOCK_CAP = 128
_MARGIN = 1e-9


def _run_path(theta, logp, cfg, rng, step, draw, score):
    """Advance a chain ``cfg.n_iter`` iterations from ``(theta, logp)`` and
    return its retained draws, their log posteriors and the accept count.

    ``step(theta, logp, logp_new=None) -> (theta, logp, accepted)`` is one
    iteration through the public move functions (``rwm_step``,
    ``propose_birth``, ``propose_death``), which score the proposal with
    the scalar log posterior unless ``logp_new`` is given;
    ``draw(theta) -> (prop, log_ratio)`` makes the same draws up to the
    accept test without calling them; ``score`` is the batched log
    posterior of a list of proposals.

    A rejected proposal leaves the state unchanged, so in rejection-heavy
    stretches the next B iterations' proposals are drawn up front as if
    every one were rejected and scored in one batched call (Brockwell 2006,
    pre-fetching along the rejection path).  The bit generator is then
    rewound and the iterations are replayed through ``step`` up to the
    first accept, each with its batched score where that score rejects by
    a clear margin and with the scalar log posterior otherwise.  So the
    public move functions run once per iteration, in chain order, and
    every accept test is the one-at-a-time chain's own: the chain is the
    one-at-a-time chain, draw for draw, log posteriors included.
    """
    burn_in = int(round(cfg.n_iter * cfg.burn_in_frac))
    kept_theta: list[np.ndarray] = []
    kept_logp: list[float] = []

    def keep(t0, t1, theta, logp):
        """Retain the state ending iterations t0 .. t1 - 1."""
        first = burn_in if t0 <= burn_in else t0 + (burn_in - t0) % cfg.thin
        for _ in range(first, t1, cfg.thin):
            kept_theta.append(theta.copy())
            kept_logp.append(logp)

    bitgen = rng.bit_generator
    accepted = run = t = 0
    while t < cfg.n_iter:
        if run < _RUN_FOR_BLOCKS or accepted > _BLOCK_ACCEPT_RATE * t:
            theta, logp, acc = step(theta, logp)
            accepted += acc
            run = 0 if acc else run + 1
            keep(t, t + 1, theta, logp)
            t += 1
            continue
        size = min(_BLOCK_CAP, 2 * run, cfg.n_iter - t)
        start = bitgen.state
        props, ratios, us = [], [], []
        for _ in range(size):
            prop, log_ratio = draw(theta)
            props.append(prop)
            ratios.append(log_ratio)
            us.append(rng.random())
        lps = score(props)
        margin = ((lps - logp) + ratios) - np.log(us)
        sure = (lps == NEG_INF) | (margin < -_MARGIN * (1.0 + np.abs(lps)))
        bitgen.state = start
        theta0, logp0 = theta, logp
        for i in range(size):
            theta, logp, acc = step(theta, logp, float(lps[i]) if sure[i] else None)
            if acc:
                break
        keep(t, t + i, theta0, logp0)
        keep(t + i, t + i + 1, theta, logp)
        t += i + 1
        if acc:
            accepted += 1
            run = 0
        else:
            run += size
    return kept_theta, kept_logp, accepted


def _sample_chain(sample, spec, cfg, rng, init, prior_only, variable_k, draw_prior, step, draw):
    """Start a chain and run it: from ``init`` if given, else from the first
    of up to 100 prior draws ``draw_prior()`` with a finite posterior; then
    ``_run_path`` with the moves ``step`` and ``draw``.  Returns the
    retained draws as a sample set."""

    def logpost(th):
        return log_posterior_theta(
            sample, th, spec, variable_k=variable_k, include_likelihood=not prior_only
        )

    if init is not None:
        theta = np.asarray(init.theta, dtype=float)
        logp = logpost(theta)
    else:
        logp = NEG_INF
        for _ in range(100):
            theta = draw_prior()
            logp = logpost(theta)
            if logp > NEG_INF:
                break
    if logp == NEG_INF:
        raise RuntimeError("could not find an initial state with finite posterior")

    kept_theta, kept_logp, accepted = _run_path(
        theta,
        logp,
        cfg,
        rng,
        step,
        draw,
        score=lambda rows: log_posterior_batch(
            sample, rows, spec, variable_k=variable_k, include_likelihood=not prior_only
        ),
    )
    if accepted == 0:
        warnings.warn("chain accepted no proposals; check the proposal settings")
    ks = np.array([th.size for th in kept_theta], dtype=int)
    return PosteriorSampleSet(
        kept_theta, ks, np.asarray(kept_logp), accepted / cfg.n_iter, spec.topology
    )


def run_chain(
    sample: CurveSample,
    spec: ModelSpec,
    cfg: ChainConfig,
    k: int | None = None,
    init=None,
    prior_only: bool = False,
) -> PosteriorSampleSet:
    """Run the fixed-k random-walk Metropolis chain.

    If ``init`` is None the state is drawn from the prior (``k`` required).
    Burn-in and thinning are applied to the returned sample set; the raw
    acceptance rate covers all iterations.
    """
    if init is None and k is None:
        raise ValueError("k is required when init is not given")
    rng = np.random.default_rng(cfg.seed)
    sd = math.sqrt(cfg.proposal_var)
    return _sample_chain(
        sample,
        spec,
        cfg,
        rng,
        init,
        prior_only,
        variable_k=False,
        draw_prior=lambda: draw_initial_theta(rng, spec, k),
        step=lambda th, lp, logp_new=None: rwm_step(
            th, lp, sample, spec, cfg.proposal_var, rng, prior_only=prior_only, logp_new=logp_new
        ),
        draw=lambda th: (_propose_stay(th, rng, spec.topology, sd), 0.0),
    )

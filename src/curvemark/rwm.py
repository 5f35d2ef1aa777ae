"""Random-walk Metropolis sampler over landmark locations for fixed k, and
``_sample_chain``, the one chain driver of both samplers, which read their
moves from a per-k move table: the generator, start, blocks and loop."""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .curves import CLOSED
from .model import _CURVE_ROWS as _BLOCK_CURVE_ROWS
from .model import (CurveSample, ModelSpec, NEG_INF, _stack_rows, log_posterior_batch,
                    log_posterior_theta)
from .reconstruct import k_min_for, spacing_to_theta


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
        if self.burn_in >= self.n_iter:
            raise ValueError("burn_in_frac leaves no iteration after the burn-in")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")
        if not 0.0 < self.proposal_var < math.inf:
            raise ValueError(f"proposal_var must be positive and finite, not {self.proposal_var}")
        p = np.asarray(self.move_probs, dtype=float)
        if p.size != 3 or not np.all(p > 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("move_probs must be 3 positive values summing to 1")

    @property
    def burn_in(self) -> int:
        """Iterations discarded before the first retained draw."""
        return round(self.n_iter * self.burn_in_frac)


@dataclass
class PosteriorSampleSet:
    """Retained chain output: landmark vectors, per-sample log posterior,
    the overall acceptance rate and, from a chain run, the proposals per
    move kind over all iterations, ``{move: {"proposed": n, "accepted":
    n}}``.  ``thetas`` is one (n, max(ks)) array whose row i holds ks[i]
    landmarks, then repeats its last one; a sequence of vectors passed as
    ``thetas`` is stacked so here, and its lengths must be ``ks``."""

    thetas: np.ndarray
    ks: np.ndarray
    log_post: np.ndarray
    accept_rate: float
    topology: str
    moves: dict | None = None

    def __post_init__(self):
        if not isinstance(self.thetas, np.ndarray):
            th, ks = _stack_rows(self.thetas) if len(self.thetas) else (np.empty((0, 0)), [])
            if not np.array_equal(ks, self.ks):
                raise ValueError("ks must give the length of each landmark vector")
            self.thetas = th
        if self.thetas.ndim != 2 or not len(self.thetas) == len(self.ks) == len(self.log_post) or (
                self.ks.size and not 1 <= self.ks.min() <= self.ks.max() <= self.thetas.shape[1]):
            raise ValueError("need one ks entry, 1 to K, and one log_post entry per row")

    @property
    def n(self) -> int:
        return len(self.ks)

    def theta_matrix(self, k: int | None = None) -> np.ndarray:
        """Samples as an (n, k) array: with ``k=None`` the table itself, whose
        rows must share one dimension, otherwise its rows with k landmarks."""
        if k is None:
            if self.ks.min() != self.ks.max():
                raise ValueError("mixed landmark counts; pass k to select a stratum")
            return self.thetas
        rows = self.thetas[self.ks == k, :k]
        if not rows.size:
            raise ValueError(f"no retained samples with k={k}")
        return rows

    def select_k(self, k: int) -> "PosteriorSampleSet":
        mask = self.ks == k
        return replace(
            self, thetas=self.thetas[mask, :k], ks=self.ks[mask], log_post=self.log_post[mask]
        )

    def k_counts(self) -> dict[int, int]:
        uniq, counts = np.unique(self.ks, return_counts=True)
        return {int(k): int(c) for k, c in zip(uniq, counts)}


def draw_initial_theta(rng: np.random.Generator, spec: ModelSpec, k: int) -> np.ndarray:
    """Draw a landmark vector from the prior: spacings from the symmetric
    Dirichlet, plus a uniform anchor point on closed curves."""
    closed = spec.topology == CLOSED
    s = rng.dirichlet(np.full(k if closed else k + 1, spec.alpha))
    return spacing_to_theta(s, spec.topology, rng.uniform() if closed else 0.0)


# Rows of the random table drawn per call: the chain draws its table in
# chunks of this many rows, so memory stays bounded in the chain length.
_TABLE_ROWS = 1024


def _random_table(rng: np.random.Generator, rows: int) -> np.ndarray:
    """The next ``rows`` rows of a chain's random table, a (rows, 4) array.

    Iteration t of a chain reads row t, whether it runs alone or in a
    block, and the chain draws no other randoms after its start state.
    The table is drawn in chunks of ``_TABLE_ROWS`` rows (the last chunk
    shorter), each as ``rng.random((rows, 3))`` followed by
    ``rng.standard_normal(rows)``; row t is

    0. ``move``: the birth/death/stay choice (the variable-k chain only);
    1. ``where``: a birth's location, or for a death or stay the landmark
       index ``min(floor(where * k), k - 1)``, which is uniform on
       0 .. k - 1 to within 2**-53 per index (``where`` takes the values
       i * 2**-53);
    2. ``accept``: the uniform of the Metropolis-Hastings test;
    3. ``step``: the standard normal step of a stay.
    """
    return np.column_stack((rng.random((rows, 3)), rng.standard_normal(rows)))


def _propose_stay(theta: np.ndarray, row, topology: str, sd: float) -> np.ndarray:
    """Random-walk proposal of the component the table row picks; closed
    curves wrap it mod 1 into [0, 1) and re-sort."""
    prop = theta.tolist()
    j = min(int(row[1] * len(prop)), len(prop) - 1)  # the index the row's where picks
    prop[j] += row[3] * sd
    if topology == CLOSED:
        v = prop[j] % 1.0
        prop[j] = 0.0 if v == 1.0 else v  # just below 0, the remainder can round to 1.0
        prop.sort()
    return np.array(prop)


def _block_proposals(theta, block, kinds, sd, closed, ratio_b, ratio_d):
    """The proposals of a table slice as ``rjmcmc.propose_birth``,
    ``rjmcmc.propose_death`` and :func:`_propose_stay` make them, for the
    rows' move kinds ``kinds`` (0 birth, 1 death, 2 stay), built at once: a
    (k + 1, B) array with one column per row, each padded with its last
    landmark, the rows' landmark counts and log proposal ratios
    (``ratio_b`` for a birth, ``ratio_d`` for a death, 0 for a stay)."""
    k = theta.size
    birth, death = kinds == 0, kinds == 1
    j = np.minimum((block[:, 1] * k).astype(np.intp), k - 1)
    v = theta[j] + block[:, 3] * sd
    if closed:  # wrapped as _propose_stay wraps it
        v %= 1.0
        v[v == 1.0] = 0.0
    # theta with a stay's component replaced, a death's removed (set to inf
    # and sorted to the end) and a birth's location in an extra row (inf
    # for the other moves)
    rows = np.repeat(np.concatenate((theta, [np.inf]))[:, None], len(block), axis=1)
    rows[np.where(birth, k, j), np.arange(len(block))] = np.where(
        birth, block[:, 1], np.where(death, np.inf, v))
    # an open stay keeps its place, so that a broken order is rejected
    srt = np.sort(rows, axis=0)
    rows = srt if closed else np.where(kinds == 2, rows, srt)
    # pad each row with its last landmark
    rows[k - 1] = np.where(death, rows[k - 2], rows[k - 1])
    rows[k] = np.where(birth, rows[k], rows[k - 1])
    ks, ratios = np.array([[k + 1, k - 1, k], [ratio_b, ratio_d, 0.0]]).take(kinds, axis=1)
    return rows, ks.astype(np.intp), ratios


def _decide(theta, logp, prop, logp_new, log_ratio, u):
    """Metropolis-Hastings accept test at the table's accept uniform ``u``
    (log 0 = -inf accepts)."""
    if logp_new > NEG_INF and (u == 0.0 or math.log(u) < (logp_new - logp) + log_ratio):
        return prop, logp_new, True
    return theta, logp, False


def rwm_step(
    theta: np.ndarray,
    logp: float,
    sample: CurveSample,
    spec: ModelSpec,
    proposal_var: float,
    row,
    variable_k: bool = False,
    prior_only: bool = False,
    logp_new: float | None = None,
):
    """One Metropolis update of a uniformly chosen landmark component.

    ``row`` is the iteration's row of the chain's random table (see
    ``_random_table``): its ``where`` value picks the component, its
    ``step`` value times the proposal sd is the normal step and its
    ``accept`` value decides.  Closed-curve proposals wrap mod 1 (and the
    vector is re-sorted), open-curve proposals that break the ordering
    carry prior support 0 and are auto-rejected.  ``logp_new``, when
    given, is taken as the proposal's log posterior instead of evaluating
    it, and the proposal is built only if it is accepted (the chain
    driver passes the batched score of a block row it has already built).
    Returns ``(theta, logp, accepted)``.
    """
    if logp_new is not None:
        _, logp, accepted = _decide(theta, logp, None, logp_new, 0.0, row[2])
        if not accepted:
            return theta, logp, False
        return _propose_stay(theta, row, spec.topology, math.sqrt(proposal_var)), logp, True
    prop = _propose_stay(theta, row, spec.topology, math.sqrt(proposal_var))
    logp_new = log_posterior_theta(
        sample, prop, spec, variable_k=variable_k, include_likelihood=not prior_only
    )
    return _decide(theta, logp, prop, logp_new, 0.0, row[2])


# Blocks along the rejection path: a chain whose last proposal was
# rejected, and whose last _WINDOW iterations (all of them, before the
# first _WINDOW) accepted at most a level of min(_BLOCK_LEVEL_CAP,
# _BLOCK_ACCEPT_RATE * M) of them for a sample of M curves, scores its next
# proposals in blocks of min(_BLOCK_CAP, max(_FIRST_BLOCK, 2 * run, the
# window's mean run of rejections), remaining iterations).  A window, not
# the rate since the start, because a burn-in that accepts often kept the
# cumulative rate above the level long after the chain settled: the
# closed-family run (M = 5, N = 1000, 4,000 iterations, seeds 1-3, 5, 6)
# made 426-810 scalar log-posterior calls, 69-122 under the window, and
# the paper's sine run (10^5 iterations) took 2.2-2.4 s of CPU on seed 2
# against 0.37-0.52 s on seeds 1, 3 and 4 (1.2-1.3 s under the window).
# The level grows with M because a lone step scores the M curves one after
# another (one scalar log posterior: 25 us at M = 1, 61 us at M = 5,
# N = 1000, 2-vCPU x86) while a batched call's fixed cost barely does
# (106 us at M = 1, 113 us at M = 5, plus 1.3-2.7 us per row); at M = 1 a
# level of 0.1 ran a chain accepting 13% (sine, N = 25, k = 2) 1.05x
# slower.  Sizing the first block by the mean run ran the paper's RJMCMC
# run (0.3% acceptance) 3-6% faster than 64 rows; a flat 128 rows ran
# chains accepting 2.7-4.8% up to 1.33x slower, and 64-row first blocks
# ran a closed chain accepting 16% (M = 5, N = 32) 1.3x slower than 16-row
# ones.  A batched score decides a row only when it rejects by at least
# _MARGIN * (1 + |score|) in log units (as -inf does), far above the
# rounding by which it differs from the scalar log posterior; every other
# row is scored again by the scalar one.  The batched engine's temporaries grow with rows
# times curves, so a sample of M curves caps blocks at _BLOCK_CURVE_ROWS //
# M rows, the engine's own chunk (model._CURVE_ROWS), to keep them on the
# heap (M = 5, N = 1000: a 128-row call took 118 page faults, 64 rows none).
_BLOCK_ACCEPT_RATE = 0.05
_BLOCK_LEVEL_CAP = 0.25
_WINDOW = 2000
_FIRST_BLOCK = 16
_BLOCK_CAP = 128
_MARGIN = 1e-9
# the move kinds, in the order of ChainConfig.move_probs
_MOVES = ("birth", "death", "stay")


def _sample_chain(sample, spec, cfg, prior_only, draw_prior, moves, jumps):
    """Run one chain and return its retained draws as a sample set: the
    driver of both samplers.  With ``rng = default_rng(cfg.seed)``, the
    chain starts from the first of up to 100 prior draws
    ``draw_prior(rng)`` with a finite posterior and runs ``cfg.n_iter``
    iterations.  Iteration t reads row t of the chain's random table
    (:func:`_random_table`, drawn from ``rng`` as the chain reaches it).
    Its move is birth below ``pb``, death below ``pb + pd`` and stay
    otherwise, for ``(pb, pd, ratio_b, ratio_d) = moves(k)``, the move
    table's row at the state's landmark count k.  A stay is one
    :func:`rwm_step`; a birth or death is one call of ``jumps =
    (propose_birth, propose_death)``, whose proposal the driver scores and
    decides.  The fixed-k chain passes ``jumps=None`` and the stay-only
    row ``(0, 0, -inf, -inf)``; with ``jumps`` the log posterior includes
    the k prior.  :func:`_block_proposals` builds a table slice's
    proposals from ``theta`` and the row's log ratios at once, for
    :func:`log_posterior_batch` to score at most ``min(_BLOCK_CAP,
    _BLOCK_CURVE_ROWS // M)`` rows a call.
    ``spec`` must have the sample's grid (its ``n_eval`` and topology),
    or ``ValueError``.

    The chain advances by slices of the table, each walked through the
    moves in chain order up to its first accept, one public move call
    per iteration.  A rejected proposal leaves the state unchanged, so
    after a rejection, while the last ``_WINDOW`` iterations accepted at
    most ``min(_BLOCK_LEVEL_CAP, _BLOCK_ACCEPT_RATE * M)`` of them (M
    curves), a slice is a block of B rows whose proposals are built as if
    every one were rejected and scored in one batched call (Brockwell
    2006, pre-fetching along the rejection path); a row keeps its batched
    score where that rejects by a clear margin.  Elsewhere a slice is one
    row, which is not batch-scored.  Every other proposal is scored by
    the scalar log posterior, so the chain is the one-at-a-time chain,
    draw for draw, log posteriors included, whatever the blocks.  A state
    has at most k distinct death proposals, so their batched scores are
    kept until the state changes.
    """
    grid = sample.grid
    if (spec.n_eval, spec.topology) != (grid.n_eval, grid.topology):
        raise ValueError(f"spec has n_eval={spec.n_eval}, {spec.topology}; the sample's grid"
                         f" has n_eval={grid.n_eval}, {grid.topology}")
    rng = np.random.default_rng(cfg.seed)
    variable_k = jumps is not None
    sd, closed = math.sqrt(cfg.proposal_var), spec.topology == CLOSED
    for _ in range(100):
        theta = draw_prior(rng)
        logp = log_posterior_theta(
            sample, theta, spec, variable_k=variable_k, include_likelihood=not prior_only
        )
        if logp > NEG_INF:
            break
    else:
        raise RuntimeError("could not find an initial state with finite posterior")

    cap = min(_BLOCK_CAP, max(1, _BLOCK_CURVE_ROWS // sample.m))
    kept_theta: list[np.ndarray] = []
    kept_logp: list[float] = []
    proposed = [0] * len(_MOVES)
    accepts = [0] * len(_MOVES)

    # the state whose death scores (landmark index -> score) `dead` holds
    owner, dead = None, {}

    def scores(block, kinds, props, ks):
        """A block's batched scores, each state's deaths scored once, with only
        the landmark rows its scored proposals hold (a spare row costs 2-10%)."""
        nonlocal owner, dead
        if owner is not theta:
            owner, dead = theta, {}
        deaths = np.flatnonzero(kinds == 1)
        picks = np.minimum((block[deaths, 1] * theta.size).astype(np.intp), theta.size - 1).tolist()
        # landmark index -> the block's first row removing it, if not yet scored
        new = {j: i for i, j in zip(deaths[::-1].tolist(), picks[::-1]) if j not in dead}
        todo = np.concatenate((np.flatnonzero(kinds != 1), list(new.values()))).astype(np.intp)
        lps = np.empty(len(kinds))
        if todo.size:
            kt = ks.take(todo)
            lps[todo] = got = log_posterior_batch(
                sample, props[: kt.max()].take(todo, 1).T, spec, variable_k=variable_k,
                include_likelihood=not prior_only, ks=kt)
            dead.update(zip(new, got[len(todo) - len(new) :].tolist()))
        lps[deaths] = [dead[j] for j in picks]
        return lps

    # rows base .. base + len(table) - 1 of the table
    table = np.empty((0, 4))
    base = run = t = 0
    due = cfg.burn_in  # the next iteration whose end state is retained
    level = min(_BLOCK_LEVEL_CAP, _BLOCK_ACCEPT_RATE * sample.m)
    recent = deque()  # the iterations among the last _WINDOW that accepted
    shut = 0  # the gate stays shut before this iteration
    while t < cfg.n_iter:
        gated = False
        if run and t >= shut:  # after a rejection, unless the gate must be shut
            window = min(t, _WINDOW)
            while recent and recent[0] < t - window:
                recent.popleft()
            excess = len(recent) - level * window
            gated = excess <= 0
            # an iteration moves at most one accept out of the window and
            # raises level * window by at most level
            shut = t + excess / (1.0 + level)
        size = min(cap, max(_FIRST_BLOCK, 2 * run, window // (len(recent) + 1)),
                   cfg.n_iter - t) if gated else 1
        while base + len(table) < t + size:  # drop the rows before t, draw the next chunk
            chunk = _random_table(rng, min(_TABLE_ROWS, cfg.n_iter - base - len(table)))
            table = np.concatenate((table[t - base :], chunk))
            base = t
        block = table[t - base : t - base + size]
        pb, pd, ratio_b, ratio_d = moves(theta.size)
        given = [None]  # per row, a batched score that rejects by a clear margin
        if gated:
            # each row's move kind, as the loop below picks it
            kinds = np.array([pb, pb + pd]).searchsorted(block[:, 0], side="right")
            props, ks, ratios = _block_proposals(theta, block, kinds, sd, closed, ratio_b, ratio_d)
            lps = scores(block, kinds, props, ks)
            margin = ((lps - logp) + ratios) - np.log(block[:, 2])
            sure = (margin <= -_MARGIN * (1.0 + np.abs(lps))).tolist()
            given = [lp if s else None for lp, s in zip(lps.tolist(), sure)]
        theta0, logp0 = theta, logp
        for n, (row, lp) in enumerate(zip(block.tolist(), given), 1):
            move = 0 if row[0] < pb else 1 if row[0] < pb + pd else 2
            proposed[move] += 1
            if move == 2:
                theta, logp, acc = rwm_step(theta, logp, sample, spec, cfg.proposal_var, row,
                                            variable_k, prior_only, lp)
            else:
                prop, log_ratio = jumps[move](theta, row[1], spec, cfg.move_probs)
                acc = False  # a given lp rejects by a clear margin
                if lp is None:
                    lp = log_posterior_theta(
                        sample, prop, spec, variable_k=True, include_likelihood=not prior_only
                    )
                    theta, logp, acc = _decide(theta, logp, prop, lp, log_ratio, row[2])
            if acc:
                accepts[move] += 1
                recent.append(t + n - 1)
                break
        t += n
        run = 0 if acc else run + n
        while due < t:  # iteration due ends in theta0 unless it is the slice's last
            kept_theta.append((theta if due == t - 1 else theta0).copy())
            kept_logp.append(logp if due == t - 1 else logp0)
            due += cfg.thin

    accepted = sum(accepts)
    if accepted == 0:
        warnings.warn("chain accepted no proposals; check the proposal settings")
    counts = {name: {"proposed": p, "accepted": a}
              for name, p, a in zip(_MOVES, proposed, accepts) if variable_k or name == "stay"}
    ks = np.array([th.size for th in kept_theta], dtype=int)
    return PosteriorSampleSet(
        kept_theta, ks, np.asarray(kept_logp), accepted / cfg.n_iter, spec.topology, counts
    )


def run_chain(
    sample: CurveSample,
    spec: ModelSpec,
    cfg: ChainConfig,
    k: int,
    prior_only: bool = False,
) -> PosteriorSampleSet:
    """Run the fixed-k random-walk Metropolis chain with ``k`` landmarks,
    started from a prior draw.  ``k`` below the topology's minimum,
    ``k_min_for(spec.topology)``, raises ``ValueError``.

    Burn-in and thinning are applied to the returned sample set; the raw
    acceptance rate covers all iterations.
    """
    if k < k_min_for(spec.topology):
        raise ValueError(f"k={k} is below the {spec.topology}-curve minimum,"
                         f" {k_min_for(spec.topology)}")
    return _sample_chain(
        sample, spec, cfg, prior_only,
        draw_prior=lambda rng: draw_initial_theta(rng, spec, k),
        moves=lambda k: (0.0, 0.0, NEG_INF, NEG_INF),  # stay only
        jumps=None,
    )

"""Both samplers score runs of rejected proposals in blocks; the chain must
be the one-at-a-time chain of ``oracles.one_at_a_time_chain``, draw for
draw and log posterior for log posterior, whatever the block size, with
one public move call per iteration."""

import numpy as np
import pytest

import curvemark as cm
import oracles
from curvemark import rjmcmc, rwm


def sine_sample(n_eval):
    curve = cm.rescale_unit_length(cm.sine_curve(200), n_eval)
    return cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, cm.OPEN))


def closed_sample(n_eval):
    curves = [
        cm.rescale_unit_length(cm.cut_half_circle(240, cut=c), 240) for c in (0.3, 0.5)
    ]
    return cm.CurveSample.build(curves, cm.EvaluationGrid(n_eval, cm.CLOSED))


def rwm_case(sample, k, prior_only=False, **cfg):
    spec = cm.ModelSpec(n_eval=sample.grid.n_eval, topology=sample.grid.topology)
    return sample, spec, cm.ChainConfig(thin=7, **cfg), k, False, prior_only


def rjmcmc_case(sample, lam, prior_only=False, **cfg):
    spec = cm.ModelSpec(
        n_eval=sample.grid.n_eval, topology=sample.grid.topology, lam=lam, k_max=12
    )
    return sample, spec, cm.ChainConfig(thin=7, **cfg), None, True, prior_only


CASES = {
    "open-fixed": lambda: rwm_case(sine_sample(100), 4, n_iter=6000, seed=3),
    "closed-fixed": lambda: rwm_case(closed_sample(64), 4, n_iter=4000, seed=5),
    "open-variable": lambda: rjmcmc_case(sine_sample(100), 1e-6, n_iter=6000, seed=4),
    "closed-variable": lambda: rjmcmc_case(closed_sample(64), 1.0, n_iter=4000, seed=2),
    "open-fixed-prior": lambda: rwm_case(sine_sample(25), 3, True, n_iter=3000, seed=2),
    "closed-fixed-prior": lambda: rwm_case(closed_sample(32), 4, True, n_iter=3000, seed=4),
    "open-variable-prior": lambda: rjmcmc_case(sine_sample(25), 1.0, True, n_iter=3000, seed=6),
    "closed-variable-prior": lambda: rjmcmc_case(
        closed_sample(32), 1.0, True, n_iter=3000, seed=8
    ),
    "open-fixed-small-steps": lambda: rwm_case(
        sine_sample(100), 4, n_iter=3000, seed=10, proposal_var=5e-4
    ),
}


def run_case(case, monkeypatch):
    """Run a case's sampler; returns the sample set and the share of its
    iterations that were scored in blocks (all iterations but those that
    called the scalar log posterior, less the initial-state calls)."""
    sample, spec, cfg, k, variable_k, prior_only = case
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cm.model.log_posterior_theta(*args, **kwargs)

    monkeypatch.setattr(rwm, "log_posterior_theta", counted)
    if variable_k:
        res = cm.run_rjmcmc(sample, spec, cfg, prior_only=prior_only)
    else:
        res = cm.run_chain(sample, spec, cfg, k=k, prior_only=prior_only)
    monkeypatch.undo()
    return res, 1.0 - (len(calls) - 1) / cfg.n_iter


def assert_same_chain(res, ref):
    thetas, ks, log_post, rate = ref
    assert res.n == len(thetas)
    for got, k, want in zip(res.thetas, res.ks, thetas):
        assert np.array_equal(got[:k], want)
    assert np.array_equal(res.ks, ks)
    assert res.accept_rate == rate
    assert np.array_equal(res.log_post, log_post)


@pytest.fixture(scope="module")
def references():
    out = {}
    for name, make in CASES.items():
        sample, spec, cfg, k, variable_k, prior_only = case = make()
        ref = oracles.one_at_a_time_chain(
            sample, spec, cfg, k=k, variable_k=variable_k, prior_only=prior_only
        )
        out[name] = (case, ref)
    return out


@pytest.mark.parametrize("name", list(CASES))
def test_same_chain_as_one_at_a_time(name, references, monkeypatch):
    case, ref = references[name]
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)


def test_cases_cover_both_regimes(references, monkeypatch):
    shares = {name: run_case(case, monkeypatch)[1] for name, (case, _) in references.items()}
    rates = {name: ref[3] for name, (_, ref) in references.items()}
    # a rejection-heavy chain runs almost wholly in blocks, one that mixes
    # runs of rejections with accepts partly ...
    assert shares["open-variable"] > 0.9
    assert shares["closed-fixed"] > 0.9
    assert 0.2 < shares["open-fixed"] < 0.9
    # ... and chains that accept often step one at a time
    assert rates["open-variable-prior"] > 0.5
    assert rates["open-fixed-prior"] > 0.5
    assert shares["open-variable-prior"] == shares["open-fixed-prior"] == 0.0


def gate_run(sample, k, monkeypatch, **cfg):
    """Run a fixed-k chain; returns its sample set, each iteration's accept
    flag and, per batched call, the iteration it was made at."""
    flags, batched_at = [], []
    step, batch = rwm.rwm_step, rwm.log_posterior_batch

    def recorded_step(*args, **kwargs):
        out = step(*args, **kwargs)
        flags.append(out[2])
        return out

    def recorded_batch(*args, **kwargs):
        batched_at.append(len(flags))
        return batch(*args, **kwargs)

    monkeypatch.setattr(rwm, "rwm_step", recorded_step)
    monkeypatch.setattr(rwm, "log_posterior_batch", recorded_batch)
    spec = cm.ModelSpec(n_eval=sample.grid.n_eval, topology=sample.grid.topology,
                        b=cfg.pop("b", 0.01))
    res = cm.run_chain(sample, spec, cm.ChainConfig(thin=7, **cfg), k=k)
    monkeypatch.undo()
    return res, flags, batched_at


def test_block_level_grows_with_the_curve_count(monkeypatch):
    # a lone step scores the M curves one after another, a block's fixed
    # cost barely grows with M: at 16% acceptance five curves run in
    # blocks, one curve step by step
    cuts = {5: (0.2, 0.3, 0.4, 0.5, 0.6), 1: (0.3,)}
    calls = {}
    for m, proposal_var in [(5, 0.002), (1, 0.1)]:
        curves = [cm.rescale_unit_length(cm.cut_half_circle(240, cut=c), 240) for c in cuts[m]]
        sample = cm.CurveSample.build(curves, cm.EvaluationGrid(32, cm.CLOSED))
        res, _, batched_at = gate_run(sample, 3, monkeypatch, n_iter=3000, seed=1,
                                      proposal_var=proposal_var, b=1.0)
        assert 0.15 < res.accept_rate < 0.17
        calls[m] = len(batched_at)
    assert calls[5] > 200
    assert calls[1] == 0


def test_blocks_open_on_the_recent_window(monkeypatch):
    # the burn-in accepts about 28% of its first 1,750 iterations and the
    # chain about 1.5% thereafter: blocks open once the last _WINDOW
    # iterations accept at most 5%, while the rate since the start is
    # still above it
    sample, spec, cfg, k, _, _ = rwm_case(
        sine_sample(100), 4, n_iter=6000, seed=3, proposal_var=0.002)
    res, flags, batched_at = gate_run(sample, k, monkeypatch, n_iter=6000, seed=3,
                                      proposal_var=0.002)
    assert_same_chain(res, oracles.one_at_a_time_chain(sample, spec, cfg, k=k))
    assert res.accept_rate > 0.05
    window = rwm._WINDOW
    late = [t for t in batched_at if t > window and sum(flags[:t]) > 0.05 * t]
    assert len(late) > 20
    for t in late:
        assert sum(flags[t - window : t]) <= 0.05 * window


@pytest.mark.parametrize("cap", [2, 7, rwm._BLOCK_CAP])
@pytest.mark.parametrize("name", ["closed-fixed", "open-variable", "closed-variable"])
def test_chain_does_not_depend_on_block_cap(name, cap, references, monkeypatch):
    case, ref = references[name]
    monkeypatch.setattr(rwm, "_BLOCK_CAP", cap)
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)


# (first block size, cap)
SIZINGS = [(64, 128), (1, 1), (1, 128), (3, 7), (128, 16), (2, 2)]


@pytest.mark.parametrize("sizing", SIZINGS, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("name", ["closed-fixed", "open-variable", "closed-variable"])
def test_chain_does_not_depend_on_block_sizing(name, sizing, references, monkeypatch):
    case, ref = references[name]
    for constant, value in zip(("_FIRST_BLOCK", "_BLOCK_CAP"), sizing):
        monkeypatch.setattr(rwm, constant, value)
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)


def test_blocks_bounded_by_curve_count(monkeypatch):
    # the batched engine's temporaries grow with rows times curves, so a
    # sample of M curves scores at most _BLOCK_CURVE_ROWS // M rows a call
    curves = [cm.rescale_unit_length(cm.cut_half_circle(240, cut=c), 240)
              for c in (0.2, 0.3, 0.4, 0.5, 0.6)]
    sample = cm.CurveSample.build(curves, cm.EvaluationGrid(64, cm.CLOSED))
    sizes = []
    batch = rwm.log_posterior_batch

    def recording_batch(sample, thetas, spec, **kwargs):
        sizes.append(len(thetas))
        return batch(sample, thetas, spec, **kwargs)

    monkeypatch.setattr(rwm, "log_posterior_batch", recording_batch)
    spec = cm.ModelSpec(n_eval=64, topology=cm.CLOSED)
    cm.run_chain(sample, spec, cm.ChainConfig(n_iter=4000, thin=7, seed=5), k=4)
    assert max(sizes) == rwm._BLOCK_CURVE_ROWS // 5 < rwm._BLOCK_CAP


def recorded_moves(monkeypatch):
    """Wrap the public move functions; returns the list they append
    (function name, start state, proposed or returned state) to."""
    calls = []

    def recorded(fn):
        def move(theta, *args, **kwargs):
            out = fn(theta, *args, **kwargs)
            calls.append((fn.__name__, theta, out[0]))
            return out

        return move

    for module, fn in [(rwm, "rwm_step"),
                       (rjmcmc, "propose_birth"), (rjmcmc, "propose_death")]:
        monkeypatch.setattr(module, fn, recorded(getattr(module, fn)))
    return calls


@pytest.mark.parametrize(
    "name", ["closed-fixed", "open-variable", "closed-variable", "open-variable-prior"])
def test_move_counts_match_public_moves(name, references, monkeypatch):
    # the counts per move kind that the sampler reports, against those
    # read off the public move calls: a stay is accepted iff rwm_step
    # returns a new state, a birth or death iff the next move starts from
    # the state it proposed; the last call's outcome is what the overall
    # accept count leaves
    case, ref = references[name]
    variable_k, n_iter = case[4], case[2].n_iter
    calls = recorded_moves(monkeypatch)
    res, _ = run_case(case, monkeypatch)
    kinds = {"rwm_step": "stay", "propose_birth": "birth", "propose_death": "death"}
    want = {kind: {"proposed": 0, "accepted": 0}
            for kind in (kinds.values() if variable_k else ["stay"])}
    starts = [theta for _, theta, _ in calls[1:]]
    for (fn, theta, out), nxt in zip(calls, starts):
        want[kinds[fn]]["proposed"] += 1
        want[kinds[fn]]["accepted"] += bool(
            not np.array_equal(theta, out) if fn == "rwm_step" else np.array_equal(out, nxt)
        )
    last = want[kinds[calls[-1][0]]]
    last["proposed"] += 1
    last["accepted"] += round(ref[3] * n_iter) - sum(m["accepted"] for m in want.values())
    assert last["accepted"] >= 0
    assert res.moves == want
    assert sum(m["proposed"] for m in want.values()) == n_iter


@pytest.mark.parametrize("name", ["closed-fixed", "open-variable", "closed-variable"])
def test_one_public_move_call_per_iteration(name, references, monkeypatch):
    # a stay is accepted iff rwm_step returns a new state, a birth or death
    # iff the next move starts from the state it proposed
    case, ref = references[name]
    calls = []

    def recorded(fn):
        def move(theta, *args, **kwargs):
            out = fn(theta, *args, **kwargs)
            calls.append((fn.__name__, theta, out[0]))
            return out

        return move

    for module, fn in [(rwm, "rwm_step"),
                       (rjmcmc, "propose_birth"), (rjmcmc, "propose_death")]:
        monkeypatch.setattr(module, fn, recorded(getattr(module, fn)))
    res, share = run_case(case, monkeypatch)
    assert_same_chain(res, ref)
    assert len(calls) == case[2].n_iter
    starts = [theta for _, theta, _ in calls[1:]]
    accepted = sum(
        not np.array_equal(theta, out) if fn == "rwm_step" else np.array_equal(out, nxt)
        for (fn, theta, out), nxt in zip(calls, starts)
    )
    assert abs(accepted - ref[3] * len(calls)) <= 1
    assert share > 0.2


def scored_rows(monkeypatch):
    """Record each block of a variable-k chain's state and the rows that
    reach log_posterior_batch, as (block, landmarks); returns the lists."""
    states, rows = [], []
    build, batch = rwm._block_proposals, rwm.log_posterior_batch

    def recording_build(theta, *args):
        states.append(theta)
        return build(theta, *args)

    def recording_batch(sample, thetas, spec, ks=None, **kwargs):
        rows.extend((len(states) - 1, tuple(th[:k])) for th, k in zip(thetas.tolist(), ks.tolist()))
        return batch(sample, thetas, spec, ks=ks, **kwargs)

    monkeypatch.setattr(rwm, "_block_proposals", recording_build)
    monkeypatch.setattr(rwm, "log_posterior_batch", recording_batch)
    return states, rows


def deaths_by_visit(states, rows):
    """Each block's visit (a state's stay, from the block whose state is a
    new object on), and the scored death rows, {visit: [(block, row)]}."""
    visits = np.cumsum([i == 0 or th is not states[i - 1] for i, th in enumerate(states)])
    deaths = {}
    for block, row in rows:
        if len(row) == states[block].size - 1:
            deaths.setdefault(visits[block], []).append((block, row))
    return visits, deaths


@pytest.mark.parametrize("name", ["open-variable", "closed-variable"])
def test_each_death_proposal_scored_once_per_state(name, references, monkeypatch):
    case, ref = references[name]
    states, rows = scored_rows(monkeypatch)
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)
    _, deaths = deaths_by_visit(states, rows)
    for visit in deaths.values():
        assert len({row for _, row in visit}) == len(visit)
    assert 0 < sum(map(len, deaths.values())) < res.moves["death"]["proposed"] / 2


def test_death_accepted_after_its_score_was_kept(monkeypatch):
    # a death accepted in a later block than the one that scored it, in a
    # chain that equals the one-at-a-time chain
    sample, spec, cfg, k, variable_k, prior_only = case = rjmcmc_case(
        sine_sample(100), 1e-6, n_iter=6000, seed=7)
    ref = oracles.one_at_a_time_chain(sample, spec, cfg, k=k, variable_k=True)
    states, rows = scored_rows(monkeypatch)
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)
    visits, deaths = deaths_by_visit(states, rows)
    kept = [b for b in range(1, len(states)) if visits[b] != visits[b - 1] and any(
        row == tuple(states[b].tolist()) and block < b - 1
        for block, row in deaths.get(visits[b - 1], []))]
    assert kept

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
    assert 0.2 < shares["closed-fixed"] < 0.9
    # ... and chains that accept often step one at a time
    assert rates["open-variable-prior"] > 0.5
    assert rates["open-fixed-prior"] > 0.5
    assert shares["open-variable-prior"] == shares["open-fixed-prior"] == 0.0


@pytest.mark.parametrize("cap", [2, 7, rwm._BLOCK_CAP])
@pytest.mark.parametrize("name", ["closed-fixed", "open-variable", "closed-variable"])
def test_chain_does_not_depend_on_block_cap(name, cap, references, monkeypatch):
    case, ref = references[name]
    monkeypatch.setattr(rwm, "_BLOCK_CAP", cap)
    res, _ = run_case(case, monkeypatch)
    assert_same_chain(res, ref)


# (run of rejections that opens a block, first block size, cap)
SIZINGS = [(1, 64, 128), (1, 1, 1), (4, 1, 128), (2, 3, 7), (1, 128, 16), (5, 2, 2)]


@pytest.mark.parametrize("sizing", SIZINGS, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("name", ["closed-fixed", "open-variable", "closed-variable"])
def test_chain_does_not_depend_on_block_sizing(name, sizing, references, monkeypatch):
    case, ref = references[name]
    for constant, value in zip(("_RUN_FOR_BLOCKS", "_FIRST_BLOCK", "_BLOCK_CAP"), sizing):
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
    build, batch = rjmcmc._jump_block, rwm.log_posterior_batch

    def recording_build(theta, *args):
        states.append(theta)
        return build(theta, *args)

    def recording_batch(sample, thetas, spec, ks=None, **kwargs):
        rows.extend((len(states) - 1, tuple(th[:k])) for th, k in zip(thetas.tolist(), ks.tolist()))
        return batch(sample, thetas, spec, ks=ks, **kwargs)

    monkeypatch.setattr(rjmcmc, "_jump_block", recording_build)
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

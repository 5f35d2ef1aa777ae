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
    "open-variable": lambda: rjmcmc_case(sine_sample(100), 1e-6, n_iter=6000, seed=7),
    "closed-variable": lambda: rjmcmc_case(closed_sample(64), 1.0, n_iter=4000, seed=9),
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
    monkeypatch.setattr(rjmcmc, "log_posterior_theta", counted)
    if variable_k:
        res = cm.run_rjmcmc(sample, spec, cfg, prior_only=prior_only)
    else:
        res = cm.run_chain(sample, spec, cfg, k=k, prior_only=prior_only)
    monkeypatch.undo()
    return res, 1.0 - (len(calls) - 1) / cfg.n_iter


def assert_same_chain(res, ref):
    thetas, ks, log_post, rate = ref
    assert res.n == len(thetas)
    for got, want in zip(res.thetas, thetas):
        assert np.array_equal(got, want)
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

    for module, fn in [(rwm, "rwm_step"), (rjmcmc, "rwm_step"),
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

"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -s`` or in captured output).  The heavy chain runs are shared
through module-scoped fixtures; every run is seeded, so the whole suite is
deterministic.
"""

import glob
import os

import numpy as np
import pytest
from scipy import stats

import curvemark as cm
import oracles
from curvemark.model import _log_marginal_from_error, log_posterior_theta

FIG_MEAN = np.array([0.1255, 0.3758, 0.6242, 0.8745])
FIG_MEDIAN = np.array([0.1256, 0.3762, 0.6238, 0.8745])
TABLE_CI = np.array(
    [
        [0.1215, 0.1280],
        [0.3699, 0.3792],
        [0.6208, 0.6297],
        [0.8720, 0.8781],
    ]
)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def grid200():
    return cm.EvaluationGrid(200, cm.OPEN)


@pytest.fixture(scope="module")
def sine200(grid200):
    curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
    return cm.CurveSample.build([curve], grid200)


@pytest.fixture(scope="module")
def sine100():
    curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
    return cm.CurveSample.build([curve], cm.EvaluationGrid(100, cm.OPEN))


@pytest.fixture(scope="module")
def base_cfg():
    return cm.ChainConfig(n_iter=100_000, thin=100, proposal_var=0.02, seed=7)


@pytest.fixture(scope="module")
def base_run(sine200, base_cfg):
    return cm.run_chain(sine200, cm.ModelSpec(n_eval=200), base_cfg, k=4)


def test_criterion_1_sine_posterior_location(base_run):
    mat = base_run.theta_matrix()
    mean_dev = np.abs(mat.mean(axis=0) - FIG_MEAN).max()
    median_dev = np.abs(np.median(mat, axis=0) - FIG_MEDIAN).max()
    report(
        1,
        mean_dev <= 0.01 and median_dev <= 0.01,
        f"max mean dev {mean_dev:.4f}, max median dev {median_dev:.4f}",
    )


def test_criterion_2_credible_intervals(base_run, sine200, base_cfg):
    s_tight = cm.summarize(base_run)
    lo_t = np.array(s_tight["ci_lower"])
    hi_t = np.array(s_tight["ci_upper"])
    endpoint_dev = np.max(
        np.abs(np.column_stack([lo_t, hi_t]) - TABLE_CI)
    )
    overlap = np.all(lo_t <= TABLE_CI[:, 1]) and np.all(hi_t >= TABLE_CI[:, 0])

    flat = cm.run_chain(sine200, cm.ModelSpec(n_eval=200, b=1.0), base_cfg, k=4)
    s_flat = cm.summarize(flat)
    w_tight = hi_t - lo_t
    w_flat = np.array(s_flat["ci_upper"]) - np.array(s_flat["ci_lower"])
    wider = np.all(w_flat > w_tight)
    report(
        2,
        overlap and endpoint_dev <= 0.005 and wider,
        f"endpoint dev {endpoint_dev:.4f}, overlap {overlap}, "
        f"b=1 wider in all components {wider}",
    )


def test_criterion_3_shape_invariance(base_run, grid200, base_cfg):
    base = cm.rescale_unit_length(cm.sine_curve(200), 200)
    # translation: bitwise SRVF equality; coarse mantissas make the
    # translated coordinates exact so a bitwise test is well defined
    pts = np.round(base.points * 2**26) / 2**26
    q0 = cm.compute_srvf(cm.PlanarCurve(pts, cm.OPEN), grid200)
    q1 = cm.compute_srvf(cm.PlanarCurve(pts + np.array([1.25, -0.5]), cm.OPEN), grid200)
    bitwise = np.array_equal(q0, q1)

    base_means = base_run.theta_matrix().mean(axis=0)
    devs = {}
    ang = np.deg2rad(45.0)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    for name, transform in (
        ("scale", lambda p: 2.0 * p),
        ("rotate", lambda p: p @ rot.T),
    ):
        raw = cm.sine_curve(200)
        moved = cm.rescale_unit_length(
            cm.PlanarCurve(transform(raw.points), cm.OPEN), 200
        )
        sample = cm.CurveSample.build([moved], grid200)
        run = cm.run_chain(sample, cm.ModelSpec(n_eval=200), base_cfg, k=4)
        devs[name] = np.abs(run.theta_matrix().mean(axis=0) - base_means).max()
    ok = bitwise and all(d <= 0.01 for d in devs.values())
    report(
        3,
        ok,
        f"translation bitwise {bitwise}, scale dev {devs['scale']:.4f}, "
        f"rotation dev {devs['rotate']:.4f}",
    )


def test_criterion_4_distance_criterion_elbow(sine100):
    table = cm.distance_criterion(
        sine100,
        cm.ModelSpec(n_eval=100),
        range(1, 6),
        cm.ChainConfig(n_iter=20_000, thin=20, seed=3),
    )
    d = dict(table)
    strictly_decreasing = all(d[k + 1] < d[k] for k in range(1, 4))
    elbow = (d[3] - d[4]) >= 3.0 * (d[4] - d[5])
    report(
        4,
        strictly_decreasing and elbow,
        f"d1..d5 = {[round(d[k], 4) for k in range(1, 6)]}, "
        f"decreasing {strictly_decreasing}, elbow {elbow}",
    )


def test_criterion_5_rjmcmc_lambda_path(sine100):
    modes, means = [], []
    for lam in (1e-6, 1e-5, 0.1, 1.0):
        spec = cm.ModelSpec(n_eval=100, lam=lam)
        res = cm.run_rjmcmc(
            sine100, spec, cm.ChainConfig(n_iter=50_000, thin=25, seed=11)
        )
        counts = res.k_counts()
        modes.append(max(counts, key=counts.get))
        means.append(float(res.ks.mean()))
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
    report(
        5,
        modes[0] == 4 and nondecreasing,
        f"mode at lam=1e-6 is {modes[0]}, mean path {[round(m, 3) for m in means]}",
    )


def test_criterion_6_multiple_curve_concentration(base_run, grid200, base_cfg):
    family = [cm.rescale_unit_length(c, 200) for c in cm.scaled_sine_family()]
    m5 = cm.CurveSample.build(family, grid200)
    run5 = cm.run_chain(m5, cm.ModelSpec(n_eval=200), base_cfg, k=4)
    sd1 = base_run.theta_matrix().std(axis=0)
    sd5 = run5.theta_matrix().std(axis=0)
    ratios = sd5 / sd1
    report(
        6,
        bool(np.all(ratios <= 1.1)),
        f"std ratios M=5/M=1 = {np.round(ratios, 3).tolist()}",
    )


def test_criterion_7a_marginal_likelihood_quadrature():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n_eval = int(rng.integers(16, 60))
        m = int(rng.integers(1, 4))
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(0.005, 2.0))
        total = float(rng.uniform(0.001, 2.0))
        spec = cm.ModelSpec(n_eval=n_eval, a=a, b=b)
        got = _log_marginal_from_error(total, spec, m)
        want = oracles.kappa_quadrature_log_marginal(total, a, b, n_eval * m)
        worst = max(worst, abs(got - want) / abs(want))
    report("7a", worst <= 1e-6, f"max relative error {worst:.2e}")


def test_criterion_7b_k1_grid_posterior_tv():
    pts = oracles.three_segment_polyline(60)
    curve = cm.rescale_unit_length(cm.PlanarCurve(pts), 25)
    sample = cm.CurveSample.build([curve], cm.EvaluationGrid(25, cm.OPEN))
    spec = cm.ModelSpec(n_eval=25)
    centers, probs = oracles.grid_posterior_k1(
        lambda th: log_posterior_theta(sample, th, spec), n_grid=2000
    )
    res = cm.run_chain(
        sample, spec, cm.ChainConfig(n_iter=200_000, thin=10, seed=4), k=1
    )
    bins = np.linspace(0.0, 1.0, 41)
    chain_hist, _ = np.histogram(res.theta_matrix()[:, 0], bins=bins)
    chain_p = chain_hist / chain_hist.sum()
    grid_p = np.array(
        [
            probs[(centers >= lo) & (centers < hi)].sum()
            for lo, hi in zip(bins[:-1], bins[1:])
        ]
    )
    tv = 0.5 * np.abs(chain_p - grid_p).sum()
    report("7b", tv <= 0.05, f"total variation {tv:.4f}")


def test_criterion_7c_rjmcmc_prior_recovery():
    pts = oracles.three_segment_polyline(60)
    curve = cm.rescale_unit_length(cm.PlanarCurve(pts), 25)
    sample = cm.CurveSample.build([curve], cm.EvaluationGrid(25, cm.OPEN))
    lam = 2.0
    spec = cm.ModelSpec(n_eval=25, lam=lam)
    res = cm.run_rjmcmc(
        sample, spec, cm.ChainConfig(n_iter=150_000, thin=10, seed=5),
        prior_only=True,
    )
    ks = res.ks
    k_hi = int(ks.max())
    observed = np.array([(ks == k).sum() for k in range(1, k_hi + 1)])
    expected = np.array(
        [oracles.shifted_poisson_pmf(k, lam, 1, spec.k_max) for k in range(1, k_hi + 1)]
    ) * ks.size
    while expected.size > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    _, p = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    report("7c", p > 0.01, f"chi-square p = {p:.4f}")


def test_criterion_7d_conditioned_rjmcmc_matches_fixed_k(sine100):
    fixed = cm.run_chain(
        sine100,
        cm.ModelSpec(n_eval=100),
        cm.ChainConfig(n_iter=400_000, thin=2000, seed=21),
        k=4,
    )
    rj = cm.run_rjmcmc(
        sine100,
        cm.ModelSpec(n_eval=100, lam=1e-6),
        cm.ChainConfig(n_iter=600_000, thin=3000, seed=22),
    )
    a = rj.select_k(4).theta_matrix()
    b = fixed.theta_matrix()
    ps = [float(stats.ks_2samp(a[:, j], b[:, j]).pvalue) for j in range(4)]
    report(
        "7d",
        all(p > 0.01 for p in ps),
        f"KS p-values {[round(p, 3) for p in ps]}",
    )


def test_criterion_8_closed_curve_alignment():
    spot = cm.circular_component_distance(0.95, 0.05)
    spot_ok = spot == pytest.approx(0.1, abs=1e-15)
    rng = np.random.default_rng(12)
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(3, 9))
        ref = np.sort(rng.uniform(0.0, 1.0, k))
        others = [
            np.roll(ref + rng.normal(0.0, 0.03, k), int(rng.integers(k)))
            for _ in range(4)
        ]
        thetas = [ref] + others
        ss = cm.PosteriorSampleSet(
            [np.asarray(t) for t in thetas],
            np.full(len(thetas), k),
            np.zeros(len(thetas)),
            0.5,
            cm.CLOSED,
        )
        out = cm.align_posterior_samples(ss)
        for th, got in zip(others, out.thetas[1:]):
            want = oracles.best_cyclic_rotation(th, ref)
            if not np.array_equal(got, want):
                mismatches += 1
    report(
        8,
        spot_ok and mismatches == 0,
        f"spot value {spot:.3f}, enumeration mismatches {mismatches}/400",
    )


MOUSE_MEAN = np.array([0.2935, 0.5999, 0.7843, 0.9836])


def test_optional_mouse_vertebra_mean():
    data_dir = os.environ.get("MOUSE_VERTEBRA_DATA")
    if not data_dir:
        pytest.skip("set MOUSE_VERTEBRA_DATA to a directory of outline CSVs")
    paths = sorted(glob.glob(os.path.join(data_dir, "*.csv")))
    if not paths:
        pytest.skip(f"no CSV files under {data_dir}")
    sample = cm.load_curves(paths, cm.CLOSED, 100)
    res = cm.run_chain(
        sample,
        cm.ModelSpec(n_eval=100, topology=cm.CLOSED),
        cm.ChainConfig(n_iter=100_000, thin=100, seed=7),
        k=4,
    )
    aligned = cm.align_posterior_samples(res)
    means = np.array(cm.summarize(aligned)["mean"])
    devs = [
        min(
            cm.circular_component_distance(m, t)
            for t in MOUSE_MEAN
        )
        for m in means
    ]
    report("mouse-vertebra", max(devs) <= 0.02, f"component deviations {devs}")

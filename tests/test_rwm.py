import numpy as np
import pytest

import curvemark as cm
import oracles
from curvemark.model import NEG_INF, log_posterior_theta
from curvemark.rwm import draw_initial_theta


def table_row(rng):
    """One row of a chain's random table: move, where, accept, step."""
    return [*rng.random(3).tolist(), float(rng.standard_normal())]


def polyline_sample(n_eval=25):
    pts = oracles.three_segment_polyline(60)
    curve = cm.rescale_unit_length(cm.PlanarCurve(pts), n_eval)
    return cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, cm.OPEN))


class TestRwmConfig:
    """The ChainConfig fields the fixed-k random-walk sampler reads."""

    def test_validation(self):
        with pytest.raises(ValueError):
            cm.ChainConfig(n_iter=100)
        with pytest.raises(ValueError):
            cm.ChainConfig(burn_in_frac=1.0)
        with pytest.raises(ValueError):
            cm.ChainConfig(thin=0)
        with pytest.raises(ValueError):
            cm.ChainConfig(proposal_var=0.0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, not -1$"):
            cm.ChainConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("proposal_var", float("nan")),
        ("proposal_var", float("inf")),
        ("move_probs", (float("nan"), 0.5, 0.5)),
    ])
    def test_non_finite_setting_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            cm.ChainConfig(**{field: value})

    @pytest.mark.parametrize("n_iter, frac", [(1000, 0.9999), (1000, 0.9995), (3000, 0.99985)])
    def test_burn_in_that_keeps_no_iteration_rejected(self, n_iter, frac):
        with pytest.raises(ValueError, match="burn_in_frac"):
            cm.ChainConfig(n_iter=n_iter, burn_in_frac=frac)

    def test_last_iteration_after_the_burn_in_kept(self):
        cfg = cm.ChainConfig(n_iter=1000, burn_in_frac=0.999, thin=1)
        assert cfg.burn_in == 999
        result = cm.run_chain(polyline_sample(), cm.ModelSpec(n_eval=25), cfg, k=2)
        assert result.n == 1

    def test_defaults(self):
        cfg = cm.ChainConfig()
        assert cfg.n_iter == 100_000
        assert cfg.burn_in_frac == 0.1
        assert cfg.thin == 100
        assert cfg.proposal_var == 0.02
        assert cfg.move_probs == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class TestPosteriorSampleSet:
    def _mixed(self):
        thetas = [np.array([0.5]), np.array([0.2, 0.8]), np.array([0.3])]
        return cm.PosteriorSampleSet(
            thetas, np.array([1, 2, 1]), np.zeros(3), 0.5, cm.OPEN
        )

    def test_theta_matrix_requires_common_k(self):
        mixed = self._mixed()
        with pytest.raises(ValueError):
            mixed.theta_matrix()
        np.testing.assert_allclose(mixed.theta_matrix(k=1), [[0.5], [0.3]])
        with pytest.raises(ValueError):
            mixed.theta_matrix(k=5)

    def test_select_k_and_counts(self):
        mixed = self._mixed()
        assert mixed.k_counts() == {1: 2, 2: 1}
        sub = mixed.select_k(1)
        assert sub.n == 2 and set(sub.ks) == {1}

    @pytest.mark.parametrize("thetas, ks, log_post", [
        (np.zeros((3, 2)), [5, 5, 5], np.zeros(3)),  # ks above the width
        (np.zeros((3, 2)), [0, 2, 2], np.zeros(3)),  # an empty row
        (np.zeros((2, 2)), [2], np.zeros(5)),  # one ks entry for two rows
        (np.zeros((2, 2)), [2, 2], np.zeros(5)),  # five log_post values
        (np.zeros(3), [1, 1, 1], np.zeros(3)),  # not a table
    ])
    def test_inconsistent_arrays_rejected(self, thetas, ks, log_post):
        with pytest.raises(ValueError):
            cm.PosteriorSampleSet(thetas, np.array(ks), log_post, 0.5, cm.OPEN)


class TestRwmStep:
    def test_flat_target_always_accepts(self):
        # uniform prior on a closed domain: every proposal is valid and the
        # acceptance ratio is exactly 1
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25, topology=cm.CLOSED, alpha=1.0)
        rng = np.random.default_rng(3)
        theta = np.array([0.1, 0.4, 0.7])
        logp = log_posterior_theta(sample, theta, spec, include_likelihood=False)
        n_acc = 0
        for _ in range(200):
            theta, logp, acc = rwm_step_closed(sample, spec, theta, logp, table_row(rng))
            n_acc += acc
        assert n_acc == 200

    def test_ordering_violation_always_rejected(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25)
        theta = np.array([0.3, 0.31])
        logp = log_posterior_theta(sample, theta, spec)
        rng = np.random.default_rng(0)
        # with a huge proposal variance almost every move breaks the
        # ordering or leaves [0, 1]; every retained state must stay valid
        for _ in range(300):
            theta, logp, _ = cm.rwm_step(theta, logp, sample, spec, 4.0, table_row(rng))
            assert cm.theta_is_valid(theta, cm.OPEN)
            assert np.isfinite(logp)

    def test_acceptance_decision_matches_hand_computation(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25)
        theta0 = np.array([0.25, 0.55, 0.85])
        logp0 = log_posterior_theta(sample, theta0, spec)
        for seed in range(20):
            row = table_row(np.random.default_rng(seed))
            _, where, u, step = row
            j = min(int(np.floor(where * 3)), 2)
            prop = theta0.copy()
            prop[j] += step * np.sqrt(0.02)
            logp_prop = log_posterior_theta(sample, prop, spec)
            want_accept = logp_prop > NEG_INF and np.log(u) < logp_prop - logp0
            theta1, logp1, acc = cm.rwm_step(theta0, logp0, sample, spec, 0.02, row)
            assert acc == want_accept
            if acc:
                np.testing.assert_allclose(theta1, prop, atol=1e-15)
                assert logp1 == pytest.approx(logp_prop, abs=1e-12)
            else:
                assert theta1 is theta0 and logp1 == logp0


def rwm_step_closed(sample, spec, theta, logp, row):
    return cm.rwm_step(
        theta, logp, sample, spec, 0.02, row, prior_only=True
    )


class TestRunChain:
    def test_deterministic_under_seed(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25)
        cfg = cm.ChainConfig(n_iter=2000, thin=10, seed=11)
        a = cm.run_chain(sample, spec, cfg, k=2)
        b = cm.run_chain(sample, spec, cfg, k=2)
        assert a.accept_rate == b.accept_rate
        for ta, tb in zip(a.thetas, b.thetas):
            assert np.array_equal(ta, tb)
        assert np.array_equal(a.log_post, b.log_post)

    def test_burn_in_and_thinning_counts(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25)
        cfg = cm.ChainConfig(n_iter=5000, burn_in_frac=0.2, thin=50, seed=1)
        res = cm.run_chain(sample, spec, cfg, k=2)
        assert res.n == 80  # (5000 - 1000) / 50
        assert np.all(res.ks == 2)

    def test_prior_recovery_dirichlet_means(self):
        # constant likelihood: retained spacings must match the symmetric
        # Dirichlet, whose component means are 1/p
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25, alpha=1.0)
        cfg = cm.ChainConfig(n_iter=100_000, thin=10, proposal_var=0.02, seed=5)
        res = cm.run_chain(sample, spec, cfg, k=3, prior_only=True)
        s = np.array(
            [cm.spacing_from_theta(th, cm.OPEN) for th in res.thetas]
        )
        means = s.mean(axis=0)
        # Dirichlet(1) component sd is sqrt(p-1)/(p sqrt(p+1)); allow 3
        # Monte-Carlo standard errors with a conservative effective sample
        # size of n/20
        p = 4
        sd = np.sqrt(p - 1.0) / (p * np.sqrt(p + 1.0))
        tol = 3.0 * sd / np.sqrt(res.n / 20.0)
        np.testing.assert_allclose(means, 1.0 / p, atol=tol)

    def test_prior_recovery_closed_anchor_uniform(self):
        # closed-curve prior draws: each landmark is marginally uniform
        rng = np.random.default_rng(17)
        spec = cm.ModelSpec(n_eval=25, topology=cm.CLOSED, alpha=1.0)
        draws = np.array([draw_initial_theta(rng, spec, 3) for _ in range(4000)])
        pooled = draws.ravel()
        hist, _ = np.histogram(pooled, bins=10, range=(0.0, 1.0))
        assert hist.min() > 0.8 * pooled.size / 10
        assert hist.max() < 1.2 * pooled.size / 10

    def test_no_finite_start_raises(self):
        # 70 landmarks cannot keep every spacing above the guard at N = 16
        curve = cm.rescale_unit_length(cm.sine_curve(200), 16)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(16, cm.OPEN))
        with pytest.raises(RuntimeError, match="could not find an initial state"):
            cm.run_chain(sample, cm.ModelSpec(n_eval=16), cm.ChainConfig(n_iter=1000), k=70)

    @pytest.mark.parametrize("topology, k", [(cm.OPEN, 0), (cm.CLOSED, 2)])
    @pytest.mark.parametrize("run", [
        lambda sample, spec, cfg, k: cm.run_chain(sample, spec, cfg, k=k),
        lambda sample, spec, cfg, k: cm.distance_criterion(sample, spec, [k, k + 1], cfg),
    ], ids=["run_chain", "distance_criterion"])
    def test_count_below_the_minimum_raises(self, topology, k, run):
        # named at once, not after 100 prior draws without a finite posterior
        if topology == cm.OPEN:
            sample = polyline_sample()
        else:
            curve = cm.rescale_unit_length(cm.cut_half_circle(200, cut=0.3), 25)
            sample = cm.CurveSample.build([curve], cm.EvaluationGrid(25, topology))
        spec = cm.ModelSpec(n_eval=25, topology=topology)
        below = f"^k={k} is below the {topology}-curve minimum, {cm.k_min_for(topology)}$"
        with pytest.raises(ValueError, match=below):
            run(sample, spec, cm.ChainConfig(n_iter=1000), k)

    @pytest.mark.parametrize("spec", [cm.ModelSpec(n_eval=400, lam=1.0),
                                      cm.ModelSpec(n_eval=25, topology=cm.CLOSED, lam=1.0)])
    @pytest.mark.parametrize("run", [
        lambda sample, spec, cfg: cm.run_chain(sample, spec, cfg, k=3),
        lambda sample, spec, cfg: cm.run_rjmcmc(sample, spec, cfg),
        lambda sample, spec, cfg: cm.distance_criterion(sample, spec, [3], cfg),
    ], ids=["run_chain", "run_rjmcmc", "distance_criterion"])
    def test_spec_off_the_sample_grid_raises(self, spec, run):
        # the chain would score another posterior than the sample's
        grids = f"n_eval={spec.n_eval}, {spec.topology}.*n_eval=25, open"
        with pytest.raises(ValueError, match=grids):
            run(polyline_sample(), spec, cm.ChainConfig(n_iter=1000))

    def test_no_accepted_proposal_warns(self, sine_sample_100):
        cfg = cm.ChainConfig(n_iter=1000, proposal_var=1e12)
        with pytest.warns(UserWarning, match="chain accepted no proposals"):
            res = cm.run_chain(sine_sample_100, cm.ModelSpec(n_eval=100), cfg, k=4)
        assert res.accept_rate == 0.0

    def test_sine_posterior_quick(self, sine_sample_100):
        spec = cm.ModelSpec(n_eval=100)
        cfg = cm.ChainConfig(n_iter=30_000, thin=30, seed=2)
        res = cm.run_chain(sine_sample_100, spec, cfg, k=4)
        means = res.theta_matrix().mean(axis=0)
        np.testing.assert_allclose(means, [0.125, 0.375, 0.625, 0.875], atol=0.01)

    def test_k1_histogram_matches_grid_posterior(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25)

        def logpost(th):
            return log_posterior_theta(sample, th, spec)

        centers, probs = oracles.grid_posterior_k1(logpost, n_grid=2000)
        cfg = cm.ChainConfig(n_iter=200_000, thin=10, seed=4)
        res = cm.run_chain(sample, spec, cfg, k=1)
        draws = res.theta_matrix()[:, 0]
        bins = np.linspace(0.0, 1.0, 41)
        chain_hist, _ = np.histogram(draws, bins=bins)
        chain_p = chain_hist / chain_hist.sum()
        grid_p = np.array(
            [
                probs[(centers >= lo) & (centers < hi)].sum()
                for lo, hi in zip(bins[:-1], bins[1:])
            ]
        )
        tv = 0.5 * np.abs(chain_p - grid_p).sum()
        assert tv <= 0.05

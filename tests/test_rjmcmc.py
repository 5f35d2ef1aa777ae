import numpy as np
import pytest
from scipy import stats

import curvemark as cm
import oracles
from curvemark.model import log_posterior_theta
from curvemark.rjmcmc import draw_initial_state, move_probabilities


def polyline_sample(n_eval=25):
    pts = oracles.three_segment_polyline(60)
    curve = cm.rescale_unit_length(cm.PlanarCurve(pts), n_eval)
    return cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, cm.OPEN))


THIRDS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class TestRjmcmcConfig:
    """The ChainConfig field only the RJMCMC sampler reads."""

    def test_move_probs_validated(self):
        with pytest.raises(ValueError):
            cm.ChainConfig(move_probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            cm.ChainConfig(move_probs=(0.7, 0.4, -0.1))
        with pytest.raises(ValueError):
            cm.ChainConfig(move_probs=(0.5, 0.4, 0.3))


class TestMoveProbabilities:
    def test_interior(self):
        assert move_probabilities(5, 1, THIRDS) == pytest.approx(THIRDS)

    def test_death_mass_reassigned_at_minimum(self):
        pb, pd, ps = move_probabilities(1, 1, THIRDS)
        assert pd == 0.0
        assert pb == pytest.approx(2.0 / 3.0)
        assert ps == pytest.approx(1.0 / 3.0)

    def test_closed_minimum_is_three(self):
        pb, pd, _ = move_probabilities(3, 3, THIRDS)
        assert pd == 0.0 and pb == pytest.approx(2.0 / 3.0)


class TestBirthDeathProposals:
    def test_birth_inserts_in_order(self):
        spec = cm.ModelSpec(n_eval=100)
        u = np.random.default_rng(0).random()
        new, log_ratio = cm.propose_birth(np.array([0.5]), u, spec, THIRDS)
        np.testing.assert_allclose(new, np.sort([0.5, u]), atol=1e-15)
        # from k=1 (boundary: birth prob 2/3) to k=2 (death prob 1/3)
        want = np.log(1.0 / 3.0) - np.log(2.0) - np.log(2.0 / 3.0)
        assert log_ratio == pytest.approx(want, abs=1e-12)

    def test_death_removes_chosen_index(self):
        spec = cm.ModelSpec(n_eval=100)
        theta = np.array([0.2, 0.5])
        for seed in range(10):
            where = np.random.default_rng(seed).random()
            i = min(int(np.floor(where * 2)), 1)
            new, log_ratio = cm.propose_death(theta, where, spec, THIRDS)
            np.testing.assert_allclose(new, np.delete(theta, i))
            want = np.log(2.0 / 3.0) + np.log(2.0) - np.log(1.0 / 3.0)
            assert log_ratio == pytest.approx(want, abs=1e-12)

    def test_death_forbidden_at_minimum(self):
        spec = cm.ModelSpec(n_eval=100)
        with pytest.raises(ValueError):
            cm.propose_death(np.array([0.5]), 0.5, spec, THIRDS)
        closed = cm.ModelSpec(n_eval=100, topology=cm.CLOSED)
        with pytest.raises(ValueError):
            cm.propose_death(np.array([0.1, 0.4, 0.8]), 0.5, closed, THIRDS)

    def test_birth_death_log_ratios_cancel(self):
        spec = cm.ModelSpec(n_eval=100)
        theta = np.array([0.2, 0.6, 0.9])
        where = np.random.default_rng(1).random()
        _, lr_birth = cm.propose_birth(theta, where, spec, THIRDS)
        grown = np.array([0.2, 0.4, 0.6, 0.9])
        _, lr_death = cm.propose_death(grown, where, spec, THIRDS)
        assert lr_birth + lr_death == pytest.approx(0.0, abs=1e-12)

    def test_births_land_near_a_landmark_at_the_uniform_rate(self):
        # the birth location is uniform: it falls within min_spacing of the
        # landmark at 0.5 with probability 2 min_spacing, and is not redrawn
        spec = cm.ModelSpec(n_eval=16)
        rng = np.random.default_rng(0)
        n = 10_000
        near = 0
        for _ in range(n):
            new, _ = cm.propose_birth(np.array([0.5]), rng.random(), spec, THIRDS)
            near += np.min(np.abs(new[new != 0.5] - 0.5)) < spec.min_spacing
        rate = 2.0 * spec.min_spacing
        assert abs(near / n - rate) <= 4.0 * np.sqrt(rate * (1.0 - rate) / n)

    def test_acceptance_matches_hand_computation(self, sine_sample_100):
        # birth acceptance = min{1, exp(delta log posterior) * p_d(k+1) /
        # ((k+1) p_b(k))}, recomputed term by term from the model module
        spec = cm.ModelSpec(n_eval=100, lam=1.0)
        theta = np.array([0.125, 0.625])
        u = np.random.default_rng(9).random()
        prop, log_ratio = cm.propose_birth(theta, u, spec, THIRDS)
        lp_old = log_posterior_theta(sine_sample_100, theta, spec, variable_k=True)
        lp_new = log_posterior_theta(sine_sample_100, prop, spec, variable_k=True)
        alpha = min(1.0, np.exp((lp_new - lp_old) + log_ratio))
        by_hand = min(
            1.0,
            np.exp(lp_new - lp_old) * (1.0 / 3.0) / (3.0 * (1.0 / 3.0)),
        )
        assert prop.size == 3 and u in prop
        assert alpha == pytest.approx(by_hand, abs=1e-12)


class TestDrawInitialState:
    def test_respects_k_max(self):
        spec = cm.ModelSpec(n_eval=100, lam=30.0, k_max=8)
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = draw_initial_state(rng, spec)
            assert 1 <= theta.size <= 8

    def test_requires_lambda(self):
        with pytest.raises(ValueError):
            draw_initial_state(np.random.default_rng(0), cm.ModelSpec(n_eval=100))


class TestRunRjmcmc:
    def test_no_finite_start_raises(self):
        # prior draws near k = 81 cannot keep every spacing above the guard
        # at N = 16
        sample = polyline_sample(n_eval=16)
        spec = cm.ModelSpec(n_eval=16, lam=80.0, k_max=120)
        with pytest.raises(RuntimeError, match="could not find an initial state"):
            cm.run_rjmcmc(sample, spec, cm.ChainConfig(n_iter=1000))

    def test_deterministic_under_seed(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25, lam=1.0)
        cfg = cm.ChainConfig(n_iter=3000, thin=10, seed=21)
        a = cm.run_rjmcmc(sample, spec, cfg)
        b = cm.run_rjmcmc(sample, spec, cfg)
        assert np.array_equal(a.ks, b.ks)
        for ta, tb in zip(a.thetas, b.thetas):
            assert np.array_equal(ta, tb)

    def test_states_stay_valid(self):
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25, lam=2.0, k_max=12)
        cfg = cm.ChainConfig(n_iter=5000, thin=5, seed=2)
        res = cm.run_rjmcmc(sample, spec, cfg)
        assert res.ks.min() >= 1 and res.ks.max() <= 12
        for th, k in zip(res.thetas, res.ks):
            assert cm.theta_is_valid(th[:k], cm.OPEN)

    def test_prior_recovery_shifted_poisson(self):
        # constant likelihood: retained k must follow k_min + Poisson(lam)
        sample = polyline_sample()
        lam = 2.0
        spec = cm.ModelSpec(n_eval=25, lam=lam)
        cfg = cm.ChainConfig(n_iter=150_000, thin=10, seed=5)
        res = cm.run_rjmcmc(sample, spec, cfg, prior_only=True)
        ks = res.ks
        assert ks.mean() == pytest.approx(1.0 + lam, abs=0.1)
        k_hi = int(ks.max())
        observed = np.array([(ks == k).sum() for k in range(1, k_hi + 1)])
        expected = np.array(
            [
                oracles.shifted_poisson_pmf(k, lam, 1, spec.k_max)
                for k in range(1, k_hi + 1)
            ]
        ) * ks.size
        # merge sparse tail bins so the chi-square approximation holds
        while expected.size > 2 and expected[-1] < 5.0:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        stat, p = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > 0.01

    def test_k_marginal_matches_prior_monte_carlo(self):
        # likelihood on: the chain's k frequencies must match p(k | y),
        # computed from p(k) and a prior Monte Carlo estimate of each k's
        # marginal likelihood (p(3 | y) = 0.577).  The pooled frequencies of
        # three 200k-iteration chains lie within 0.005 of it; a birth move
        # that redraws locations near a landmark gives about 0.597 instead
        curve = cm.rescale_unit_length(cm.sine_curve(200), 16)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(16, cm.OPEN))
        spec = cm.ModelSpec(n_eval=16, b=1.0, lam=1.0, k_max=3)
        want = oracles.k_posterior_prior_mc(sample, spec, n_draws=200_000, seed=0)
        ks = np.concatenate([
            cm.run_rjmcmc(sample, spec, cm.ChainConfig(n_iter=200_000, thin=10, seed=s)).ks
            for s in (1, 2, 3)
        ])
        got = np.array([np.mean(ks == k) for k in (1, 2, 3)])
        np.testing.assert_allclose(got, want, atol=0.009)

    def test_conditioned_on_k_matches_fixed_k_chain(self):
        # weak-data regime keeps both chains mobile, making the comparison
        # statistically meaningful at moderate run lengths
        sample = polyline_sample()
        spec = cm.ModelSpec(n_eval=25, lam=0.5)
        rj = cm.run_rjmcmc(
            sample, spec, cm.ChainConfig(n_iter=200_000, thin=300, seed=3)
        )
        fixed = cm.run_chain(
            sample, spec, cm.ChainConfig(n_iter=150_000, thin=300, seed=8), k=2
        )
        a = rj.select_k(2).theta_matrix()
        b = fixed.theta_matrix()
        assert a.shape[0] > 150 and b.shape[0] > 400
        for j in range(2):
            _, p = stats.ks_2samp(a[:, j], b[:, j])
            assert p > 0.01

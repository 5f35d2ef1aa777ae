import pickle

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import dirichlet

import curvemark as cm
import oracles
from curvemark.model import _log_marginal_from_error, log_posterior_theta


def make_spec(**kw):
    kw.setdefault("n_eval", 100)
    return cm.ModelSpec(**kw)


class TestModelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(a=-1.0)
        with pytest.raises(ValueError):
            make_spec(b=0.0)
        with pytest.raises(ValueError):
            make_spec(alpha=0.0)
        with pytest.raises(ValueError):
            make_spec(lam=-2.0)
        with pytest.raises(ValueError):
            make_spec(n_eval=8)

    @pytest.mark.parametrize("field", ["a", "b", "alpha", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hyperparameter_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            make_spec(**{field: value})

    def test_min_spacing_tracks_resolution(self):
        assert make_spec(n_eval=100).min_spacing == pytest.approx(1.0 / 400.0)
        assert make_spec(n_eval=200).min_spacing == pytest.approx(1.0 / 800.0)

    def test_k_min(self):
        assert cm.k_min_for(cm.OPEN) == 1
        assert cm.k_min_for(cm.CLOSED) == 3


class TestSpacingPrior:
    def test_uniform_when_alpha_one(self):
        spec = make_spec(alpha=1.0)
        for s in ([0.25, 0.5, 0.25], [0.1, 0.2, 0.3, 0.4], [0.5, 0.5]):
            s = np.asarray(s)
            want = float(gammaln(len(s)))  # log Gamma(p): uniform density
            assert cm.log_prior_spacing(s, spec) == pytest.approx(want, abs=1e-12)

    def test_symmetric_alpha_two(self):
        spec = make_spec(alpha=2.0)
        got = cm.log_prior_spacing(np.array([0.5, 0.5]), spec)
        assert got == pytest.approx(np.log(1.5), abs=1e-12)

    def test_against_scipy_dirichlet(self):
        spec = make_spec(alpha=3.0)
        s = np.array([0.2, 0.3, 0.5])
        want = dirichlet.logpdf(s, np.full(3, 3.0))
        assert cm.log_prior_spacing(s, spec) == pytest.approx(want, abs=1e-12)
        assert cm.log_prior_spacing(s, spec) == pytest.approx(
            oracles.dirichlet_logpdf(s, 3.0), abs=1e-12
        )

    def test_boundary_gets_minus_inf(self):
        spec = make_spec()
        assert cm.log_prior_spacing(np.array([0.0, 1.0]), spec) == -np.inf


class TestCountPrior:
    def test_open_k1_is_minus_lambda(self):
        spec = make_spec(lam=2.5)
        assert cm.log_prior_k(1, spec) == pytest.approx(-2.5, abs=1e-12)

    def test_open_k3_lambda_one(self):
        spec = make_spec(lam=1.0)
        assert cm.log_prior_k(3, spec) == pytest.approx(np.log(np.exp(-1.0) / 2.0), abs=1e-12)

    def test_closed_k2_unsupported(self):
        spec = make_spec(topology=cm.CLOSED, lam=1.0)
        assert cm.log_prior_k(2, spec) == -np.inf

    def test_k_max_truncation(self):
        spec = make_spec(lam=1.0, k_max=10)
        assert cm.log_prior_k(10, spec) > -np.inf
        assert cm.log_prior_k(11, spec) == -np.inf

    def test_requires_lambda(self):
        with pytest.raises(ValueError):
            cm.log_prior_k(3, make_spec())


class TestMarginalLikelihood:
    def test_closed_form_at_zero_error(self):
        # D = 0, a = 1, b = 1 collapses to
        # -NM log pi + log Gamma(1 + NM) - log Gamma(1)
        spec = make_spec(n_eval=16, a=1.0, b=1.0)
        nm = 16
        want = -nm * np.log(np.pi) + gammaln(1.0 + nm)
        assert _log_marginal_from_error(0.0, spec, 1) == pytest.approx(want, abs=1e-10)

    def test_matches_kappa_quadrature(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(20):
            n_eval = int(rng.integers(16, 60))
            m = int(rng.integers(1, 4))
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(0.005, 2.0))
            total = float(rng.uniform(0.001, 2.0))
            spec = make_spec(n_eval=n_eval, a=a, b=b)
            got = _log_marginal_from_error(total, spec, m)
            want = oracles.kappa_quadrature_log_marginal(total, a, b, n_eval * m)
            worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 1e-6

    def test_monotone_in_error(self):
        spec = make_spec()
        assert _log_marginal_from_error(0.1, spec, 1) > _log_marginal_from_error(0.2, spec, 1)

    def test_min_spacing_guard(self, small_sample_25):
        spec = make_spec(n_eval=25)
        theta = np.array([0.5, 0.5 + 0.5 * spec.min_spacing])
        assert cm.log_marginal_likelihood(small_sample_25, theta, spec) == -np.inf

    def test_finite_above_guard(self, small_sample_25):
        spec = make_spec(n_eval=25)
        theta = np.array([0.3, 0.7])
        assert np.isfinite(cm.log_marginal_likelihood(small_sample_25, theta, spec))


class TestReconstructionError:
    @pytest.mark.parametrize("theta", [[0.5, 0.2], [-0.1, 0.5], [0.5, 0.5], [], [0.3, 1.2]])
    def test_invalid_vector_raises(self, sine_sample_100, theta):
        with pytest.raises(cm.LandmarkError, match="invalid landmark vector for open curve"):
            cm.total_reconstruction_error_sq(sine_sample_100, theta)

    @pytest.mark.parametrize("m, widest", [(1, 320), (5, 64)])
    def test_batch_chunk_bounded_by_curve_count(self, monkeypatch, m, widest):
        # the batched engine's temporaries grow with rows times curves, so
        # a sample of M curves reaches it at most 320 // M rows a call
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        sample = cm.CurveSample.build([curve] * m, cm.EvaluationGrid(100, cm.OPEN))
        widths = []
        rows = cm.model._error_sq_rows

        def recording_rows(stack, th, grid):
            widths.append(th.shape[1])
            return rows(stack, th, grid)

        monkeypatch.setattr(cm.model, "_error_sq_rows", recording_rows)
        thetas = np.sort(np.random.default_rng(3).uniform(0.05, 0.95, (1000, 4)), axis=1)
        got = cm.total_reconstruction_error_sq_batch(sample, thetas)
        assert sum(widths) == 1000 and max(widths) == widest
        want = [cm.total_reconstruction_error_sq(sample, th) for th in thetas[:5]]
        np.testing.assert_allclose(got[:5], want, rtol=1e-12)


class TestLogPosterior:
    def test_uniform_prior_cancels_in_differences(self, sine_sample_100):
        spec = make_spec(alpha=1.0)
        a = np.array([0.12, 0.37, 0.63, 0.88])
        b = np.array([0.2, 0.4, 0.6, 0.8])
        dp = cm.log_posterior_theta(sine_sample_100, a, spec) - (
            cm.log_posterior_theta(sine_sample_100, b, spec)
        )
        dl = cm.log_marginal_likelihood(sine_sample_100, a, spec) - cm.log_marginal_likelihood(
            sine_sample_100, b, spec
        )
        assert dp == pytest.approx(dl, abs=1e-12)

    def test_variable_k_term_by_term(self, sine_sample_100):
        spec = make_spec(alpha=1.5, lam=2.0)
        th3 = np.array([0.2, 0.5, 0.8])
        th4 = np.array([0.2, 0.4, 0.5, 0.8])
        got = log_posterior_theta(
            sine_sample_100, th4, spec, variable_k=True
        ) - log_posterior_theta(sine_sample_100, th3, spec, variable_k=True)
        want = (
            cm.log_prior_k(4, spec)
            - cm.log_prior_k(3, spec)
            + cm.log_prior_spacing(cm.spacing_from_theta(th4, cm.OPEN), spec)
            - cm.log_prior_spacing(cm.spacing_from_theta(th3, cm.OPEN), spec)
            + _log_marginal_from_error(
                cm.total_reconstruction_error_sq(sine_sample_100, th4), spec, 1
            )
            - _log_marginal_from_error(
                cm.total_reconstruction_error_sq(sine_sample_100, th3), spec, 1
            )
        )
        assert got == pytest.approx(want, abs=1e-10)

    def test_invalid_ordering_minus_inf(self, sine_sample_100):
        spec = make_spec()
        assert log_posterior_theta(sine_sample_100, np.array([0.7, 0.3]), spec) == -np.inf
        assert log_posterior_theta(sine_sample_100, np.array([-0.1, 0.3]), spec) == -np.inf

    def test_translation_invariance_exact(self, sine_sample_100):
        spec = make_spec()
        shifted = [
            cm.PlanarCurve(c.points + np.array([4.0, -2.0]), cm.OPEN)
            for c in sine_sample_100.curves
        ]
        moved = cm.CurveSample.build(shifted, sine_sample_100.grid)
        theta = np.array([0.12, 0.37, 0.63, 0.88])
        d1 = cm.log_posterior_theta(sine_sample_100, theta, spec)
        d2 = cm.log_posterior_theta(moved, theta, spec)
        assert d2 == pytest.approx(d1, abs=1e-8)

    def test_larger_b_flattens_likelihood(self, sine_sample_100):
        # the error sensitivity d log f / dD shrinks as b grows
        tight = make_spec(b=0.01)
        flat = make_spec(b=1.0)
        d0, d1 = 0.02, 0.03
        slope_tight = _log_marginal_from_error(d1, tight, 1) - _log_marginal_from_error(
            d0, tight, 1
        )
        slope_flat = _log_marginal_from_error(d1, flat, 1) - _log_marginal_from_error(
            d0, flat, 1
        )
        assert abs(slope_flat) < abs(slope_tight)


class TestCurveSample:
    def test_caches_srvfs(self, sine_sample_100):
        assert sine_sample_100.m == 1
        assert sine_sample_100.srvfs[0].shape == (100, 2)

    def test_topology_mismatch(self):
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        with pytest.raises(cm.CurveError):
            cm.CurveSample.build([cm.sine_curve(100)], grid)

    def test_empty_rejected(self):
        with pytest.raises(cm.CurveError):
            cm.CurveSample.build([], cm.EvaluationGrid(100, cm.OPEN))

    def test_pickles_after_its_likelihood_cache_is_built(self):
        sample = cm.CurveSample.build([cm.half_circle(120)], cm.EvaluationGrid(64, cm.CLOSED))
        spec = make_spec(n_eval=64, topology=cm.CLOSED)
        theta = np.array([0.1, 0.4, 0.7])
        lp = log_posterior_theta(sample, theta, spec)
        assert log_posterior_theta(pickle.loads(pickle.dumps(sample)), theta, spec) == lp

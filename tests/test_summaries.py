import numpy as np
import pytest
from scipy import integrate

import curvemark as cm
import oracles


def sample_set(thetas, topology=cm.OPEN, log_post=None):
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    if log_post is None:
        log_post = np.zeros(len(thetas))
    return cm.PosteriorSampleSet(
        thetas,
        np.array([t.size for t in thetas]),
        np.asarray(log_post, dtype=float),
        0.5,
        topology,
    )


class TestSummarize:
    def test_degenerate_sample(self):
        th = [0.2, 0.6, 0.9]
        ss = sample_set([th] * 10)
        out = cm.summarize(ss)
        np.testing.assert_allclose(out["mean"], th, atol=1e-15)
        np.testing.assert_allclose(out["median"], th, atol=1e-15)
        np.testing.assert_allclose(out["map"], th, atol=1e-15)
        np.testing.assert_allclose(out["ci_lower"], th, atol=1e-15)
        np.testing.assert_allclose(out["ci_upper"], th, atol=1e-15)
        assert out["k"] == 3 and out["n_samples"] == 10

    def test_map_has_highest_log_posterior(self, rng):
        thetas = [np.sort(rng.uniform(0.01, 0.99, 4)) for _ in range(50)]
        lp = rng.normal(size=50)
        ss = sample_set(thetas, log_post=lp)
        out = cm.summarize(ss)
        np.testing.assert_allclose(out["map"], thetas[int(np.argmax(lp))])
        assert out["map_log_post"] == pytest.approx(lp.max())

    def test_percentiles_match_sort_oracle(self, rng):
        thetas = [np.sort(rng.uniform(0.01, 0.99, 3)) for _ in range(501)]
        ss = sample_set(thetas)
        out = cm.summarize(ss)
        mat = ss.theta_matrix()
        for j in range(3):
            assert out["median"][j] == oracles.sort_quantile(mat[:, j], 0.5)
            assert out["ci_lower"][j] == oracles.sort_quantile(mat[:, j], 0.025)
            assert out["ci_upper"][j] == oracles.sort_quantile(mat[:, j], 0.975)

    def test_interval_brackets_median(self, rng):
        thetas = [np.sort(rng.uniform(0.01, 0.99, 2)) for _ in range(200)]
        out = cm.summarize(sample_set(thetas))
        for j in range(2):
            assert out["ci_lower"][j] <= out["median"][j] <= out["ci_upper"][j]

    def test_closed_component_straddling_wrap(self, rng):
        # a landmark fluctuating around 0 must not average to 0.5
        vals = np.mod(rng.normal(0.0, 0.03, 400), 1.0)
        thetas = [np.sort(np.array([v, 0.33, 0.66])) for v in vals]
        aligned = cm.align_posterior_samples(sample_set(thetas, cm.CLOSED))
        out = cm.summarize(aligned)
        wrap_mean = [
            m for m in out["mean"] if min(m, 1.0 - m) < 0.1
        ]
        assert len(wrap_mean) == 1
        assert min(wrap_mean[0], 1.0 - wrap_mean[0]) < 0.02

    def test_empty_sample_rejected(self):
        ss = cm.PosteriorSampleSet([], np.array([], dtype=int), np.array([]), 0.0, cm.OPEN)
        with pytest.raises(ValueError):
            cm.summarize(ss)


class TestQuantiles:
    @pytest.mark.parametrize("n", [*range(1, 61), 180, 200, 999])
    def test_equal_to_numpy_bit_for_bit(self, rng, n):
        from curvemark.summaries import _quantiles

        for x in (rng.uniform(size=n), np.round(rng.normal(0.5, 0.1, n), 2),
                  rng.choice([0.1, 0.7], size=n), np.full(n, 0.3)):
            got = _quantiles(x, (0.025, 0.25, 0.75, 0.975, 0.5))
            assert got == [*np.percentile(x, [2.5, 25.0, 75.0, 97.5]).tolist(), np.median(x)]


class TestMarginalDensity:
    def test_point_mass_peaks_at_value(self):
        ss = sample_set([[0.42]] * 100)
        grid, dens = cm.marginal_density(ss, 0)
        assert abs(grid[int(np.argmax(dens))] - 0.42) < 0.01

    def test_uniform_sample_near_flat(self, rng):
        vals = rng.uniform(0.0, 1.0, 10_000)
        ss = sample_set([[v] for v in vals])
        grid, dens = cm.marginal_density(ss, 0)
        assert dens.max() / dens.min() < 2.0

    def test_integrates_to_one(self, rng):
        for topology, loc in ((cm.OPEN, 0.1), (cm.CLOSED, 0.02)):
            vals = np.mod(rng.normal(loc, 0.05, 500), 1.0)
            if topology == cm.OPEN:
                vals = np.clip(vals, 1e-4, 1.0 - 1e-4)
            ss = sample_set([[v] for v in vals], topology)
            grid, dens = cm.marginal_density(ss, 0)
            total = integrate.trapezoid(dens, grid)
            assert total == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    def test_chunked_grid_equals_one_matrix(self, rng, topology):
        # 2,000 draws: 6,000 data columns, so the grid is cut into chunks
        vals = np.clip(rng.normal(0.3, 0.1, 2000), 1e-3, 1.0 - 1e-3)
        ss = sample_set([[v] for v in vals], topology)
        _, dens = cm.marginal_density(ss, 0)
        x = ss.theta_matrix()[:, 0]
        iqr = float(np.subtract(*np.percentile(x, [75.0, 25.0])))
        bw = max(0.9 * min(float(np.std(x, ddof=1)), iqr / 1.34) * x.size ** (-0.2), 1e-3)
        assert np.array_equal(dens, oracles.kde_direct(x, bw, topology))

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    def test_nodes_far_from_the_data_equal_one_matrix(self, rng, topology):
        # a bandwidth of 1e-3 leaves most grid nodes more than 40 bandwidths
        # from every datum; closed data near 0 reach the nodes near 1 too
        near_0 = np.abs(rng.normal(0.0, 2e-4, 200)) + 1e-6
        for vals in (near_0, 1.0 - near_0, np.full(100, 0.42)):
            ss = sample_set([[v] for v in vals], topology)
            _, dens = cm.marginal_density(ss, 0)
            assert np.count_nonzero(dens) < 128
            assert np.array_equal(dens, oracles.kde_direct(vals, 1e-3, topology))

    def test_closed_draws_straddling_zero_peak_as_high_as_shifted_ones(self, rng):
        # the bandwidth comes from the draws' spread around t = 0, not from
        # the raw values, which lie near both 0 and 1
        vals = rng.normal(0.0, 0.02, 2000)
        peaks = []
        for shift in (0.0, 0.5):
            ss = sample_set([[v] for v in np.mod(vals + shift, 1.0)], cm.CLOSED)
            peaks.append(cm.marginal_density(ss, 0)[1].max())
        assert peaks[0] == pytest.approx(peaks[1], rel=0.1)

    def test_memory_bounded_on_many_draws(self, rng):
        import tracemalloc

        vals = np.sort(rng.uniform(0.0, 1.0, (100_000, 2)), axis=1)
        ss = cm.PosteriorSampleSet(
            list(vals), np.full(len(vals), 2), np.zeros(len(vals)), 0.5, cm.CLOSED
        )
        tracemalloc.start()
        try:
            cm.marginal_density(ss, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_temporaries_stay_small_on_few_draws(self, rng):
        # each chunk of the grid holds at most 2^13 values per temporary,
        # small enough for the allocator to keep on its heap between chunks
        import tracemalloc

        ss = sample_set([[v] for v in rng.uniform(0.2, 0.8, 200)])
        tracemalloc.start()
        try:
            cm.marginal_density(ss, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320 * 2**10

    def test_needs_enough_samples(self):
        ss = sample_set([[0.5]] * 10)
        with pytest.raises(ValueError):
            cm.marginal_density(ss, 0)


class TestDistanceCriterion:
    def test_straight_line_near_zero_everywhere(self):
        t = np.linspace(0.0, 1.0, 100)
        line = cm.PlanarCurve(np.column_stack([t, np.zeros_like(t)]))
        sample = cm.CurveSample.build([line], cm.EvaluationGrid(100, cm.OPEN))
        spec = cm.ModelSpec(n_eval=100)
        cfg = cm.ChainConfig(n_iter=2000, thin=20, seed=0)
        table = cm.distance_criterion(sample, spec, [1, 2, 3], cfg)
        for _, d in table:
            assert d < 1e-10

    def test_nonincreasing_on_random_curves(self, rng):
        # five random smooth open curves; averaging over the posterior makes
        # d_k^2 decrease in k up to Monte-Carlo noise
        spec = cm.ModelSpec(n_eval=50)
        cfg = cm.ChainConfig(n_iter=8000, thin=20, seed=10)
        for _ in range(5):
            t = np.linspace(0.0, 1.0, 120)
            y = np.sum(
                [
                    rng.uniform(-1.0, 1.0) / (m + 1) * np.sin((m + 1) * np.pi * t)
                    for m in range(4)
                ],
                axis=0,
            )
            curve = cm.rescale_unit_length(
                cm.PlanarCurve(np.column_stack([t, y])), 50
            )
            sample = cm.CurveSample.build([curve], cm.EvaluationGrid(50, cm.OPEN))
            table = cm.distance_criterion(sample, spec, [2, 4, 6], cfg)
            ds = [d for _, d in table]
            assert ds[1] <= ds[0] * 1.2 + 1e-9
            assert ds[2] <= ds[1] * 1.2 + 1e-9


    def test_base_seeds_do_not_share_run_seeds(self, monkeypatch, small_sample_25):
        # base seed 0 at k=2 and base seed 1 at k=1 must not coincide, as
        # they would with seeds of the form seed + k
        seeds = {}

        def fake_run_chain(sample, spec, cfg, k):
            seeds[(base, k)] = cfg.seed
            theta = np.arange(1, k + 1) / (k + 1.0)
            return sample_set([theta])

        monkeypatch.setattr(cm.summaries, "run_chain", fake_run_chain)
        spec = cm.ModelSpec(n_eval=25)
        for base in (0, 1):
            cm.distance_criterion(
                small_sample_25, spec, [1, 2, 3], cm.ChainConfig(seed=base)
            )
        assert seeds[(0, 2)] != seeds[(1, 1)]
        assert len(set(seeds.values())) == len(seeds)

    def test_memory_bounded_on_many_draws(self, monkeypatch, rng):
        import tracemalloc

        curves = [
            cm.rescale_unit_length(cm.cut_half_circle(240, cut=c), 240)
            for c in (0.2, 0.3, 0.4, 0.5, 0.6)
        ]
        sample = cm.CurveSample.build(curves, cm.EvaluationGrid(200, cm.CLOSED))
        thetas = np.sort(rng.uniform(0.0, 1.0, (10_000, 10)), axis=1)
        draws = sample_set(list(thetas), cm.CLOSED)
        monkeypatch.setattr(cm.summaries, "run_chain", lambda *args, **kwargs: draws)
        spec = cm.ModelSpec(n_eval=200, topology=cm.CLOSED)
        tracemalloc.start()
        try:
            (_, d), = cm.distance_criterion(sample, spec, [10], cm.ChainConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        want = np.mean([cm.total_reconstruction_error_sq(sample, th) for th in thetas])
        assert d == pytest.approx(want, rel=1e-12)


class TestExtrinsicMean:
    def test_identical_curves(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        sample = cm.CurveSample.build([curve] * 3, cm.EvaluationGrid(100, cm.OPEN))
        mean = cm.extrinsic_mean(sample)
        np.testing.assert_allclose(mean.points, curve.points, atol=1e-15)

    def test_mirrored_pair_collapses_to_axis(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        mirrored = cm.PlanarCurve(curve.points * np.array([1.0, -1.0]), cm.OPEN)
        sample = cm.CurveSample.build(
            [curve, mirrored], cm.EvaluationGrid(100, cm.OPEN)
        )
        mean = cm.extrinsic_mean(sample)
        np.testing.assert_allclose(mean.points[:, 1], 0.0, atol=1e-15)
        np.testing.assert_allclose(mean.points[:, 0], curve.points[:, 0], atol=1e-15)

    def test_matches_independent_average(self, rng):
        grid = cm.EvaluationGrid(64, cm.OPEN)
        curves = []
        for _ in range(20):
            t = np.linspace(0.0, 1.0, 64)
            y = 0.1 * rng.normal(size=3) @ np.array(
                [np.sin(np.pi * t), np.sin(2 * np.pi * t), np.sin(3 * np.pi * t)]
            )
            curves.append(cm.PlanarCurve(np.column_stack([t, y])))
        sample = cm.CurveSample.build(curves, grid)
        mean = cm.extrinsic_mean(sample)
        acc = np.zeros((64, 2))
        for c in curves:
            acc += c.points
        np.testing.assert_allclose(mean.points, acc / 20.0, atol=1e-12)

    def test_mismatched_resolutions_rejected(self):
        a = cm.rescale_unit_length(cm.sine_curve(200), 100)
        b = cm.rescale_unit_length(cm.sine_curve(200), 64)
        sample = cm.CurveSample.build([a], cm.EvaluationGrid(100, cm.OPEN))
        sample.curves.append(b)
        with pytest.raises(cm.CurveError):
            cm.extrinsic_mean(sample)

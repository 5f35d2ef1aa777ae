import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import curvemark as cm
import oracles
from curvemark.model import log_posterior_theta


def straight_line(n=64):
    t = np.linspace(0.0, 1.0, n)
    return cm.PlanarCurve(np.column_stack([t, np.zeros_like(t)]))


def closed_curve(n=100):
    return cm.rescale_unit_length(cm.half_circle(120), n)


class TestLandmarkConfig:
    """The landmark support rule: theta_is_valid, enforced at the boundary
    by linear_reconstruction."""

    def test_open_ordering_enforced(self):
        curve, grid = straight_line(), cm.EvaluationGrid(64, cm.OPEN)
        assert cm.theta_is_valid(np.array([0.2, 0.5, 0.9]), cm.OPEN)
        cm.linear_reconstruction(curve, np.array([0.2, 0.5, 0.9]), grid)
        for theta in ([0.5, 0.2], [0.0, 0.5], [0.5, 1.0], []):
            assert not cm.theta_is_valid(np.array(theta), cm.OPEN)
            with pytest.raises(cm.LandmarkError):
                cm.linear_reconstruction(curve, np.array(theta), grid)

    def test_closed_needs_three(self):
        curve, grid = closed_curve(), cm.EvaluationGrid(100, cm.CLOSED)
        assert cm.theta_is_valid(np.array([0.0, 0.4, 0.8]), cm.CLOSED)
        cm.linear_reconstruction(curve, np.array([0.0, 0.4, 0.8]), grid)
        for theta in ([0.2, 0.7], [0.1, 0.1, 0.5]):
            assert not cm.theta_is_valid(np.array(theta), cm.CLOSED)
            with pytest.raises(cm.LandmarkError):
                cm.linear_reconstruction(curve, np.array(theta), grid)


class TestSpacingMaps:
    def test_open_spacing(self):
        s = cm.spacing_from_theta(np.array([0.25, 0.75]), cm.OPEN)
        np.testing.assert_allclose(s, [0.25, 0.5, 0.25], atol=1e-15)

    def test_closed_spacing_wraps(self):
        s = cm.spacing_from_theta(np.array([0.1, 0.5, 0.8]), cm.CLOSED)
        np.testing.assert_allclose(s, [0.4, 0.3, 0.3], atol=1e-15)

    def test_open_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            theta = np.sort(rng.uniform(0.01, 0.99, k))
            if k > 1 and np.min(np.diff(theta)) < 1e-4:
                continue
            back = cm.spacing_to_theta(cm.spacing_from_theta(theta, cm.OPEN), cm.OPEN)
            np.testing.assert_allclose(back, theta, atol=1e-12)

    def test_spacing_to_theta_open(self):
        s = np.array([0.25, 0.5, 0.25])
        np.testing.assert_allclose(cm.spacing_to_theta(s, cm.OPEN), [0.25, 0.75])

    def test_spacing_to_theta_closed_with_start(self):
        s = np.array([0.4, 0.3, 0.3])
        np.testing.assert_allclose(
            cm.spacing_to_theta(s, cm.CLOSED, start=0.1), [0.1, 0.5, 0.8], atol=1e-15
        )

    def test_spacing_to_theta_closed_wrap_case(self):
        s = np.array([0.4, 0.3, 0.3])
        np.testing.assert_allclose(
            cm.spacing_to_theta(s, cm.CLOSED, start=0.9), [0.3, 0.6, 0.9], atol=1e-12
        )


class TestLinearReconstruction:
    def test_straight_line_is_fixed_point(self):
        curve = straight_line()
        grid = cm.EvaluationGrid(64, cm.OPEN)
        for theta in ([0.5], [0.2, 0.4, 0.9]):
            rec = cm.linear_reconstruction(curve, np.array(theta), grid)
            np.testing.assert_allclose(rec.points, curve.points, atol=1e-12)

    def test_landmarks_at_every_vertex(self):
        # vertices sit exactly on grid nodes, so the reconstruction through
        # all interior vertices reproduces the polyline on-grid
        pts = np.array([[0.0, 0.0], [0.25, 0.3], [0.5, 0.1], [0.75, 0.4], [1.0, 0.0]])
        curve = cm.PlanarCurve(pts)
        grid = cm.EvaluationGrid(17, cm.OPEN)
        rec = cm.linear_reconstruction(curve, np.array([0.25, 0.5, 0.75]), grid)
        want = cm.evaluate_at(curve, grid.nodes)
        np.testing.assert_allclose(rec.points, want, atol=1e-12)

    def test_sine_matches_independent_interpolator(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        theta = np.array([0.125, 0.375, 0.625, 0.875])
        rec = cm.linear_reconstruction(curve, theta, grid)
        want = oracles.piecewise_linear_reconstruction(
            curve.points, cm.OPEN, theta, grid.nodes
        )
        np.testing.assert_allclose(rec.points, want, atol=1e-12)

    def test_closed_matches_independent_interpolator(self):
        curve = closed_curve()
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        theta = np.array([0.05, 0.3, 0.55, 0.9])
        rec = cm.linear_reconstruction(curve, theta, grid)
        want = oracles.piecewise_linear_reconstruction(
            curve.points, cm.CLOSED, theta, grid.nodes
        )
        np.testing.assert_allclose(rec.points, want, atol=1e-12)

    def test_closed_wrap_segment_is_linear(self):
        curve = closed_curve()
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        theta = np.array([0.2, 0.5, 0.7])
        rec = cm.linear_reconstruction(curve, theta, grid)
        # nodes in the wrap span (0.7, 1) + (0, 0.2) must lie on the chord
        a = cm.evaluate_at(curve, 0.7)
        b = cm.evaluate_at(curve, 0.2)
        for t in (0.8, 0.95, 0.1):
            w = ((t - 0.7) % 1.0) / 0.5
            want = a + w * (b - a)
            got = rec.points[int(round(t * 100))]
            np.testing.assert_allclose(got, want, atol=1e-12)


def error_sq(curve, theta, grid):
    """Squared reconstruction error of one curve."""
    return cm.total_reconstruction_error_sq(cm.CurveSample.build([curve], grid), theta)


class TestReconstructionError:
    def test_zero_for_exactly_linear_curve(self):
        curve = straight_line()
        grid = cm.EvaluationGrid(64, cm.OPEN)
        assert error_sq(curve, np.array([0.3, 0.6]), grid) == pytest.approx(0.0, abs=1e-20)

    def test_good_config_beats_poor_config(self):
        # landmarks at the sine extrema capture the shape; clustered
        # landmarks miss most of it
        curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(200, cm.OPEN))
        good = np.array([0.125, 0.375, 0.625, 0.875])
        poor = np.array([0.01, 0.02, 0.03, 0.04])
        d_good = cm.total_reconstruction_error_sq(sample, good)
        d_poor = cm.total_reconstruction_error_sq(sample, poor)
        assert d_poor > 5.0 * d_good

    def test_matches_brute_force_oracle(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
        theta = np.array([0.125, 0.375, 0.625, 0.875])
        got = error_sq(curve, theta, cm.EvaluationGrid(200, cm.OPEN))
        want = oracles.reconstruction_error_sq(curve.points, cm.OPEN, theta, 200)
        assert got == pytest.approx(want, abs=1e-10)

    def test_matches_brute_force_oracle_closed(self):
        curve = closed_curve(64)
        theta = np.array([0.1, 0.42, 0.77])
        got = error_sq(curve, theta, cm.EvaluationGrid(64, cm.CLOSED))
        want = oracles.reconstruction_error_sq(curve.points, cm.CLOSED, theta, 64)
        assert got == pytest.approx(want, abs=1e-10)

    def test_nonnegative_on_random_configs(self, rng):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(100, cm.OPEN))
        for _ in range(50):
            k = int(rng.integers(1, 8))
            theta = np.sort(rng.uniform(0.02, 0.98, k))
            if k > 1 and np.min(np.diff(theta)) < 1e-3:
                continue
            d = cm.total_reconstruction_error_sq(sample, theta)
            assert d >= 0.0

    def test_translation_invariance(self):
        base = cm.rescale_unit_length(cm.sine_curve(200), 100)
        shifted = cm.PlanarCurve(base.points + np.array([2.0, -1.0]), cm.OPEN)
        grid = cm.EvaluationGrid(100, cm.OPEN)
        theta = np.array([0.125, 0.375, 0.625, 0.875])
        d1 = error_sq(base, theta, grid)
        d2 = error_sq(shifted, theta, grid)
        assert d2 == pytest.approx(d1, abs=1e-12)

    def test_rotation_invariance(self):
        base = cm.rescale_unit_length(cm.sine_curve(200), 100)
        ang = np.deg2rad(45.0)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = cm.PlanarCurve(base.points @ rot.T, cm.OPEN)
        grid = cm.EvaluationGrid(100, cm.OPEN)
        theta = np.array([0.125, 0.375, 0.625, 0.875])
        d1 = error_sq(base, theta, grid)
        d2 = error_sq(rotated, theta, grid)
        assert d2 == pytest.approx(d1, abs=1e-9)

    def test_extra_landmark_can_only_help_at_best(self, rng):
        # the best augmented configuration containing the old landmarks
        # never does worse than the old configuration
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(100, cm.OPEN))
        for _ in range(5):
            theta = np.sort(rng.uniform(0.05, 0.95, 3))
            if np.min(np.diff(theta)) < 0.05:
                continue
            base = cm.total_reconstruction_error_sq(sample, theta)
            candidates = []
            for t_new in np.linspace(0.01, 0.99, 197):
                aug = np.sort(np.append(theta, t_new))
                if np.min(np.diff(aug)) < 1e-3:
                    continue
                candidates.append(cm.total_reconstruction_error_sq(sample, aug))
            assert min(candidates) <= base + 1e-12


# The prefix-sum engine reorders the arithmetic of the per-node pipeline
# in tests/oracles.py; this bound was fixed before the sweep was run.
def within_engine_tolerance(fast, oracle):
    return abs(fast - oracle) <= 1e-12 * (1.0 + oracle)


def sweep_curve(topology, n_points):
    if topology == cm.OPEN:
        return cm.rescale_unit_length(cm.sine_curve(200), n_points)
    return cm.rescale_unit_length(cm.cut_half_circle(240, cut=0.3), n_points)


def sweep_thetas(topology, n_eval, rng):
    """Landmark vectors for one grid, at least 128 of them: random ones
    with k up to 11, knots exactly on grid nodes, two knots inside one
    grid cell, three or four inside one cell at the min-spacing guard
    1/(4N) apart, runs of knots 1-2 cells apart (so that a stencil end
    skips more than one knot), and knots in the end cells of the
    domain."""
    cells = n_eval if topology == cm.CLOSED else n_eval - 1
    k_min = 3 if topology == cm.CLOSED else 1
    guard = 1.0 / (4.0 * n_eval)
    out = []
    for k in range(k_min, 12):
        out.append(rng.uniform(0.0, 1.0, k))
        out.append(rng.choice(np.arange(1, cells), size=min(k, cells - 1), replace=False) / cells)
        cell = int(rng.integers(1, cells - 1))
        pair = (cell + np.sort(rng.uniform(0.05, 0.95, 2))) / cells
        out.append(np.concatenate([pair, rng.uniform(0.0, 1.0, max(k - 2, 1))]))
        ends = [rng.uniform(0.0, 1.0) / cells, 1.0 - rng.uniform(0.0, 1.0) / cells]
        out.append(np.concatenate([ends, rng.uniform(0.0, 1.0, max(k - 2, 1))]))
        for m in (3, 4):
            start = (int(rng.integers(1, cells - 1)) + rng.uniform(0.0, 0.2)) / cells
            cluster = start + guard * np.arange(m)
            out.append(np.concatenate([cluster, rng.uniform(0.0, 1.0, max(k - m, 0))]))
        run = (int(rng.integers(1, cells // 2)) + np.cumsum(rng.uniform(1.0, 2.0, k))) / cells
        out.append(run[run < 1.0])
    while len(out) < 150:
        out.append(rng.uniform(0.0, 1.0, int(rng.integers(k_min, 12))))
    # knots one double apart, which often share a grid position
    for x in rng.uniform(0.1, 0.9, 20):
        out.append(np.array([0.05, x, np.nextafter(x, 1.0), 0.95]))
    # a knot on a grid node that rounds differently through (theta + 1) * N
    out.append(np.array([0.16, 0.5, 0.8]))
    if topology == cm.CLOSED:
        out.append(np.array([0.0, 0.3, 1.0 - 0.5 / cells]))
    valid = []
    for th in out:
        th = np.unique(th)
        if cm.theta_is_valid(th, topology):
            valid.append(th)
    return valid


class TestSegmentEngine:
    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    @pytest.mark.parametrize("n_eval", [16, 25, 64, 200])
    def test_matches_per_node_oracle(self, topology, n_eval):
        rng = np.random.default_rng(n_eval)
        curve = sweep_curve(topology, int(rng.integers(40, 300)))
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, topology))
        thetas = sweep_thetas(topology, n_eval, rng)
        assert len(thetas) >= 128
        for th in thetas:
            fast = cm.total_reconstruction_error_sq(sample, th)
            want = oracles.reconstruction_error_sq(curve.points, topology, th, n_eval)
            assert within_engine_tolerance(fast, want), (th, fast, want)

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    def test_curves_with_different_resolutions(self, topology):
        rng = np.random.default_rng(11)
        curves = [sweep_curve(topology, 37), sweep_curve(topology, 250)]
        curves[1] = cm.PlanarCurve(curves[1].points * [1.0, -0.5], topology)
        sample = cm.CurveSample.build(curves, cm.EvaluationGrid(64, topology))
        for th in sweep_thetas(topology, 64, rng):
            fast = cm.total_reconstruction_error_sq(sample, th)
            want = sum(
                oracles.reconstruction_error_sq(c.points, topology, th, 64) for c in curves
            )
            assert within_engine_tolerance(fast, want), (th, fast, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([cm.OPEN, cm.CLOSED]),
        st.sampled_from([16, 25, 64, 200]),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=11),
    )
    def test_matches_per_node_oracle_property(self, topology, n_eval, theta):
        th = np.unique(theta)
        assume(cm.theta_is_valid(th, topology))
        curve = sweep_curve(topology, 90)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, topology))
        fast = cm.total_reconstruction_error_sq(sample, th)
        want = oracles.reconstruction_error_sq(curve.points, topology, th, n_eval)
        assert within_engine_tolerance(fast, want)


class TestBatchedEngine:
    """The batched engine against the same per-node oracle, with every
    sweep case of one grid in a single batch."""

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    @pytest.mark.parametrize("n_eval", [16, 25, 64, 200])
    def test_rows_match_per_node_oracle(self, topology, n_eval):
        rng = np.random.default_rng(n_eval)
        curve = sweep_curve(topology, int(rng.integers(40, 300)))
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, topology))
        thetas = sweep_thetas(topology, n_eval, rng)
        by_k = {}
        for th in thetas:
            by_k.setdefault(th.size, []).append(th)
        # one ragged batch of every k, then one (B, k) array per k
        batches = [thetas] + [np.array(rows) for rows in by_k.values()]
        for batch in batches:
            fast = cm.total_reconstruction_error_sq_batch(sample, batch)
            assert fast.shape == (len(batch),)
            for th, got in zip(batch, fast):
                want = oracles.reconstruction_error_sq(curve.points, topology, th, n_eval)
                assert within_engine_tolerance(got, want), (th, got, want)

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    def test_curves_with_different_resolutions(self, topology):
        rng = np.random.default_rng(11)
        curves = [sweep_curve(topology, 37), sweep_curve(topology, 250)]
        curves[1] = cm.PlanarCurve(curves[1].points * [1.0, -0.5], topology)
        sample = cm.CurveSample.build(curves, cm.EvaluationGrid(64, topology))
        thetas = sweep_thetas(topology, 64, rng)
        fast = cm.total_reconstruction_error_sq_batch(sample, thetas)
        for th, got in zip(thetas, fast):
            want = sum(
                oracles.reconstruction_error_sq(c.points, topology, th, 64) for c in curves
            )
            assert within_engine_tolerance(got, want), (th, got, want)

    @pytest.mark.parametrize("topology", [cm.OPEN, cm.CLOSED])
    @pytest.mark.parametrize("variable_k", [False, True])
    @pytest.mark.parametrize("include_likelihood", [False, True])
    def test_log_posterior_rows(self, topology, variable_k, include_likelihood):
        n_eval = 64
        rng = np.random.default_rng(5)
        curve = sweep_curve(topology, 120)
        sample = cm.CurveSample.build([curve], cm.EvaluationGrid(n_eval, topology))
        spec = cm.ModelSpec(n_eval=n_eval, topology=topology, alpha=1.5, lam=2.0, k_max=9)
        valid = sweep_thetas(topology, n_eval, rng)
        unordered = [th[::-1] for th in valid if th.size > 1][:10]
        crowded = [
            np.sort(np.append(th, th[0] + 0.5 * spec.min_spacing))
            for th in valid
            if th.size < 8 and th[0] + spec.min_spacing < th[1:2].min(initial=1.0)
        ][:10]
        outside = [np.append(th, 1.0 + th[0])[-4:] for th in valid[:5]]
        assert len(unordered) == len(crowded) == 10
        rows = valid + unordered + crowded + outside
        rows = [rows[i] for i in rng.permutation(len(rows))]
        lp = cm.log_posterior_batch(
            sample, rows, spec, variable_k=variable_k, include_likelihood=include_likelihood
        )
        n_finite = 0
        for th, got in zip(rows, lp):
            want = log_posterior_theta(
                sample, th, spec, variable_k=variable_k, include_likelihood=include_likelihood
            )
            if want == -np.inf:
                assert got == -np.inf, th
            else:
                n_finite += 1
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (th, got, want)
        assert n_finite >= 20
        # the same rows as one padded table with their landmark counts
        padded, ks = cm.model._stack_rows(rows)
        assert np.array_equal(cm.log_posterior_batch(
            sample, padded, spec, variable_k=variable_k, include_likelihood=include_likelihood,
            ks=ks), lp)
        with pytest.raises(cm.LandmarkError):
            cm.log_posterior_batch(sample, padded, spec, ks=ks + padded.shape[1])
        # the crowded rows break the min-spacing rule and nothing else
        crowded_lp = cm.log_posterior_batch(
            sample, crowded, spec, variable_k=variable_k, include_likelihood=include_likelihood
        )
        assert np.all(np.isneginf(crowded_lp) == include_likelihood)

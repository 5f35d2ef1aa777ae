import numpy as np
import pytest
from scipy import integrate

import curvemark as cm
import oracles


def square_outline(n_side=25):
    s = np.linspace(-0.25, 0.25, n_side, endpoint=False)
    top = np.column_stack([s, np.full(n_side, 0.25)])
    right = np.column_stack([np.full(n_side, 0.25), -s])
    bottom = np.column_stack([-s, np.full(n_side, -0.25)])
    left = np.column_stack([np.full(n_side, -0.25), s])
    return cm.PlanarCurve(np.vstack([top, right, bottom, left]), cm.CLOSED)


class TestPlanarCurve:
    def test_shape_validation(self):
        with pytest.raises(cm.CurveError):
            cm.PlanarCurve(np.zeros((5, 3)))
        with pytest.raises(cm.CurveError):
            cm.PlanarCurve(np.zeros((2, 2)))
        with pytest.raises(cm.CurveError):
            cm.PlanarCurve(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]]))
        with pytest.raises(cm.CurveError):
            cm.PlanarCurve(np.zeros((5, 2)), "loop")

    def test_closed_wrap_counts_in_length(self):
        sq = square_outline(10)
        assert cm.polygonal_length(sq) == pytest.approx(2.0, abs=1e-12)


class TestRescaleUnitLength:
    def test_unit_square_scaled_by_quarter(self):
        # perimeter 4 with uniformly spaced samples: resampling is a no-op
        side = np.linspace(0.0, 1.0, 10, endpoint=False)
        pts = np.vstack([
            np.column_stack([side, np.zeros(10)]),
            np.column_stack([np.ones(10), side]),
            np.column_stack([1.0 - side, np.ones(10)]),
            np.column_stack([np.zeros(10), 1.0 - side]),
        ])
        sq = cm.PlanarCurve(pts, cm.CLOSED)
        out = cm.rescale_unit_length(sq)
        assert cm.polygonal_length(out) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(out.points, pts / 4.0, atol=1e-12)

    def test_identity_on_unit_length_input(self):
        t = np.linspace(0.0, 1.0, 50)
        line = cm.PlanarCurve(np.column_stack([t, np.zeros_like(t)]))
        out = cm.rescale_unit_length(line)
        np.testing.assert_allclose(out.points, line.points, atol=1e-9)

    def test_sine_length_against_quadrature(self):
        curve = cm.sine_curve(200)
        length_quad, err = integrate.quad(
            lambda t: np.hypot(1.0, 4.0 * np.pi * np.cos(4.0 * np.pi * t)),
            0.0, 1.0, limit=200,
        )
        assert err < 1e-8
        # polygonal length of the 200-point sampling approximates the true
        # arc length from below
        assert cm.polygonal_length(curve) == pytest.approx(length_quad, rel=1e-3)
        out = cm.rescale_unit_length(curve, 200)
        assert cm.polygonal_length(out) == pytest.approx(1.0, abs=1e-9)
        # still unit length under a much finer independent re-measurement
        fine = cm.resample(out, 20000)
        assert cm.polygonal_length(fine) == pytest.approx(1.0, abs=1e-4)

    def test_scale_invariance_of_preprocessing(self):
        base = cm.sine_curve(150)
        scaled = cm.PlanarCurve(base.points * 7.5, cm.OPEN)
        a = cm.rescale_unit_length(base, 100)
        b = cm.rescale_unit_length(scaled, 100)
        np.testing.assert_allclose(a.points, b.points, atol=1e-12)

    def test_degenerate_curve_rejected(self):
        pts = np.ones((5, 2))
        with pytest.raises(cm.CurveError):
            cm.rescale_unit_length(cm.PlanarCurve(pts))


class TestEvaluateAt:
    def test_stored_node_exact(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 100)
        grid = np.linspace(0.0, 1.0, 100)
        vals = cm.evaluate_at(curve, grid)
        assert np.array_equal(vals, curve.points)

    def test_midpoint_of_straight_segment(self):
        line = cm.PlanarCurve(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(cm.evaluate_at(line, 0.5), [0.5, 0.0], atol=1e-15)

    def test_against_dense_resampling_oracle(self):
        # fine enough that parameter and polyline arc length agree well
        # below the tolerance
        curve = cm.rescale_unit_length(cm.sine_curve(20000), 20000)
        dense = cm.resample(curve, 200001)
        val = cm.evaluate_at(curve, 0.3)
        ref = dense.points[60000]
        np.testing.assert_allclose(val, ref, atol=1e-4)

    def test_against_loop_oracle(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
        for t in (0.0, 0.137, 0.3, 0.825, 1.0):
            np.testing.assert_allclose(
                cm.evaluate_at(curve, t),
                oracles.interp_on_polyline(curve.points, cm.OPEN, t),
                atol=1e-12,
            )

    def test_closed_wraps_mod_one(self):
        sq = square_outline(10)
        np.testing.assert_allclose(
            cm.evaluate_at(sq, 1.25), cm.evaluate_at(sq, 0.25), atol=1e-12
        )

    def test_open_rejects_outside_domain(self):
        curve = cm.sine_curve(50)
        with pytest.raises(cm.CurveError):
            cm.evaluate_at(curve, 1.2)
        with pytest.raises(cm.CurveError):
            cm.evaluate_at(curve, np.array([0.1, -0.4]))


class TestEvaluationGrid:
    def test_open_grid(self):
        g = cm.EvaluationGrid(101, cm.OPEN)
        assert g.dt == pytest.approx(0.01)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    def test_closed_grid_excludes_duplicate_endpoint(self):
        g = cm.EvaluationGrid(100, cm.CLOSED)
        assert g.dt == pytest.approx(0.01)
        assert g.nodes[-1] == pytest.approx(0.99)

    def test_minimum_resolution(self):
        with pytest.raises(cm.CurveError):
            cm.EvaluationGrid(15, cm.OPEN)


class TestSrvf:
    def test_straight_segment_constant_q(self):
        t = np.linspace(0.0, 1.0, 64)
        line = cm.PlanarCurve(np.column_stack([t, np.zeros_like(t)]))
        q = cm.compute_srvf(line, cm.EvaluationGrid(64, cm.OPEN))
        np.testing.assert_allclose(q, np.tile([1.0, 0.0], (64, 1)), atol=1e-9)

    def test_translation_invariance_bitwise(self):
        base = cm.rescale_unit_length(cm.sine_curve(200), 200)
        # coarse mantissas keep the translated coordinates exact, which is
        # what makes a bitwise comparison meaningful
        pts = np.round(base.points * 2**26) / 2**26
        c1 = cm.PlanarCurve(pts, cm.OPEN)
        c2 = cm.PlanarCurve(pts + np.array([1.25, -0.5]), cm.OPEN)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        assert np.array_equal(
            cm.compute_srvf(c1, grid), cm.compute_srvf(c2, grid)
        )

    def test_translation_invariance_generic_offset(self):
        c1 = cm.rescale_unit_length(cm.sine_curve(200), 200)
        c2 = cm.PlanarCurve(c1.points + np.array([3.7, -12.2]), cm.OPEN)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        np.testing.assert_allclose(
            cm.compute_srvf(c1, grid),
            cm.compute_srvf(c2, grid),
            atol=1e-10,
        )

    def test_rotation_equivariance(self):
        c1 = cm.rescale_unit_length(cm.sine_curve(200), 200)
        ang = np.deg2rad(30.0)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        c2 = cm.PlanarCurve(c1.points @ rot.T, cm.OPEN)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        q1 = cm.compute_srvf(c1, grid)
        q2 = cm.compute_srvf(c2, grid)
        np.testing.assert_allclose(q2, q1 @ rot.T, atol=1e-9)

    def test_norm_squared_integrates_to_length(self):
        curve = cm.rescale_unit_length(cm.sine_curve(200), 200)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        q = cm.compute_srvf(curve, grid)
        total = np.sum(np.linalg.norm(q, axis=1) ** 2) * grid.dt
        assert total == pytest.approx(1.0, abs=0.05)

    def test_speed_matches_analytic_before_rescaling(self):
        # raw sine stored on a uniform t-grid: |q|^2 is the analytic speed
        curve = cm.sine_curve(200)
        grid = cm.EvaluationGrid(200, cm.OPEN)
        q = cm.compute_srvf(curve, grid)
        t = grid.nodes[1:-1]
        analytic = np.hypot(1.0, 4.0 * np.pi * np.cos(4.0 * np.pi * t))
        measured = np.linalg.norm(q[1:-1], axis=1) ** 2
        np.testing.assert_allclose(measured, analytic, rtol=0.02)

    def test_matches_loop_oracle(self):
        for topology, n in ((cm.OPEN, 40), (cm.CLOSED, 40)):
            if topology == cm.OPEN:
                curve = cm.rescale_unit_length(cm.sine_curve(200), n)
            else:
                curve = cm.rescale_unit_length(cm.half_circle(120), n)
            grid = cm.EvaluationGrid(n, topology)
            got = cm.compute_srvf(curve, grid)
            want = oracles.srvf_of_values(curve.points, topology, grid.dt)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_topology_mismatch_rejected(self):
        curve = cm.sine_curve(50)
        with pytest.raises(cm.CurveError):
            cm.compute_srvf(curve, cm.EvaluationGrid(50, cm.CLOSED))


class TestSrvfToCurve:
    def test_constant_q_gives_straight_segment(self):
        grid = cm.EvaluationGrid(64, cm.OPEN)
        q = np.tile([1.0, 0.0], (64, 1))
        curve = cm.srvf_to_curve(q, grid)
        np.testing.assert_allclose(curve.points[-1], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(curve.points[:, 1], 0.0, atol=1e-12)

    def test_zero_q_gives_constant_curve(self):
        grid = cm.EvaluationGrid(32, cm.OPEN)
        q = np.zeros((32, 2))
        curve = cm.srvf_to_curve(q, grid, start=(0.3, -0.2))
        np.testing.assert_allclose(curve.points, np.tile([0.3, -0.2], (32, 1)))

    def test_roundtrip_bijection(self):
        n = 200
        curve = cm.rescale_unit_length(cm.sine_curve(400), n)
        grid = cm.EvaluationGrid(n, cm.OPEN)
        q = cm.compute_srvf(curve, grid)
        back = cm.srvf_to_curve(q, grid, start=curve.points[0])
        err = np.max(np.linalg.norm(back.points - curve.points, axis=1))
        assert err <= 5.0 / n


class TestDiscreteCurvature:
    def test_circle_constant_curvature(self):
        ang = 2.0 * np.pi * np.arange(100) / 100
        r = 1.0 / (2.0 * np.pi)
        circ = cm.PlanarCurve(r * np.column_stack([np.cos(ang), np.sin(ang)]), cm.CLOSED)
        kap = cm.discrete_curvature(circ)
        np.testing.assert_allclose(kap, 2.0 * np.pi, rtol=0.05)

    def test_straight_nodes_near_zero(self):
        sq = square_outline(25)
        kap = cm.discrete_curvature(sq)
        # mid-side nodes sit far from any corner
        assert kap[12] < 1e-9
        assert kap[62] < 1e-9

    def test_corner_argmax_and_tie_break(self):
        sq = square_outline(25)
        kap = cm.discrete_curvature(sq)
        ties = np.where(kap == kap.max())[0]
        np.testing.assert_array_equal(ties, [0, 25, 50, 75])  # the 4 corners
        assert int(np.argmax(kap)) == 0

    def test_argmax_stable_under_refinement(self):
        coarse = cm.rescale_unit_length(cm.cut_half_circle(120), 100)
        fine = cm.rescale_unit_length(cm.cut_half_circle(480), 400)
        t_coarse = np.argmax(cm.discrete_curvature(coarse)) / 100
        t_fine = np.argmax(cm.discrete_curvature(fine)) / 400
        gap = abs(t_coarse - t_fine)
        assert min(gap, 1.0 - gap) < 0.03

    def test_open_curve_rejected(self):
        with pytest.raises(cm.CurveError):
            cm.discrete_curvature(cm.sine_curve(50))

import numpy as np
import pytest

import curvemark as cm
import oracles
from curvemark.alignment import _shift_start


def square_outline(n_side=25):
    s = np.linspace(-0.25, 0.25, n_side, endpoint=False)
    top = np.column_stack([s, np.full(n_side, 0.25)])
    right = np.column_stack([np.full(n_side, 0.25), -s])
    bottom = np.column_stack([-s, np.full(n_side, -0.25)])
    left = np.column_stack([np.full(n_side, -0.25), s])
    return cm.PlanarCurve(np.vstack([top, right, bottom, left]), cm.CLOSED)


def wobbly_outline(rng, n=100):
    """Random smooth closed outline from a few Fourier modes."""
    ang = 2.0 * np.pi * np.arange(n) / n
    r = 1.0 + 0.25 * np.sum(
        [
            rng.uniform(-1.0, 1.0) * np.cos((m + 2) * ang + rng.uniform(0, 2 * np.pi))
            / (m + 2)
            for m in range(4)
        ],
        axis=0,
    )
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    return cm.rescale_unit_length(cm.PlanarCurve(pts, cm.CLOSED), n)


class TestSelectReferencePoint:
    def test_square_corner_with_lowest_index_tie_break(self):
        sq = square_outline(25)
        kap = cm.discrete_curvature(sq)
        ties = np.where(kap == kap.max())[0]
        assert ties.size == 4  # exact four-fold symmetry
        assert cm.select_reference_point(sq) == int(ties[0]) == 0

    def test_cut_half_circle_matches_fine_grid_oracle(self):
        coarse = cm.rescale_unit_length(cm.cut_half_circle(120), 100)
        fine = cm.rescale_unit_length(cm.cut_half_circle(600), 500)
        t_coarse = cm.select_reference_point(coarse) / 100
        t_fine = cm.select_reference_point(fine) / 500
        gap = abs(t_coarse - t_fine)
        assert min(gap, 1.0 - gap) < 0.03


def regular_polygon(p, ts):
    """Points of a regular p-gon with vertices on the unit circle, at
    arc-length parameters ``ts`` (mod 1)."""
    ang = 2.0 * np.pi * np.arange(p) / p
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    pos = np.mod(ts, 1.0) * p
    i = np.floor(pos).astype(int) % p
    f = (pos - np.floor(pos))[:, None]
    return cm.PlanarCurve(verts[i] + f * (verts[(i + 1) % p] - verts[i]), cm.CLOSED)


class TestBestStartOffset:
    @pytest.mark.parametrize("n_eval", [64, 200, 1000])
    def test_matches_direct_search_on_cut_half_circles(self, n_eval):
        curves = [cm.rescale_unit_length(cm.half_circle(400), 400)] + [
            cm.rescale_unit_length(cm.cut_half_circle(400, cut=c), 400)
            for c in (0.2, 0.3, 0.4, 0.5)
        ]
        sample = cm.CurveSample.build(curves, cm.EvaluationGrid(n_eval, cm.CLOSED))
        for q_ref in sample.srvfs:
            for q in sample.srvfs:
                want = oracles.best_start_offset(q.values, q_ref.values)
                assert cm.alignment.best_start_offset(q.values, q_ref.values) == want

    @pytest.mark.parametrize("p, n_eval", [(4, 64), (5, 100), (6, 60)])
    def test_matches_direct_search_on_tied_offsets(self, p, n_eval):
        # a polygon sampled half a node off its reference: by mirror
        # symmetry two offsets tie up to rounding
        grid = cm.EvaluationGrid(n_eval, cm.CLOSED)
        t = np.arange(n_eval) / n_eval
        q_ref = cm.compute_srvf(regular_polygon(p, t), grid).values
        for shift in (0.5, 7.5, 20.5):
            q = cm.compute_srvf(regular_polygon(p, t + shift / n_eval), grid).values
            costs = np.sort(
                [np.sum((np.roll(q, -m, axis=0) - q_ref) ** 2) for m in range(n_eval)]
            )
            assert costs[1] - costs[0] < 1e-12 * costs[0]
            want = oracles.best_start_offset(q, q_ref)
            assert cm.alignment.best_start_offset(q, q_ref) == want


class TestAlignSampleStarts:
    def test_identical_curves_with_random_offsets(self, rng):
        base = wobbly_outline(rng)
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        curves = [base] + [
            _shift_start(base, int(rng.integers(1, 100)) / 100) for _ in range(3)
        ]
        aligned = cm.align_sample_starts(cm.CurveSample.build(curves, grid))
        ref = aligned.curves[0].points
        for c in aligned.curves[1:]:
            np.testing.assert_allclose(c.points, ref, atol=1e-9)

    def test_single_curve_gets_reference_shift_only(self):
        curve = cm.rescale_unit_length(cm.cut_half_circle(120), 100)
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        aligned = cm.align_sample_starts(cm.CurveSample.build([curve], grid))
        i0 = cm.select_reference_point(curve)
        want = _shift_start(curve, i0 / 100)
        np.testing.assert_allclose(aligned.curves[0].points, want.points, atol=1e-12)
        assert cm.select_reference_point(aligned.curves[0]) == 0

    def test_offsets_match_exhaustive_oracle(self, rng):
        grid = cm.EvaluationGrid(100, cm.CLOSED)
        curves = [wobbly_outline(rng) for _ in range(4)]
        sample = cm.CurveSample.build(curves, grid)
        aligned = cm.align_sample_starts(sample)
        # independent exhaustive search against the aligned first curve
        q_ref = cm.compute_srvf(aligned.curves[0], grid).values
        for orig, got in zip(sample.curves[1:], aligned.curves[1:]):
            best_m, best_cost = 0, np.inf
            for m in range(100):
                cand = _shift_start(orig, m / 100)
                q = cm.compute_srvf(cand, grid).values
                cost = float(((q - q_ref) ** 2).sum())
                if cost < best_cost:
                    best_m, best_cost = m, cost
            want = _shift_start(orig, best_m / 100)
            np.testing.assert_allclose(got.points, want.points, atol=1e-12)

    def test_open_curves_rejected(self, sine_sample_100):
        with pytest.raises(cm.CurveError):
            cm.align_sample_starts(sine_sample_100)


class TestCircularComponentDistance:
    def test_spot_values(self):
        assert cm.circular_component_distance(0.95, 0.05) == pytest.approx(0.1, abs=1e-15)
        assert cm.circular_component_distance(0.3, 0.3) == 0.0
        assert cm.circular_component_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_symmetry(self, rng):
        for _ in range(1000):
            a, b = rng.uniform(0.0, 1.0, 2)
            assert cm.circular_component_distance(a, b) == pytest.approx(
                cm.circular_component_distance(b, a), abs=1e-15
            )

    def test_never_exceeds_half(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.0, 1.0, 2)
            assert 0.0 <= cm.circular_component_distance(a, b) <= 0.5


class TestAlignPosteriorSamples:
    def _sample_set(self, thetas):
        thetas = [np.asarray(t, dtype=float) for t in thetas]
        return cm.PosteriorSampleSet(
            thetas,
            np.array([t.size for t in thetas]),
            np.zeros(len(thetas)),
            0.5,
            cm.CLOSED,
        )

    def test_already_aligned_unchanged(self):
        ss = self._sample_set([[0.1, 0.4, 0.7], [0.12, 0.41, 0.69]])
        out = cm.align_posterior_samples(ss)
        for a, b in zip(out.thetas, ss.thetas):
            assert np.array_equal(a, b)

    def test_cyclic_relabeling_undone(self):
        ref = np.array([0.1, 0.4, 0.7])
        rolled = np.roll(ref, 1)  # [0.7, 0.1, 0.4]
        out = cm.align_posterior_samples(self._sample_set([ref, rolled]))
        np.testing.assert_allclose(out.thetas[1], ref, atol=1e-15)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(3, 10))
            ref = np.sort(rng.uniform(0.0, 1.0, k))
            others = [np.roll(ref + rng.normal(0.0, 0.02, k), int(rng.integers(k)))
                      for _ in range(5)]
            ss = self._sample_set([ref] + others)
            out = cm.align_posterior_samples(ss)
            for th, got in zip(others, out.thetas[1:]):
                want = oracles.best_cyclic_rotation(th, ref)
                np.testing.assert_allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("k", [3, 4, 7])
    def test_bitwise_equal_to_loop_oracle(self, k, rng):
        # draws on a grid of eighths, where distances are exact and several
        # rotations often tie for the lowest cost, then continuous draws
        coarse = np.sort(rng.integers(0, 8, (300, k)) / 8.0, axis=1)
        smooth = np.sort(rng.uniform(0.0, 1.0, (300, k)), axis=1)
        thetas = list(np.vstack([coarse, smooth]))
        out = cm.align_posterior_samples(self._sample_set(thetas))
        want = oracles.align_posterior_thetas(thetas)
        assert len(out.thetas) == len(want)
        for got, exp in zip(out.thetas, want):
            assert np.array_equal(got, exp)
        ref = thetas[0]
        ties = 0
        for th in coarse[1:]:
            d = [np.abs(np.roll(th, -r) - ref) for r in range(k)]
            cost = np.array([np.minimum(x, 1.0 - x).sum() for x in d])
            ties += np.sum(cost == cost.min()) > 1
        assert ties > 20

    def test_idempotent(self, rng):
        k = 5
        ref = np.sort(rng.uniform(0.0, 1.0, k))
        others = [np.roll(ref + rng.normal(0.0, 0.05, k), int(rng.integers(k)))
                  for _ in range(10)]
        once = cm.align_posterior_samples(self._sample_set([ref] + others))
        twice = cm.align_posterior_samples(once)
        for a, b in zip(once.thetas, twice.thetas):
            assert np.array_equal(a, b)

    def test_preserves_multiset(self, rng):
        ref = np.sort(rng.uniform(0.0, 1.0, 4))
        other = np.roll(ref + rng.normal(0.0, 0.05, 4), 2)
        out = cm.align_posterior_samples(self._sample_set([ref, other]))
        np.testing.assert_allclose(np.sort(out.thetas[1]), np.sort(other), atol=1e-15)

    def test_requires_fixed_k(self):
        ss = cm.PosteriorSampleSet(
            [np.array([0.1, 0.4, 0.7]), np.array([0.1, 0.3, 0.5, 0.8])],
            np.array([3, 4]),
            np.zeros(2),
            0.5,
            cm.CLOSED,
        )
        with pytest.raises(ValueError):
            cm.align_posterior_samples(ss)

    def test_open_topology_rejected(self):
        ss = cm.PosteriorSampleSet(
            [np.array([0.2, 0.5])], np.array([2]), np.zeros(1), 0.5, cm.OPEN
        )
        with pytest.raises(ValueError):
            cm.align_posterior_samples(ss)

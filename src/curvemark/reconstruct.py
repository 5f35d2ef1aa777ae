"""Landmark parameterization and piecewise-linear shape reconstruction."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

import numpy as np

from .curves import OPEN, ZERO_SPEED, EvaluationGrid, PlanarCurve, evaluate_at


class LandmarkError(ValueError):
    """Raised for landmark vectors violating ordering or support."""


def _spacing_list(th: list, topology: str) -> list:
    """Consecutive spacings of a sorted landmark list: 0 and 1 bracket an
    open curve's landmarks; a closed curve's wrap spacing comes last."""
    gaps = [b - a for a, b in zip(th, th[1:])]
    if topology == OPEN:
        return [th[0]] + gaps + [1.0 - th[-1]]
    return gaps + [th[0] - th[-1] + 1.0]


def k_min_for(topology: str) -> int:
    """Smallest admissible landmark count: 1 for open curves, 3 for closed
    (a closed reconstruction needs three vertices)."""
    return 1 if topology == OPEN else 3


def _valid_spacings(th: list, topology: str) -> list | None:
    """Spacings of a landmark list, or None when the list violates the
    ordering, support or minimum count of its topology."""
    if len(th) < k_min_for(topology) or not th[-1] < 1.0:
        return None
    if not (0.0 < th[0] if topology == OPEN else 0.0 <= th[0]):
        return None
    s = _spacing_list(th, topology)
    for gap in s:
        if not gap > 0.0:
            return None
    return s


def _row_spacings(th: np.ndarray, ks: np.ndarray, topology: str):
    """:func:`_valid_spacings` of every row of a (K, B) array, column r
    holding row r's ``ks[r]`` (at least 1) landmarks padded with its last
    one: the spacings as :func:`_spacing_list` computes them (1.0 in the
    padding), as a (spacing, row) array, and each row's smallest spacing,
    or 0 where it breaks the support or minimum count (valid iff > 0)."""
    last = th[-1]
    gaps = th[1:] - th[:-1]
    gaps[np.arange(1, len(th))[:, None] >= ks] = 1.0
    if topology == OPEN:
        # th[0] is the first spacing, and 1 - last > 0 iff last < 1
        s = np.concatenate([th[:1], gaps, (1.0 - last)[None]])
        return s, s.min(axis=0)
    s = np.concatenate([gaps, ((th[0] - last) + 1.0)[None]])
    ok = (ks >= k_min_for(topology)) & (th[0] >= 0.0) & (last < 1.0)
    return s, np.where(ok, s.min(axis=0), 0.0)


def theta_is_valid(theta: np.ndarray, topology: str) -> bool:
    """Whether a landmark vector lies in the support of its topology.

    Open curves need 0 < theta_1 < ... < theta_k < 1 with k >= 1.  Closed
    curves need distinct values in [0, 1) sorted ascending, the cyclic
    order implied, with k >= 3.
    """
    return _valid_spacings(np.asarray(theta, dtype=float).ravel().tolist(), topology) is not None


def spacing_from_theta(theta: np.ndarray, topology: str) -> np.ndarray:
    """Consecutive spacings of a sorted landmark vector, a point on the
    probability simplex."""
    return np.array(_spacing_list(np.asarray(theta, dtype=float).ravel().tolist(), topology))


def spacing_to_theta(s: np.ndarray, topology: str, start: float = 0.0) -> np.ndarray:
    """Landmarks from spacings, the inverse of :func:`spacing_from_theta`.

    ``start`` anchors the first landmark on closed curves and is ignored for
    open ones (implicitly 0).  The spacings are not validated.
    """
    if topology == OPEN:
        return np.cumsum(s)[:-1]
    return np.sort(np.mod(start + np.concatenate([[0.0], np.cumsum(s[:-1])]), 1.0))


def linear_reconstruction(
    curve: PlanarCurve, theta: np.ndarray, grid: EvaluationGrid
) -> PlanarCurve:
    """Piecewise-linear reconstruction through the landmark images,
    evaluated at the grid nodes.

    Open curves get the two extra segments tying the reconstruction to the
    curve endpoints; closed curves get the wrap segment from the last
    landmark back to the first.  Raises :class:`LandmarkError` for a
    landmark vector outside the support (:func:`theta_is_valid`).
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if not theta_is_valid(theta, curve.topology):
        raise LandmarkError(f"invalid landmark vector for {curve.topology} curve: {theta}")
    nodes = grid.nodes
    if curve.closed:
        anchors = evaluate_at(curve, theta)
        knot_t = np.concatenate([[theta[-1] - 1.0], theta, [theta[0] + 1.0]])
        knot_xy = np.vstack([anchors[-1:], anchors, anchors[:1]])
    else:
        knot_t = np.concatenate([[0.0], theta, [1.0]])
        knot_xy = evaluate_at(curve, knot_t)
    x = np.interp(nodes, knot_t, knot_xy[:, 0])
    y = np.interp(nodes, knot_t, knot_xy[:, 1])
    return PlanarCurve(np.column_stack([x, y]), curve.topology)


def _knot_plan(th: list, n: int, closed: bool):
    """The curve-independent part of one error evaluation.

    Knots sit at grid positions u (in node units), each computed once; a
    closed curve's wrap knot is the first knot plus n.  Segment s keeps the
    nodes whose stencil lies in [u_s, u_{s+1}] ("clean"); the nodes within
    one cell of a knot ("dirty", at most two per knot, plus an open curve's
    end node when its one-sided stencil straddles a knot) are listed once
    each.  Returns the clean node ranges
    (segment, start, stop, 1 / segment length) and the dirty nodes
    (node, segment a, weight a, segment b, weight b, 1 / stencil width).
    """
    if closed:
        taus = th + [th[0] + 1.0]
        us = [t * n for t in th]
        us.append(us[0] + n)
        inv_centred = 0.5 * n
    else:
        taus = [0.0, *th, 1.0]
        us = [0.0, *[t * (n - 1) for t in th], float(n - 1)]
        inv_centred = 0.5 * (n - 1)
    n_seg = len(us) - 1
    fl = [int(u) for u in us]  # u >= 0, so int() is floor()
    ce = [f if f == u else f + 1 for f, u in zip(fl, us)]
    if closed:
        # one grid position per knot: the wrap knot reuses the first's
        fl[-1], ce[-1] = fl[0] + n, ce[0] + n

    # nodes are numbered from the first knot's cell on, so a closed
    # curve's node j and j + n are the same node
    clean = []
    for s in range(n_seg):
        lo = 0 if (s == 0 and not closed) else ce[s] + 1
        hi = n - 1 if (s == n_seg - 1 and not closed) else fl[s + 1] - 1
        if lo <= hi:
            clean.append((s, lo, hi + 1, 1.0 / (taus[s + 1] - taus[s])))

    cursor = fl[0]
    last = fl[0] + n - 1 if closed else n - 1
    dirty = []
    for s in (range(n_seg) if closed else range(1, n_seg)):
        for j in range(max(cursor, fl[s]), min(ce[s], last) + 1):
            a, b, inv = j - 1, j + 1, inv_centred
            if not closed:
                if j == 0:
                    a, inv = 0, 2.0 * inv_centred
                elif j == n - 1:
                    b, inv = n - 1, 2.0 * inv_centred
            elif a < us[0]:
                a += n
            # us[s] <= a < us[s + 1], so knots that share a grid
            # position never give a zero-length segment here
            sa = bisect_right(us, a, 0, n_seg) - 1
            wa = (a - us[sa]) / (us[sa + 1] - us[sa])
            sb = bisect_right(us, b, 0, n_seg) - 1
            wb = (b - us[sb]) / (us[sb + 1] - us[sb])
            dirty.append((j % n, sa, wa, sb, wb, inv))
        cursor = max(cursor, ce[s] + 1)
    return clean, dirty


def _curve_error_sq(c: tuple, th: list, closed: bool, plan) -> float:
    """Summed squared SRVF difference over the grid nodes of one curve, read
    from its :class:`CacheStack` buffers (not yet weighted by the grid
    spacing)."""
    clean, dirty = plan
    px, py, qx, qy, s2, s1x, s1y, rx, ry = c
    cell = len(px) - 1
    xs, ys = [], []
    if not closed:
        xs.append(px[0])
        ys.append(py[0])
    for t in th:
        pos = t * cell
        i = min(int(pos), cell - 1)
        f = pos - i
        xs.append(px[i] + f * (px[i + 1] - px[i]))
        ys.append(py[i] + f * (py[i + 1] - py[i]))
    if closed:
        xs.append(xs[0])
        ys.append(ys[0])
    else:
        xs.append(px[-1])
        ys.append(py[-1])

    dxs = [b - a for a, b in zip(xs, xs[1:])]
    dys = [b - a for a, b in zip(ys, ys[1:])]
    total = 0.0
    for s, a, b, inv_h in clean:
        vx, vy = dxs[s] * inv_h, dys[s] * inv_h
        speed = math.sqrt(vx * vx + vy * vy)
        if speed >= ZERO_SPEED:
            root = math.sqrt(speed)
            ex, ey = vx / root - rx, vy / root - ry
        else:
            ex, ey = -rx, -ry
        part = (
            s2[b] - s2[a]
            - 2.0 * (ex * (s1x[b] - s1x[a]) + ey * (s1y[b] - s1y[a]))
            + (b - a) * (ex * ex + ey * ey)
        )
        if part > 0.0:
            total += part

    for j, sa, wa, sb, wb, inv in dirty:
        vx = (xs[sb] + wb * dxs[sb] - xs[sa] - wa * dxs[sa]) * inv
        vy = (ys[sb] + wb * dys[sb] - ys[sa] - wa * dys[sa]) * inv
        speed = math.sqrt(vx * vx + vy * vy)
        if speed >= ZERO_SPEED:
            root = math.sqrt(speed)
            ex, ey = qx[j] - vx / root, qy[j] - vy / root
        else:
            ex, ey = qx[j], qy[j]
        total += ex * ex + ey * ey
    return total


class CacheStack:
    """What the likelihood reads of a sample's curves, computed once from
    the curves and their SRVFs on the grid and served to both error
    engines.

    Between knots the reconstruction is a straight line, so its SRVF is one
    constant c on every node whose difference stencil stays inside the
    segment; such a run of nodes contributes
    sum|q - r|^2 - 2 (c - r) . sum(q - r) + n |c - r|^2, read in O(1) from
    prefix sums of |q - r|^2 and q - r, r the mean of the curve's SRVF q.
    Centring on r keeps the three terms small where the fit is good, so
    little cancels.  A closed curve's sums run over two laps of the nodes,
    so the wrap segment is one range.

    ``curves`` holds, per curve, what the scalar engine
    (:func:`_curve_error_sq`) reads as Python floats: buffers of the
    polyline's x and y (closed curves repeat the first point at the end),
    of q's x and y and of the prefix sums of |q - r|^2 and q - r (x, y),
    then r's x and y.  The batched engine (:func:`_error_sq_rows`) reads
    them stacked: ``poly`` (2, 2, points) holds the polylines end to end,
    x and y of each point and then of the step to the next point (finite
    garbage after a curve's last point, which the engine multiplies by 0);
    ``sums`` (3, M, 2L) holds each curve's L prefix sums of |q - r|^2 and
    of -2 (q - r) (x, y), then the same terms of each node and a 0.
    Per-curve constants are shaped (M, 1, 1) to broadcast against the
    engine's (curve, knot, row) arrays.
    """

    __slots__ = ("curves", "poly", "start", "cells", "neg_r", "sums")

    def __init__(self, curves: list, srvfs: list):
        self.curves = []
        polys, rs, sums = [], [], []
        for curve, q in zip(curves, srvfs):
            pts = np.vstack([curve.points, curve.points[:1]]) if curve.closed else curve.points
            r = q.mean(axis=0)
            dev = q - r
            if curve.closed:
                dev = np.vstack([dev, dev])
            node = np.array([np.sum(dev * dev, axis=1), dev[:, 0], dev[:, 1]])
            prefix = np.concatenate((np.zeros((3, 1)), np.cumsum(node, axis=1)), axis=1)
            buffers = (*pts.T, *q.T, *prefix)
            self.curves.append((*(array("d", b.tobytes()) for b in buffers), *r.tolist()))
            polys.append(pts)
            rs.append(r)
            sums.append(np.concatenate((prefix, node, np.zeros((3, 1))), axis=1))
        p = np.concatenate(polys).T
        self.poly = np.array([p, np.diff(p, append=0.0)])
        sizes = np.array([len(pts) for pts in polys])
        self.start = (np.cumsum(sizes) - sizes)[:, None, None]
        self.cells = (sizes - 1)[:, None, None].astype(float)
        self.neg_r = -np.array(rs).T[:, :, None, None]
        self.sums = np.stack(sums, axis=1)
        self.sums[1:] *= -2.0


def _error_sq_rows(stack: CacheStack, th: np.ndarray, grid: EvaluationGrid) -> np.ndarray:
    """:func:`_error_sq_sum` of every column of a (K, B) array of valid
    landmark rows, each padded to K with its last landmark, in one pass of
    numpy calls; it differs from the scalar engine only by rounding.

    Each row follows :func:`_knot_plan` with the padding in place: the
    copies of the last landmark bound empty segments, and their dirty
    candidates are never listed.  Clean node ranges and dirty nodes are
    both runs of nodes with one constant reconstruction SRVF (a dirty node
    is a run of one), so they are scored as one list of pieces with the
    formula of :class:`CacheStack`; a piece not used is an empty run.  A
    knot's dirty candidates are its floor and ceiling nodes; laid out knot
    by knot, a candidate is listed only if it exceeds every earlier one
    (and the first knot's floor minus one), which is the scalar engine's
    running cursor, and lies within the last node.  Arrays are
    (coordinate, curve, piece or knot, row), with the axes a value does not
    carry left out, so rows are the contiguous axis.
    """
    closed = grid.topology != OPEN
    n = grid.n_eval
    width, rows = th.shape
    # knot parameters and grid positions u (in node units), one row per
    # knot; a closed curve's wrap knot (the first plus one lap) comes last
    if closed:
        knots = np.concatenate((th, th[:1] + 1.0))
        u = th * n
        us = np.concatenate((u, u[:1] + n))
        scale = n
        inv_centred = 0.5 * n
    else:
        edge = np.zeros((1, rows))
        knots = np.concatenate((edge, th, edge + 1.0))
        us = knots * (n - 1)
        u = us[1:-1]
        scale = n - 1
        inv_centred = 0.5 * (n - 1)

    # knot images (2, M, knots, B), as in _curve_error_sq; a closed curve's
    # wrap knot has the first knot's image
    pos = (th if closed else knots) * stack.cells
    i = pos.astype(np.intp)
    f = pos - i
    i += stack.start
    corner = stack.poly.take(i, axis=-1)
    xy = corner[0] + f * corner[1]
    if closed:
        xy = np.concatenate((xy, xy[:, :, :1]), axis=2)
    dxy = xy[:, :, 1:] - xy[:, :, :-1]

    # dirty candidates, each knot's (floor, ceiling) in knot order; the
    # knots are sorted, so the largest earlier candidate is the previous
    # knot's ceiling for a floor, and that or the floor for a ceiling
    fl, ce = np.floor(u), np.ceil(u)
    prev = np.concatenate((fl[:1] - 1.0, ce[:-1]))
    cand = np.concatenate((fl[:, None], ce[:, None]), axis=1)
    seen = np.concatenate((prev[:, None], np.maximum(prev, fl)[:, None]), axis=1)
    listed = (cand > seen).reshape(2 * width, rows)
    cand = cand.reshape(2 * width, rows)
    if closed:
        listed &= cand < fl[:1] + n
    # stencil ends a = j - 1 and b = j + 1 of every candidate j
    ends = cand + np.array([-1.0, 1.0])[:, None, None]
    if closed:
        ends[0] += n * (ends[0] < u[:1])
        inv = inv_centred
    else:
        # one-sided at the curve's end nodes: inv is then 2 * inv_centred
        np.maximum(ends[0], 0.0, out=ends[0])
        np.minimum(ends[1], n - 1.0, out=ends[1])
        inv = (2.0 * inv_centred) / (ends[1] - ends[0])
    # the segment holding each end, bisect_right over the knots: a count
    # over the knot axis (an open curve's first knot at 0 always counts),
    # as flat indices into the (knot, row) tables
    seg = np.add.reduce((u[:, None, None] <= ends).view(np.int8), axis=0, dtype=np.int16)
    at = np.multiply(seg, rows, dtype=np.intp)
    at += np.arange(-rows, 0) if closed else np.arange(rows)
    # each segment's velocity, and its step per node; a padding segment has
    # span and displacement 0, so any positive floor keeps its velocity 0,
    # and a real segment below it holds no node
    clean_v = dxy / np.maximum(knots[1:] - knots[:-1], 1e-300)
    step = clean_v * (1.0 / scale)
    flat = xy.shape[:2] + (-1,)
    end_xy = xy.reshape(flat).take(at, axis=-1)
    end_xy += (ends - us.take(at)) * step.reshape(flat).take(at, axis=-1)
    dirty_v = (end_xy[:, :, 1] - end_xy[:, :, 0]) * inv

    # pieces: the segments' clean node ranges [lo, stop) (stop = lo if empty)
    # from the prefix sums, then the dirty nodes from each node's own terms
    n_sum = stack.sums.shape[-1] // 2
    dirty = np.where(listed, cand + n_sum, 2 * n_sum - 1)
    if closed:
        node = np.concatenate((ce + 1.0, fl[1:], fl[:1] + n, dirty))
    else:
        node = np.concatenate((edge, ce + 1.0, fl, edge + n, dirty))
    n_seg = len(dxy[0, 0])
    lo, stop = node[:n_seg], node[n_seg : 2 * n_seg]
    np.maximum(stop, lo, out=stop)
    count = np.concatenate((stop - lo, listed))
    sums = stack.sums.take(node.astype(np.intp), axis=-1)
    d = sums[:, :, n_seg:]
    d[:, :, :n_seg] -= sums[:, :, :n_seg]
    v = np.concatenate((clean_v, dirty_v), axis=2)
    speed = np.sqrt(np.add.reduce(v * v))
    # v / sqrt(speed) where the speed reaches ZERO_SPEED, else 0
    e = v / np.where(speed >= ZERO_SPEED, np.sqrt(speed), np.inf)
    e += stack.neg_r
    # sum|q - r|^2 + (c - r) . (count (c - r) - 2 sum(q - r)), per piece
    d[1:] += e * count
    d[1:] *= e
    part = np.add.reduce(d)
    return np.maximum(part, 0.0, out=part).sum(axis=(0, 1)) * grid.dt



def _error_sq_sum(stack: CacheStack, th: list, grid: EvaluationGrid) -> float:
    """Summed squared SRVF reconstruction error of the stack's curves at the
    landmark list ``th``: O(k) per curve, independent of the grid size.

    Same discretization as pushing the reconstruction through the data
    curves' finite-difference SRVF pipeline and taking the grid-weighted
    squared L2 distance; only the order of the arithmetic differs.
    """
    closed = grid.topology != OPEN
    plan = _knot_plan(th, grid.n_eval, closed)
    return sum(_curve_error_sq(c, th, closed, plan) for c in stack.curves) * grid.dt

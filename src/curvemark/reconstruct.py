"""Landmark parameterization and piecewise-linear shape reconstruction."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .curves import (
    OPEN,
    ZERO_SPEED,
    EvaluationGrid,
    PlanarCurve,
    Srvf,
    compute_srvf,
    evaluate_at,
)


class LandmarkError(ValueError):
    """Raised for landmark vectors violating ordering or support."""


def _spacing_list(th: list, topology: str) -> list:
    """Consecutive spacings of a sorted landmark list: 0 and 1 bracket an
    open curve's landmarks; a closed curve's wrap spacing comes last."""
    gaps = [b - a for a, b in zip(th, th[1:])]
    if topology == OPEN:
        return [th[0]] + gaps + [1.0 - th[-1]]
    return gaps + [th[0] - th[-1] + 1.0]


def _min_count(topology: str) -> int:
    """Smallest landmark count of a topology: 1 open, 3 closed."""
    return 1 if topology == OPEN else 3


def _valid_spacings(th: list, topology: str) -> list | None:
    """Spacings of a landmark list, or None when the list violates the
    ordering, support or minimum count of its topology."""
    if len(th) < _min_count(topology) or not th[-1] < 1.0:
        return None
    if not (0.0 < th[0] if topology == OPEN else 0.0 <= th[0]):
        return None
    s = _spacing_list(th, topology)
    for gap in s:
        if not gap > 0.0:
            return None
    return s


def _row_spacings(th: np.ndarray, ks: np.ndarray, topology: str):
    """:func:`_valid_spacings` of every row of a (B, K) array, row r
    holding ``ks[r]`` landmarks padded with its last one: the spacings as
    :func:`_spacing_list` computes them (1.0 in the padding) and which
    rows are valid."""
    last = th[:, -1]
    gaps = th[:, 1:] - th[:, :-1]
    gaps[np.arange(1, th.shape[1]) >= ks[:, None]] = 1.0
    if topology == OPEN:
        s = np.concatenate([th[:, :1], gaps, (1.0 - last)[:, None]], axis=1)
        first = th[:, 0] > 0.0
    else:
        s = np.concatenate([gaps, ((th[:, 0] - last) + 1.0)[:, None]], axis=1)
        first = th[:, 0] >= 0.0
    valid = (ks >= _min_count(topology)) & first & (last < 1.0)
    return s, valid & (s > 0.0).all(axis=1)


def theta_is_valid(theta: np.ndarray, topology: str) -> bool:
    """Validity predicate for a landmark vector."""
    return _valid_spacings(np.asarray(theta, dtype=float).ravel().tolist(), topology) is not None


@dataclass(frozen=True)
class LandmarkConfig:
    """Ordered landmark locations theta on the curve domain.

    Open curves require 0 < theta_1 < ... < theta_k < 1 with k >= 1.
    Closed curves store distinct values in [0, 1) sorted ascending, with the
    cyclic ordering implied, and require k >= 3.
    """

    theta: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).ravel()
        if not theta_is_valid(th, self.topology):
            raise LandmarkError(
                f"invalid landmark vector for {self.topology} curve: {th}"
            )
        object.__setattr__(self, "theta", th)

    @property
    def k(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class SpacingVector:
    """Consecutive landmark spacings; lives on the probability simplex."""

    s: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float).ravel()
        if np.any(s <= 0.0):
            raise LandmarkError("spacing components must be positive")
        if abs(s.sum() - 1.0) > 1e-9:
            raise LandmarkError("spacing components must sum to 1")
        object.__setattr__(self, "s", s)


def spacing_from_theta(theta: np.ndarray, topology: str) -> np.ndarray:
    """Consecutive differences of a sorted landmark vector (array level)."""
    return np.array(_spacing_list(np.asarray(theta, dtype=float).ravel().tolist(), topology))


def theta_to_spacing(cfg: LandmarkConfig) -> SpacingVector:
    return SpacingVector(spacing_from_theta(cfg.theta, cfg.topology), cfg.topology)


def spacing_to_theta(s: SpacingVector, start: float = 0.0) -> LandmarkConfig:
    """Recover landmarks from spacings.

    ``start`` anchors the first landmark on closed curves and is ignored for
    open ones (implicitly 0).
    """
    if s.topology == OPEN:
        theta = np.cumsum(s.s)[:-1]
    else:
        theta = np.sort(
            np.mod(start + np.concatenate([[0.0], np.cumsum(s.s[:-1])]), 1.0)
        )
    return LandmarkConfig(theta, s.topology)


def reconstruction_values(
    curve: PlanarCurve, theta: np.ndarray, grid: EvaluationGrid
) -> np.ndarray:
    """Piecewise-linear reconstruction through the landmark images,
    evaluated at the grid nodes.

    Open curves get the two extra segments tying the reconstruction to the
    curve endpoints; closed curves get the wrap segment from the last
    landmark back to the first.
    """
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
    return np.column_stack([x, y])


def linear_reconstruction(
    curve: PlanarCurve, cfg: LandmarkConfig, grid: EvaluationGrid
) -> PlanarCurve:
    return PlanarCurve(reconstruction_values(curve, cfg.theta, grid), curve.topology)


class CurveCache:
    """What the likelihood reads of one curve, in flat float buffers: the
    polyline (closed curves repeat the first point at the end), the data
    SRVF on the grid, its mean r, and prefix sums of |q - r|^2 and q - r.

    Between knots the reconstruction is a straight line, so its SRVF is one
    constant c on every node whose difference stencil stays inside the
    segment; such a run of nodes contributes
    sum|q - r|^2 - 2 (c - r) . sum(q - r) + n |c - r|^2, read in O(1) from
    the prefix sums.  Centring on r keeps the three terms small where the
    fit is good, so little cancels.
    """

    __slots__ = ("px", "py", "qx", "qy", "rx", "ry", "s2", "s1x", "s1y")

    def __init__(self, curve: PlanarCurve, q_values: np.ndarray):
        pts = np.vstack([curve.points, curve.points[:1]]) if curve.closed else curve.points
        self.px = array("d", pts[:, 0].tolist())
        self.py = array("d", pts[:, 1].tolist())
        q = np.asarray(q_values, dtype=float)
        r = q.mean(axis=0)
        dev = q - r
        self.qx = array("d", q[:, 0].tolist())
        self.qy = array("d", q[:, 1].tolist())
        self.rx, self.ry = float(r[0]), float(r[1])
        if curve.closed:
            # over two laps of the nodes, so the wrap segment is one range
            dev = np.vstack([dev, dev])
        zero = np.zeros(1)
        self.s2 = array("d", np.concatenate([zero, np.cumsum(np.sum(dev * dev, axis=1))]).tolist())
        self.s1x = array("d", np.concatenate([zero, np.cumsum(dev[:, 0])]).tolist())
        self.s1y = array("d", np.concatenate([zero, np.cumsum(dev[:, 1])]).tolist())


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


def _curve_error_sq(c: CurveCache, th: list, closed: bool, plan) -> float:
    """Summed squared SRVF difference over the grid nodes of one curve
    (not yet weighted by the grid spacing)."""
    clean, dirty = plan
    px, py = c.px, c.py
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
    rx, ry = c.rx, c.ry
    s2, s1x, s1y = c.s2, c.s1x, c.s1y
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

    qx, qy = c.qx, c.qy
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
    """A sample's :class:`CurveCache` buffers stacked as numpy arrays for
    the batched engine (:func:`_error_sq_rows`): a leading axis of length 2
    holds the x and y coordinates, the next one the M curves.

    Polylines of different lengths are padded with their last point; each
    curve's own cell count keeps the padding out of reach.
    """

    __slots__ = ("p", "cells", "last_cell", "q", "neg_r", "s2", "s1")

    def __init__(self, caches: list):
        width = max(len(c.px) for c in caches)

        def padded(bufs):
            return [buf.tolist() + [buf[-1]] * (width - len(buf)) for buf in bufs]

        self.p = np.array([padded(c.px for c in caches), padded(c.py for c in caches)])
        cells = np.array([len(c.px) - 1 for c in caches])[:, None, None]
        # (M, 1, 1): broadcasts against (rows, knots)
        self.cells = cells.astype(float)
        self.last_cell = cells - 1
        self.q = np.array([[c.qx for c in caches], [c.qy for c in caches]])
        self.neg_r = -np.array([[c.rx for c in caches], [c.ry for c in caches]])[:, :, None, None]
        self.s2 = np.array([c.s2 for c in caches])
        self.s1 = np.array([[c.s1x for c in caches], [c.s1y for c in caches]])


def _error_sq_rows(
    stack: CacheStack, th: np.ndarray, ks: np.ndarray, grid: EvaluationGrid
) -> np.ndarray:
    """:func:`_error_sq_sum` of every row of a (B, K) array of valid
    landmark rows, in one pass of numpy calls with the scalar engine's
    arithmetic (only the order of the final sums differs).  Row r holds
    ``ks[r]`` landmarks, padded to K with its last one.

    Each row follows :func:`_knot_plan`, on a knot table whose columns from
    the row's end knot (open) or wrap knot (closed) on repeat that knot, so
    the segments past it are empty.  A knot's dirty candidates are its
    floor and ceiling nodes; laid out knot by knot, a candidate is listed
    only if it exceeds every earlier one (and the first knot's floor minus
    one), which is the scalar engine's running cursor, and lies within the
    last node.  Candidates not listed are computed and masked out.  Arrays
    are (coordinate, curve, row, ...) where they carry both.
    """
    closed = grid.topology != OPEN
    n = grid.n_eval
    rows, width = th.shape
    n_seg = ks if closed else ks + 1
    table = np.empty((rows, width + (1 if closed else 2)))
    # the row's last knot (end or wrap) and the padding after it
    tail = np.arange(table.shape[1]) >= n_seg[:, None]
    if closed:
        table[:, :width] = th
        taus = np.where(tail, th[:, :1] + 1.0, table)
        us = np.where(tail, th[:, :1] * n + n, table * n)
        fl, ce = np.floor(us), np.ceil(us)
        # one grid position per knot: the wrap knot reuses the first's
        fl = np.where(tail, fl[:, :1] + n, fl)
        ce = np.where(tail, ce[:, :1] + n, ce)
        last_node = fl[:, :1] + (n - 1)
        inv_centred = 0.5 * n
    else:
        table[:, 0] = 0.0
        table[:, 1:-1] = th
        taus = np.where(tail, 1.0, table)
        us = taus * (n - 1)
        # the end knot stops the last segment's clean range after node n - 1
        fl, ce = np.where(tail, float(n), np.floor(us)), np.ceil(us)
        last_node = n - 1
        inv_centred = 0.5 * (n - 1)

    # knot images (2, M, B, knots), as in _curve_error_sq
    curve = np.arange(stack.p.shape[1])[:, None, None]
    pos = th * stack.cells
    i = np.minimum(pos.astype(np.intp), stack.last_cell)
    f = pos - i
    p0 = stack.p[:, curve, i]
    img = p0 + f * (stack.p[:, curve, i + 1] - p0)
    xy = np.empty(img.shape[:3] + tail.shape[1:])
    if closed:
        xy[..., :width] = img
        xy = np.where(tail, img[..., :1], xy)
    else:
        xy[..., 0] = stack.p[:, :, :1]
        xy[..., 1:-1] = img
        xy = np.where(tail, stack.p[:, :, -1:, None], xy)
    # segment displacements, padded to the knots' layout for flat gathers
    dxy = np.zeros_like(xy)
    dxy[..., :-1] = xy[..., 1:] - xy[..., :-1]

    # clean node ranges [lo, stop) per segment, from the prefix sums
    lo = ce[:, :-1] + 1.0
    stop = fl[:, 1:]
    if not closed:
        lo[:, 0] = 0.0
    filled = lo < stop
    n_clean = stop - lo
    lo, stop = lo.astype(np.intp), stop.astype(np.intp)
    span = taus[:, 1:] - taus[:, :-1]
    v = dxy[..., :-1] * np.divide(1.0, span, out=np.zeros_like(span), where=filled)
    speed = np.sqrt((v * v).sum(axis=0))
    moving = speed >= ZERO_SPEED
    e = np.where(moving, v / np.sqrt(np.where(moving, speed, 1.0)) + stack.neg_r, stack.neg_r)
    s1 = np.take(stack.s1, stop, axis=-1) - np.take(stack.s1, lo, axis=-1)
    part = (
        np.take(stack.s2, stop, axis=-1) - np.take(stack.s2, lo, axis=-1)
        - 2.0 * (e * s1).sum(axis=0)
        + n_clean * (e * e).sum(axis=0)
    )
    total = np.where(filled & (part > 0.0), part, 0.0).sum(axis=-1)

    # dirty nodes: the (floor, ceil) candidates of every knot in order;
    # the end or wrap knot's lie past the last node
    first = 0 if closed else 1
    cand = np.empty((rows, 2 * (fl.shape[1] - first)))
    cand[:, 0::2] = fl[:, first:]
    cand[:, 1::2] = ce[:, first:]
    seen = np.empty_like(cand)
    seen[:, 0] = fl[:, 0] - 1.0
    seen[:, 1:] = cand[:, :-1]
    np.maximum.accumulate(seen, axis=1, out=seen)
    listed = (cand > seen) & (cand <= last_node)
    # stencil ends a = j - 1 and b = j + 1, stacked on a leading axis
    ends = cand + np.array([-1.0, 1.0])[:, None, None]
    if closed:
        inv = inv_centred
        ends[0] = np.where(ends[0] < us[:, :1], ends[0] + n, ends[0])
    else:
        # one-sided at the curve's end nodes: inv is then 2 * inv_centred
        np.clip(ends, 0.0, n - 1.0, out=ends)
        inv = np.divide(
            2.0 * inv_centred, ends[1] - ends[0], out=np.zeros(cand.shape), where=listed
        )
    # the segment holding each end: bisect_right over the row's first
    # n_seg knots
    seg = np.minimum((us[:, None, :] <= ends[..., None]).sum(axis=-1), n_seg[:, None]) - 1
    at = seg + (np.arange(rows) * us.shape[1])[:, None]
    u0 = np.take(us, at)
    w = np.divide(ends - u0, np.take(us, at + 1) - u0, out=np.zeros(at.shape), where=listed)
    grid_xy = np.take(xy.reshape(xy.shape[:2] + (-1,)), at, axis=-1)
    step = w * np.take(dxy.reshape(xy.shape[:2] + (-1,)), at, axis=-1)
    v = (grid_xy[:, :, 1] + step[:, :, 1] - grid_xy[:, :, 0] - step[:, :, 0]) * inv
    q = np.take(stack.q, cand.astype(np.intp) % n, axis=-1)
    speed = np.sqrt((v * v).sum(axis=0))
    moving = speed >= ZERO_SPEED
    e = np.where(moving, q - v / np.sqrt(np.where(moving, speed, 1.0)), q)
    total += np.where(listed, (e * e).sum(axis=0), 0.0).sum(axis=-1)
    return total.sum(axis=0) * grid.dt


def _error_sq_sum(caches: list, th: list, grid: EvaluationGrid) -> float:
    """Summed squared SRVF reconstruction error of the cached curves at the
    landmark list ``th``: O(k) per curve, independent of the grid size.

    Same discretization as pushing the reconstruction through the data
    curves' finite-difference SRVF pipeline and taking the grid-weighted
    squared L2 distance; only the order of the arithmetic differs.
    """
    closed = grid.topology != OPEN
    plan = _knot_plan(th, grid.n_eval, closed)
    return sum(_curve_error_sq(c, th, closed, plan) for c in caches) * grid.dt


def reconstruction_error_sq(
    curve: PlanarCurve,
    cfg: LandmarkConfig,
    grid: EvaluationGrid,
    q_curve: Srvf | None = None,
) -> float:
    """Squared reconstruction error d^2 between a curve and its
    landmark-based linear reconstruction, measured as the discrete squared
    L2 distance between their square-root velocity fields.

    Both SRVFs come from the same centred finite differences on the grid
    (one-sided at open ends), so the two sides share discretization bias.
    """
    q = q_curve if q_curve is not None else compute_srvf(curve, grid)
    return _error_sq_sum([CurveCache(curve, q.values)], cfg.theta.tolist(), grid)

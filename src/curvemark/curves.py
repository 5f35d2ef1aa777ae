"""Planar curve primitives: unit-length rescaling, arc-length resampling,
square-root velocity transforms, and discrete curvature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPEN = "open"
CLOSED = "closed"
_TOPOLOGIES = (OPEN, CLOSED)

# Speeds below this trigger the zero branch of the square-root velocity map.
ZERO_SPEED = 1e-12


class CurveError(ValueError):
    """Raised for degenerate or inconsistent curve inputs."""


def _check_topology(topology: str) -> None:
    if topology not in _TOPOLOGIES:
        raise CurveError(f"unknown topology {topology!r}; expected 'open' or 'closed'")


@dataclass(frozen=True)
class PlanarCurve:
    """Discretely sampled curve in the plane.

    A closed curve is cyclic: the segment from the last stored point back to
    the first is part of the curve and the first point is not repeated.
    Stored samples are assumed uniformly spaced in the curve parameter; after
    preprocessing with :func:`rescale_unit_length` the parameter coincides
    with arc length.
    """

    points: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise CurveError("points must be an (n, 2) array")
        if pts.shape[0] < 3:
            raise CurveError("a curve needs at least 3 points")
        if not np.all(np.isfinite(pts)):
            raise CurveError("points contain non-finite values")
        _check_topology(self.topology)
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def closed(self) -> bool:
        return self.topology == CLOSED


def polygonal_length(curve: PlanarCurve) -> float:
    """Total length of the stored polyline (including the wrap segment)."""
    pts = curve.points
    if curve.closed:
        pts = np.vstack([pts, pts[:1]])
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def resample(curve: PlanarCurve, n: int) -> PlanarCurve:
    """Resample to ``n`` points uniformly spaced in polygonal arc length."""
    pts = curve.points
    if curve.closed:
        pts = np.vstack([pts, pts[:1]])
    with np.errstate(over="ignore"):  # a length past the float range is rejected below
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if not np.isfinite(total) or total <= 0.0:
        raise CurveError(f"degenerate curve: polygonal length {total}")
    if curve.closed:
        targets = total * np.arange(n) / n
    else:
        targets = np.linspace(0.0, total, n)
    x = np.interp(targets, cum, pts[:, 0])
    y = np.interp(targets, cum, pts[:, 1])
    return PlanarCurve(np.column_stack([x, y]), curve.topology)


def rescale_unit_length(curve: PlanarCurve, n: int | None = None) -> PlanarCurve:
    """Resample to uniform arc-length spacing and scale to unit length.

    The returned curve has polygonal length exactly 1 (to rounding) and its
    stored samples are equally spaced along it, so the stored parameter is
    arc length.
    """
    out = resample(curve, n if n is not None else curve.n_points)
    return PlanarCurve(out.points / polygonal_length(out), curve.topology)


def evaluate_at(curve: PlanarCurve, t) -> np.ndarray:
    """Evaluate the polyline at parameter value(s) ``t``.

    Linear interpolation between the two bracketing stored samples.  For
    closed curves ``t`` is taken mod 1; for open curves it must lie in
    [0, 1].  Accepts a scalar or an array; returns a point or an (m, 2)
    array accordingly.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    pts = curve.points
    n = pts.shape[0]
    if curve.closed:
        t = np.mod(t, 1.0)
        grid = np.arange(n + 1) / n
        pts = np.vstack([pts, pts[:1]])
    else:
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise CurveError("parameter outside [0, 1] on an open curve")
        grid = np.linspace(0.0, 1.0, n)
    x = np.interp(t, grid, pts[:, 0])
    y = np.interp(t, grid, pts[:, 1])
    out = np.column_stack([np.atleast_1d(x), np.atleast_1d(y)])
    return out[0] if scalar else out


@dataclass(frozen=True)
class EvaluationGrid:
    """Uniform grid of N evaluation points on the curve domain.

    Open curves include both endpoints (t_j = j/(N-1)); closed curves
    exclude the duplicate endpoint (t_j = j/N, wrapping mod 1).
    """

    n_eval: int
    topology: str = OPEN

    def __post_init__(self):
        if self.n_eval < 16:
            raise CurveError("need at least 16 evaluation points")
        _check_topology(self.topology)
        if self.topology == CLOSED:
            nodes = np.arange(self.n_eval) / self.n_eval
            dt = 1.0 / self.n_eval
        else:
            nodes = np.linspace(0.0, 1.0, self.n_eval)
            dt = 1.0 / (self.n_eval - 1)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_dt", dt)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def dt(self) -> float:
        return self._dt


def _param_derivative(vals: np.ndarray, grid: EvaluationGrid) -> np.ndarray:
    # Centered differences; cyclic for closed curves, one-sided at open ends.
    if grid.topology == CLOSED:
        return (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2.0 * grid.dt)
    return np.gradient(vals, grid.dt, axis=0, edge_order=1)


def srvf_values(vals: np.ndarray, grid: EvaluationGrid) -> np.ndarray:
    """Square-root velocity field of curve values sampled on ``grid``."""
    deriv = _param_derivative(vals, grid)
    speed = np.linalg.norm(deriv, axis=1)
    root = np.sqrt(np.maximum(speed, ZERO_SPEED))
    return np.where((speed >= ZERO_SPEED)[:, None], deriv / root[:, None], 0.0)


def compute_srvf(curve: PlanarCurve, grid: EvaluationGrid) -> np.ndarray:
    """Square-root velocity transform of a preprocessed curve: an (N, 2)
    array of its values at the grid nodes."""
    if curve.topology != grid.topology:
        raise CurveError("curve and grid topology differ")
    return srvf_values(evaluate_at(curve, grid.nodes), grid)


def srvf_to_curve(q: np.ndarray, grid: EvaluationGrid, start=(0.0, 0.0)) -> PlanarCurve:
    """Invert the square-root velocity map of the (N, 2) field ``q`` on
    ``grid`` by cumulative trapezoidal integration of q|q| from ``start``."""
    v = q * np.linalg.norm(q, axis=1)[:, None]
    step = 0.5 * (v[1:] + v[:-1]) * grid.dt
    cum = np.vstack([np.zeros((1, 2)), np.cumsum(step, axis=0)])
    return PlanarCurve(np.asarray(start, dtype=float) + cum, grid.topology)


def discrete_curvature(curve: PlanarCurve) -> np.ndarray:
    """Per-node absolute curvature estimate for a closed polyline.

    Coordinates are smoothed with a 5-point cyclic moving average before
    centered differencing; raw second differences on digitized outlines are
    noise-dominated.  Zero-speed nodes get curvature 0.
    """
    if not curve.closed:
        raise CurveError("curvature estimation requires a closed curve")
    pts = curve.points
    n = pts.shape[0]
    sm = sum(np.roll(pts, shift, axis=0) for shift in (-2, -1, 0, 1, 2)) / 5.0
    h = 1.0 / n
    d1 = (np.roll(sm, -1, axis=0) - np.roll(sm, 1, axis=0)) / (2.0 * h)
    d2 = (np.roll(sm, -1, axis=0) - 2.0 * sm + np.roll(sm, 1, axis=0)) / h**2
    speed2 = d1[:, 0] ** 2 + d1[:, 1] ** 2
    num = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    den = np.maximum(speed2**1.5, ZERO_SPEED)
    return np.where(speed2 < ZERO_SPEED, 0.0, num / den)

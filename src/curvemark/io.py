"""Curve ingestion, run configuration, and result persistence."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .alignment import align_sample_starts
from .curves import CLOSED, OPEN, CurveError, EvaluationGrid, PlanarCurve, rescale_unit_length
from .model import CurveSample, ModelSpec
from .rwm import ChainConfig, PosteriorSampleSet


class InputError(ValueError):
    """Malformed input files or inconsistent run settings."""


# 17 significant digits round-trips an IEEE double exactly
_FLOAT_FMT = "%.17g"


def _fmt(v: float) -> str:
    return _FLOAT_FMT % v


@dataclass
class RunConfig:
    """One experiment's knobs, serializable to JSON and back losslessly."""

    mode: str = "fixed-k"
    topology: str = OPEN
    k: int | None = None
    k_range: list[int] | None = None
    n_eval: int = 100
    a: float = 1.0
    b: float = 0.01
    alpha: float = 1.0
    lam: float | None = None
    n_iter: int = 100_000
    burn_in_frac: float = 0.1
    thin: int = 100
    proposal_var: float = 0.02
    seed: int = 0
    curves: list[str] = field(default_factory=list)
    out_dir: str = "results"

    def spec(self) -> ModelSpec:
        """The model hyperparameters among these knobs."""
        return self._build(ModelSpec)

    def chain(self) -> ChainConfig:
        """The chain settings among these knobs."""
        return self._build(ChainConfig)

    def _build(self, cls):
        """``cls`` built from the fields it shares with this config, by name;
        its other fields keep their defaults."""
        shared = {f.name for f in fields(cls)} & set(self.__dataclass_fields__)
        return cls(**{name: getattr(self, name) for name in shared})

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def load_curve_csv(path: str) -> np.ndarray:
    """Read one curve from CSV: one row per sample, columns x,y, header
    optional.  Errors name the offending file and row."""
    rows: list[list[float]] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells:
                continue
            if len(cells) != 2:
                raise InputError(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
            try:
                rows.append([float(cells[0]), float(cells[1])])
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header row
                raise InputError(
                    f"{path}:{lineno}: non-numeric value {cells!r}"
                ) from None
    if len(rows) < 3:
        raise InputError(f"{path}: a curve needs at least 3 rows")
    return np.asarray(rows, dtype=float)


def load_curves(paths, topology: str, n_eval: int) -> CurveSample:
    """Parse, rescale to unit length, resample to the evaluation
    resolution, and cache SRVFs; closed samples are start-aligned."""
    grid = EvaluationGrid(n_eval, topology)
    curves = []
    for path in paths:
        pts = load_curve_csv(path)
        if topology == CLOSED and np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]  # stored representation never duplicates the endpoint
        try:
            curve = rescale_unit_length(PlanarCurve(pts, topology), n_eval)
        except CurveError as exc:
            raise InputError(f"{path}: {exc}") from exc
        curves.append(curve)
    sample = CurveSample.build(curves, grid)
    if topology == CLOSED:
        sample = align_sample_starts(sample)
    return sample


def write_curve_csv(path: str, curve: PlanarCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in curve.points:
            writer.writerow([_fmt(x), _fmt(y)])


def write_samples_csv(path: str, samples: PosteriorSampleSet) -> None:
    """Chain table: iteration, k, theta_1..theta_kmax, log_post.  Rows with
    fewer landmarks than the widest one leave trailing cells empty."""
    k_max = int(samples.ks.max()) if samples.n else 0
    header = ["iteration", "k"] + [f"theta_{j + 1}" for j in range(k_max)] + ["log_post"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (th, k, lp) in enumerate(zip(samples.thetas, samples.ks, samples.log_post)):
            cells = [str(i), str(int(k))]
            cells += [_fmt(v) for v in th]
            cells += [""] * (k_max - th.size)
            cells.append(_fmt(lp))
            writer.writerow(cells)


def write_dk2_csv(path: str, table: list[tuple[int, float]]) -> None:
    """Distance-criterion table: one ``k,dk2`` row per landmark count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "dk2"])
        for k, d in table:
            writer.writerow([str(k), _fmt(d)])


def read_samples_csv(path: str, topology: str = OPEN) -> PosteriorSampleSet:
    """Inverse of :func:`write_samples_csv`; acceptance rate is not stored
    in the table and comes back as NaN."""
    thetas: list[np.ndarray] = []
    ks: list[int] = []
    log_post: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty samples table") from None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                k = int(row[1])
                theta = np.array([float(c) for c in row[2 : 2 + k]])
                lp = float(row[-1])
            except (ValueError, IndexError):
                raise InputError(f"{path}:{lineno}: malformed samples row") from None
            thetas.append(theta)
            ks.append(k)
            log_post.append(lp)
    return PosteriorSampleSet(
        thetas, np.asarray(ks, dtype=int), np.asarray(log_post), float("nan"), topology
    )


def persist_results(
    samples: PosteriorSampleSet,
    summary: dict | None,
    out_dir: str,
    config: RunConfig | None = None,
    densities: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[str]:
    """Write samples.csv, summary.json and density_<j>.csv into
    ``out_dir``; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        path = os.path.join(out_dir, "samples.csv")
        write_samples_csv(path, samples)
        written.append(path)
        if summary is not None:
            record = dict(summary)
            if config is not None:
                record["config"] = config.to_dict()
            path = os.path.join(out_dir, "summary.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=2, allow_nan=False)
                fh.write("\n")
            written.append(path)
        for j, (grid, dens) in (densities or {}).items():
            path = os.path.join(out_dir, f"density_{j + 1}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "density"])
                for t, d in zip(grid, dens):
                    writer.writerow([_fmt(t), _fmt(d)])
            written.append(path)
    except OSError as exc:
        raise InputError(f"failed writing results under {out_dir}: {exc}") from exc
    return written

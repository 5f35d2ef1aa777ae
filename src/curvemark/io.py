"""Curve ingestion, run configuration, and result persistence."""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
from array import array
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .alignment import align_sample_starts
from .curves import CLOSED, OPEN, CurveError, EvaluationGrid, PlanarCurve, rescale_unit_length
from .model import CurveSample, ModelSpec
from .reconstruct import _row_spacings
from .rwm import ChainConfig, PosteriorSampleSet


class InputError(ValueError):
    """Malformed input files or inconsistent run settings."""


# 17 significant digits round-trips an IEEE double exactly
_FLOAT_FMT = "%.17g"
_PAIR_FMT = f"{_FLOAT_FMT},{_FLOAT_FMT}"


def _write_csv(path: str, header: list[str], lines) -> None:
    r"""Write the ``header`` names, then stream each preformatted row of
    ``lines``, every line ended by ``\r\n``: the bytes :func:`csv.writer`
    writes, as no cell here (a number, empty, or a topology) needs quotes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line + "\r\n" for line in lines)


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
        if not isinstance(data, dict):
            raise InputError("config must be a JSON object of fields")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        for f in fields(cls):
            kind, value = f.type.removesuffix(" | None"), data.get(f.name)
            if f.name in data and not (value is None and kind != f.type or _FITS[kind](value)):
                raise InputError(f"config field {f.name} must be {f.type}, not {value!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# Whether a JSON value fits a config field's type (k_range is a pair; a
# float is finite, though Python's json reads NaN and Infinity).
_FITS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: _FITS["int"](v) or isinstance(v, float) and math.isfinite(v),
    "list[int]": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_FITS["int"], v)),
    "list[str]": lambda v: isinstance(v, list) and all(map(_FITS["str"], v)),
}


@contextlib.contextmanager
def _open_text(path: str):
    """Open a CSV input as UTF-8 text, skipping a byte order mark; an OS
    error, or bytes that are not UTF-8, become an :class:`InputError`
    naming ``path``."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise InputError(f"{path}: not UTF-8 text") from None


def load_curve_csv(path: str) -> np.ndarray:
    """Read one curve from CSV: one row per sample, columns x,y, header
    optional; empty cells after a row's last value are ignored.  Values
    must be finite.  Errors name the offending file and row, or only the
    file if it is not UTF-8 text.  A UTF-8 byte order mark, as spreadsheet
    tools write, is skipped."""
    rows: list[list[float]] = []
    with _open_text(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in row]
            while cells and not cells[-1]:
                cells.pop()
            if not cells:
                continue
            if len(cells) != 2:
                raise InputError(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
            try:
                xy = [float(cells[0]), float(cells[1])]
            except ValueError:
                if lineno == 1 and not rows:
                    continue  # header row
                raise InputError(
                    f"{path}:{lineno}: non-numeric value {cells!r}"
                ) from None
            if not all(map(math.isfinite, xy)):
                raise InputError(f"{path}:{lineno}: non-finite value {cells!r}")
            rows.append(xy)
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
        # compared exactly: a fixed tolerance drops a distinct point of a small curve
        if topology == CLOSED and np.array_equal(pts[0], pts[-1]):
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
    """Write one curve as CSV, an ``x,y`` header and a row per point; an OS
    error becomes an :class:`InputError` naming ``path``."""
    try:
        _write_csv(path, ["x", "y"], (_PAIR_FMT % (x, y) for x, y in curve.points.tolist()))
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_samples_csv(path: str, samples: PosteriorSampleSet) -> None:
    """Chain table: iteration, k, theta_1..theta_kmax, log_post, topology.
    Rows with fewer landmarks than the widest leave trailing cells empty;
    each row is one ``%`` format, that of its landmark count."""
    k_max = int(samples.ks.max()) if samples.n else 0
    header = ["iteration", "k", *(f"theta_{j + 1}" for j in range(k_max)), "log_post", "topology"]
    row = {k: ",".join(["%d", "%d", *[_FLOAT_FMT] * k, *[""] * (k_max - k),
                        _FLOAT_FMT, samples.topology])
           for k in range(1, k_max + 1)}
    rows = zip(samples.thetas.tolist(), samples.ks.tolist(), samples.log_post.tolist())
    _write_csv(path, header, (row[k] % (i, k, *th[:k], lp) for i, (th, k, lp) in enumerate(rows)))


@contextlib.contextmanager
def _results_dir(out_dir: str):
    """Create ``out_dir``; an OS error while creating it or writing under
    it becomes an :class:`InputError`."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield
    except OSError as exc:
        raise InputError(f"failed writing results under {out_dir}: {exc}") from exc


def write_dk2_csv(out_dir: str, table: list[tuple[int, float]]) -> str:
    """Write the distance-criterion table ``dk2.csv`` into ``out_dir``, one
    ``k,dk2`` row per landmark count; returns its path."""
    path = os.path.join(out_dir, "dk2.csv")
    with _results_dir(out_dir):
        _write_csv(path, ["k", "dk2"], (f"%d,{_FLOAT_FMT}" % (k, d) for k, d in table))
    return path


# Rows per support check of a samples table, which keeps the check's
# temporaries to about 2 MB whatever the table's length.
_CHECK_ROWS = 8192


def _min_first(th: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Rotate the first ``ks[r]`` values of each row r cyclically to start at
    the row's minimum; the padding after them repeats the new last value."""
    col = np.minimum(np.arange(th.shape[1]), ks[:, None] - 1)
    at = (th.argmin(axis=1)[:, None] + col) % ks[:, None]
    return th[np.arange(len(ks))[:, None], at]


def read_samples_csv(path: str, topology: str | None = None) -> PosteriorSampleSet:
    """Inverse of :func:`write_samples_csv` (the acceptance rate comes back
    as NaN).  The topology is the table's ``topology`` column, which must
    match ``topology`` if given; a table without one (older runs) has
    ``topology``, open by default.  Every row must have the header's cell
    count, a finite log posterior and landmarks in the topology's support
    (:func:`~curvemark.reconstruct.theta_is_valid`); closed rows may be
    stored in any cyclic rotation, as label alignment leaves them.  The
    table is read as UTF-8, a byte order mark skipped.  Errors name the
    file and row, or only the file if it is not UTF-8 text.
    """
    thetas: list[list[float]] = []
    ks: list[int] = []
    log_post: list[float] = []
    linenos = array("l")
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        tagged = header[-1:] == ["topology"]
        width = len(header) - 3 - tagged  # landmark columns
        table_topology = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: {len(row)} cells, the header has {len(header)}"
                )
            try:
                if tagged:
                    table_topology = table_topology or row[-1]
                    if row.pop() != table_topology or table_topology not in (OPEN, CLOSED):
                        raise ValueError
                k, lp = int(row[1]), float(row[-1])
                if not 1 <= k <= width or any(row[2 + k : -1]) or not math.isfinite(lp):
                    raise ValueError
                theta = [float(c) for c in row[2 : 2 + k]]
            except ValueError:
                raise InputError(f"{path}:{lineno}: malformed samples row") from None
            thetas.append(theta)
            ks.append(k)
            log_post.append(lp)
            linenos.append(lineno)
    if not ks:
        raise InputError(f"{path}: no samples rows")
    if table_topology and topology and topology != table_topology:
        raise InputError(f"{path}: table is {table_topology}, --topology {topology}")
    topology = table_topology or topology or OPEN
    samples = PosteriorSampleSet(thetas, np.array(ks), np.array(log_post), np.nan, topology)
    for start in range(0, samples.n, _CHECK_ROWS):
        th = samples.thetas[start : start + _CHECK_ROWS]
        row_ks = samples.ks[start : start + _CHECK_ROWS]
        if topology == CLOSED:
            th = _min_first(th, row_ks)
        bad = np.flatnonzero(~(_row_spacings(th.T, row_ks, topology)[1] > 0.0))
        if bad.size:
            i = start + bad[0]
            raise InputError(
                f"{path}:{linenos[i]}: landmarks {thetas[i]} are outside"
                f" the {topology}-curve support"
            )
    return samples


def persist_results(
    samples: PosteriorSampleSet,
    summary: dict,
    out_dir: str,
    config: RunConfig | None = None,
    densities: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[str]:
    """Write samples.csv, summary.json and density_<j>.csv into
    ``out_dir``; returns the written paths.  A ``density_<j>.csv`` that
    this run does not write (j above its count of densities), left by an
    earlier run with more landmarks, is deleted first."""
    # serialized first, so a non-finite value writes nothing
    record = dict(summary) if config is None else dict(summary, config=config.to_dict())
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    written = []
    with _results_dir(out_dir):
        for name in os.listdir(out_dir):
            j = re.fullmatch(r"density_([1-9][0-9]*)\.csv", name)
            if j and int(j[1]) > len(densities or ()):
                os.remove(os.path.join(out_dir, name))
        path = os.path.join(out_dir, "samples.csv")
        write_samples_csv(path, samples)
        written.append(path)
        path = os.path.join(out_dir, "summary.json")
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
        for j, (grid, dens) in (densities or {}).items():
            path = os.path.join(out_dir, f"density_{j + 1}.csv")
            _write_csv(path, ["t", "density"],
                       (_PAIR_FMT % td for td in zip(grid.tolist(), dens.tolist())))
            written.append(path)
    return written

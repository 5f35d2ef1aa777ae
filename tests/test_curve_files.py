"""Fuzz of curve CSV files: whatever a file holds, ``load_curves`` returns a
sample or raises an ``InputError`` whose message starts with the file's
path, and raises nothing else."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvemark as cm

N_EVAL = 16
NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e999"]
coords = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def curve_files(draw):
    """A curve file's text and a topology: up to 12 points, some repeated
    (a duplicate point, a repeated closing point), sometimes a header,
    trailing empty cells or a non-finite cell."""
    pts = draw(st.lists(st.tuples(coords, coords), max_size=12))
    if pts and draw(st.booleans()):
        i = draw(st.integers(0, len(pts) - 1))
        pts.insert(i, pts[i])  # a duplicate point
    if pts and draw(st.booleans()):
        pts.append(pts[0])  # a repeated closing point
    rows = [[repr(x), repr(y)] for x, y in pts]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, 1))] = draw(st.sampled_from(NON_FINITE))
    rows = [row + [""] * draw(st.integers(0, 2)) for row in rows]
    if draw(st.booleans()):
        rows.insert(0, ["x", "y"])
    text = "".join(",".join(row) + "\n" for row in rows)
    return text, draw(st.sampled_from([cm.OPEN, cm.CLOSED]))


# three identical points; a closed triangle whose closing point repeats
# (two points remain); 3-point curves; a header alone; a non-finite cell
@example(("1,1\n1,1\n1,1\n", cm.OPEN))
@example(("0,0\n1,0\n0,1\n0,0\n", cm.CLOSED))
@example(("x,y\n0,0\n1,0\n0,1\n", cm.CLOSED))
@example(("0,0,\n0.5,0.5,,\n1,0\n", cm.OPEN))
@example(("x,y\n", cm.OPEN))
@example(("0,0\n0.5,nan\n1,0\n", cm.OPEN))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(curve_files())
def test_load_curves_returns_a_sample_or_names_the_file(case):
    text, topology = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "curve.csv")
        with open(path, "w") as fh:
            fh.write(text)
        try:
            sample = cm.load_curves([path], topology, N_EVAL)
        except cm.InputError as exc:
            assert str(exc).startswith(f"{path}:"), exc
        else:
            assert sample.m == 1 and sample.curves[0].n_points == N_EVAL
            assert np.isfinite(sample.srvfs[0]).all()

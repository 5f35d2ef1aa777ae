"""Property tests of batched scoring: ``log_posterior_batch`` of random
ragged landmark rows, open and closed, on samples of one to three curves of
different resolutions, padded wider than needed, against
``log_posterior_theta`` row by row."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvemark as cm

N_EVALS = [16, 25, 64]
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def sample_of(topology, n_eval, resolutions):
    """Curves of different resolutions (and shapes), on one grid."""
    curves = []
    for i, res in enumerate(resolutions):
        if topology == cm.OPEN:
            curve = cm.sine_curve(res, amplitude=1.0 + 0.5 * i)
        else:
            curve = cm.cut_half_circle(res, cut=0.25 + 0.1 * i)
        curves.append(cm.rescale_unit_length(curve, res))
    return cm.CurveSample.build(curves, cm.EvaluationGrid(n_eval, topology))


@st.composite
def landmark_row(draw, topology, n_eval):
    """A sorted landmark vector: uniform values, knots sharing one grid
    cell, and on closed curves values at or near 0 and 1."""
    cells = n_eval if topology == cm.CLOSED else n_eval - 1
    cell = draw(st.integers(0, cells - 1))
    in_cell = st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(
        lambda f: (cell + f) / cells)
    values = [unit, in_cell]
    if topology == cm.CLOSED:
        values.append(st.sampled_from([0.0, 5e-324, 1e-9, 1.0 - 1e-9, float(np.nextafter(1.0, 0))]))
    row = draw(st.lists(st.one_of(values), min_size=1, max_size=9))
    return sorted(set(row))


@st.composite
def batches(draw):
    topology = draw(st.sampled_from([cm.OPEN, cm.CLOSED]))
    n_eval = draw(st.sampled_from(N_EVALS))
    resolutions = draw(st.lists(st.integers(12, 150), min_size=1, max_size=3))
    rows = draw(st.lists(landmark_row(topology, n_eval), min_size=1, max_size=12))
    pad = draw(st.integers(0, 3))
    variable_k = draw(st.booleans())
    alpha = draw(st.sampled_from([1.0, 1.5]))
    return topology, n_eval, resolutions, rows, pad, variable_k, alpha


# knots sharing a cell on three curves; a closed row starting at 0 and
# ending one double below 1
@example((cm.OPEN, 25, [12, 80, 150], [[0.5, 0.5 + 1e-12, 0.51], [0.3]], 2, True, 1.0))
@example((cm.CLOSED, 16, [30, 41], [[0.0, 0.4, float(np.nextafter(1.0, 0))], [0.1, 0.5, 0.9]],
          1, False, 1.5))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(batches())
def test_batched_scores_are_the_scalar_log_posteriors(case):
    topology, n_eval, resolutions, rows, pad, variable_k, alpha = case
    sample = sample_of(topology, n_eval, resolutions)
    spec = cm.ModelSpec(n_eval=n_eval, topology=topology, alpha=alpha, lam=2.0, k_max=8)
    ks = np.array([len(r) for r in rows])
    width = ks.max() + pad
    padded = np.array([r + [r[-1]] * (width - len(r)) for r in rows])
    got = cm.log_posterior_batch(sample, padded, spec, variable_k=variable_k, ks=ks)
    assert got.shape == (len(rows),)
    for row, lp in zip(rows, got):
        want = cm.log_posterior_theta(sample, np.array(row), spec, variable_k=variable_k)
        if want == -np.inf:
            assert lp == -np.inf, row
        else:
            assert abs(lp - want) <= 1e-12 * (1.0 + abs(want)), (row, lp, want)

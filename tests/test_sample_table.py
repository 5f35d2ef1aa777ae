"""Property tests of the padded sample table: random ragged tables, open
and closed, survive ``write_samples_csv`` -> ``read_samples_csv`` bit for
bit, ``select_k`` keeps each selected row's first k values, and label
alignment is idempotent."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemark as cm
from curvemark.io import write_samples_csv

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def tables(draw, topology=None, fixed_k=None):
    """A sample set of 1-12 rows in the topology's support and its rows as
    landmark vectors; fixed-k closed tables are label-aligned, so their
    rows are stored rotated."""
    topology = topology or draw(st.sampled_from([cm.OPEN, cm.CLOSED]))
    k_min = cm.k_min_for(topology)
    fixed_k = draw(st.booleans()) if fixed_k is None else fixed_k
    values = unit.filter(lambda v: v > 0.0) if topology == cm.OPEN else unit
    n = draw(st.integers(1, 12))
    k = draw(st.integers(k_min, k_min + 4))
    ks = [k] * n if fixed_k else draw(st.lists(st.integers(k_min, k_min + 4), min_size=n,
                                               max_size=n))
    thetas = [np.sort(draw(st.lists(values, min_size=kk, max_size=kk, unique=True)))
              for kk in ks]
    log_post = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n,
                             max_size=n))
    samples = cm.PosteriorSampleSet(thetas, np.array(ks), np.array(log_post), 0.5, topology)
    if topology == cm.CLOSED and fixed_k:
        samples = cm.align_posterior_samples(samples)
        thetas = list(samples.thetas)
    return samples, thetas


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables())
def test_write_read_roundtrip_bitwise(case):
    samples, thetas = case
    assert samples.thetas.shape == (samples.n, samples.ks.max())
    for th, want in zip(samples.thetas, thetas):
        assert np.array_equal(th[: want.size], want) and np.all(th[want.size :] == want[-1])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        write_samples_csv(path, samples)
        back = cm.read_samples_csv(path)
    assert back.topology == samples.topology
    assert np.array_equal(back.ks, samples.ks)
    assert np.array_equal(back.log_post, samples.log_post)
    assert np.array_equal(back.thetas, samples.thetas)  # padding included
    for k in np.unique(samples.ks).tolist():
        rows = [th for th in thetas if th.size == k]
        for table in (samples, back):
            chosen = table.select_k(k)
            assert np.array_equal(chosen.thetas, np.array(rows))
            assert np.array_equal(chosen.thetas, table.theta_matrix(k))
            assert np.all(chosen.ks == k) and chosen.topology == table.topology


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables(topology=cm.CLOSED, fixed_k=True))
def test_label_alignment_idempotent(case):
    aligned = case[0]
    again = cm.align_posterior_samples(aligned)
    assert np.array_equal(again.thetas, aligned.thetas)
    assert np.array_equal(again.log_post, aligned.log_post)


def test_vectors_are_stacked_once_and_checked_against_ks():
    rows = [np.array([0.5]), np.array([0.2, 0.8]), np.array([0.3, 0.6, 0.9])]
    ss = cm.PosteriorSampleSet(rows, np.array([1, 2, 3]), np.zeros(3), 0.5, cm.OPEN)
    assert np.array_equal(ss.thetas, [[0.5, 0.5, 0.5], [0.2, 0.8, 0.8], [0.3, 0.6, 0.9]])
    fixed = ss.select_k(3)
    assert fixed.theta_matrix() is fixed.thetas  # no copy
    for ks in ([1, 2, 2], [1, 2], []):
        with pytest.raises(ValueError):
            cm.PosteriorSampleSet(rows, np.array(ks, dtype=int), np.zeros(3), 0.5, cm.OPEN)

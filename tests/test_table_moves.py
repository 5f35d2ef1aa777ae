"""Property tests of the moves read from a chain's random table: the block
builders make, row for row and bit for bit, the proposals of the public
move functions, and every birth, death and closed-curve stay proposal is a
sorted landmark vector in [0, 1)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvemark as cm
from curvemark import rjmcmc

K_MAX = 12
MOVE_PROBS = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), (0.2, 0.3, 0.5)]
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def states(draw):
    """A valid landmark vector (open or closed, k from k_min to K_MAX)
    and a few table rows; row locations sometimes repeat a landmark."""
    topology = draw(st.sampled_from([cm.OPEN, cm.CLOSED]))
    k_min = cm.k_min_for(topology)
    values = unit.filter(lambda v: v > 0.0) if topology == cm.OPEN else unit
    theta = np.sort(draw(st.lists(values, min_size=k_min, max_size=K_MAX, unique=True)))
    where = st.one_of(unit, st.sampled_from(theta.tolist()))
    step = st.floats(min_value=-50.0, max_value=50.0)
    rows = draw(st.lists(st.tuples(unit, where, unit, step), min_size=1, max_size=8))
    var = draw(st.sampled_from([1e-6, 0.02, 0.5]))
    return topology, theta, np.array(rows, dtype=float), var, draw(st.sampled_from(MOVE_PROBS))


def public_move(theta, row, spec, var, move_probs):
    """The proposal and log ratio the public move functions make from one
    table row (a stay accepts at accept value 0, returning its proposal)."""
    pb, pd, _ = rjmcmc.move_probabilities(theta.size, cm.k_min_for(spec.topology), move_probs)
    if row[0] < pb:
        return cm.propose_birth(theta, row[1], spec, move_probs)
    if row[0] < pb + pd:
        return cm.propose_death(theta, row[1], spec, move_probs)
    stay_row = [row[0], row[1], 0.0, row[3]]
    return cm.rwm_step(theta, 0.0, None, spec, var, stay_row, logp_new=0.0)[0], 0.0


def check_sorted_unit(prop):
    assert np.all(np.diff(prop) >= 0.0), prop
    assert prop[0] >= 0.0 and prop[-1] < 1.0, prop


# a closed stay that wraps past 0, one past 1, and one just below 0 whose
# remainder rounds up to 1.0; a birth at a landmark's value; a death at
# k_min + 1 for each topology
@example((cm.CLOSED, np.array([0.01, 0.5, 0.9]), np.array([[0.9, 0.0, 0.5, -2.0]]), 0.02,
          MOVE_PROBS[0]))
@example((cm.CLOSED, np.array([0.01, 0.5, 0.99]), np.array([[0.9, 0.9, 0.5, 2.0]]), 0.02,
          MOVE_PROBS[0]))
@example((cm.CLOSED, np.array([0.0, 0.5, 0.9]), np.array([[0.9, 0.0, 0.5, -1e-300]]), 0.02,
          MOVE_PROBS[0]))
@example((cm.OPEN, np.array([0.25, 0.5]), np.array([[0.0, 0.5, 0.5, 0.0]]), 0.02, MOVE_PROBS[0]))
@example((cm.OPEN, np.array([0.25, 0.5]), np.array([[0.5, 0.7, 0.5, 0.0]]), 0.02, MOVE_PROBS[0]))
@example((cm.CLOSED, np.array([0.1, 0.4, 0.6, 0.8]), np.array([[0.5, 0.2, 0.5, 0.0]]), 0.02,
          MOVE_PROBS[0]))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(states())
def test_block_rows_are_the_public_proposals(case):
    topology, theta, block, var, move_probs = case
    spec = cm.ModelSpec(n_eval=100, topology=topology, k_max=K_MAX + 1)
    sd = math.sqrt(var)
    pb, pd, _ = rjmcmc.move_probabilities(theta.size, cm.k_min_for(topology), move_probs)
    moves = (block[:, 0] >= pb).astype(np.intp) + (block[:, 0] >= pb + pd)
    rows, ks, ratios = rjmcmc._jump_block(theta, block, moves, sd, topology, move_probs)
    assert rows.shape == (theta.size + 1, len(block))
    stays = rjmcmc._jump_block(theta, block, np.full(len(block), 2), sd, topology, move_probs)
    for i, row in enumerate(block.tolist()):
        prop, log_ratio = public_move(theta, row, spec, var, move_probs)
        assert ks[i] == prop.size and ratios[i] == log_ratio
        assert np.array_equal(rows[: ks[i], i], prop)
        assert np.all(rows[ks[i]:, i] == prop[-1])  # padded with the last landmark
        if row[0] >= pb + pd:
            # the fixed-k chain's block: the stay this row makes
            assert np.array_equal(stays[0][:, i], rows[:, i]) and stays[1][i] == prop.size
        if topology == cm.CLOSED or row[0] < pb + pd:
            check_sorted_unit(prop)

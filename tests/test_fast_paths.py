"""The verify cycle's fast paths against their plain forms, bit for bit.

A decode cycle samples through `core.sample`, which scans Python floats,
resamples through `specdec.residual`, which divides by the total it has
computed, and reads the target's K+1 positions through one
`SequenceModel.dists` call. Each must give exactly what the plain form
gives, so every report stays byte-identical: the numpy-scalar scan
`oracles.sample_reference`, `normalize(max(p - q, 0))` and one `dist` per
state.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynexec import Rng, normalize, residual, sample
from dynexec.core import MAX_FEATURE_DIM, MIN_FEATURE_DIM
from dynexec.errors import AllZeroResidual

from helpers import FixedRng, random_feature_model, random_table_model
from oracles import sample_reference

SUBNORMAL = 2.0**-1060


@st.composite
def sample_cases(draw):
    """A distribution, as a float64 array or a list, with zero entries,
    leading and trailing runs of zeros, subnormal entries and mass short of 1
    by up to 1e-9; and a way to make the Rng both scans read: a seeded stream,
    or a scripted first uniform on a running total or past the mass."""
    rng = Rng(draw(st.integers(0, 2**32)))
    vocab = draw(st.integers(1, 64))
    d = rng.uniforms(vocab)
    d[rng.uniforms(vocab) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    d = np.concatenate([np.zeros(draw(st.integers(0, 4))), d, np.zeros(draw(st.integers(0, 4)))])
    if d.sum() > 0:
        d /= d.sum()
    d *= 1.0 - draw(st.sampled_from([0.0, 1e-12, 1e-9]))
    subnormal = rng.uniforms(d.size) < draw(st.sampled_from([0.0, 0.2]))
    d[subnormal] = SUBNORMAL * (1.0 + rng.uniforms(int(subnormal.sum())))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["stream", "running total", "past the mass"]))
    follow = Rng(seed).uniform()
    if kind == "stream":
        make_rng = lambda: Rng(seed)  # noqa: E731
    else:
        totals = np.cumsum(d)
        u = totals[int(rng.uniform() * d.size)] if kind == "running total" else 1.0 - 2.0**-53
        make_rng = lambda: FixedRng([min(float(u), 1.0 - 2.0**-53), follow])  # noqa: E731
    return (d.tolist() if draw(st.booleans()) else d), make_rng


@settings(max_examples=300, deadline=None)
@given(sample_cases())
def test_sample_matches_the_numpy_scalar_reference(case):
    d, make_rng = case
    fast, plain = make_rng(), make_rng()
    assert sample(d, fast) == sample_reference(d, plain)
    assert fast.uniform() == plain.uniform()  # each consumed exactly one uniform


@st.composite
def distribution_pairs(draw):
    """p and q over one vocabulary, each with some zero entries and p above q
    somewhere, p a row of a 2-D batch or a 1-D vector of its own."""
    rng = Rng(draw(st.integers(0, 2**32)))
    vocab = draw(st.integers(2, 256))
    rows = rng.uniforms(3 * vocab).reshape(3, vocab)
    rows[rng.uniforms(rows.size).reshape(rows.shape) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    rows[:, 0] += 0.1
    rows /= rows.sum(axis=1, keepdims=True)
    assume((rows[1] > rows[2]).any())
    p = rows[1] if draw(st.booleans()) else rows[1].copy()
    return p, rows[2]


@settings(max_examples=200, deadline=None)
@given(distribution_pairs())
def test_residual_equals_normalize_of_the_clipped_difference(case):
    p, q = case
    fast = residual(p, q)
    assert fast.tobytes() == normalize(np.maximum(p - q, 0.0)).tobytes()
    with pytest.raises(AllZeroResidual):
        residual(p, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 256), st.integers(MIN_FEATURE_DIM, MAX_FEATURE_DIM),
       st.sampled_from([0.3, 0.8, 3.0]), st.integers(1, 9))
def test_feature_model_dists_rows_equal_dist_of_each_state(seed, vocab, dim, scale, count):
    rng = Rng(seed)
    model = random_feature_model(vocab, dim, rng, scale=scale)
    tokens = (rng.uniforms(count) * vocab).astype(int).tolist()
    states = model.branch(model.start(tokens[:1]), tokens[1:])
    batched = model.dists(states)
    assert batched.shape == (count, vocab)
    for row, state in zip(batched, states):
        assert row.tobytes() == model.dist(state).tobytes()


def test_table_model_dists_are_its_rows():
    model = random_table_model(4, 1, Rng(5))
    states = model.branch(model.start((0,)), [1, 2, 3])
    assert all(row is model.dist(state) for row, state in zip(model.dists(states), states))

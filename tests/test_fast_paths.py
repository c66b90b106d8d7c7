"""The verify cycle's fast paths against their plain forms, bit for bit.

A decode cycle draws its uniforms through `Rng.uniform`, which serves them
from blocks of the vectorized kernel, resamples through `specdec.residual`,
which clips its difference in place and divides by the total it has
computed, and reads the target's K+1 positions through one
`SequenceModel.dists` call. Every token is drawn by the one rule of
`core.sample`: bisect a row's `core.running_sums`, Python floats, at one
uniform. A decode makes that draw inline on sums from a `specdec._RowMemo`,
which on two table models keeps the sums of each row and rejected pair and
otherwise builds them at every draw. Each must give exactly what
the plain form gives, so every report stays byte-identical: the
one-draw-at-a-time formula `oracles.uniform_reference`, the numpy-scalar
scan `oracles.sample_reference`, `normalize(max(p - q, 0))` and one `dist`
per state.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynexec import Rng, TableModel, normalize, residual, sample
from dynexec.core import _BLOCK, DIST_ATOL, MAX_FEATURE_DIM, MIN_FEATURE_DIM, RngStreams, _box_muller
from dynexec.errors import DynexecError
from dynexec.specdec import _UNCACHED, _RowMemo

from helpers import FixedRng, random_feature_model, random_table_model
from oracles import child_seed_reference, sample_reference, uniform_reference


def test_rng_first_draws_are_pinned():
    # the reference itself is pinned, so it cannot drift along with the Rng
    first = [0.7415648787718233, 0.1599103928769201, 0.27860113025513866, 0.34419071652363753]
    rng = Rng(42)
    assert [rng.uniform() for _ in first] == first
    assert [uniform_reference(42, k) for k in range(1, len(first) + 1)] == first


# each step moves one Rng: a run of scalar draws, a vector of uniforms or
# normals, a block drawn through RngStreams and handed back, or a child;
# n reaches about three blocks, so the scalar draws cross block boundaries;
# n normals take n + n % 2 uniforms, two normals a pair
_RNG_STEPS = st.one_of(
    st.tuples(st.sampled_from(["uniform", "uniforms", "streams"]), st.integers(0, 3 * _BLOCK + 1)),
    st.tuples(st.just("normals"), st.integers(0, 3 * _BLOCK + 1)),
    st.tuples(st.just("child"), st.integers(0, 2**32)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_RNG_STEPS, max_size=8))
@example(2**64 - 1, [("uniform", 1), ("uniforms", 10), ("uniform", _BLOCK), ("normals", 3), ("streams", 5),
                     ("child", 0), ("uniform", 2 * _BLOCK + 1), ("streams", _BLOCK), ("uniform", 2)])
# odd n: the unused sine's uniform is skipped, by scalar draws, a vector and a block alike
@example(7, [("normals", 1), ("uniform", 1), ("normals", 5), ("uniforms", 3), ("normals", 3), ("streams", 2)])
@example(2**63, [("uniform", _BLOCK - 2), ("normals", 1), ("uniform", 3), ("normals", 2 * _BLOCK + 1), ("uniform", 1)])
def test_rng_interleaved_draws_match_the_scalar_reference(seed, steps):
    rng = Rng(seed)
    taken = 0
    for kind, n in steps:
        if kind == "child":
            assert rng.child(n).uniform() == uniform_reference(child_seed_reference(seed, n), 1)
            continue
        width = n + n % 2 if kind == "normals" else n
        expected = [uniform_reference(seed, taken + k) for k in range(1, width + 1)]
        if kind == "uniform":
            assert [rng.uniform() for _ in range(n)] == expected
        elif kind == "uniforms":
            assert rng.uniforms(n).tolist() == expected
        elif kind == "normals":
            assert np.array_equal(rng.normals(n), _box_muller(np.array(expected), n))
        else:
            streams = RngStreams([rng])
            assert streams.uniforms(n)[0].tolist() == expected
            streams.close()
        taken += width
        assert rng._count == taken
    assert rng.uniform() == uniform_reference(seed, taken + 1)

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
    with pytest.raises(DynexecError, match="p equals q elementwise"):
        residual(p, p)


@st.composite
def table_rows(draw, count):
    """`count` valid rows of one vocabulary, each with exact zeros, -0.0s,
    leading and trailing zeros, subnormal entries and mass short of 1 by up
    to DIST_ATOL."""
    rng = Rng(draw(st.integers(0, 2**32)))
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    vocab = draw(st.integers(max(1, 2 - lead - trail), 48))
    rows = []
    for _ in range(count):
        d = rng.uniforms(vocab)
        d[rng.uniforms(vocab) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
        d[int(rng.uniform() * vocab)] += 0.1
        d /= d.sum()
        d *= 1.0 - draw(st.sampled_from([0.0, 1e-12, 0.999 * DIST_ATOL]))
        d = np.concatenate([np.zeros(lead), d, np.zeros(trail)])
        zeros = np.flatnonzero(d == 0.0)
        pick = rng.uniforms(zeros.size)
        share = draw(st.sampled_from([0.0, 0.3]))
        d[zeros[pick < share]] = -0.0
        d[zeros[pick > 1.0 - share]] = SUBNORMAL * (1.0 + pick[pick > 1.0 - share])
        rows.append(d)
    return rows


def _rng_pair(kind, seed, d):
    """Two Rngs that read the same uniforms: a seeded stream, or two scripted
    uniforms on a running total of d, or in the gap between its mass and 1
    (where a draw returns the last positive entry), then a stream draw."""
    if kind == "stream":
        return Rng(seed), Rng(seed)
    stream = Rng(seed)
    totals = np.cumsum(np.maximum(d, 0.0))
    if kind == "running total":
        u = [float(totals[int(stream.uniform() * d.size)]) for _ in range(2)]
    else:
        u = [float(totals[-1]) + (1.0 - float(totals[-1])) * stream.uniform() for _ in range(2)]
    u = [min(v, 1.0 - 2.0**-53) for v in u]
    follow = stream.uniform()
    return FixedRng(u + [follow]), FixedRng(u + [follow])


_UNIFORM_KINDS = st.sampled_from(["stream", "running total", "in the gap"])


def _table(row):
    model = TableModel(len(row), 0, {(): row})
    return model, model.dist(())


# how a decode draws: plain `sample`, or inline on the running sums of a memo
# that keeps them or of the cap-0 default that builds them at every draw
_HOW = st.sampled_from(["sample", "memo", "cap 0"])


def _memo(how):
    return _RowMemo(1) if how == "memo" else _UNCACHED


@settings(max_examples=200, deadline=None)
@given(table_rows(1), _UNIFORM_KINDS, st.integers(0, 2**32), _HOW)
def test_table_row_draw_matches_the_numpy_scalar_reference(rows, kind, seed, how):
    _, row = _table(rows[0])
    assert row.tobytes() == rows[0].tobytes()
    memo = _memo(how)
    fast, plain = _rng_pair(kind, seed, row)
    # with a memo, the first draw builds the row's running sums and the second bisects them
    for _ in range(2):
        token = sample(row, fast) if how == "sample" else bisect_right(memo.row(row), fast.uniform())
        assert token == sample_reference(row, plain)
    assert fast.uniform() == plain.uniform()  # each consumed exactly one uniform
    assert len(memo._rows) == (how == "memo")


@settings(max_examples=200, deadline=None)
@given(table_rows(2), _UNIFORM_KINDS, st.integers(0, 2**32), _HOW)
def test_rejected_pair_draw_matches_the_reference_on_its_residual(rows, kind, seed, how):
    (_, p), (_, q) = map(_table, rows)
    assume((p > q).any())
    r = residual(p, q)
    memo = _memo(how)
    fast, plain = _rng_pair(kind, seed, r)
    for _ in range(2):
        if how == "sample":
            token = sample(residual(p, q), fast)
        else:
            token = bisect_right(memo.rejected(p, q), fast.uniform())
        assert token == sample_reference(r, plain)
    assert fast.uniform() == plain.uniform()
    assert len(memo._pairs) == (how == "memo")


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

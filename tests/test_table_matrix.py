"""A table model's rows are loaded as one checked matrix.

`TableModel` stacks its rows and fallback into one read-only matrix and checks
it in one pass. It must decide exactly as `oracles.table_model_reference`, the
same checks one row at a time: the same rows, bit for bit and read-only, when
it accepts, and the same exception type and message, naming the first failing
row in table order, when it rejects.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynexec import Rng, TableModel
from dynexec.core import DIST_ATOL, normalize

from oracles import table_model_reference

CORRUPTIONS = ["none", "negative", "nan", "inf", "sum off", "sum on the line", "ragged", "short"]
SHAPES = ["table", "empty table", "order 0"]


def _line_sums():
    """The sums on either side of the 1e-9 line, above and below 1: the largest
    accepted and the smallest rejected. No float sum lies exactly 1e-9 from 1."""
    sums = []
    for sign in (1.0, -1.0):
        s = 1.0 + sign * DIST_ATOL
        while abs(s - 1.0) > DIST_ATOL:
            s = math.nextafter(s, 1.0)
        while abs(math.nextafter(s, sign * 2.0) - 1.0) <= DIST_ATOL:
            s = math.nextafter(s, sign * 2.0)
        sums += [s, math.nextafter(s, sign * 2.0)]
    return sums


LINE_SUMS = _line_sums()


def _corrupt(draw, kind, row):
    row = list(row)
    j = draw(st.integers(0, len(row) - 1))
    if kind == "negative":
        row[j] = -draw(st.floats(1e-300, 1.0))
    elif kind == "nan":
        row[j] = math.nan
    elif kind == "inf":
        row[j] = draw(st.sampled_from([math.inf, -math.inf]))
    elif kind == "sum off":
        f = draw(st.one_of(st.floats(1.01e-9, 1e-3), st.floats(-1e-3, -1.01e-9)))
        row = [x * (1.0 + f) for x in row]
    elif kind == "sum on the line":
        if draw(st.booleans()):
            # two entries summing exactly to a sum next to the line, wherever they sit
            row = [0.0] * len(row)
            k = (j + draw(st.integers(1, len(row) - 1))) % len(row)
            s = draw(st.sampled_from(LINE_SUMS))
            row[j], row[k] = s - 0.5, 0.5
        else:
            # a scaled row whose pairwise-summed total lands near the line
            row = [x * (1.0 + draw(st.floats(-1.5e-9, 1.5e-9))) for x in row]
    elif kind == "ragged":
        size = draw(st.integers(2, len(row) + 3).filter(lambda n: n != len(row)))
        row = normalize(Rng(draw(st.integers(0, 2**32))).uniforms(size)).tolist()
    elif kind == "short":
        row = draw(st.sampled_from([[], [1.0]]))
    return row


@st.composite
def tables(draw, corruption, shape):
    """(vocab, order, table, fallback) with 1-2 entries corrupted; with no
    table rows, only the fallback can be."""
    vocab = draw(st.sampled_from([2, 3, 5, 8, 9, 17, 130, 256]))
    order = 0 if shape == "order 0" else draw(st.integers(1, 2))
    if shape == "empty table":
        windows = []
    elif order == 0:
        windows = [()]
    else:
        windows = draw(st.lists(st.tuples(*[st.integers(0, vocab - 1)] * order), min_size=1, max_size=6,
                                unique=True))
    rng = Rng(draw(st.integers(0, 2**32)))
    entries = [normalize(rng.uniforms(vocab) ** draw(st.floats(0.2, 8.0))).tolist()
               for _ in range(len(windows) + 1)]
    give_fallback = (corruption != "none" and not windows) or draw(st.booleans())
    if corruption != "none":
        positions = range(len(entries) if give_fallback else len(windows))
        for i in draw(st.lists(st.sampled_from(positions), min_size=1, max_size=2, unique=True)):
            entries[i] = _corrupt(draw, corruption, entries[i])
    if draw(st.booleans()):
        entries = [np.array(row) for row in entries]
    return vocab, order, dict(zip(windows, entries)), entries[-1] if give_fallback else None


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the outcome under test is the exception itself
        return exc


def _assert_decides_as_the_reference(vocab, order, table, fallback):
    """Returns whether the table was accepted."""
    expected = _outcome(table_model_reference, vocab, order, table, fallback)
    got = _outcome(TableModel, vocab, order, table, fallback)
    if isinstance(expected, Exception):
        assert isinstance(got, Exception), f"accepted what the reference rejects: {expected}"
        assert (type(got), str(got)) == (type(expected), str(expected))
        return False
    assert not isinstance(got, Exception), f"rejected what the reference accepts: {got!r}"
    rows, fallback_row = expected
    assert list(got.table) == list(rows)
    for window, row in [*rows.items(), ("fallback", fallback_row)]:
        actual = got.fallback if window == "fallback" else got.table[window]
        assert actual.dtype == np.float64 and actual.tobytes() == row.tobytes()
        assert not actual.flags.writeable
        with pytest.raises(ValueError):
            actual[0] = 0.5
    return True


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("corruption", CORRUPTIONS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_table_model_decides_as_the_per_row_reference(corruption, shape, data):
    _assert_decides_as_the_reference(*data.draw(tables(corruption, shape)))


def _row_summing_to(target, size, seed):
    """`size` positive entries whose numpy sum is exactly target, or None."""
    row = np.random.default_rng(seed).random(size)
    row *= target / row.sum()
    for _ in range(50):
        if float(row.sum()) == target:
            return row
        row[-1] += target - float(row.sum())
    return None


@pytest.mark.parametrize("target", LINE_SUMS)
def test_rows_next_to_the_line_are_decided_by_their_own_sum(target):
    # 256 entries summing, in numpy's pairwise order, to a float next to the
    # line: summed in another order, about half of them cross it
    rows = [row for row in (_row_summing_to(target, 256, seed) for seed in range(12)) if row is not None]
    assert len(rows) >= 6
    table = {(i,): row for i, row in enumerate(rows)}
    accepted = _assert_decides_as_the_reference(256, 1, table, None)
    assert accepted == (abs(target - 1.0) <= DIST_ATOL)


def test_line_sums_straddle_the_tolerance():
    # strictly inside: s - 1 is exact and a multiple of 2**-53, which 1e-9 is not,
    # so a float sum is never exactly 1e-9 from 1 and `<` and `<=` decide alike
    above_in, above_out, below_in, below_out = LINE_SUMS
    assert above_in - 1.0 < DIST_ATOL < above_out - 1.0
    assert 1.0 - below_in < DIST_ATOL < 1.0 - below_out

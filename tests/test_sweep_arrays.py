"""The array paths of the early-exit and route sweeps against scalar references.

`gen_dataset` draws its uniforms in one block, `sweep` takes every entropy in
one row-wise pass and reads each row from prefix counts, and `frontier`
scores each route item once for all thresholds. Each must equal the one-at-a-time reference in `oracles.py` bit
for bit, so early-exit and route reports stay byte-identical.
"""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynexec import FeatureModel, Rng, TableModel, frontier, gen_dataset, sweep, train_stages
from dynexec.cli import _CHARGES
from dynexec.core import MAX_TABLE_ORDER, MIN_FEATURE_DIM, entropy
from dynexec.earlyexit import STAGE0_COST, STAGE1_COST, MultiExitNet, SweepRow

from helpers import (WorkloadItem, random_dist, random_feature_model, route_arrays, route_workload,
                     varied_entropy_table_model)
from oracles import (difficulty_reference, gen_dataset_reference, infer_with_exit, library_dists, point_rows,
                     route_evaluate_reference, sweep_reference)


def _bits(values):
    """Exact identity of a sequence of float tuples: types and hex digits."""
    return [tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in row)
            for row in values]


def _row_fields(rows):
    return [(r.tau, r.accuracy, r.mean_cost, r.early_exit_fraction, r.speedup) for r in rows]


def _report_fields(reports):
    return [(r.total_cost, r.mean_quality, r.fraction_large) for r in reports]


@settings(max_examples=60, deadline=None)
@given(st.integers(10, 3000),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.integers(0, 2**64 - 1))
@example(3000, 0.0, 0)
@example(3000, 1.0, 2**64 - 1)
def test_gen_dataset_matches_scalar_reference(count, hard_fraction, seed):
    got = gen_dataset(count, hard_fraction, seed)
    ref = gen_dataset_reference(count, hard_fraction, seed)
    assert [a.dtype for a in got] == [a.dtype for a in ref]
    assert _bits(zip(*(a.tolist() for a in got))) == _bits(zip(*(a.tolist() for a in ref)))


def _tally(net, data, tau):
    """A sweep row counted point by point through the scalar gate, each point
    read from its batched rows."""
    results = [infer_with_exit(rows, tau) for rows in point_rows(net, data)]
    labels = data.labels.tolist()
    n = len(labels)
    mean_cost = sum(cost for _, _, cost in results) / n
    return SweepRow(tau=tau,
                    accuracy=sum(label == true for (label, _, _), true in zip(results, labels)) / n,
                    mean_cost=mean_cost,
                    early_exit_fraction=sum(idx == 0 for _, idx, _ in results) / n,
                    speedup=(STAGE0_COST + STAGE1_COST) / mean_cost)


@st.composite
def exit_cases(draw):
    """Random stage weights over a generated dataset. Scales up to 1e3 push
    many points into sigmoid saturation, where a stage answers exactly 0 or 1
    and its entropy is exactly 0."""
    data = gen_dataset(draw(st.integers(10, 300)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([0.5, 5.0, 1e3]))
    weights = [np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
               for n in (3, 10)]
    net = MultiExitNet(tuple(weights))
    # taus exactly at some points' stage-0 entropies, where the gate's `<` is strict
    rows = library_dists(net.stages[0], data.xs, data.ys)
    at_points = [entropy(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    taus = draw(st.lists(st.floats(0.0, 0.8), max_size=6)) + at_points + [0.0, math.log(2) + 0.01]
    return net, data, sorted(taus)


@settings(max_examples=60, deadline=None)
@given(exit_cases())
def test_sweep_rows_match_pointwise_tally(case):
    net, data, taus = case
    rows = sweep(net, data, taus)
    tallies = [_tally(net, data, tau) for tau in taus]
    assert _bits(_row_fields(rows)) == _bits(_row_fields(tallies))


def test_sweep_saturated_stage_matches_tally():
    data = gen_dataset(200, 0.3, 5)
    net = MultiExitNet((np.array([0.0, 900.0, 0.0]), np.array([0.0, 1.0] + [0.0] * 8)))
    taus = [0.0, 1e-300, 0.1, math.log(2) + 0.01]
    dists = library_dists(net.stages[0], data.xs, data.ys)
    rows = sweep(net, data, taus)
    tallies = [_tally(net, data, tau) for tau in taus]
    assert (dists == 0.0).any() and (dists == 1.0).any()
    assert _bits(_row_fields(rows)) == _bits(_row_fields(tallies))


@settings(max_examples=60, deadline=None)
@given(st.integers(100, 2000), st.floats(0.0, 1.0), st.integers(0, 2**32),
       st.sampled_from([None, 0.5, 5.0, 1e3]),
       st.lists(st.one_of(st.floats(-0.1, 0.8), st.sampled_from([-math.inf, 0.0, math.log(2), math.inf])),
                max_size=8),
       st.lists(st.integers(0, 99), max_size=4))
@example(300, 0.3, 1, None, [-math.inf, math.inf], [])
@example(300, 0.3, 1, 5.0, [0.1, 0.1, 0.1, math.inf, math.inf], [7, 7])
@example(300, 0.3, 1, None, [], [0, 1, 2])
@example(300, 0.3, 1, 1e3, [0.0, 0.0], [3])
def test_sweep_matches_per_tau_reference(count, hard_fraction, seed, scale, taus, at_points):
    """The prefix-count sweep gives the rows of a full pass per tau, bit for
    bit, for trained nets (scale None) and for random weights up to sigmoid
    saturation; taus include ±inf, repeats and points' own entropies."""
    data = gen_dataset(count, hard_fraction, seed)
    if scale is None:
        net = train_stages(data)
    else:
        weights = (Rng(seed).uniforms(13) * 2.0 - 1.0) * scale
        net = MultiExitNet((weights[:3], weights[3:]))
    rows = library_dists(net.stages[0], data.xs, data.ys)
    taus = sorted(taus + [entropy(rows[i]) for i in at_points])
    if not taus:
        taus = [0.0]
    got = sweep(net, data, taus)
    assert _bits(_row_fields(got)) == _bits(_row_fields(sweep_reference(net, data, taus)))


def test_saturated_stage_answers_without_overflow_warning():
    # logits far below -709 overflow exp(-z); the answer is still the exact 0
    weights = np.array([0.0, 1e4, 0.0])
    xs, ys = np.array([0.0, 0.0]), np.array([-1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists = library_dists(weights, xs, ys)
        singles = [library_dists(weights, xs[i:i + 1], ys[i:i + 1])[0] for i in range(2)]
    assert dists.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert [d.tolist() for d in singles] == dists.tolist()


@st.composite
def route_models(draw, vocab, rng):
    """A table model of any order, dense or with windows missing (they fall
    back to a drawn row), or a feature model."""
    kind = draw(st.sampled_from(["table", "sparse", "feature"]))
    cost_units = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(1.0, 16.0))
    if kind == "feature":
        return random_feature_model(vocab, draw(st.integers(MIN_FEATURE_DIM, 6)), rng, cost_units=cost_units)
    # the highest orders only for small vocabularies: at most 256 windows keeps the test fast
    order = draw(st.integers(0, max(o for o in range(MAX_TABLE_ORDER + 1) if vocab ** o <= 256)))
    model = varied_entropy_table_model(vocab, order, rng, cost_units=cost_units)
    if kind == "table":
        return model
    keep = draw(st.floats(0.0, 1.0))
    rows = {w: row for w, row in model.table.items() if rng.uniform() < keep}
    return TableModel(vocab, model.order, rows, fallback=random_dist(vocab, rng), cost_units=cost_units)


@st.composite
def route_cases(draw):
    vocab = draw(st.integers(2, 6))
    rng = Rng(draw(st.integers(0, 2**32)))
    small = draw(route_models(vocab, rng.child(0)))
    large = draw(route_models(vocab, rng.child(1)))
    items = route_workload(draw(st.integers(1, 30)), small, large, rng.child(2))
    scores = [difficulty_reference(item.prompt, small) for item in items]
    # a theta exactly at an item's difficulty, where routing's `>` is strict
    thetas = [draw(st.sampled_from(scores)), -math.inf, math.inf] + draw(st.lists(
        st.one_of(st.sampled_from(scores), st.floats(-1.0, 3.0)), max_size=8))
    return small, large, items, draw(st.permutations(thetas))


def _case(small, large, items):
    """A route case at both ends of the grid and at one item's difficulty."""
    scores = sorted(difficulty_reference(item.prompt, small) for item in items)
    return small, large, items, [-math.inf, scores[len(scores) // 2], math.inf]


def _items(*pairs):
    return [WorkloadItem(prompt, continuation) for prompt, continuation in pairs]


def _short_prompts_case():
    """Order-4 tables read prompts shorter than the order, and continuations
    that reach it only part of the way through."""
    rng = Rng(41)
    small = varied_entropy_table_model(3, 4, rng.child(0))
    large = varied_entropy_table_model(3, 4, rng.child(1), cost_units=4.0)
    return _case(small, large, _items(((0,), (1, 2, 0, 1, 2)), ((1, 2), (0,)), ((2, 1, 0), (1, 1, 2)),
                                             ((0, 1, 2, 0), (2,)), ((2,), (2,))))


def _order_zero_fallback_case():
    """An order-0 probe with no () row: every position reads the fallback."""
    small = TableModel(3, 0, {}, fallback=[0.2, 0.3, 0.5])
    large = varied_entropy_table_model(3, 1, Rng(42), cost_units=2.0)
    return _case(small, large, _items(((0, 1), (2, 2)), ((1,), (0,)), ((2, 2, 2), (1, 0, 1))))


def _zero_probability_case():
    """Continuation tokens of probability zero, scored at LOGPROB_FLOOR."""
    small = TableModel(3, 1, {(0,): [1.0, 0.0, 0.0], (1,): [0.0, 0.5, 0.5], (2,): [0.3, 0.3, 0.4]})
    large = TableModel(3, 2, {(0, 1): [0.0, 0.0, 1.0]}, fallback=[0.5, 0.5, 0.0], cost_units=3.0)
    return _case(small, large, _items(((0,), (1, 0, 2)), ((1,), (0, 0)), ((0, 1), (2, 2)), ((2,), (1,))))


def _long_item_case():
    """One 5 000-token continuation among 200 short items."""
    rng = Rng(43)
    small = varied_entropy_table_model(4, 1, rng.child(0))
    large = varied_entropy_table_model(4, 2, rng.child(1), cost_units=4.0)
    items = route_workload(200, small, large, rng.child(2))
    long_tokens = np.minimum((rng.child(3).uniforms(LONG_ITEM) * 4).astype(int), 3).tolist()
    items.insert(100, WorkloadItem((1, 2, 3), tuple(long_tokens)))
    return _case(small, large, items)


def _many_feature_items_case():
    """Feature models on 200 items, so the frontier's peak is its walks', not a fixed cost."""
    rng = Rng(44)
    small = random_feature_model(6, 6, rng.child(0))
    large = random_feature_model(6, 4, rng.child(1), cost_units=4.0)
    return _case(small, large, route_workload(200, small, large, rng.child(2)))


LONG_ITEM = 5000
# the frontier's tracemalloc peak on a table workload: a few arrays of the
# total tokens, never an items x longest-item matrix
PEAK_BYTES_PER_TOKEN = 256
# with a feature model, the route charge on the widest one's rows, in float64s
_, _, FEATURE_CHARGE = next(charge for charge in _CHARGES["route"] if charge[0] == "workload")


@settings(max_examples=100, deadline=None)
@given(route_cases())
@example(_short_prompts_case())
@example(_order_zero_fallback_case())
@example(_zero_probability_case())
@example(_long_item_case())
@example(_many_feature_items_case())
def test_frontier_matches_per_threshold_reference(case):
    """The frontier's window lookups and per-length sums, and its lockstep walks
    of feature models, give the reports of from-scratch scoring, per threshold,
    bit for bit, within memory linear in the workload's tokens: on table models
    a few arrays of them, with a feature model its declared route charge."""
    small, large, items, thetas = case
    attributes = [{key: id(value) for key, value in vars(model).items()} for model in (small, large)]
    workload = route_arrays(items)
    tracemalloc.start()
    try:
        got = frontier(thetas, workload, small, large)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tokens = sum(len(item.prompt) + len(item.reference_continuation) for item in items)
    widths = [(model.vocab_size, model.dim) for model in (small, large) if isinstance(model, FeatureModel)]
    if widths:
        vocabulary, dim = max(widths, key=sum)
        assert peak < 2**16 + 8 * FEATURE_CHARGE(SimpleNamespace(tokens=tokens, vocabulary=vocabulary, dim=dim))
    else:
        assert peak < 2**16 + PEAK_BYTES_PER_TOKEN * tokens
    # nothing is cached on a model at its first use
    assert [{key: id(value) for key, value in vars(model).items()} for model in (small, large)] == attributes
    ref = [route_evaluate_reference(theta, items, small, large) for theta in thetas]
    assert _bits(_report_fields(got)) == _bits(_report_fields(ref))

"""The array paths of the early-exit and route sweeps against scalar references.

`gen_dataset` draws its uniforms in one block, `sweep` takes every entropy in
one row-wise pass and `frontier` scores each route item once for all
thresholds. Each must equal the one-at-a-time reference in `oracles.py` bit
for bit, so early-exit and route reports stay byte-identical.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynexec import RoutePolicy, Rng, TableModel, difficulty, frontier, gen_dataset, sweep
from dynexec.core import MAX_TABLE_ORDER, MIN_FEATURE_DIM, entropy
from dynexec.earlyexit import ExitStage, MultiExitNet, SweepRow

from helpers import random_dist, random_feature_model, route_workload, varied_entropy_table_model
from oracles import gen_dataset_reference, infer_with_exit, point_rows, route_evaluate_reference


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
    results = [infer_with_exit(net, rows, tau) for rows in point_rows(net, data)]
    labels = data.labels.tolist()
    n = len(labels)
    mean_cost = sum(cost for _, _, cost in results) / n
    return SweepRow(tau=tau,
                    accuracy=sum(label == true for (label, _, _), true in zip(results, labels)) / n,
                    mean_cost=mean_cost,
                    early_exit_fraction=sum(idx < len(net.stages) - 1 for _, idx, _ in results) / n,
                    speedup=net.full_cost / mean_cost)


@st.composite
def exit_cases(draw):
    """Random stage weights over a generated dataset. Scales up to 1e3 push
    many points into sigmoid saturation, where a stage answers exactly 0 or 1
    and its entropy is exactly 0."""
    data = gen_dataset(draw(st.integers(10, 300)), draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([0.5, 5.0, 1e3]))
    weights = [np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
               for n in (3, 10)]
    net = MultiExitNet((ExitStage(weights[0], "linear", 1.0), ExitStage(weights[1], "cubic", 4.0)))
    # taus exactly at some points' stage-0 entropies, where the gate's `<` is strict
    rows = net.stages[0].dists(data.xs, data.ys)
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
    stage0 = ExitStage(np.array([0.0, 900.0, 0.0]), "linear", 1.0)
    stage1 = ExitStage(np.array([0.0, 1.0] + [0.0] * 8), "cubic", 4.0)
    net = MultiExitNet((stage0, stage1))
    taus = [0.0, 1e-300, 0.1, math.log(2) + 0.01]
    dists = stage0.dists(data.xs, data.ys)
    rows = sweep(net, data, taus)
    tallies = [_tally(net, data, tau) for tau in taus]
    assert (dists == 0.0).any() and (dists == 1.0).any()
    assert _bits(_row_fields(rows)) == _bits(_row_fields(tallies))


def test_saturated_stage_answers_without_overflow_warning():
    # logits far below -709 overflow exp(-z); the answer is still the exact 0
    stage = ExitStage(np.array([0.0, 1e4, 0.0]), "linear", 1.0)
    xs, ys = np.array([0.0, 0.0]), np.array([-1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dists = stage.dists(xs, ys)
        singles = [stage.dists(xs[i:i + 1], ys[i:i + 1])[0] for i in range(2)]
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
    probe = small if draw(st.booleans()) else draw(route_models(vocab, rng.child(3)))
    items = route_workload(draw(st.integers(1, 30)), small, large, rng.child(2))
    scores = [difficulty(item.prompt, probe) for item in items]
    # a theta exactly at an item's difficulty, where routing's `>` is strict
    thetas = [draw(st.sampled_from(scores)), -math.inf, math.inf] + draw(st.lists(
        st.one_of(st.sampled_from(scores), st.floats(-1.0, 3.0)), max_size=8))
    return probe, small, large, items, draw(st.permutations(thetas))


@settings(max_examples=100, deadline=None)
@given(route_cases())
def test_frontier_matches_per_threshold_reference(case):
    """The frontier's state walks and per-state memos give the reports of
    from-scratch scoring, per threshold, bit for bit."""
    probe, small, large, items, thetas = case
    got = frontier(probe, thetas, items, small, large)
    ref = [route_evaluate_reference(RoutePolicy(theta, probe), items, small, large) for theta in thetas]
    assert _bits(_report_fields(got)) == _bits(_report_fields(ref))

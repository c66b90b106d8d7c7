import math

import numpy as np
import pytest

from dynexec import FeatureModel, Rng, RouteWorkload, TableModel, difficulty, evaluate, frontier
from dynexec.core import entropy
from dynexec.router import LOGPROB_FLOOR
from dynexec.errors import DynexecError

from helpers import (WorkloadItem, onehot, random_feature_model, random_table_model, route_arrays, route_workload,
                     varied_entropy_table_model)
from oracles import difficulty_reference, mean_log_likelihood_reference, route


def _difficulties(prompts, probe):
    """`router.difficulty` of each prompt, from the probe's `rows_after` as `frontier` reads them."""
    tokens = np.array([t for prompt in prompts for t in prompt], dtype=np.int64)
    offsets = np.array([k for prompt in prompts for k in range(len(prompt))], dtype=np.int64)
    rows, index = probe.rows_after(tokens, offsets)
    return difficulty(rows, index, np.ones(len(tokens), dtype=bool), np.array([len(p) for p in prompts])).tolist()


def test_difficulty_one_hot_probe_zero():
    probe = TableModel(4, 1, {(i,): onehot(4, (i + 1) % 4) for i in range(4)},
                       fallback=onehot(4, 0))
    assert _difficulties([(0, 1, 2)], probe) == [0.0]
    assert difficulty_reference((0, 1, 2), probe) == 0.0


def test_difficulty_uniform_probe_ln_v():
    probe = TableModel(4, 0, {(): [0.25] * 4})
    [got] = _difficulties([(0, 1)], probe)
    assert got == pytest.approx(math.log(4), abs=1e-12)
    assert got == difficulty_reference((0, 1), probe)


def test_difficulty_mixed_rows_is_prefix_mean():
    prompts = [(0, 2, 1), (1,), (2, 2, 0, 1, 1), (0, 2)]
    for probe in (random_table_model(3, 1, Rng(14)), random_feature_model(3, 4, Rng(14))):
        got = _difficulties(prompts, probe)
        for prompt, score in zip(prompts, got):
            expected = np.mean([entropy(probe.next_dist(prompt[:i])) for i in range(1, len(prompt) + 1)])
            assert score == pytest.approx(float(expected), abs=1e-12)
        assert got == [difficulty_reference(prompt, probe) for prompt in prompts]


def test_difficulty_empty_prompt():
    probe = random_table_model(3, 1, Rng(15))
    with pytest.raises(DynexecError, match="difficulty needs a non-empty prompt"):
        frontier([0.5], route_arrays([WorkloadItem((), (1,))]), probe, probe)
    with pytest.raises(DynexecError, match="difficulty needs a non-empty prompt"):
        difficulty_reference((), probe)


@pytest.mark.parametrize("token", [-1, 3])
def test_out_of_vocab_continuation_raises(token):
    # the small model's vocabulary is 3, the large model's 4
    large = random_table_model(4, 1, Rng(18))
    workload = route_arrays([WorkloadItem((0,), (token, 0))])
    for small in (random_table_model(3, 1, Rng(16)), random_feature_model(3, 4, Rng(17))):
        with pytest.raises(DynexecError, match="workload token outside the models' vocabulary of size 3"):
            frontier([0.5], workload, small, large)


OUTSIDE_VOCAB = "workload token outside the models' vocabulary of size 3"


@pytest.mark.parametrize("prompt, continuation, message", [
    pytest.param((0, 3), (1,), OUTSIDE_VOCAB, id="large-vocab-only"),  # inside the large model's vocabulary only
    pytest.param((0,), (1, -1), OUTSIDE_VOCAB, id="negative-token"),
    pytest.param((), (1,), "difficulty needs a non-empty prompt", id="empty-prompt"),
])
def test_frontier_rejects_an_item_the_models_cannot_read(prompt, continuation, message):
    small, large = random_table_model(3, 1, Rng(18)), random_table_model(4, 2, Rng(19))
    items = [WorkloadItem((0, 1), (2,)), WorkloadItem(prompt, continuation)]
    with pytest.raises(DynexecError, match=message):
        frontier([0.5], route_arrays(items), small, large)


def test_route_threshold_endpoints():
    probe = random_table_model(3, 1, Rng(16))
    item = WorkloadItem((0, 1), (2,))
    assert route(float("inf"), probe, item) == "small"
    assert route(-1.0, probe, item) == "large"


def test_route_difficulty_above_ln2_goes_large():
    probe = TableModel(3, 0, {(): [0.7, 0.2, 0.1]})  # entropy ~ 0.8018
    item = WorkloadItem((0,), (1,))
    assert _difficulties([item.prompt], probe) == [difficulty_reference(item.prompt, probe)]
    assert difficulty_reference(item.prompt, probe) == pytest.approx(0.8018, abs=1e-3)
    assert route(math.log(2), probe, item) == "large"
    assert frontier([math.log(2)], route_arrays([item]), probe, probe)[0].fraction_large == 1.0


def test_workload_item_requires_continuation():
    with pytest.raises(ValueError):
        WorkloadItem((0,), ())
    probe = random_table_model(3, 1, Rng(15))
    with pytest.raises(ValueError, match="reference continuation must be non-empty"):
        frontier([0.5], RouteWorkload(*np.array([[0], [1], [0]], dtype=np.int64)), probe, probe)


def test_quality_floor_keeps_loglik_finite():
    model = TableModel(2, 0, {(): [1.0, 0.0]})
    workload = route_arrays([WorkloadItem((0,), (1, 1))])  # continuation has probability zero
    ll = frontier([math.inf], workload, model, model)[0].mean_quality
    assert math.isfinite(ll)
    assert ll == pytest.approx(math.log(LOGPROB_FLOOR))


def test_evaluate_identical_models_quality_constant():
    model = random_table_model(4, 1, Rng(17), cost_units=2.0)
    workload = route_arrays(route_workload(20, model, model, Rng(18)))
    reports = [evaluate(theta, workload, model, model)
               for theta in (-1.0, 0.5, 1.0, float("inf"))]
    qualities = {r.mean_quality for r in reports}
    costs = {r.total_cost for r in reports}
    assert len(qualities) == 1
    assert len(costs) == 1


def test_evaluate_monotone_in_theta():
    rng = Rng(88)
    small = varied_entropy_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=8.0)
    workload = route_arrays(route_workload(50, small, large, rng.child(2)))
    thetas = [-1.0] + [0.2 * i for i in range(1, 8)] + [float("inf")]
    reports = [evaluate(t, workload, small, large) for t in thetas]
    fractions = [r.fraction_large for r in reports]
    costs = [r.total_cost for r in reports]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert fractions[0] == 1.0
    assert fractions[-1] == 0.0
    assert len(set(fractions)) >= 3  # a graded frontier, not a step


def test_evaluate_endpoints_bit_equal_to_forced_runs():
    rng = Rng(31)
    small = random_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=6.0)
    items = route_workload(25, small, large, rng.child(2))
    workload = route_arrays(items)

    def forced_report(model):
        total_cost = 0.0
        qualities = []
        for item in items:
            total_cost += len(item.prompt) * small.cost_units
            qualities.append(mean_log_likelihood_reference(model, item))
            total_cost += len(item.reference_continuation) * model.cost_units
        return total_cost, float(np.mean(qualities))

    all_small = evaluate(float("inf"), workload, small, large)
    assert (all_small.total_cost, all_small.mean_quality) == forced_report(small)
    assert all_small.fraction_large == 0.0
    all_large = evaluate(-1.0, workload, small, large)
    assert (all_large.total_cost, all_large.mean_quality) == forced_report(large)
    assert all_large.fraction_large == 1.0


def test_large_model_generated_data_scores_better_under_large():
    rng = Rng(77)
    small = random_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=4.0)
    workload = route_arrays(route_workload(50, small, large, rng.child(2)))
    all_large = evaluate(-1.0, workload, small, large)
    all_small = evaluate(float("inf"), workload, small, large)
    assert all_large.mean_quality >= all_small.mean_quality


def test_evaluate_requires_items():
    small = random_table_model(3, 1, Rng(1))
    with pytest.raises(ValueError):
        evaluate(0.0, route_arrays([]), small, small)


# ragged items, given neither longest nor shortest first, three of them one token long
_RAGGED = ((2, 0, 7), (5,), (1, 1, 3, 9, 0, 4, 2), (8,), (6, 3), (0, 2, 4, 6, 8), (9,))


@pytest.mark.parametrize("vocab, dim", [(10, 4), (10, 16), (12, 32)])
def test_feature_rows_after_equal_next_dist_of_each_prefix(vocab, dim):
    """The lockstep walk's row after each position is the one-sequence `next_dist`
    of its prefix, bit for bit, whatever the order of the sequences' lengths."""
    model = random_feature_model(vocab, dim, Rng(vocab * dim))
    tokens = np.array([t for item in _RAGGED for t in item], dtype=np.int64)
    offsets = np.array([k for item in _RAGGED for k in range(len(item))], dtype=np.int64)
    rows, index = model.rows_after(tokens, offsets)
    assert index.tolist() == list(range(len(tokens)))
    prefixes = [item[:k + 1] for item in _RAGGED for k in range(len(item))]
    assert [rows[i].tobytes() for i in index] == [model.next_dist(p).tobytes() for p in prefixes]


def test_frontier_walks_a_feature_probe_once_in_lockstep(monkeypatch):
    """A feature probe's frontier takes one stacked `advance` per position of
    the longest item, and no `start`: every prompt is read once, in lockstep."""
    calls = {"advance": [], "start": 0}
    advance, start = FeatureModel.advance, FeatureModel.start

    def counting_advance(self, state, token):
        calls["advance"].append(np.ndim(token))
        return advance(self, state, token)

    def counting_start(self, ctx):
        calls["start"] += 1
        return start(self, ctx)

    small = random_feature_model(10, 4, Rng(61))
    large = random_table_model(10, 2, Rng(62), cost_units=4.0)
    items = [WorkloadItem(item[:1], item[1:] or (0,)) for item in _RAGGED]
    monkeypatch.setattr(FeatureModel, "advance", counting_advance)
    monkeypatch.setattr(FeatureModel, "start", counting_start)
    frontier([-1.0, 1.0, math.inf], route_arrays(items), small, large)
    longest = max(len(item.prompt) + len(item.reference_continuation) for item in items)
    assert calls == {"advance": [1] * longest, "start": 0}

import math

import numpy as np
import pytest

from dynexec import RoutePolicy, Rng, TableModel, WorkloadItem, difficulty, evaluate
from dynexec.core import entropy
from dynexec.router import LOGPROB_FLOOR, _mean_log_likelihood
from dynexec.errors import EmptyPrompt, VocabMismatch

from helpers import onehot, random_feature_model, random_table_model, route_workload, varied_entropy_table_model
from oracles import mean_log_likelihood_reference, route


def test_difficulty_one_hot_probe_zero():
    probe = TableModel(4, 1, {(i,): onehot(4, (i + 1) % 4) for i in range(4)},
                       fallback=onehot(4, 0))
    assert difficulty((0, 1, 2), probe) == 0.0


def test_difficulty_uniform_probe_ln_v():
    probe = TableModel(4, 0, {(): [0.25] * 4})
    assert difficulty((0, 1), probe) == pytest.approx(math.log(4), abs=1e-12)


def test_difficulty_mixed_rows_is_prefix_mean():
    probe = random_table_model(3, 1, Rng(14))
    prompt = (0, 2, 1)
    expected = np.mean([entropy(probe.next_dist(prompt[:i])) for i in range(1, len(prompt) + 1)])
    assert difficulty(prompt, probe) == pytest.approx(float(expected), abs=1e-12)


def test_difficulty_empty_prompt():
    probe = random_table_model(3, 1, Rng(15))
    with pytest.raises(EmptyPrompt):
        difficulty((), probe)


@pytest.mark.parametrize("token", [-1, 3])
def test_out_of_vocab_continuation_raises(token):
    for model in (random_table_model(3, 1, Rng(16)), random_feature_model(3, 4, Rng(17))):
        with pytest.raises(VocabMismatch):
            _mean_log_likelihood(model, WorkloadItem((0,), (token, 0)))


def test_route_threshold_endpoints():
    probe = random_table_model(3, 1, Rng(16))
    item = WorkloadItem((0, 1), (2,))
    assert route(RoutePolicy(float("inf"), probe), item) == "small"
    assert route(RoutePolicy(-1.0, probe), item) == "large"


def test_route_difficulty_above_ln2_goes_large():
    probe = TableModel(3, 0, {(): [0.7, 0.2, 0.1]})  # entropy ~ 0.8018
    item = WorkloadItem((0,), (1,))
    assert difficulty(item.prompt, probe) == pytest.approx(0.8018, abs=1e-3)
    assert route(RoutePolicy(math.log(2), probe), item) == "large"


def test_workload_item_requires_continuation():
    with pytest.raises(ValueError):
        WorkloadItem((0,), ())


def test_quality_floor_keeps_loglik_finite():
    model = TableModel(2, 0, {(): [1.0, 0.0]})
    item = WorkloadItem((0,), (1, 1))  # continuation has probability zero
    ll = _mean_log_likelihood(model, item)
    assert math.isfinite(ll)
    assert ll == pytest.approx(math.log(LOGPROB_FLOOR))


def test_evaluate_identical_models_quality_constant():
    model = random_table_model(4, 1, Rng(17), cost_units=2.0)
    items = route_workload(20, model, model, Rng(18))
    reports = [evaluate(RoutePolicy(theta, model), items, model, model)
               for theta in (-1.0, 0.5, 1.0, float("inf"))]
    qualities = {r.mean_quality for r in reports}
    costs = {r.total_cost for r in reports}
    assert len(qualities) == 1
    assert len(costs) == 1


def test_evaluate_monotone_in_theta():
    rng = Rng(88)
    small = varied_entropy_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=8.0)
    items = route_workload(50, small, large, rng.child(2))
    thetas = [-1.0] + [0.2 * i for i in range(1, 8)] + [float("inf")]
    reports = [evaluate(RoutePolicy(t, small), items, small, large) for t in thetas]
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
    probe = small

    def forced_report(model):
        total_cost = 0.0
        qualities = []
        for item in items:
            total_cost += len(item.prompt) * probe.cost_units
            qualities.append(mean_log_likelihood_reference(model, item))
            total_cost += len(item.reference_continuation) * model.cost_units
        return total_cost, float(np.mean(qualities))

    all_small = evaluate(RoutePolicy(float("inf"), probe), items, small, large)
    assert (all_small.total_cost, all_small.mean_quality) == forced_report(small)
    assert all_small.fraction_large == 0.0
    all_large = evaluate(RoutePolicy(-1.0, probe), items, small, large)
    assert (all_large.total_cost, all_large.mean_quality) == forced_report(large)
    assert all_large.fraction_large == 1.0


def test_large_model_generated_data_scores_better_under_large():
    rng = Rng(77)
    small = random_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=4.0)
    items = route_workload(50, small, large, rng.child(2))
    all_large = evaluate(RoutePolicy(-1.0, small), items, small, large)
    all_small = evaluate(RoutePolicy(float("inf"), small), items, small, large)
    assert all_large.mean_quality >= all_small.mean_quality


def test_evaluate_requires_items():
    small = random_table_model(3, 1, Rng(1))
    with pytest.raises(ValueError):
        evaluate(RoutePolicy(0.0, small), [], small, small)

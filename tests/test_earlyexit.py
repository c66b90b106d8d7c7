import math

import numpy as np
import pytest

from dynexec import Dataset, Rng, gen_dataset, sweep, train_stages
from dynexec.earlyexit import (
    MultiExitNet,
    boundary,
    stage_accuracy,
)
from dynexec.errors import DynexecError

from oracles import fixture_normals, infer_with_exit, point_rows

LN2 = math.log(2)
DEFAULT_TAUS = [round(0.05 * i, 2) for i in range(16)]


def test_gen_dataset_deterministic():
    a = gen_dataset(10, 0.5, 123)
    b = gen_dataset(10, 0.5, 123)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_gen_dataset_count_and_balance():
    data = gen_dataset(501, 0.3, 7)
    assert [len(field) for field in data] == [501, 501, 501]
    assert abs(data.labels.mean() - 0.5) <= 0.05


def test_gen_dataset_labels_sit_on_their_side():
    data = gen_dataset(400, 0.4, 11)
    assert np.array_equal(data.ys > boundary(data.xs), data.labels == 1)


def test_hard_fraction_zero_is_linearly_easy():
    data = gen_dataset(2000, 0.0, 5)
    net = train_stages(data)
    assert stage_accuracy(net.stages[0], data) >= 0.95


def test_hard_fraction_one_favors_expressive_stage():
    data = gen_dataset(2000, 1.0, 6)
    net = train_stages(data)
    assert stage_accuracy(net.stages[0], data) <= stage_accuracy(net.stages[1], data)


def test_linearly_separable_blobs_stage0():
    rng = Rng(3)
    labels = np.arange(400) % 2
    noise = fixture_normals(rng, 800).reshape(400, 2) * 0.3
    pts = Dataset(np.where(labels == 1, 3.0, -3.0) + noise[:, 0], noise[:, 1], labels)
    net = train_stages(pts)
    assert stage_accuracy(net.stages[0], pts) >= 0.99


def test_stage1_at_least_stage0_over_seeds():
    for seed in range(10):
        data = gen_dataset(800, 0.25, seed)
        net = train_stages(data)
        assert stage_accuracy(net.stages[1], data) >= stage_accuracy(net.stages[0], data)


def test_training_deterministic():
    data = gen_dataset(500, 0.2, 9)
    w1 = train_stages(data).stages[0]
    w2 = train_stages(data).stages[0]
    assert np.array_equal(w1, w2)


def test_train_rejects_single_class():
    pts = Dataset(np.arange(200.0), np.arange(200.0), np.ones(200, dtype=int))
    with pytest.raises(DynexecError, match="training data contains a single class"):
        train_stages(pts)


def test_infer_tau_zero_never_exits_early():
    data = gen_dataset(300, 0.2, 4)
    net = train_stages(data)
    label, exit_index, cost = infer_with_exit(point_rows(net, data)[0], 0.0)
    assert exit_index == 1
    assert cost == 5.0


def test_infer_open_gate_always_exits_at_stage0():
    data = gen_dataset(300, 0.2, 4)
    net = train_stages(data)
    for rows in point_rows(net, data)[:50]:
        label, exit_index, cost = infer_with_exit(rows, LN2 + 0.01)
        assert exit_index == 0
        assert cost == 1.0


def test_infer_entropy_gate_threshold():
    # stage whose dist is [0.95, 0.05] everywhere: entropy 0.1985 < tau=0.3 exits
    logit = math.log(0.05 / 0.95)
    net = MultiExitNet((np.array([0.0, 0.0, logit]), np.array([0.0, 0.0, 0.0])))
    point = Dataset(np.array([0.0]), np.array([0.0]), np.array([0]))
    rows = point_rows(net, point)[0]
    assert np.allclose(rows[0], [0.95, 0.05], atol=1e-12)
    label, exit_index, cost = infer_with_exit(rows, 0.3)
    assert exit_index == 0
    assert label == 0
    assert cost == 1.0


def test_multi_exit_net_needs_exactly_two_stages():
    stage = np.zeros(3)
    for stages in ((stage,), (stage, stage, stage)):
        with pytest.raises(ValueError, match="exactly two stages"):
            MultiExitNet(stages)


def test_sweep_endpoints():
    data = gen_dataset(1500, 0.2, 21)
    net = train_stages(data)
    rows = sweep(net, data, [0.0, LN2 + 0.01])
    assert rows[0].speedup == 1.0
    assert rows[0].early_exit_fraction == 0.0
    assert rows[0].accuracy == stage_accuracy(net.stages[1], data)
    assert rows[1].speedup == 5.0
    assert rows[1].early_exit_fraction == 1.0
    assert rows[1].accuracy == stage_accuracy(net.stages[0], data)


def test_sweep_monotonicity():
    data = gen_dataset(2000, 0.25, 31)
    net = train_stages(data)
    rows = sweep(net, data, DEFAULT_TAUS)
    fractions = [r.early_exit_fraction for r in rows]
    costs = [r.mean_cost for r in rows]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert all(r.speedup >= 1.0 for r in rows)


def test_sweep_matches_pointwise_inference():
    data = gen_dataset(400, 0.3, 41)
    net = train_stages(data)
    rows = sweep(net, data, [0.35])
    costs = []
    correct = 0
    for point, true_label in zip(point_rows(net, data), data.labels):
        label, _, cost = infer_with_exit(point, 0.35)
        correct += (label == true_label)
        costs.append(cost)
    assert rows[0].accuracy == pytest.approx(correct / len(data.labels), abs=1e-12)
    assert rows[0].mean_cost == pytest.approx(float(np.mean(costs)), abs=1e-12)


def test_sweep_rejects_bad_grid():
    data = gen_dataset(300, 0.2, 51)
    net = train_stages(data)
    with pytest.raises(ValueError):
        sweep(net, data, [])
    with pytest.raises(ValueError):
        sweep(net, data, [0.5, 0.1])


def test_desk_analog_speedup_band():
    # smaller version of the acceptance criterion's 2x-with-quality check
    data = gen_dataset(1500, 0.2, 777)
    net = train_stages(data)
    rows = sweep(net, data, DEFAULT_TAUS)
    full = stage_accuracy(net.stages[1], data)
    assert any(r.speedup >= 2.0 and r.accuracy >= full - 0.01 for r in rows)

"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every tolerance is pinned here; the runtime budgets are asserted too.
"""

import json
import math
import time

import numpy as np

from dynexec import (
    NoiseSchedule,
    Rng,
    eagle_decode,
    gen_dataset,
    sweep,
    train_and_evaluate,
    train_stages,
    verify,
)
from dynexec.cli import main, validate_config, run
from dynexec.core import save_model
from dynexec.earlyexit import stage_accuracy
from dynexec.eagle import Extrapolator
from dynexec.lookahead import lookahead_decode
from dynexec.router import evaluate
from dynexec.specdec import draft
from dynexec import TableModel

from helpers import (
    constant_feature_model,
    memoryless_model,
    onehot,
    random_feature_model,
    random_table_model,
    route_arrays,
    route_workload,
    skewed_workload,
    varied_entropy_table_model,
)
from oracles import (
    acceptance_rate_memoryless,
    eagle_draft_dist_fn,
    expected_tokens_per_cycle,
    fixture_normals,
    greedy_decode,
    max_preservation_deviation,
    table_draft_dist_fn,
)


def _report(ok: bool, label: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_specdec_distribution_preservation():
    start = time.perf_counter()
    master = Rng(424242)
    worst = 0.0
    for trial in range(50):
        r = master.child(trial)
        vocab = 2 + int(r.uniform() * 3)          # V <= 4
        target = random_table_model(vocab, int(r.uniform() * 3), r.child(1))
        drafter = random_table_model(vocab, int(r.uniform() * 3), r.child(2))
        prompt = tuple(min(int(r.uniform() * vocab), vocab - 1)
                       for _ in range(int(r.uniform() * 3)))
        n = 1 + int(r.uniform() * 3)              # N <= 3
        k = 1 + int(r.uniform() * 2)              # K <= 2
        dev = max_preservation_deviation(target, table_draft_dist_fn(drafter), prompt, n, k)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _report(worst <= 1e-9 and elapsed < 10.0,
            f"criterion 1: specdec preservation over 50 pairs "
            f"(max deviation {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_eagle_preservation_independence():
    start = time.perf_counter()
    model = random_feature_model(3, 4, Rng(515151))
    worst = 0.0
    for i in range(20):
        ex = Extrapolator(fixture_normals(Rng(7000 + i), 4 * 8).reshape(4, 8),
                          fixture_normals(Rng(8000 + i), 4))
        dev = max_preservation_deviation(model, eagle_draft_dist_fn(model, ex), (0,), 2, 1)
        worst = max(worst, dev)
    const_model, bias = constant_feature_model()
    zero_error = Extrapolator(np.zeros((const_model.dim, 2 * const_model.dim)), np.tanh(bias))
    _, stats = eagle_decode(const_model, zero_error, (0,), 40, 3, Rng(616161))
    elapsed = time.perf_counter() - start
    _report(worst <= 1e-9 and stats.acceptance_rate == 1.0 and elapsed < 10.0,
            f"criterion 2: eagle preservation over 20 extrapolators "
            f"(max deviation {worst:.2e}, zero-error acceptance {stats.acceptance_rate}, {elapsed:.1f}s)")


def test_criterion_3_speedup_mechanics():
    start = time.perf_counter()
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    drafter = memoryless_model(q)
    rng = Rng(314159)
    cycles = 100_000
    accepted = scanned = emitted = 0
    for _ in range(cycles):
        d, _ = draft(drafter.dist, drafter.advance, drafter.start(()), 2, rng)
        result = verify([p, p, p], d, rng)
        accepted += result.n_accepted
        scanned += result.n_accepted + (1 if result.resampled else 0)
        emitted += len(result.emitted)
    tokens_per_cycle = emitted / cycles
    accept_rate = accepted / scanned
    elapsed = time.perf_counter() - start
    expected = expected_tokens_per_cycle(acceptance_rate_memoryless(p, q), 2)
    ok = (abs(tokens_per_cycle - expected) <= 0.02
          and abs(accept_rate - 0.6) <= 0.005
          and elapsed < 30.0)
    _report(ok, f"criterion 3: memoryless mechanics over {cycles} cycles "
                f"(tokens/cycle {tokens_per_cycle:.4f} vs {expected}, "
                f"accept rate {accept_rate:.4f} vs 0.6, {elapsed:.1f}s)")


def test_criterion_4_lookahead_greedy_equivalence():
    start = time.perf_counter()
    master = Rng(404404)
    matches = 0
    for i in range(100):
        r = master.child(i)
        vocab = 3 + int(r.uniform() * 4)
        order = 1 + int(r.uniform() * 2)
        model = random_table_model(vocab, order, r.child(0))
        prompt = tuple(min(int(r.uniform() * vocab), vocab - 1) for _ in range(2))
        tokens, _ = lookahead_decode(model, prompt, 12, n=3, L=4)
        matches += (tokens == greedy_decode(model, prompt, 12))
    cyc = TableModel(2, 1, {(0,): onehot(2, 1), (1,): onehot(2, 0)})
    cyc_tokens, cyc_stats = lookahead_decode(cyc, (0,), 8, n=2, L=4)
    cyc_ok = cyc_tokens == greedy_decode(cyc, (0,), 8) and cyc_stats.target_calls <= 5
    elapsed = time.perf_counter() - start
    _report(matches == 100 and cyc_ok and elapsed < 5.0,
            f"criterion 4: lookahead greedy equivalence ({matches}/100 matches, "
            f"cyclic target_calls {cyc_stats.target_calls} <= 5, {elapsed:.1f}s)")


def test_criterion_5_early_exit_sweep():
    start = time.perf_counter()
    data = gen_dataset(5000, 0.2, 2024)
    net = train_stages(data)
    taus = [round(0.05 * i, 2) for i in range(16)]
    rows = sweep(net, data, taus)
    full_accuracy = stage_accuracy(net.stages[-1], data)
    stage0_accuracy = stage_accuracy(net.stages[0], data)
    qualifying = [r for r in rows if r.speedup >= 2.0 and r.accuracy >= full_accuracy - 0.01]
    endpoints = sweep(net, data, [0.0, math.log(2) + 0.01])
    endpoints_ok = (endpoints[0].speedup == 1.0
                    and endpoints[0].accuracy == full_accuracy
                    and endpoints[1].speedup == 5.0
                    and endpoints[1].accuracy == stage0_accuracy)
    elapsed = time.perf_counter() - start
    ok = bool(qualifying) and endpoints_ok and elapsed < 60.0
    best = max(rows, key=lambda r: r.speedup if r.accuracy >= full_accuracy - 0.01 else 0.0)
    _report(ok, f"criterion 5: early-exit sweep (best qualifying speedup {best.speedup:.2f} "
                f"at tau {best.tau} with accuracy {best.accuracy:.4f} vs full {full_accuracy:.4f}, "
                f"endpoints exact {endpoints_ok}, {elapsed:.1f}s)")


def test_criterion_6_stepsaver_throughput_analog():
    start = time.perf_counter()
    schedule = NoiseSchedule()
    specs = skewed_workload()
    count = 4000
    # the CLI's train -> fit -> evaluate flow: train on the first half, evaluate every spec
    reports = train_and_evaluate([spec for _, spec in specs], schedule, 0.1, 10, count, Rng(777777))
    total_steps = sum(r.steps_used for r in reports)
    w1s = [r.w1 for r in reports]
    baselines = [r.baseline_w1 for r in reports]
    ratio = schedule.T * len(specs) / total_steps
    mean_w1 = float(np.mean(w1s))
    mean_base = float(np.mean(baselines))
    elapsed = time.perf_counter() - start
    ok = ratio >= 2.0 and mean_w1 <= 1.15 * mean_base and elapsed < 300.0
    _report(ok, f"criterion 6: stepsaver throughput analog (ratio {ratio:.1f} >= 2.0, "
                f"mean w1 {mean_w1:.4f} <= 1.15 x {mean_base:.4f}, {elapsed:.1f}s)")


def test_criterion_7_router_monotonicity():
    start = time.perf_counter()
    rng = Rng(888888)
    small = varied_entropy_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=8.0)
    workload = route_arrays(route_workload(50, small, large, rng.child(2)))
    thetas = [-1.0] + [0.15 * i for i in range(1, 9)] + [float("inf")]
    reports = [evaluate(t, workload, small, large) for t in thetas]
    fractions = [r.fraction_large for r in reports]
    costs = [r.total_cost for r in reports]
    monotone = (all(b <= a for a, b in zip(fractions, fractions[1:]))
                and all(b <= a for a, b in zip(costs, costs[1:])))
    all_large, all_small = reports[0], reports[-1]
    endpoints = (all_large.fraction_large == 1.0 and all_small.fraction_large == 0.0
                 and reports[0] == evaluate(-1.0, workload, small, large)
                 and reports[-1] == evaluate(float("inf"), workload, small, large))
    elapsed = time.perf_counter() - start
    _report(monotone and endpoints and elapsed < 10.0,
            f"criterion 7: router monotonicity over {len(thetas)}-point grid "
            f"(fractions {[round(f, 2) for f in fractions]}, endpoints bit-equal {endpoints}, "
            f"{elapsed:.1f}s)")


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    rng = Rng(99)
    table_small = random_table_model(3, 1, rng.child(0), cost_units=1.0)
    table_large = random_table_model(3, 2, rng.child(1), cost_units=6.0)
    feature = random_feature_model(3, 4, rng.child(2))
    paths = {}
    for name, model in (("small", table_small), ("large", table_large), ("feature", feature)):
        paths[name] = str(tmp_path / f"{name}.json")
        save_model(model, paths[name])
    route_path = str(tmp_path / "route.json")
    items = route_workload(12, table_small, table_large, rng.child(3))
    with open(route_path, "w") as fh:
        json.dump({"items": [{"prompt": list(i.prompt), "continuation": list(i.reference_continuation)}
                             for i in items]}, fh)
    mix_path = str(tmp_path / "mix.json")
    with open(mix_path, "w") as fh:
        json.dump({"specs": [{"id": sid, "components": [list(c) for c in spec.components]}
                             for sid, spec in skewed_workload()[:6]]}, fh)

    configs = {
        "specdec": {"technique": "specdec", "master_seed": 5,
                    "params": {"target": paths["large"], "draft": paths["small"], "k": 2, "n": 16}},
        "eagle": {"technique": "eagle", "master_seed": 6,
                  "params": {"model": paths["feature"], "fit_seqs": 24, "fit_len": 8, "k": 2, "n": 12}},
        "lookahead": {"technique": "lookahead", "master_seed": 7,
                      "params": {"model": paths["small"], "n": 16, "ngram": 2, "window": 3}},
        "early-exit": {"technique": "early-exit", "master_seed": 8,
                       "params": {"count": 600, "taus": [0.0, 0.2, 0.4, 0.6, 0.75]}},
        "stepsaver": {"technique": "stepsaver", "master_seed": 9,
                      "params": {"workload": mix_path, "epsilon": 0.2, "count": 600}},
        "route": {"technique": "route", "master_seed": 10,
                  "params": {"small": paths["small"], "large": paths["large"],
                             "workload": route_path, "thetas": [-1.0, 0.3, 0.7, 1e18]}},
    }
    all_identical = True
    for technique, doc in configs.items():
        config = validate_config(doc)
        first = json.dumps(run(config).metrics, sort_keys=True)
        second = json.dumps(run(config).metrics, sort_keys=True)
        if first != second:
            all_identical = False
    # also through the CLI surface, report files byte-compared (CSV has no wall clock)
    csv_a = str(tmp_path / "ee_a.csv")
    csv_b = str(tmp_path / "ee_b.csv")
    for out in (csv_a, csv_b):
        assert main(["early-exit", "--count", "600", "--taus", "0,0.3,0.6",
                     "--seed", "12", "--report", out]) == 0
    csv_identical = open(csv_a, "rb").read() == open(csv_b, "rb").read()
    elapsed = time.perf_counter() - start
    _report(all_identical and csv_identical and elapsed < 120.0,
            f"criterion 8: determinism across all six techniques "
            f"(metrics byte-identical {all_identical}, CSV byte-identical {csv_identical}, "
            f"{elapsed:.1f}s)")

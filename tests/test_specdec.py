import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from dynexec import specdec as specdec_module
from dynexec import (
    Rng,
    TableModel,
    normalize,
    residual,
    simulated_speedup,
    speculative_decode,
    verify,
)
from dynexec.specdec import DraftOutput, draft
from dynexec.errors import DynexecError
from dynexec.cli import load_config, run

from helpers import CountingRng, FixedRng, FreshRowsModel, memoryless_model, onehot, random_table_model
from oracles import (
    acceptance_rate_memoryless,
    expected_tokens_per_cycle,
    max_preservation_deviation,
    speculative_reference,
    table_draft_dist_fn,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_draft_degenerate_model():
    model = TableModel(4, 0, {(): onehot(4, 3)})
    out, states = draft(model.dist, model.advance, model.start(()), 2, Rng(0))
    assert out.tokens == (3, 3)
    assert states == [(), ()]


def test_draft_and_decode_reject_k_0():
    model = random_table_model(4, 1, Rng(3))
    with pytest.raises(ValueError, match="K must be >= 1"):
        draft(model.dist, model.advance, model.start((1,)), 0, Rng(0))
    with pytest.raises(ValueError, match="K must be >= 1"):
        speculative_decode(model, model, (1,), 8, 0, Rng(0))


def test_draft_k1_equals_plain_sample():
    model = random_table_model(4, 1, Rng(3))
    out, states = draft(model.dist, model.advance, model.start((1,)), 1, Rng(9))
    assert states == [(1,)]
    from dynexec.core import sample
    expected = sample(model.next_dist((1,)), Rng(9))
    assert out.tokens == (expected,)
    assert np.array_equal(out.dists[0], model.next_dist((1,)))


def test_draft_deterministic():
    model = random_table_model(5, 2, Rng(4))
    a, states = draft(model.dist, model.advance, model.start((0, 1)), 3, Rng(7))
    b, _ = draft(model.dist, model.advance, model.start((0, 1)), 3, Rng(7))
    assert a.tokens == b.tokens
    # the K states drafted from: the context's, then one per drafted token but the last
    assert states == [(0, 1), (1, a.tokens[0]), (a.tokens[0], a.tokens[1])]


def test_residual_hand_checked():
    assert np.allclose(residual([0.9, 0.1], [0.5, 0.5]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(residual([0.2, 0.8], [0.5, 0.5]), [0.0, 1.0], atol=1e-12)


def test_residual_identical_distributions_error():
    with pytest.raises(DynexecError, match="p equals q elementwise"):
        residual([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(DynexecError, match="residual needs two 1-D distributions of equal length"):
        residual([0.5, 0.5], [0.3, 0.3, 0.4])
    # a batch is no distribution
    with pytest.raises(DynexecError, match="residual needs two 1-D distributions of equal length"):
        residual([[0.9, 0.1]], [[0.5, 0.5]])


def test_verify_accept_branch_hand_trace():
    # u=0.15 < p/q = 0.2 accepts; next uniform 0.0 samples bonus token 0
    p = np.array([0.1, 0.9])
    q = np.array([0.5, 0.5])
    bonus_dist = np.array([0.6, 0.4])
    d = DraftOutput((0,), (q,))
    res = verify([p, bonus_dist], d, FixedRng([0.15, 0.0]))
    assert res.n_accepted == 1
    assert not res.resampled
    assert res.emitted == (0, 0)


def test_verify_reject_branch_hand_trace():
    # u=0.25 >= 0.2 rejects; residual([0.1,0.9],[0.5,0.5]) = [0,1] forces token 1
    p = np.array([0.1, 0.9])
    q = np.array([0.5, 0.5])
    d = DraftOutput((0,), (q,))
    res = verify([p, np.array([0.6, 0.4])], d, FixedRng([0.25, 0.99]))
    assert res.n_accepted == 0
    assert res.resampled
    assert res.emitted == (1,)


def test_verify_equal_dists_always_accept():
    q = np.array([0.3, 0.7])
    d = DraftOutput((1, 0), (q, q))
    for seed in range(20):
        res = verify([q, q, q], d, Rng(seed))
        assert res.n_accepted == 2
        assert not res.resampled
        assert len(res.emitted) == 3


def test_verify_length_mismatch():
    q = np.array([0.5, 0.5])
    with pytest.raises(DynexecError, match="expected 3 target distributions, got 1"):
        verify([q], DraftOutput((0, 1), (q, q)), Rng(0))


def test_verify_rejects_a_draft_without_one_distribution_per_token():
    # position 0 accepts (q = p), so a draft whose second token has no
    # distribution would reach it; an empty draft would draw only a bonus
    q = np.array([0.5, 0.5])
    for d in (DraftOutput((0, 1), (q,)), DraftOutput((), ())):
        with pytest.raises(DynexecError, match="draft needs K >= 1 tokens with one distribution each"):
            verify([q] * (len(d.tokens) + 1), d, Rng(0))


def test_verify_zero_draft_probability_is_contract_violation():
    q = np.array([1.0, 0.0])
    d = DraftOutput((1,), (q,))  # token 1 cannot have come from q
    with pytest.raises(DynexecError, match="drafted token 1 has zero draft probability at position 0"):
        verify([q, q], d, Rng(0))


def test_verify_consumes_countable_uniforms():
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    for seed in range(200):
        rng = CountingRng(seed)
        drafter = memoryless_model(q)
        d, _ = draft(drafter.dist, drafter.advance, drafter.start(()), 2, rng)
        before = rng.draws
        res = verify([p, p, p], d, rng)
        scanned = res.n_accepted + (1 if res.resampled else 0)
        assert rng.draws - before == scanned + 1


def test_verify_resampled_token_in_residual_support():
    master = Rng(321)
    for i in range(300):
        r = master.child(i)
        p = np.asarray(memoryless_model([0.7, 0.2, 0.1]).next_dist(()))
        q = np.asarray(memoryless_model([0.2, 0.5, 0.3]).next_dist(()))
        drafter = memoryless_model(q)
        d, _ = draft(drafter.dist, drafter.advance, drafter.start(()), 2, r)
        res = verify([p, p, p], d, r)
        assert len(res.emitted) == res.n_accepted + 1
        if res.resampled:
            assert res.n_accepted < 2
            assert residual(p, q)[res.emitted[-1]] > 0
        else:
            assert res.n_accepted == 2


def test_decode_identical_models_accept_everything():
    model = random_table_model(4, 1, Rng(5))
    tokens, stats = speculative_decode(model, model, (0,), 24, 3, Rng(6))
    assert stats.acceptance_rate == 1.0
    assert len(tokens) == 24
    assert stats.cycles == 6  # 24 tokens / (K+1)
    assert stats.tokens_per_target_call == pytest.approx(4.0)


def test_decode_one_hot_target():
    target = memoryless_model(onehot(2, 0))
    drafter = memoryless_model([0.5, 0.5])
    tokens, _ = speculative_decode(target, drafter, (), 1, 1, Rng(3))
    assert tokens == [0]


def test_decode_counts_and_costs():
    target = random_table_model(3, 1, Rng(1), cost_units=4.0)
    drafter = random_table_model(3, 1, Rng(2), cost_units=1.0)
    tokens, stats = speculative_decode(target, drafter, (0,), 16, 2, Rng(3))
    assert len(tokens) == 16
    assert stats.target_calls == stats.cycles
    assert stats.draft_calls == 2 * stats.cycles
    assert stats.tokens_per_target_call == pytest.approx(16 / stats.cycles)


def test_decode_vocab_mismatch():
    with pytest.raises(DynexecError, match="target and draft models must share a vocabulary"):
        speculative_decode(memoryless_model([0.5, 0.5]),
                           memoryless_model([0.3, 0.3, 0.4]), (), 4, 1, Rng(0))


def test_memoryless_exact_distribution_example():
    # context-free p=[0.6,0.3,0.1] vs q=[0.4,0.4,0.2]: output over 9 sequences is p (x) p
    p = np.array([0.6, 0.3, 0.1])
    target = memoryless_model(p)
    drafter = memoryless_model([0.4, 0.4, 0.2])
    dev = max_preservation_deviation(target, table_draft_dist_fn(drafter), (), 2, 1)
    assert dev <= 1e-9


def test_preservation_randomized_pairs():
    master = Rng(999)
    worst = 0.0
    for trial in range(12):
        r = master.child(trial)
        vocab = 2 + int(r.uniform() * 3)
        target = random_table_model(vocab, int(r.uniform() * 3), r.child(1))
        drafter = random_table_model(vocab, int(r.uniform() * 3), r.child(2))
        prompt = tuple(min(int(r.uniform() * vocab), vocab - 1)
                       for _ in range(int(r.uniform() * 3)))
        n = 1 + int(r.uniform() * 2)
        k = 1 + int(r.uniform() * 2)
        dev = max_preservation_deviation(target, table_draft_dist_fn(drafter), prompt, n, k)
        worst = max(worst, dev)
    assert worst <= 1e-9


def test_decode_monte_carlo_matches_enumeration():
    # ties the sampled implementation to the analytic oracle
    p = np.array([0.6, 0.4])
    q = np.array([0.35, 0.65])
    target = memoryless_model(p)
    drafter = memoryless_model(q)
    from oracles import decode_output_distribution
    truth = decode_output_distribution(target.next_dist, table_draft_dist_fn(drafter), (), 2, 1, 2)
    runs = 20_000
    counts = {}
    master = Rng(2718)
    for i in range(runs):
        tokens, _ = speculative_decode(target, drafter, (), 2, 1, master.child(i))
        key = tuple(tokens)
        counts[key] = counts.get(key, 0) + 1
    for seq, prob in truth.items():
        freq = counts.get(seq, 0) / runs
        assert abs(freq - prob) <= 4.0 * np.sqrt(prob * (1 - prob) / runs) + 1e-12


def test_acceptance_rate_memoryless_values():
    assert acceptance_rate_memoryless([0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0)
    assert acceptance_rate_memoryless([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert acceptance_rate_memoryless([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.6)


def test_expected_tokens_per_cycle_values():
    assert expected_tokens_per_cycle(0.0, 3) == 1.0
    assert expected_tokens_per_cycle(1.0, 2) == 3.0
    assert expected_tokens_per_cycle(0.6, 2) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        expected_tokens_per_cycle(1.5, 2)


def test_memoryless_monte_carlo_statistics():
    # lighter version of the acceptance criterion: 20k cycles, 4-sigma bounds
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    drafter = memoryless_model(q)
    rng = Rng(123)
    cycles = 20_000
    accepted = scanned = emitted = 0
    for _ in range(cycles):
        d, _ = draft(drafter.dist, drafter.advance, drafter.start(()), 2, rng)
        res = verify([p, p, p], d, rng)
        accepted += res.n_accepted
        scanned += res.n_accepted + (1 if res.resampled else 0)
        emitted += len(res.emitted)
    assert abs(accepted / scanned - 0.6) <= 0.012
    assert abs(emitted / cycles - expected_tokens_per_cycle(0.6, 2)) <= 0.03


def test_simulated_speedup_inequality():
    # speedup >= 1 whenever c_d/c_t <= (E[tokens/cycle] - 1) / K
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    k = 2
    expected = expected_tokens_per_cycle(acceptance_rate_memoryless(p, q), k)
    ratio = 0.9 * (expected - 1.0) / k
    target = memoryless_model(p, cost_units=1.0)
    drafter = memoryless_model(q, cost_units=ratio)
    _, stats = speculative_decode(target, drafter, (), 4000, k, Rng(55))
    assert simulated_speedup(stats, 1.0, ratio) >= 1.0


@pytest.mark.parametrize("name", ["eagle", "specdec-feature", "specdec"])
def test_only_table_rows_enter_the_draw_memo(made_memos, name):
    run(load_config(os.path.join(GOLDEN, f"{name}.config.json")), base_dir=GOLDEN)
    # feature-model decodes build no memo; the table one fills both kinds
    assert len(made_memos) == (name == "specdec")
    assert all(m._rows and m._pairs and not m._tops for m in made_memos)
    # the shared default every other decode draws through keeps nothing
    uncached = specdec_module._UNCACHED
    assert not uncached._rows and not uncached._pairs and not uncached._tops


def _peaked_table(vocab, shift, floor=1e-3):
    """Order-1 table whose row after token x puts nearly all its mass on x + shift."""
    table = {}
    for x in range(vocab):
        row = np.full(vocab, floor)
        row[(x + shift) % vocab] += 1.0
        table[(x,)] = row / row.sum()
    return TableModel(vocab, 1, table)


def test_draw_memo_stays_within_its_cap_and_the_decode_budget(made_memos):
    # far drafts: the target follows x -> x + 1 and the draft guesses x + 2
    vocab, N = 256, 4096
    target, draft_model = _peaked_table(vocab, 1), _peaked_table(vocab, 2)
    tracemalloc.start()
    try:
        _, stats = speculative_decode(target, draft_model, (0,), N, 4, Rng(3))
        peak = tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
    assert stats.acceptance_rate < 0.1
    (memo,) = made_memos
    cap = len(target.rows) + len(draft_model.rows)
    assert 0 < len(memo._rows) <= cap and 0 < len(memo._pairs) <= cap
    # cli.MAX_TOKENS' measured bound: about 10 float64s per emitted token, plus
    # under 9 per table entry for the running sums the memo keeps
    assert peak <= 10 * N + 9 * cap * vocab


def test_draws_past_the_memo_cap_build_their_sums_each_time(made_memos):
    rng = Rng(8)
    target, draft_model = (FreshRowsModel(3, 1, {(x,): normalize(rng.uniforms(3)) for x in range(3)})
                           for _ in range(2))
    out, stats = speculative_decode(target, draft_model, (0,), 200, 3, Rng(9))
    ref_out, ref_stats = speculative_reference(target, draft_model, (0,), 200, 3, Rng(9))
    assert out == ref_out and asdict(stats) == ref_stats
    (memo,) = made_memos
    cap = len(target.rows) + len(draft_model.rows)
    assert len(memo._rows) == len(memo._pairs) == cap

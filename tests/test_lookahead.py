import os
from dataclasses import asdict

import pytest

from dynexec import NGramCache, Rng, TableModel, cache_update, lookahead_decode, normalize, propose
from dynexec.cli import load_config, run
from dynexec.specdec import _UNCACHED

from helpers import FreshRowsModel, onehot, random_table_model
from oracles import greedy_decode, lookahead_reference

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_cache_update_hand_enumeration():
    cache = cache_update(NGramCache(2), (1, 2, 1, 2, 1))
    assert cache.map == {(1,): 2, (2,): 1}


def test_cache_update_short_history_noop():
    cache = cache_update(NGramCache(3), (1, 2))
    assert cache.map == {}


def test_cache_update_most_recent_wins():
    cache = cache_update(NGramCache(2), (1, 2, 1, 3))
    assert cache.map == {(1,): 3, (2,): 1}


def test_cache_is_pure_function_of_history():
    history = (0, 1, 2, 0, 1, 0, 2)
    a = cache_update(NGramCache(3), history)
    b = NGramCache(3)
    for i in range(1, len(history) + 1):  # incremental replay reaches the same state
        cache_update(b, history[:i])
    assert a.map == b.map


def test_propose_cold_cache_empty():
    assert propose(NGramCache(2), (1, 2, 3), 4) == []


def test_propose_chain_walk():
    cache = NGramCache(2, {(1,): 2, (2,): 1})
    assert propose(cache, (0, 1), 3) == [2, 1, 2]


def test_propose_single_token_window():
    cache = NGramCache(2, {(1,): 2})
    assert propose(cache, (1,), 1) == [2]


def test_propose_context_shorter_than_window():
    cache = NGramCache(4, {(1, 2, 3): 0})
    assert propose(cache, (2, 3), 4) == []


def test_cyclic_model_fewer_calls_than_tokens():
    cyc = TableModel(2, 1, {(0,): onehot(2, 1), (1,): onehot(2, 0)})
    tokens, stats = lookahead_decode(cyc, (0,), 8, n=2, L=4)
    assert tokens == greedy_decode(cyc, (0,), 8)
    assert stats.target_calls <= 5
    assert stats.target_calls < stats.tokens_generated
    assert stats.verified_hits > 0


def test_non_repeating_sequence_degenerates_to_greedy():
    chain = TableModel(8, 1, {(i,): onehot(8, i + 1) for i in range(7)})
    tokens, stats = lookahead_decode(chain, (0,), 4, n=2, L=4)
    assert tokens == greedy_decode(chain, (0,), 4)
    assert stats.target_calls == 4
    assert stats.verified_hits == 0


def test_greedy_equivalence_random_models():
    master = Rng(404)
    for i in range(40):
        r = master.child(i)
        vocab = 3 + int(r.uniform() * 4)
        order = 1 + int(r.uniform() * 2)
        model = random_table_model(vocab, order, r.child(0))
        prompt = tuple(min(int(r.uniform() * vocab), vocab - 1) for _ in range(2))
        tokens, stats = lookahead_decode(model, prompt, 12, n=3, L=4)
        assert tokens == greedy_decode(model, prompt, 12)
        assert stats.target_calls <= stats.tokens_generated
        assert stats.verified_hits <= stats.proposed


def test_stats_fields_consistent():
    cyc = TableModel(3, 1, {(0,): onehot(3, 1), (1,): onehot(3, 2), (2,): onehot(3, 0)})
    tokens, stats = lookahead_decode(cyc, (0,), 9, n=2, L=3)
    assert stats.tokens_generated == 9 == len(tokens)
    assert stats.verified_hits <= stats.proposed


def test_input_validation():
    cyc = TableModel(2, 1, {(0,): onehot(2, 1), (1,): onehot(2, 0)})
    with pytest.raises(ValueError):
        lookahead_decode(cyc, (0,), 0, n=2, L=4)
    with pytest.raises(ValueError):
        NGramCache(1)
    with pytest.raises(ValueError):
        propose(NGramCache(2), (0,), 0)


@pytest.mark.parametrize("name", ["lookahead", "lookahead-feature"])
def test_only_a_table_target_keeps_its_greedy_tokens(made_memos, name):
    run(load_config(os.path.join(GOLDEN, f"{name}.config.json")), base_dir=GOLDEN)
    # a feature target builds no memo; a table one keeps greedy tokens only
    assert len(made_memos) == (name == "lookahead")
    assert all(m._tops and not m._rows and not m._pairs for m in made_memos)
    # the shared default a feature target reads through keeps nothing
    assert not _UNCACHED._rows and not _UNCACHED._pairs and not _UNCACHED._tops


def test_reads_past_the_memo_cap_take_their_argmax_each_time(made_memos):
    rng = Rng(8)
    model = FreshRowsModel(3, 1, {(x,): normalize(rng.uniforms(3)) for x in range(3)})
    out, stats = lookahead_decode(model, (0,), 200, n=2, L=3)
    ref_out, ref_stats = lookahead_reference(model, (0,), 200, 2, 3)
    assert out == ref_out and tuple(asdict(stats).values()) == ref_stats
    (memo,) = made_memos
    assert len(memo._tops) == len(model.rows)


def test_a_uniform_fallback_row_gives_the_lowest_token(made_memos):
    # an empty table: every window selects the uniform fallback, a tie of all
    # tokens, read once into the memo and then from it
    model = TableModel(3, 1, {})
    out, stats = lookahead_decode(model, (2,), 20, n=2, L=3)
    assert out == [0] * 20
    assert stats.verified_hits > 0
    (memo,) = made_memos
    ((token, row),) = memo._tops.values()
    assert token == 0 and row is model.fallback

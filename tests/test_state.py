"""Incremental model state against the from-scratch path, and the decoders'
exact work counts.

`dist(advance(...advance(start(a), b0)..., bk))` must equal `next_dist(a + b)`
bit for bit, for both model kinds, every table order and contexts shorter than
the order: the decoders rely on it to keep reports byte-identical. The count
tests gate what makes them linear: every emitted token is read once.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynexec import (Extrapolator, FeatureModel, Rng, TableModel, eagle_decode, fit_extrapolator, frontier,
                     sample_corpus, speculative_decode)
from dynexec import eagle as eagle_module
from dynexec import lookahead as lookahead_module
from dynexec import router as router_module
from dynexec import specdec as specdec_module
from dynexec.core import normalize
from dynexec.lookahead import lookahead_decode

from helpers import random_feature_model, route_arrays, route_workload, varied_entropy_table_model


def _fold(model, ctx, tokens):
    state = model.start(ctx)
    for token in tokens:
        state = model.advance(state, token)
    return model.dist(state)


def _sparse_table_model(vocab, order, seed):
    """Random rows for about two thirds of the windows; the rest fall back."""
    rng = Rng(seed)
    table = {}
    for window in itertools.product(range(vocab), repeat=order):
        if rng.uniform() < 0.67 or not order:
            table[window] = normalize(rng.uniforms(vocab) + 0.01)
    return TableModel(vocab, order, table, fallback=normalize(rng.uniforms(vocab) + 0.01))


@st.composite
def table_case(draw):
    vocab = draw(st.integers(2, 4))
    order = draw(st.integers(0, 4))
    tokens = st.lists(st.integers(0, vocab - 1), max_size=order + 3)
    return _sparse_table_model(vocab, order, draw(st.integers(0, 2**32))), draw(tokens), draw(tokens)


@st.composite
def feature_case(draw):
    vocab = draw(st.integers(2, 5))
    model = random_feature_model(vocab, draw(st.integers(4, 6)), Rng(draw(st.integers(0, 2**32))),
                                 scale=draw(st.sampled_from([0.3, 1.0, 3.0])))
    tokens = st.integers(0, vocab - 1)
    return model, draw(st.lists(tokens, min_size=1, max_size=8)), draw(st.lists(tokens, max_size=8))


@settings(max_examples=200, deadline=None)
@given(table_case())
def test_table_state_matches_next_dist_bitwise(case):
    model, a, b = case
    expected = model.next_dist(tuple(a + b))
    actual = _fold(model, tuple(a), b)
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(feature_case())
def test_feature_state_matches_next_dist_bitwise(case):
    model, a, b = case
    expected = model.next_dist(tuple(a + b))
    actual = _fold(model, tuple(a), b)
    assert actual.tobytes() == expected.tobytes()


def test_branch_is_the_states_of_every_prefix():
    model = _sparse_table_model(3, 2, 5)
    states = model.branch(model.start((0,)), (1, 2, 0))
    assert states == [(0,), (0, 1), (1, 2), (2, 0)]


def test_eagle_steps_once_per_prompt_token_and_verified_position(monkeypatch):
    model = random_feature_model(5, 6, Rng(71), scale=1.5)
    ex = fit_extrapolator(model, sample_corpus(model, 40, 10, Rng(72)))
    calls = 0
    advance = FeatureModel.advance

    def counting_advance(self, state, token):
        nonlocal calls
        calls += 1
        return advance(self, state, token)

    monkeypatch.setattr(FeatureModel, "advance", counting_advance)
    prompt, K = (1, 4, 2), 3
    _, stats = eagle_decode(model, ex, prompt, 120, K, Rng(73))
    # K branch steps and one step for the last emitted token per cycle
    assert calls == (K + 1) * stats.cycles + len(prompt)


def test_eagle_extrapolates_only_between_drafted_tokens(monkeypatch):
    model = random_feature_model(5, 6, Rng(71), scale=1.5)
    ex = fit_extrapolator(model, sample_corpus(model, 40, 10, Rng(72)))
    calls = 0
    predict = Extrapolator.predict

    def counting_predict(self, feature, embedding):
        nonlocal calls
        calls += 1
        return predict(self, feature, embedding)

    monkeypatch.setattr(Extrapolator, "predict", counting_predict)
    K = 3
    _, stats = eagle_decode(model, ex, (1, 4, 2), 120, K, Rng(73))
    assert calls == (K - 1) * stats.cycles


def test_specdec_draft_steps_k_or_k_plus_one_per_cycle(monkeypatch):
    target, draft = _sparse_table_model(4, 2, 11), _sparse_table_model(4, 1, 12)
    calls = full_accepts = 0
    advance, verify = draft.advance, specdec_module.verify

    def counting_advance(state, token):
        nonlocal calls
        calls += 1
        return advance(state, token)

    def recording_verify(dists, d, rng, sums):
        nonlocal full_accepts
        result = verify(dists, d, rng, sums)
        full_accepts += result.n_accepted == len(d.tokens)
        return result

    draft.advance = counting_advance
    monkeypatch.setattr(specdec_module, "verify", recording_verify)
    K = 4
    _, stats = speculative_decode(target, draft, (0, 1), 200, K, Rng(13))
    # K - 1 steps between the drafts, then one per emitted token after the last
    # drafted-from state inside the accepted prefix: two after a full accept
    assert calls == K * stats.cycles + full_accepts
    assert 0 < full_accepts < stats.cycles


def _count_calls(monkeypatch, module, name):
    """The calls made to `module.name` through the module attribute, where the
    benchmark's tracer wraps it, recorded as they happen."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_specdec_drafts_through_draft_once_per_cycle(monkeypatch):
    calls = _count_calls(monkeypatch, specdec_module, "draft")
    target, draft = _sparse_table_model(4, 2, 11), _sparse_table_model(4, 1, 12)
    _, stats = speculative_decode(target, draft, (0, 1), 200, 4, Rng(13))
    assert len(calls) == stats.cycles > 1


def test_eagle_drafts_through_eagle_draft_once_per_cycle(monkeypatch):
    calls = _count_calls(monkeypatch, eagle_module, "eagle_draft")
    model = random_feature_model(5, 6, Rng(71), scale=1.5)
    ex = fit_extrapolator(model, sample_corpus(model, 40, 10, Rng(72)))
    _, stats = eagle_decode(model, ex, (1, 4, 2), 120, 3, Rng(73))
    assert len(calls) == stats.cycles > 1


def test_frontier_scores_every_prompt_in_one_difficulty_call(monkeypatch):
    calls = _count_calls(monkeypatch, router_module, "difficulty")
    rng = Rng(88)
    small = varied_entropy_table_model(4, 1, rng.child(0))
    large = varied_entropy_table_model(4, 2, rng.child(1), cost_units=4.0)
    frontier([-1.0, 0.5, 2.0], route_arrays(route_workload(30, small, large, rng.child(2))), small, large)
    assert len(calls) == 1


def test_lookahead_inserts_each_window_once(monkeypatch):
    model = _sparse_table_model(4, 2, 9)
    tails = []
    update = lookahead_module.cache_update

    def recording_update(cache, history):
        tails.append(tuple(history))
        return update(cache, history)

    monkeypatch.setattr(lookahead_module, "cache_update", recording_update)
    prompt, n, L, N = (0, 1, 2), 3, 4, 500
    out, _ = lookahead_decode(model, prompt, N, n=n, L=L)
    w = n - 1
    windows = sum(max(0, len(t) - w) for t in tails)
    # the tails overlap by w tokens and spell out the decoded text
    covered = list(tails[0]) + [tok for t in tails[1:] for tok in t[w:]]
    text = list(prompt) + out
    assert covered == text[:len(covered)]
    # the cache saw every emitted token but those of the final round, at most L + 1
    assert len(text) - (L + 1) <= len(covered) < len(text)
    assert windows == len(covered) - w


@pytest.mark.parametrize("kind", ["table", "feature"])
def test_lookahead_reads_positions_only_up_to_the_first_mismatch(kind):
    # both decodes reject proposed tokens in some rounds and accept them in others
    if kind == "table":
        model, prompt = _sparse_table_model(6, 3, 9), (0, 1, 2)
    else:
        model, prompt = random_feature_model(5, 6, Rng(71), scale=1.5), (1, 4, 2)
    reads = steps = 0
    dist, advance = model.dist, model.advance

    def counting_dist(state):
        nonlocal reads
        reads += 1
        return dist(state)

    def counting_advance(state, token):
        nonlocal steps
        steps += 1
        return advance(state, token)

    model.dist, model.advance = counting_dist, counting_advance
    _, stats = lookahead_decode(model, prompt, 300, n=2, L=4)
    assert 0 < stats.verified_hits < stats.proposed
    # each round reads its accepted positions and the one after them, and
    # steps by each accepted token and the token it emits after them
    assert reads == stats.verified_hits + stats.target_calls
    # a feature model's `start` also steps over the prompt
    assert steps == stats.verified_hits + stats.target_calls + (kind == "feature") * len(prompt)

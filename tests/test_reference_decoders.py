"""The one draft -> verify loop against from-scratch decoders, bit for bit.

`tests/oracles.py` re-derives lookahead, speculative decoding and
feature-level drafting with no incremental state, no shared loop and no
cache kept between rounds. Tokens and every stats field must be equal for
random table and feature models, table rows with exact zeros, which every
draw skips, among them, including rounds in which lookahead has
nothing to propose and argmax ties in the uniform fallback row, which a
prompt shorter than the order selects. Lookahead on a feature target reads
its positions one 1-D `dist` at a time, the reference through `next_dist`.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from dynexec import Rng, eagle_decode, lookahead_decode, speculative_decode
from dynexec.core import MIN_FEATURE_DIM
from dynexec.eagle import Extrapolator

from helpers import random_feature_model, varied_entropy_table_model
from oracles import eagle_reference, fixture_normals, lookahead_reference, speculative_reference


@st.composite
def models(draw, count):
    """Table models on one vocabulary, their rows holding exact zeros or not,
    and a prompt."""
    vocab = draw(st.integers(2, 8))
    built = [varied_entropy_table_model(vocab, draw(st.integers(0, 3)), Rng(draw(st.integers(0, 2**32))),
                                        zero_share=draw(st.sampled_from([0.0, 0.5])))
             for _ in range(count)]
    return built, draw(st.lists(st.integers(0, vocab - 1), max_size=6))


@st.composite
def feature_models(draw, count):
    """Feature models on one vocabulary and a non-empty prompt, which they need."""
    vocab = draw(st.integers(2, 8))
    scale = draw(st.sampled_from([0.3, 0.8, 3.0]))
    built = [random_feature_model(vocab, draw(st.integers(MIN_FEATURE_DIM, 6)), Rng(draw(st.integers(0, 2**32))), scale=scale)
             for _ in range(count)]
    return built, draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(st.one_of(models(1), feature_models(1)), st.integers(2, 4), st.integers(1, 5), st.integers(1, 60))
def test_lookahead_matches_from_scratch_reference(case, n, L, N):
    (model,), prompt = case
    out, stats = lookahead_decode(model, prompt, N, n=n, L=L)
    ref_out, ref_stats = lookahead_reference(model, prompt, N, n, L)
    assert out == ref_out
    assert tuple(asdict(stats).values()) == ref_stats


@settings(max_examples=150, deadline=None)
@given(models(2), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**32))
def test_speculative_decode_matches_from_scratch_reference(case, K, N, seed):
    (target, draft_model), prompt = case
    out, stats = speculative_decode(target, draft_model, prompt, N, K, Rng(seed))
    ref_out, ref_stats = speculative_reference(target, draft_model, prompt, N, K, Rng(seed))
    assert out == ref_out
    assert asdict(stats) == ref_stats


@settings(max_examples=100, deadline=None)
@given(feature_models(2), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**32))
def test_speculative_decode_on_feature_models_matches_from_scratch_reference(case, K, N, seed):
    (target, draft_model), prompt = case
    out, stats = speculative_decode(target, draft_model, prompt, N, K, Rng(seed))
    ref_out, ref_stats = speculative_reference(target, draft_model, prompt, N, K, Rng(seed))
    assert out == ref_out
    assert asdict(stats) == ref_stats


@settings(max_examples=150, deadline=None)
@given(feature_models(1), st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**32),
       st.sampled_from([0.0, 0.3, 1.0]))
def test_eagle_decode_matches_from_scratch_reference(case, K, N, seed, ex_scale):
    (model,), prompt = case
    rng = Rng(seed).child(1)
    d = model.dim
    ex = Extrapolator(fixture_normals(rng, d * 2 * d).reshape(d, 2 * d) * ex_scale, fixture_normals(rng, d) * ex_scale)
    out, stats = eagle_decode(model, ex, prompt, N, K, Rng(seed))
    ref_out, ref_stats = eagle_reference(model, ex, prompt, N, K, Rng(seed))
    assert out == ref_out
    assert asdict(stats) == ref_stats

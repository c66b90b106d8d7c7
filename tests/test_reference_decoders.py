"""The one draft -> verify loop against from-scratch decoders, bit for bit.

`tests/oracles.py` re-derives lookahead and speculative decoding with no
incremental state, no shared loop and no cache kept between rounds. Tokens
and every stats field must be equal for random table models, including
rounds in which lookahead has nothing to propose and argmax ties in the
uniform fallback row, which a prompt shorter than the order selects.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from dynexec import Rng, lookahead_decode, speculative_decode

from helpers import varied_entropy_table_model
from oracles import lookahead_reference, speculative_reference


@st.composite
def models(draw, count):
    vocab = draw(st.integers(2, 8))
    built = [varied_entropy_table_model(vocab, draw(st.integers(0, 3)), Rng(draw(st.integers(0, 2**32))))
             for _ in range(count)]
    return built, draw(st.lists(st.integers(0, vocab - 1), max_size=6))


@settings(max_examples=150, deadline=None)
@given(models(1), st.integers(2, 4), st.integers(1, 5), st.integers(1, 60))
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

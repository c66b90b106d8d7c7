"""Lockstep self-distillation against the one-sequence-at-a-time path.

The corpus sampler runs blocks of sequences together, one batched step per
position, and the extrapolator fit reads the sampler's tokens and features.
They must reproduce the scalar references in `oracles.py` bit for bit: the
same tokens from the same uniforms, the same features as `feature_forward`,
and the same fitted weight and bias, so eagle reports stay byte-identical.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynexec import Rng, eagle, fit_extrapolator, sample, sample_corpus
from dynexec.core import feature_forward, inverse_cdf
from dynexec.errors import DynexecError

from helpers import FixedRng, random_feature_model
from oracles import fit_extrapolator_reference, sample_corpus_reference


@st.composite
def feature_models(draw):
    vocab = draw(st.integers(2, 256))
    dim = draw(st.integers(4, 32))
    return random_feature_model(vocab, dim, Rng(draw(st.integers(0, 2**32))),
                                scale=draw(st.sampled_from([0.3, 0.8, 3.0])))


@st.composite
def distribution_rows(draw):
    """Rows with zero entries, some scaled to sum to 1 - 1e-9, and uniforms that
    include the exact cumulative sums and the top of [0, 1)."""
    vocab = draw(st.integers(2, 256))
    rows = draw(st.integers(1, 8))
    rng = Rng(draw(st.integers(0, 2**32)))
    d = rng.uniforms(rows * vocab).reshape(rows, vocab)
    d[rng.uniforms(d.size).reshape(d.shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0.0
    d[np.arange(rows), (rng.uniforms(rows) * vocab).astype(int)] += 0.1
    d /= d.sum(axis=1, keepdims=True)
    d[rng.uniforms(rows) < 0.5] *= 1.0 - 1e-9
    u = rng.uniforms(rows)
    u[rng.uniforms(rows) < 0.3] = 1.0 - 2.0**-53
    cdf = np.cumsum(d, axis=1)
    exact = rng.uniforms(rows) < 0.3
    u[exact] = cdf[exact, (rng.uniforms(rows) * vocab).astype(int)[exact]]
    return d, np.minimum(u, 1.0 - 2.0**-53)


@settings(max_examples=200, deadline=None)
@given(distribution_rows())
def test_inverse_cdf_matches_scalar_sample_row_by_row(case):
    d, u = case
    expected = [sample(row, FixedRng([x])) for row, x in zip(d, u)]
    assert inverse_cdf(d, u).tolist() == expected
    assert [inverse_cdf(row, [x])[0] for row, x in zip(d, u)] == expected


@settings(max_examples=50, deadline=None)
@given(distribution_rows(), st.integers(0, 2**32))
def test_sample_many_rows_consume_the_stream_like_sample(case, seed):
    d, _ = case
    ra, rb = Rng(seed), Rng(seed)
    assert inverse_cdf(d, rb.uniforms(len(d))).tolist() == [sample(row, ra) for row in d]
    assert ra.uniform() == rb.uniform()


@settings(max_examples=100, deadline=None)
@given(feature_models(), st.integers(1, 40), st.integers(0, 2**32))
def test_batched_advance_and_dist_rows_equal_single_calls(model, n, seed):
    rng = Rng(seed)
    features = rng.uniforms(n * model.dim).reshape(n, model.dim) * 2.0 - 1.0
    tokens = (rng.uniforms(n) * model.vocab_size).astype(np.intp)
    stepped = model.advance(features, tokens)
    dists = model.dist(features)
    for i in range(n):
        assert np.array_equal(stepped[i], model.advance(features[i], int(tokens[i])))
        assert np.array_equal(dists[i], model.dist(features[i]))


@settings(max_examples=60, deadline=None)
@given(feature_models(), st.integers(1, 24), st.integers(2, 12), st.integers(0, 2**32),
       st.sampled_from([1e-6, 1e-3, 1.0]), st.sampled_from([1, 600, eagle._HEAD_ELEMENTS]))
def test_lockstep_corpus_and_fit_equal_scalar_reference(model, n, length, seed, ridge, head_elements):
    # head_elements 1 samples one sequence at a time, 600 a few, the default all 24 together
    batched_rng, scalar_rng = Rng(seed), Rng(seed)
    with mock.patch.object(eagle, "_HEAD_ELEMENTS", head_elements):
        tokens, feats = sample_corpus(model, n, length, batched_rng)
    corpus = sample_corpus_reference(model, n, length, scalar_rng)
    assert [tuple(row) for row in tokens.tolist()] == corpus
    assert batched_rng.uniform() == scalar_rng.uniform()
    assert feats.shape == (n, length, model.dim)
    for seq, f in zip(corpus, feats):
        assert np.array_equal(f, feature_forward(model, seq)[0])
    if n * (length - 1) < 2 * model.dim + 1:
        with pytest.raises(DynexecError, match=f"need at least {2 * model.dim + 1} transitions, got {n * (length - 1)}"):
            fit_extrapolator(model, (tokens, feats), ridge)
        return
    fitted = fit_extrapolator(model, (tokens, feats), ridge)
    reference = fit_extrapolator_reference(model, corpus, ridge)
    assert np.array_equal(fitted.weight, reference.weight)
    assert np.array_equal(fitted.bias, reference.bias)


def test_corpus_and_fit_memory_does_not_grow_with_the_head():
    # at vocabulary 256 and two tokens a sequence, a head over every sequence
    # at once would peak at about 1 000 float64s a sequence; in blocks, the
    # corpus and the design matrix set the peak, 8 * dim * fit_len a sequence
    model = random_feature_model(256, 4, Rng(3))
    n = 4096
    tracemalloc.start()
    try:
        fit_extrapolator(model, sample_corpus(model, n, 2, Rng(5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (8 * model.dim * 2) * n

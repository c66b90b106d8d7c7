import numpy as np
import pytest

from dynexec import Rng, eagle_decode, eagle_draft, fit_extrapolator, sample_corpus
from dynexec.core import feature_forward
from dynexec.eagle import Extrapolator
from dynexec.errors import DynexecError

from helpers import affine_dynamics_model, constant_feature_model, random_feature_model
from oracles import collect_trajectories, eagle_draft_dist_fn, fixture_normals, max_preservation_deviation


def _fit_residual(model, extrapolator, corpus):
    worst = 0.0
    for features, tokens in collect_trajectories(model, corpus[0]):
        for t in range(len(tokens) - 1):
            pred = extrapolator.predict(features[t], model.embed[tokens[t + 1]])
            worst = max(worst, float(np.abs(pred - features[t + 1]).max()))
    return worst


def test_fit_constant_model_zero_residual():
    model, bias = constant_feature_model()
    corpus = sample_corpus(model, 20, 8, Rng(4))
    ex = fit_extrapolator(model, corpus)
    constant = np.tanh(bias)
    assert np.allclose(ex.predict(constant, model.embed[1]), constant, atol=1e-9)
    assert _fit_residual(model, ex, corpus) <= 1e-9


def test_fit_affine_dynamics_residual_tiny():
    model = affine_dynamics_model()
    corpus = sample_corpus(model, 40, 10, Rng(6))
    ex = fit_extrapolator(model, corpus)
    assert _fit_residual(model, ex, corpus) <= 1e-8


def test_fit_affine_dynamics_residual_is_the_ridges_bias():
    # the 1e-8 bound above holds by about 2x: what it reads is the default ridge's bias,
    # which a thousandfold smaller ridge shrinks at least a hundredfold
    model = affine_dynamics_model()
    corpus = sample_corpus(model, 40, 10, Rng(6))
    default = _fit_residual(model, fit_extrapolator(model, corpus), corpus)
    assert _fit_residual(model, fit_extrapolator(model, corpus, ridge=1e-9), corpus) <= 1e-2 * default


def test_fit_large_ridge_approaches_sample_mean():
    model = random_feature_model(3, 4, Rng(40))
    corpus = sample_corpus(model, 30, 8, Rng(41))
    ex = fit_extrapolator(model, corpus, ridge=1e6)
    trajs = collect_trajectories(model, corpus[0])
    targets = np.vstack([features[1:] for features, _ in trajs])
    mean = targets.mean(axis=0)
    assert np.abs(ex.weight).max() < 1e-3
    features, tokens = trajs[0]
    pred = ex.predict(features[0], model.embed[tokens[1]])
    assert np.allclose(pred, mean, atol=1e-3)


def test_fit_insufficient_data():
    model = random_feature_model(3, 4, Rng(42))
    with pytest.raises(DynexecError, match="need at least 9 transitions, got 1"):
        fit_extrapolator(model, sample_corpus(model, 1, 2, Rng(43)))  # one transition << 2d+1


def test_fit_singular_without_ridge():
    model, _ = constant_feature_model()  # constant features make the design rank-deficient
    corpus = sample_corpus(model, 20, 8, Rng(4))
    with pytest.raises(DynexecError, match="design matrix is rank-deficient"):
        fit_extrapolator(model, corpus, ridge=0.0)


def test_fit_with_ridge_never_singular():
    master = Rng(500)
    for i in range(10):
        model = random_feature_model(3, 4, master.child(i))
        corpus = sample_corpus(model, 12, 6, master.child(100 + i))
        fit_extrapolator(model, corpus, ridge=1e-6)


def test_eagle_draft_base_case_and_determinism():
    model = random_feature_model(4, 5, Rng(50))
    ex = Extrapolator(fixture_normals(Rng(51), 5 * 10).reshape(5, 10), fixture_normals(Rng(52), 5))
    out1 = eagle_draft(model, ex, model.start((0, 2)), 1, Rng(7))
    out2 = eagle_draft(model, ex, model.start((0, 2)), 1, Rng(7))
    assert out1.tokens == out2.tokens
    # K=1 is one head application on the true last feature
    _, true_dist = feature_forward(model, (0, 2))
    assert np.array_equal(out1.dists[0], true_dist)


def test_eagle_draft_empty_context():
    # a draft starts from the target's feature after the context, which an empty context does not have
    model = random_feature_model(3, 4, Rng(53))
    with pytest.raises(DynexecError, match="a feature model needs at least one context token"):
        model.start(())


def test_eagle_draft_and_decode_reject_k_0():
    model = random_feature_model(3, 4, Rng(53))
    ex = Extrapolator(np.zeros((4, 8)), np.zeros(4))
    with pytest.raises(ValueError, match="K must be >= 1"):
        eagle_draft(model, ex, model.start((1,)), 0, Rng(0))
    with pytest.raises(ValueError, match="K must be >= 1"):
        eagle_decode(model, ex, (1,), 4, 0, Rng(0))


def test_zero_error_extrapolator_matches_target_dists():
    model = affine_dynamics_model()
    corpus = sample_corpus(model, 40, 10, Rng(6))
    ex = fit_extrapolator(model, corpus)
    ctx = (0, 1)
    out = eagle_draft(model, ex, model.start(ctx), 3, Rng(9))
    rolled = ctx
    for tok, dist in zip(out.tokens, out.dists):
        _, true_dist = feature_forward(model, rolled)
        assert np.allclose(dist, true_dist, atol=1e-8)
        rolled = rolled + (tok,)


def test_zero_error_extrapolator_acceptance_is_exactly_one():
    model, bias = constant_feature_model()
    ex = Extrapolator(np.zeros((model.dim, 2 * model.dim)), np.tanh(bias))
    _, stats = eagle_decode(model, ex, (0,), 40, 3, Rng(77))
    assert stats.acceptance_rate == 1.0


def test_eagle_preservation_random_extrapolator():
    model = random_feature_model(3, 4, Rng(60))
    worst = 0.0
    for i in range(5):
        ex = Extrapolator(fixture_normals(Rng(100 + i), 4 * 8).reshape(4, 8), fixture_normals(Rng(200 + i), 4))
        dev = max_preservation_deviation(model, eagle_draft_dist_fn(model, ex), (0,), 2, 1)
        worst = max(worst, dev)
    assert worst <= 1e-9


def test_fitted_beats_random_extrapolator():
    model = affine_dynamics_model()
    corpus = sample_corpus(model, 40, 10, Rng(6))
    fitted = fit_extrapolator(model, corpus)
    wins = 0
    for seed in range(20):
        random_ex = Extrapolator(fixture_normals(Rng(300 + seed), 4 * 8).reshape(4, 8) * 0.8,
                                 fixture_normals(Rng(400 + seed), 4) * 0.8)
        _, stats_fit = eagle_decode(model, fitted, (0,), 48, 3, Rng(1000 + seed))
        _, stats_rand = eagle_decode(model, random_ex, (0,), 48, 3, Rng(1000 + seed))
        if stats_fit.acceptance_rate > stats_rand.acceptance_rate:
            wins += 1
    assert wins == 20


def test_eagle_decode_requires_prompt():
    model = random_feature_model(3, 4, Rng(64))
    ex = Extrapolator(np.zeros((4, 8)), np.zeros(4))
    with pytest.raises(DynexecError, match="a feature model needs at least one context token"):
        eagle_decode(model, ex, (), 4, 1, Rng(0))


def test_eagle_decode_stats_and_costs():
    model = random_feature_model(4, 5, Rng(61), cost_units=3.0)
    corpus = sample_corpus(model, 30, 8, Rng(62))
    ex = fit_extrapolator(model, corpus)
    tokens, stats = eagle_decode(model, ex, (1,), 20, 2, Rng(63))
    assert len(tokens) == 20
    assert stats.target_calls == stats.cycles
    assert stats.draft_calls == 2 * stats.cycles
    assert 0.0 <= stats.acceptance_rate <= 1.0


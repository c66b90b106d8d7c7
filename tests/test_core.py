import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from dynexec import Rng, TableModel, FeatureModel, entropy, normalize, sample, softmax
from dynexec.core import (
    check_context,
    check_dist,
    feature_forward,
    inverse_cdf,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from dynexec.errors import DynexecError

from helpers import onehot, random_dist, random_feature_model, random_table_model
from oracles import fixture_normals, uniform_reference


def test_normalize_symmetry():
    assert np.array_equal(normalize([2, 2]), [0.5, 0.5])


def test_normalize_one_hot_unchanged():
    assert np.array_equal(normalize([0, 0, 1]), [0, 0, 1])


def test_normalize_forced_ratio():
    assert np.allclose(normalize([1, 3]), [0.25, 0.75], atol=1e-12)


def test_normalize_errors():
    with pytest.raises(DynexecError, match="cannot normalize an all-zero weight vector"):
        normalize([0.0, 0.0])
    with pytest.raises(DynexecError, match="weights must be non-negative"):
        normalize([0.5, -0.1])
    with pytest.raises(ValueError):
        normalize([1.0])


def test_entropy_uniform_is_ln_v():
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_one_hot_is_zero():
    assert entropy([1.0, 0.0]) == 0.0


def test_entropy_frozen_value():
    # -(0.95 ln 0.95 + 0.05 ln 0.05), summed at full float64 precision
    assert entropy([0.95, 0.05]) == pytest.approx(0.1985152433458726, abs=1e-6)


def test_entropy_bounds_random():
    rng = Rng(17)
    for _ in range(200):
        v = 2 + int(rng.uniform() * 6)
        h = entropy(random_dist(v, rng))
        assert 0.0 <= h <= math.log(v) + 1e-12


def test_sample_degenerate_dist():
    for seed in (0, 1, 12345):
        assert sample(np.array([1.0, 0.0]), Rng(seed)) == 0


def test_sample_deterministic():
    d = np.array([0.3, 0.7])
    assert sample(d, Rng(42)) == sample(d, Rng(42))


def test_sample_never_emits_zero_probability_token():
    d = np.array([0.5, 0.0, 0.5])
    rng = Rng(9)
    draws = inverse_cdf(d, rng.uniforms(5000))
    assert not np.any(draws == 1)


def test_sample_empirical_frequency():
    # spec's Monte Carlo oracle: 100k draws, frequency of token 1 in [0.695, 0.705]
    draws = inverse_cdf(np.array([0.3, 0.7]), Rng(11).uniforms(100_000))
    freq = float(np.mean(draws == 1))
    assert 0.695 <= freq <= 0.705


def test_sample_many_matches_scalar_sample():
    for d in (np.array([0.2, 0.15, 0.4, 0.25]), np.array([0.5, 0.0, 0.3, 0.2])):
        ra, rb = Rng(5), Rng(5)
        seq = [sample(d, ra) for _ in range(500)]
        vec = inverse_cdf(d, rb.uniforms(500))
        assert seq == vec.tolist()


def test_sample_frequencies_within_binomial_bound():
    rng = Rng(23)
    n = 100_000
    for _ in range(5):
        v = 2 + int(rng.uniform() * 3)
        d = random_dist(v, rng)
        draws = inverse_cdf(d, rng.uniforms(n))
        for tok in range(v):
            p = d[tok]
            bound = 4.0 * math.sqrt(p * (1 - p) / n)
            assert abs(np.mean(draws == tok) - p) <= max(bound, 1e-12)


def test_rng_scalar_vector_identical():
    # scalar and vectorized draws share one kernel, so both are checked
    # against the one-draw-at-a-time formula
    expected = [uniform_reference(42, k) for k in range(1, 65)]
    rng = Rng(42)
    assert [rng.uniform() for _ in range(64)] == expected
    assert Rng(42).uniforms(64).tolist() == expected


def test_rng_mixed_scalar_vector_stream():
    r1, r2 = Rng(7), Rng(7)
    mixed = [r1.uniform(), *r1.uniforms(3).tolist(), r1.uniform(), *r1.uniforms(2).tolist()]
    plain = [r2.uniform() for _ in range(7)]
    assert mixed == plain


def test_rng_uniform_range():
    u = Rng(3).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_rng_children_distinct_and_stable():
    master = Rng(99)
    streams = [master.child(i).uniforms(4).tolist() for i in range(20)]
    assert len({tuple(s) for s in streams}) == 20
    assert Rng(99).child(7).uniforms(4).tolist() == streams[7]


def test_rng_child_does_not_disturb_parent():
    r1, r2 = Rng(5), Rng(5)
    r1.child(0)
    r1.child(123)
    assert r1.uniform() == r2.uniform()


def test_rng_normal_moments():
    z = Rng(31).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_rng_normal_pairs_are_cosine_and_sine():
    # 2**20 pairs: normal 2i is r cos(theta) and normal 2i+1 is r sin(theta), with the sine taken
    # from the cosine: of np.sin's sign and within 1e-9 of it; both halves are standard normal
    # and r^2 = z_2i^2 + z_2i+1^2 is exponential with mean 2
    pairs = 2**20
    z = Rng(2024).normals(2 * pairs)
    u = Rng(2024).uniforms(2 * pairs)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    assert np.array_equal(z[0::2], r * np.cos(theta))
    sin = np.sin(theta)
    assert np.array_equal(np.signbit(z[1::2]), np.signbit(sin))
    assert np.abs(z[1::2] / r - sin).max() <= 1e-9
    for half in (z[0::2], z[1::2]):
        assert stats.kstest(half, "norm").pvalue > 1e-3
    assert stats.kstest(z[0::2] ** 2 + z[1::2] ** 2, "expon", args=(0.0, 2.0)).pvalue > 1e-3


def test_table_model_unseen_window_falls_back():
    model = TableModel(4, 1, {(0,): onehot(4, 3)})
    assert np.array_equal(model.next_dist((2,)), [0.25, 0.25, 0.25, 0.25])


def test_next_dist_deterministic():
    model = random_table_model(4, 2, Rng(8))
    a = model.next_dist((1, 2))
    b = model.next_dist((1, 2))
    assert np.array_equal(a, b)


def test_check_context_vocab_mismatch():
    with pytest.raises(DynexecError, match="token 5 outside vocabulary of size 3"):
        check_context((0, 5), 3)
    with pytest.raises(DynexecError, match="token -1 outside vocabulary of size 3"):
        check_context((-1,), 3)


def test_table_model_short_context_uses_fallback():
    model = TableModel(3, 2, {(0, 1): onehot(3, 2)}, fallback=[0.2, 0.3, 0.5])
    assert np.array_equal(model.next_dist((0,)), [0.2, 0.3, 0.5])
    assert np.array_equal(model.next_dist((0, 1)), onehot(3, 2))


def test_table_model_validates_rows():
    with pytest.raises(DynexecError, match=r"table row \(0,\) sums to .*, not 1"):
        TableModel(2, 1, {(0,): [0.5, 0.6]})
    with pytest.raises(ValueError):
        TableModel(2, 5, {})
    with pytest.raises(ValueError):
        TableModel(1, 0, {(): [1.0]})


def test_feature_forward_zero_weights_uniform():
    v, d = 3, 4
    model = FeatureModel(v, np.zeros((v, d)), np.zeros((d, 2 * d)), np.zeros(d),
                         np.zeros((v, d)), np.zeros(v))
    _, dist = feature_forward(model, (0, 1, 2))
    assert np.allclose(dist, 1.0 / v, atol=1e-15)


def test_feature_forward_deterministic_and_shapes():
    model = random_feature_model(4, 5, Rng(12))
    feats1, dist1 = feature_forward(model, (0, 3, 1))
    feats2, dist2 = feature_forward(model, (0, 3, 1))
    assert np.array_equal(feats1, feats2)
    assert np.array_equal(dist1, dist2)
    assert feats1.shape == (3, 5)


def test_feature_forward_empty_context():
    model = random_feature_model(3, 4, Rng(1))
    with pytest.raises(DynexecError, match="feature_forward needs at least one context token"):
        feature_forward(model, ())


def test_batched_softmax_allocates_one_array_beyond_its_input():
    n, vocab = 300, 256
    scores = fixture_normals(Rng(4), n * vocab).reshape(n, vocab) * 50
    before = scores.copy()
    tracemalloc.start()
    try:
        softmax(scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * vocab * scores.itemsize
    assert np.array_equal(scores, before)


def test_feature_dists_valid_over_many_weightings():
    # global ProbDist property on 1000 random weight settings
    master = Rng(1000)
    for i in range(1000):
        r = master.child(i)
        v = 2 + int(r.uniform() * 3)
        d = 4 + int(r.uniform() * 4)
        model = random_feature_model(v, d, r, scale=2.0)
        ctx = tuple(min(int(r.uniform() * v), v - 1) for _ in range(1 + int(r.uniform() * 3)))
        _, dist = feature_forward(model, ctx)
        check_dist(dist)


def test_table_dists_valid_over_random_models():
    master = Rng(2000)
    for i in range(200):
        r = master.child(i)
        v = 2 + int(r.uniform() * 4)
        order = int(r.uniform() * 3)
        model = random_table_model(v, order, r)
        ctx = tuple(min(int(r.uniform() * v), v - 1) for _ in range(3))
        check_dist(model.next_dist(ctx))


def test_table_serialization_roundtrip_bit_exact(tmp_path):
    model = random_table_model(5, 2, Rng(77), cost_units=3.5)
    path = str(tmp_path / "table.json")
    save_model(model, path)
    loaded = load_model(path)
    assert model_to_dict(loaded) == model_to_dict(model)
    for window, row in model.table.items():
        assert np.array_equal(loaded.table[window], row)
    assert np.array_equal(loaded.fallback, model.fallback)


def test_feature_serialization_roundtrip_bit_exact(tmp_path):
    model = random_feature_model(4, 6, Rng(78), cost_units=2.25)
    path = str(tmp_path / "feat.json")
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.embed, model.embed)
    assert np.array_equal(loaded.recur_w, model.recur_w)
    assert np.array_equal(loaded.head_w, model.head_w)
    assert loaded.cost_units == model.cost_units


def test_model_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        model_from_dict({"kind": "transformer"})


def test_model_arrays_immutable():
    table = random_table_model(3, 1, Rng(4))
    with pytest.raises(ValueError):
        table.table[(0,)][0] = 0.9
    with pytest.raises(ValueError):
        table.fallback[0] = 0.9
    feature = random_feature_model(3, 4, Rng(5))
    with pytest.raises(ValueError):
        feature.embed[0, 0] = 1.0


def test_seeded_rerun_bit_identical():
    def run(seed):
        rng = Rng(seed)
        model = random_table_model(4, 1, rng.child(0))
        draws = inverse_cdf(model.next_dist((0,)), rng.child(1).uniforms(64))
        return draws.tolist(), rng.child(2).normals(8).tolist()

    assert run(321) == run(321)

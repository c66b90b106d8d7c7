import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from dynexec import (
    MixtureSpec,
    NoiseSchedule,
    Rng,
    adaptive_generate,
    fit_recommender,
    generate,
    min_steps_oracle,
    wasserstein1,
)
from dynexec import core, stepsaver
from dynexec.core import RngStreams
from dynexec.stepsaver import (_log_norms, _mixture_score, _step_coefficients, generate_many, respaced_timesteps,
                               train_and_evaluate)
from dynexec.errors import DynexecError

from helpers import separated_mixture, single_gaussian, skewed_workload
from oracles import (adaptive_generate_reference, generate_reference, min_steps_oracle_reference,
                     mixture_score_reference, noised_components_reference, noised_reference, quality,
                     train_and_evaluate_reference)

SCHEDULE = NoiseSchedule()


def test_schedule_invariants():
    assert SCHEDULE.T == 100
    for T in (1, 2, 10, 100, 1000):
        schedule = NoiseSchedule(T)
        assert schedule.T == len(schedule.betas) == len(schedule.alpha_bar) == T
        assert np.all(schedule.betas > 0) and np.all(schedule.betas < 1)
        assert np.all(np.diff(schedule.alpha_bar) < 0)
        assert schedule.betas[0] == pytest.approx(1e-4)
        assert schedule.betas[-1] == pytest.approx(0.02 if T > 1 else 1e-4)


def test_schedule_step_limit_is_where_the_product_underflows():
    assert np.all(np.diff(NoiseSchedule(stepsaver.MAX_STEPS).alpha_bar) < 0)
    past = np.cumprod(1.0 - np.linspace(stepsaver.BETA_START, stepsaver.BETA_END, stepsaver.MAX_STEPS + 1))
    assert np.any(np.diff(past) >= 0)
    with pytest.raises(ValueError, match="timesteps"):
        NoiseSchedule(stepsaver.MAX_STEPS + 1)


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureSpec(((0.5, 0.0, 1.0), (0.6, 1.0, 1.0)))  # weights != 1
    with pytest.raises(ValueError):
        MixtureSpec(((1.0, 0.0, 0.0),))  # zero stddev
    with pytest.raises(ValueError):
        MixtureSpec(())
    for bad in ((1.0, float("nan"), 1.0), (float("nan"), 0.0, 1.0), (1.0, 0.0, float("inf")),
                (1.0, 0.0), (1.0, 0.0, 1.0, 1.0)):
        with pytest.raises(ValueError):
            MixtureSpec((bad,))
    k = stepsaver.MAX_COMPONENTS
    assert len(MixtureSpec(((1 / k, 0.0, 1.0),) * k).components) == k
    with pytest.raises(ValueError, match="components"):
        MixtureSpec(((1 / (k + 1), 0.0, 1.0),) * (k + 1))


def test_difficulty_values():
    assert single_gaussian().difficulty == 1.0
    two = MixtureSpec(((0.5, -1.0, 0.5), (0.5, 1.0, 0.5)))
    assert two.difficulty == pytest.approx(2.0 + 0.25 * 2.0 / 1.0)
    wide = separated_mixture(4, spread=3.0, stddev=0.1)
    assert wide.difficulty == 10.0  # clipped


def test_respaced_timesteps():
    assert respaced_timesteps(100, 1).tolist() == [99]
    assert respaced_timesteps(100, 2).tolist() == [99, 0]
    full = respaced_timesteps(100, 100)
    assert full.tolist() == list(range(99, -1, -1))
    five = respaced_timesteps(100, 5)
    assert five[0] == 99 and five[-1] == 0
    assert all(a > b for a, b in zip(five, five[1:]))


def test_generate_validates_steps():
    with pytest.raises(DynexecError, match=r"steps must lie in \[1, 100\], got 0"):
        generate(single_gaussian(), SCHEDULE, 0, 10, Rng(0))
    with pytest.raises(DynexecError, match=r"steps must lie in \[1, 100\], got 101"):
        generate(single_gaussian(), SCHEDULE, 101, 10, Rng(0))


def test_generate_deterministic():
    spec = separated_mixture(2)
    a = generate(spec, SCHEDULE, 10, 500, Rng(5))
    b = generate(spec, SCHEDULE, 10, 500, Rng(5))
    assert np.array_equal(a, b)


def test_generate_standard_normal_moments():
    samples = generate(single_gaussian(), SCHEDULE, 100, 20_000, Rng(7))
    assert abs(samples.mean()) <= 0.03
    assert abs(samples.std() - 1.0) <= 0.03


def test_single_jump_worse_than_full_schedule():
    spec = MixtureSpec(((0.5, -1.2, 0.4), (0.5, 1.2, 0.4)))
    worse = 0
    for seed in range(10):
        rng = Rng(9000 + seed)
        w1_one = quality(generate(spec, SCHEDULE, 1, 4000, rng.child(0)), spec, 4000, rng.child(1))
        w1_full = quality(generate(spec, SCHEDULE, 100, 4000, rng.child(2)), spec, 4000, rng.child(3))
        worse += (w1_one > w1_full)
    assert worse == 10


def test_w1_identical_sets_zero():
    x = Rng(1).normals(100)
    assert wasserstein1(x, x.copy()) == 0.0


def test_w1_translation_property():
    rng = Rng(2)
    base = rng.normals(20_000)
    shifted = rng.normals(20_000) + 1.0
    assert wasserstein1(shifted, base) == pytest.approx(1.0, abs=0.05)


def test_w1_self_distance_small():
    spec = MixtureSpec(((0.6, -0.5, 0.6), (0.4, 0.8, 0.4)))
    rng = Rng(3)
    a = spec.sample(20_000, rng.child(0))
    b = spec.sample(20_000, rng.child(1))
    assert wasserstein1(a, b) <= 0.05


def test_w1_matches_scipy_including_unequal_sizes():
    rng = Rng(4)
    for na, nb in ((100, 100), (100, 237), (51, 13)):
        a = rng.normals(na) * 1.4 + 0.3
        b = rng.normals(nb)
        assert wasserstein1(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_w1_symmetry_and_triangle():
    rng = Rng(5)
    a, b, c = rng.normals(211), rng.normals(173) + 0.5, rng.normals(97) * 2.0
    assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-12)
    assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9


def test_oracle_huge_epsilon_returns_one():
    assert min_steps_oracle(single_gaussian(), SCHEDULE, 1e9, 500, Rng(6)) == 1


def test_oracle_easy_spec_small_step_count():
    for seed in range(5):
        s = min_steps_oracle(single_gaussian(0.3, 1.0), SCHEDULE, 0.1, 4000, Rng(7000 + seed))
        assert s <= 20


def test_oracle_hard_at_least_easy():
    hard = separated_mixture(4, spread=3.0, stddev=0.2)
    for seed in range(3):
        easy_s = min_steps_oracle(single_gaussian(), SCHEDULE, 0.1, 4000, Rng(880 + seed))
        hard_s = min_steps_oracle(hard, SCHEDULE, 0.1, 4000, Rng(880 + seed))
        assert hard_s >= easy_s


def test_recommender_constant_labels():
    specs = [single_gaussian(mu) for mu in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    mixtures = [separated_mixture(k) for k in (2, 3, 4)]
    labeled = [(s, 7) for s in specs + mixtures]
    rec = fit_recommender(labeled, 100)
    assert rec.recommend(0.0) == 7
    assert rec.recommend(10.0) == 7


def test_recommender_monotone_labels_reproduced():
    specs = [single_gaussian(), separated_mixture(2, spread=1.0, stddev=0.8),
             separated_mixture(2, spread=2.0, stddev=0.4),
             separated_mixture(3, spread=2.5, stddev=0.3),
             separated_mixture(4, spread=3.0, stddev=0.2)]
    labels = [1, 5, 10, 20, 50]
    diffs = [s.difficulty for s in specs]
    assert all(b > a for a, b in zip(diffs, diffs[1:]))
    rec = fit_recommender(list(zip(specs, labels)), 100)
    for spec, label in zip(specs, labels):
        assert rec.recommend(spec.difficulty) == label


def test_recommender_anti_monotone_collapses_to_mean():
    specs = [single_gaussian(),
             separated_mixture(2, spread=2.0, stddev=0.4),
             separated_mixture(3, spread=2.5, stddev=0.3),
             separated_mixture(4, spread=2.5, stddev=0.3),
             separated_mixture(4, spread=3.0, stddev=0.2)]
    labels = [50, 40, 30, 20, 10]
    rec = fit_recommender(list(zip(specs, labels)), 100)
    for spec in specs:
        assert rec.recommend(spec.difficulty) == 30


def test_recommender_monotone_on_random_difficulty_pairs():
    specs = [single_gaussian(), separated_mixture(2), separated_mixture(3),
             separated_mixture(4), separated_mixture(5),
             MixtureSpec(((0.7, -1.0, 0.5), (0.3, 2.0, 0.3)))]
    labels = [1, 13, 8, 40, 25, 16]
    rec = fit_recommender(list(zip(specs, labels)), 100)
    rng = Rng(12)
    for _ in range(200):
        d1, d2 = sorted((rng.uniform() * 10, rng.uniform() * 10))
        assert rec.recommend(d1) <= rec.recommend(d2)


def test_recommender_needs_five_specs():
    with pytest.raises(DynexecError, match="need at least 5 labeled specs, got 4"):
        fit_recommender([(single_gaussian(), 1)] * 4, 100)


def test_recommender_clamps_to_range():
    specs = [single_gaussian(), separated_mixture(2), separated_mixture(3),
             separated_mixture(4), separated_mixture(5)]
    rec = fit_recommender([(s, 100) for s in specs], 100)
    assert rec.recommend(99.0) == 100
    rec_low = fit_recommender([(s, 1) for s in specs], 100)
    assert rec_low.recommend(-5.0) == 1


def test_adaptive_generate_easy_spec_uses_few_steps():
    labeled = [(single_gaussian(mu), 2) for mu in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    labeled += [(separated_mixture(4), 50)]
    rec = fit_recommender(labeled, 100)
    for seed in range(5):
        samples, report = adaptive_generate(single_gaussian(0.2), rec, SCHEDULE, 2000, Rng(50 + seed))
        assert report.steps_used < 100
        assert report.steps_used <= SCHEDULE.T
        assert len(samples) == 2000
        assert report.w1 >= 0.0


def test_mixture_score_matches_noised_spec_reference():
    # one batched call per spec, one row per alpha_bar: each row equals the 1-D reference
    schedule = NoiseSchedule()
    x = Rng(5).normals(257) * 3.0
    for _, spec in skewed_workload():
        noised = np.array([noised_components_reference(spec, float(alpha_bar)) for alpha_bar in schedule.alpha_bar])
        ws, ms, vs = noised.transpose(2, 0, 1)
        scores = _mixture_score(np.tile(x, (schedule.T, 1)), _log_norms(ws, vs), ms, vs)
        for row, alpha_bar in zip(scores, schedule.alpha_bar):
            assert np.array_equal(row, mixture_score_reference(spec, x, float(alpha_bar)))


def _used_rng(seed, drawn):
    """An Rng with `drawn` uniforms already taken from its stream."""
    rng = Rng(seed)
    rng.uniforms(drawn)
    return rng


@st.composite
def mixtures(draw, max_components=4):
    k = draw(st.integers(1, max_components))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return MixtureSpec(tuple((w / total, draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 2.0))) for w in raw))


@st.composite
def chain_batches(draw):
    """Ragged batches: 1-4 components, steps from 1 to T, fresh and partly used rngs."""
    T = draw(st.sampled_from([1, 2, 7, 30, 100]))
    chains = [(draw(mixtures()), draw(st.integers(1, T)), (draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 500))))
              for _ in range(draw(st.integers(1, 6)))]
    return T, chains, draw(st.integers(1, 300))


_TWO_MODES = MixtureSpec(((0.3, -1.0, 0.4), (0.7, 1.5, 0.6)))
# one-element batches and noise blocks, mid-sized ones, and everything in one
_BLOCK_SIZES = [(1, 1), (300, 50), (10**9, 10**9)]


@pytest.mark.parametrize("batch_elements, noise_elements", _BLOCK_SIZES)
@settings(max_examples=25, deadline=None)
@given(chain_batches())
@example((30, [(_TWO_MODES, 30, (7, 0)), (_TWO_MODES, 12, (7, 0)), (_TWO_MODES, 12, (8, 40))], 5))
@example((100, [(single_gaussian(), 100, (3, 9)), (separated_mixture(4), 1, (3, 0)),
                (single_gaussian(0.5), 37, (4, 1))], 1))
@example((100, [(separated_mixture(9), 100, (5, 0)), (separated_mixture(9), 20, (6, 3))], 1))
# a recommended chain and its T-step baseline, each on an Rng of one seed and counter
@example((30, [(_TWO_MODES, 4, (9, 0)), (_TWO_MODES, 30, (9, 0)), (single_gaussian(), 1, (9, 0))], 7))
# an odd count, each step's noise its own draw with a uniform skipped after it, over noise blocks of
# several steps (5 steps a block at 50 noise elements) that end as the shorter chain finishes
@example((30, [(_TWO_MODES, 30, (7, 0)), (_TWO_MODES, 17, (8, 3))], 3))
def test_generate_many_matches_per_chain_reference(batch_elements, noise_elements, case):
    T, chains, count = case
    schedule = NoiseSchedule(T)
    batch_rngs = [_used_rng(*stream) for _, _, stream in chains]
    ref_rngs = [_used_rng(*stream) for _, _, stream in chains]
    # no step may divide by zero, overflow or make a NaN, as a zero-weight mode's log(0) would
    with np.errstate(divide="raise", over="raise", invalid="raise"), \
            mock.patch.object(stepsaver, "_BATCH_ELEMENTS", batch_elements), \
            mock.patch.object(stepsaver, "_NOISE_ELEMENTS", noise_elements):
        rows = generate_many([(spec, steps, rng) for (spec, steps, _), rng in zip(chains, batch_rngs)],
                             schedule, count)
    for (spec, steps, _), row, rng in zip(chains, rows, ref_rngs):
        assert np.array_equal(row, generate_reference(spec, schedule, steps, count, rng))
    assert [r.uniform() for r in batch_rngs] == [r.uniform() for r in ref_rngs]  # every counter ends where it did


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(mixtures(), st.integers(0, 2**64 - 1)), min_size=1, max_size=4),
       st.sampled_from([2, 9, 25]), st.floats(0.01, 2.0), st.integers(10, 80))
def test_oracle_labels_match_scan_reference(items, T, epsilon, count):
    schedule = NoiseSchedule(T)
    labels = stepsaver._labels([(spec, Rng(seed)) for spec, seed in items], stepsaver._Scores(schedule, count), epsilon)
    assert labels == [min_steps_oracle_reference(spec, schedule, epsilon, count, Rng(seed)) for spec, seed in items]


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(mixtures(), st.integers(0, 2**64 - 1)), min_size=1, max_size=4), st.integers(10, 80))
def test_adaptive_generate_many_matches_per_item_reference(items, count):
    schedule = NoiseSchedule(25)
    rec = fit_recommender([(single_gaussian(mu), 2) for mu in (-1.0, 0.0, 1.0)]
                          + [(separated_mixture(3), 9), (separated_mixture(5), 25)], schedule.T)
    for spec, seed in items:
        x, report = adaptive_generate(spec, rec, schedule, count, Rng(seed))
        ref_x, steps, w1, baseline_w1 = adaptive_generate_reference(spec, rec, schedule, count, Rng(seed))
        assert np.array_equal(x, ref_x)
        assert (report.steps_used, report.w1, report.baseline_w1) == (steps, w1, baseline_w1)


@settings(max_examples=8, deadline=None)
@given(st.lists(mixtures(3), min_size=5, max_size=7), st.integers(5, 7), st.sampled_from([1, 9, 25]),
       st.integers(0, 2**64 - 1), st.integers(10, 40))
def test_train_and_evaluate_matches_one_chain_reference(specs, n_train, T, seed, count):
    # training specs reuse their oracle baselines; T = 1 leaves no candidate, so every chain is its own baseline
    schedule = NoiseSchedule(T)
    n_train = min(n_train, len(specs))
    reports = train_and_evaluate(specs, schedule, 0.1, n_train, count, Rng(seed))
    expected = train_and_evaluate_reference(specs, schedule, 0.1, n_train, count, Rng(seed))
    assert [(r.steps_used, r.w1, r.baseline_w1) for r in reports] == expected
    if T == 1:
        assert all(r.w1 == r.baseline_w1 for r in reports)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 1000)), min_size=1, max_size=6),
       st.integers(0, 300), st.sampled_from([None, 1, 2, 5]), st.data())
def test_stream_normals_match_per_stream_rng(streams, n, runs, data):
    # a shape (runs, n) is `runs` calls of Rng.normals(n), one after another
    active = data.draw(st.integers(1, len(streams)))
    rngs = [_used_rng(*s) for s in streams]
    alone = [_used_rng(*s) for s in streams]
    block = RngStreams(rngs)
    rows = block.normals(n if runs is None else (runs, n), active)
    block.close()
    assert rows.shape == ((active, n) if runs is None else (active, runs, n))
    for row, rng in zip(rows, alone):
        assert np.array_equal(row, rng.normals(n) if runs is None else [rng.normals(n) for _ in range(runs)])
    assert [r.uniform() for r in rngs] == [r.uniform() for r in alone]


def test_generate_many_needs_one_rng_per_chain():
    rng = Rng(1)
    with pytest.raises(ValueError):
        generate_many([(single_gaussian(), 5, rng), (single_gaussian(), 3, rng)], SCHEDULE, 10)


def test_mixture_rejects_components_beyond_scale():
    assert MixtureSpec(((1.0, -1e6, 1e6),)).components == ((1.0, -1e6, 1e6),)
    for bad in ((1.0, 1e6 * (1 + 1e-15), 1.0), (1.0, -2e6, 1.0), (1.0, 0.0, 1.5e6)):
        with pytest.raises(ValueError):
            MixtureSpec((bad,))


@pytest.mark.parametrize("batch_elements, noise_elements", _BLOCK_SIZES)
def test_generate_many_batch_and_noise_block_sizes(monkeypatch, batch_elements, noise_elements):
    # a group split into several batches, and noise drawn one step or many steps at a time
    monkeypatch.setattr(stepsaver, "_BATCH_ELEMENTS", batch_elements)
    monkeypatch.setattr(stepsaver, "_NOISE_ELEMENTS", noise_elements)
    specs = [single_gaussian(0.3), _TWO_MODES, separated_mixture(3), single_gaussian(-1.0), _TWO_MODES]
    chains = [(spec, steps, _used_rng(40 + i, i)) for i, (spec, steps) in enumerate(zip(specs, (100, 9, 31, 2, 64)))]
    rows = generate_many(chains, SCHEDULE, 60)
    for i, ((spec, steps, _), row) in enumerate(zip(chains, rows)):
        assert np.array_equal(row, generate_reference(spec, SCHEDULE, steps, 60, _used_rng(40 + i, i)))


def test_lockstep_batches_count_their_steps(monkeypatch):
    # one sample a chain and a 4 000-step schedule, so each chain's kept
    # alpha_bars, held for the batch's longest chain, outweigh its samples;
    # one chain runs every step and the rest stop after one, which keeps the run short
    schedule = NoiseSchedule(4000)
    chains = [(single_gaussian(0.01 * i), 4000 if i == 0 else 1, Rng(i)) for i in range(64)]
    batches = []
    real = stepsaver._lockstep

    def counting(entries, schedule, count):
        batches.append(len(entries))
        return real(entries, schedule, count)

    monkeypatch.setattr(stepsaver, "_lockstep", counting)
    tracemalloc.start()
    try:
        generate_many(chains, schedule, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one alpha_bar a step and chain, so all 64 chains fit one batch (about 2.4 MB at its peak)
    assert batches == [64]
    assert peak < 2 * 8 * stepsaver._BATCH_ELEMENTS


def test_a_wide_chain_stays_within_its_component_charge():
    # one chain whose 64 components x 8 192 samples outweigh a whole batch: it peaks at about
    # 4.1 float64s per sample per component, within the 8 the CLI charges the widest spec
    spec = MixtureSpec(tuple((1 / 64, 0.5 * j, 0.3) for j in range(64)))
    tracemalloc.start()
    try:
        generate_many([(spec, 3, Rng(1))], SCHEDULE, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * 8192 * 64 * 2 < peak < 8 * 8 * 8192 * 64


def _recording_chains(monkeypatch):
    """Every (spec, steps, rng seed) chain that `train_and_evaluate` hands to `generate_many`."""
    chains_run = []
    real = stepsaver.generate_many

    def recording(chains, schedule, count):
        chains_run.extend((spec, steps, rng.seed) for spec, steps, rng in chains)
        return real(chains, schedule, count)

    monkeypatch.setattr(stepsaver, "generate_many", recording)
    return chains_run


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 8), st.integers(0, 2**64 - 1))
def test_train_and_evaluate_runs_each_chain_once(n_specs, seed):
    # a training spec's baseline is the oracle's, on rng.child(i).child(T); any other spec j
    # runs its baseline on rng.child(100000 + j), once even when it is the recommended chain
    specs = [spec for _, spec in skewed_workload()][:n_specs]
    schedule, rng = NoiseSchedule(25), Rng(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        chains_run = _recording_chains(monkeypatch)
        train_and_evaluate(specs, schedule, 0.1, 5, 30, rng)
    assert len(chains_run) == len(set(chains_run))
    for i, spec in enumerate(specs):
        branch = rng.child(i).child(schedule.T) if i < 5 else rng.child(100000 + i)
        assert chains_run.count((spec, schedule.T, branch.child(0).seed)) == 1


def test_train_and_evaluate_at_one_step_runs_one_chain_a_spec(monkeypatch):
    # T = 1 leaves the oracle no candidate: each spec's one chain is its T-step baseline,
    # the training specs' from the oracle, and is scored once
    specs = [spec for _, spec in skewed_workload()][:8]
    chains_run = _recording_chains(monkeypatch)
    reports = train_and_evaluate(specs, NoiseSchedule(1), 0.1, 5, 50, Rng(5))
    assert len(chains_run) == len(specs)
    assert all(r.steps_used == 1 and r.w1 == r.baseline_w1 for r in reports)


def test_scores_keep_a_reference_only_beside_its_baseline():
    # a branch's reference outlives its call once the branch's T-step chain has run, so the
    # oracle's other candidates hold their references only while they are scored
    spec, rng = single_gaussian(), Rng(3)
    scores = stepsaver._Scores(NoiseSchedule(25), 20)
    w1s = scores([(spec, 25, rng.child(0)), (spec, 4, rng.child(1)), (spec, 25, rng.child(0))])
    assert w1s[0] == w1s[2]
    assert list(scores._refs) == [(spec, rng.child(0).seed)]


def test_train_and_evaluate_draws_a_pinned_number_of_normals(monkeypatch):
    # each chain draws count normals for its start and count per step, and each reference count:
    # 15 600 in the oracle, then 900 for the training specs' recommended chains (the one
    # recommended 25 of 25 steps is its oracle baseline and does not run again), 150 for the
    # other specs' references and 4 900 for their chains, each of which, recommended 7, 2 and 8
    # of 25 steps, also runs a T-step baseline that draws its own start and noise
    specs = [spec for _, spec in skewed_workload()][:8]
    drawn = []
    real = core._box_muller

    def counting(u, n):
        normals = real(u, n)
        drawn.append(normals.size)
        return normals

    monkeypatch.setattr(core, "_box_muller", counting)
    reports = train_and_evaluate(specs, NoiseSchedule(25), 0.1, 5, 50, Rng(5))
    assert [r.steps_used for r in reports] == [2, 25, 2, 8, 2, 7, 2, 8]
    assert sum(drawn) == 21_550


def test_step_coefficients_have_the_scalar_formulas_bits():
    # every 16th step of the longest schedule, one a chain, against stddevs over (0.01, 50]:
    # the columns equal the one-chain Python floats
    schedule = NoiseSchedule(stepsaver.MAX_STEPS)
    sgs = np.geomspace(50.0, 0.01, 24, endpoint=False)[::-1]
    spec = MixtureSpec(tuple((1.0 / 24, float(mu), float(sg)) for mu, sg in zip(np.linspace(-40.0, 40.0, 24), sgs)))
    ws, mus, sgs = np.array(spec.components).T
    abs_ = np.append(schedule.alpha_bar[::-1], 1.0)
    pairs = np.stack([abs_[:-1:16], abs_[1::16]])  # each step's alpha_bar and the next one
    ms, sds, vs, log_norms, bs, root_as, root_bs = _step_coefficients(pairs[:, :, None], ws, mus, sgs)
    for c, (ab_t, ab_prev) in enumerate(pairs.T.tolist()):
        noised = noised_components_reference(spec, ab_t)
        ref_vs = np.array([v for _, _, v in noised])
        assert ms[0, c].tolist() == [mu for _, mu, _ in noised]
        assert sds[0, c].tolist() == [sd for _, _, sd in noised_reference(spec, ab_t).components]
        assert vs[0, c].tolist() == ref_vs.tolist()
        assert np.array_equal(log_norms[0, c], np.log(ws) - 0.5 * np.log(2.0 * np.pi * ref_vs))
        a = ab_t / ab_prev
        assert (bs[0, c, 0], root_as[0, c, 0], root_bs[0, c, 0]) == (1.0 - a, math.sqrt(a), math.sqrt(1.0 - a))

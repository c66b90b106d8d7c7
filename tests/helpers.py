"""Shared fixtures: random model factories, scripted rngs, workload builders."""

import itertools
from dataclasses import dataclass

import numpy as np

from dynexec import Rng, RouteWorkload, TableModel, FeatureModel
from dynexec.core import normalize, sample
from dynexec.stepsaver import MixtureSpec

from oracles import fixture_normals


class FixedRng:
    """Scripted stand-in for Rng: returns preset uniforms, then fails loudly."""

    def __init__(self, uniforms):
        self.queue = list(uniforms)

    def uniform(self):
        return self.queue.pop(0)


class CountingRng(Rng):
    """Real Rng that counts how many uniforms were consumed."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def uniform(self):
        self.draws += 1
        return super().uniform()


class FreshRowsModel(TableModel):
    """A table model that hands out a new copy of its row at every call, so
    no two reads share a row's identity."""

    def dist(self, state):
        return super().dist(state).copy()


def onehot(size, index):
    row = np.zeros(size)
    row[index] = 1.0
    return row


def random_dist(size, rng):
    return normalize(rng.uniforms(size))


def random_table_model(vocab, order, rng, cost_units=1.0):
    table = {w: random_dist(vocab, rng) for w in itertools.product(range(vocab), repeat=order)}
    return TableModel(vocab, order, table, cost_units=cost_units)


def memoryless_model(dist, cost_units=1.0):
    dist = np.asarray(dist, dtype=np.float64)
    return TableModel(len(dist), 0, {(): dist}, cost_units=cost_units)


def varied_entropy_table_model(vocab, order, rng, cost_units=1.0, zero_share=0.0):
    """Table model whose rows range from near-uniform to sharply peaked, so
    prompt difficulties spread across [0, ln V] instead of clustering. With
    a zero_share, each entry but a row's largest is an exact zero with that
    probability."""
    table = {}
    for w in itertools.product(range(vocab), repeat=order):
        sharpness = 0.2 + 8.0 * rng.uniform()
        row = rng.uniforms(vocab) ** sharpness
        if zero_share:
            row[(rng.uniforms(vocab) < zero_share) & (row < row.max())] = 0.0
        table[w] = normalize(row)
    return TableModel(vocab, order, table, cost_units=cost_units)


def random_feature_model(vocab, dim, rng, scale=0.8, cost_units=1.0):
    total = vocab * dim + dim * 2 * dim + dim + vocab * dim + vocab
    flat = (rng.uniforms(total) * 2.0 - 1.0) * scale
    pos = 0

    def take(n, shape=None):
        nonlocal pos
        chunk = flat[pos:pos + n]
        pos += n
        return chunk.reshape(shape) if shape else chunk

    return FeatureModel(vocab, take(vocab * dim, (vocab, dim)),
                        take(dim * 2 * dim, (dim, 2 * dim)), take(dim),
                        take(vocab * dim, (vocab, dim)), take(vocab),
                        cost_units=cost_units)


def constant_feature_model(vocab=3, dim=4, seed=10):
    """FeatureModel with zero recurrence weights: features are tanh(bias), constant."""
    rng = Rng(seed)
    bias = fixture_normals(rng, dim) * 0.5
    embed = fixture_normals(rng, vocab * dim).reshape(vocab, dim)
    head_w = fixture_normals(rng, vocab * dim).reshape(vocab, dim)
    head_b = fixture_normals(rng, vocab)
    model = FeatureModel(vocab, embed, np.zeros((dim, 2 * dim)), bias, head_w, head_b)
    return model, bias


def affine_dynamics_model(vocab=3, dim=4, seed=20):
    """FeatureModel whose next feature depends only on the incoming token.

    With the feature block of the recurrence zeroed and vocab <= dim, the
    realized transitions are exactly representable by an affine map of
    [feature; embedding], so a least-squares extrapolator can drive the fit
    residual to numerical zero.
    """
    assert vocab <= dim
    rng = Rng(seed)
    embed = fixture_normals(Rng(10), vocab * dim).reshape(vocab, dim)
    recur_w = np.zeros((dim, 2 * dim))
    recur_w[:, dim:] = fixture_normals(rng, dim * dim).reshape(dim, dim) * 0.7
    recur_b = fixture_normals(rng, dim) * 0.3
    head_w = fixture_normals(Rng(10).child(5), vocab * dim).reshape(vocab, dim)
    head_b = fixture_normals(Rng(10).child(6), vocab)
    return FeatureModel(vocab, embed, recur_w, recur_b, head_w, head_b)


def single_gaussian(mean=0.0, stddev=1.0):
    return MixtureSpec(((1.0, mean, stddev),))


def separated_mixture(n_components, spread=3.0, stddev=0.2):
    means = np.linspace(-spread, spread, n_components)
    w = 1.0 / n_components
    return MixtureSpec(tuple((w, float(m), stddev) for m in means))


def skewed_workload():
    """20 specs, 80% easy single Gaussians / 20% hard separated mixtures,
    interleaved so any contiguous train split sees both kinds."""
    easy_means = [-1.2, -0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9,
                  1.2, 1.5, -1.5, -0.45, 0.45, 0.75, -0.75, 1.05]
    hards = [
        separated_mixture(4, spread=3.0, stddev=0.2),
        MixtureSpec(((0.4, -2.5, 0.25), (0.3, 0.0, 0.15), (0.3, 2.5, 0.25))),
        MixtureSpec(((0.5, -2.0, 0.2), (0.5, 2.0, 0.2))),
        MixtureSpec(((0.3, -2.8, 0.2), (0.4, 0.5, 0.2), (0.3, 2.8, 0.3))),
    ]
    specs = []
    for i, mu in enumerate(easy_means):
        specs.append((f"easy-{i}", single_gaussian(mu)))
        if i < len(hards):
            specs.append((f"hard-{i}", hards[i]))
    return specs


@dataclass(frozen=True)
class WorkloadItem:
    prompt: tuple[int, ...]
    reference_continuation: tuple[int, ...]

    def __post_init__(self):
        if not self.reference_continuation:
            raise ValueError("reference continuation must be non-empty")


def route_arrays(items) -> RouteWorkload:
    """The RouteWorkload of WorkloadItems, in order."""
    items = list(items)
    return RouteWorkload(np.fromiter(itertools.chain.from_iterable(item.prompt + item.reference_continuation
                                                                   for item in items), dtype=np.int64),
                         np.array([len(item.prompt) for item in items], dtype=np.int64),
                         np.array([len(item.reference_continuation) for item in items], dtype=np.int64))


def route_workload(n_items, small, large, rng):
    """Items with prompts drawn uniformly and continuations sampled from the large model."""
    vocab = large.vocab_size
    items = []
    for _ in range(n_items):
        plen = 2 + int(rng.uniform() * 3)
        prompt = tuple(min(int(rng.uniform() * vocab), vocab - 1) for _ in range(plen))
        ctx = prompt
        cont = []
        for _ in range(4 + int(rng.uniform() * 3)):
            tok = sample(large.next_dist(ctx), rng)
            cont.append(tok)
            ctx = ctx + (tok,)
        items.append(WorkloadItem(prompt, tuple(cont)))
    return items

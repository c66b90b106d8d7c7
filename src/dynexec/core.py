"""Toy sequence models, probability utilities, seeded randomness, and cost accounting.

Everything downstream (speculative decoding, lookahead, routing, ...) consumes the
primitives defined here: probability vectors are plain float64 numpy arrays of
length V, contexts are tuples of token ids, and all randomness flows through the
counter-based `Rng` so any experiment is reproducible from a single 64-bit seed.
"""

import itertools
import json
import math
import os
import secrets
from bisect import bisect_right

import numpy as np

from .errors import DynexecError, ParseError, SchemaError

Context = tuple[int, ...]

MIN_VOCAB = 2
MAX_VOCAB = 256
MAX_TABLE_ORDER = 4
MIN_FEATURE_DIM = 4
MAX_FEATURE_DIM = 32

DIST_ATOL = 1e-9

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN_U64, _MIX1_U64, _MIX2_U64 = np.uint64(_GOLDEN), np.uint64(_MIX1), np.uint64(_MIX2)
_BLOCK = 256  # uniforms `Rng.uniform` computes ahead at a time


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based SplitMix64 stream.

    Draw number k (1-based) of a stream with seed s is mix64(s + k*GOLDEN mod 2^64),
    so the stream is a pure function of (seed, draw index) on every platform, and
    `uniform` hands out scalar draws from a block of the next `_BLOCK`, computed by
    the vectorized kernel and keyed by the position it starts at: the same values,
    with `_count` still the draws taken, whatever moved it. Uniforms use the top
    53 bits, so values lie in [0, 1). `normals(n)` takes the next n + n % 2
    uniforms as Box-Muller pairs, each giving two normals (`_box_muller`); an
    odd n drops the last pair's second one. `child(i)` derives an independent
    stream by hashing the master seed with the child index; it does not
    disturb this stream's counter.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0
        self._block_start, self._block = -_BLOCK, None  # no block yet

    @property
    def seed(self) -> int:
        return self._seed

    def child(self, index: int) -> "Rng":
        if index < 0:
            raise ValueError("child index must be non-negative")
        return Rng(_mix64(self._seed ^ _mix64((index + 1) * _GOLDEN)))

    def uniform(self) -> float:
        i = self._count - self._block_start
        if not 0 <= i < _BLOCK:
            z = _positions(np.uint64(self._seed), np.uint64(self._count), _BLOCK)
            self._block_start, self._block, i = self._count, _mixed_uniforms(z).tolist(), 0
        self._count += 1
        return self._block[i]

    def uniforms(self, n: int) -> np.ndarray:
        z = _positions(np.uint64(self._seed), np.uint64(self._count), n)
        self._count += n
        return _mixed_uniforms(z)

    def normals(self, n: int) -> np.ndarray:
        return _box_muller(self.uniforms(n + n % 2), n)


def _positions(seeds, counters, n: int) -> np.ndarray:
    """Stream positions seed + (counter + k) * GOLDEN, k = 1..n on a new last axis."""
    z = counters + np.arange(1, n + 1, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += seeds
    return z


def _mixed_uniforms(z: np.ndarray) -> np.ndarray:
    """The uniforms of uint64 stream positions z = seed + k*GOLDEN: each is
    SplitMix64-finalized in place (z is overwritten) and mapped to [0, 1) by
    its top 53 bits, the value `Rng.uniform` gives for the same draw."""
    shifted = np.right_shift(z, 30)
    z ^= shifted
    z *= _MIX1_U64
    np.right_shift(z, 27, out=shifted)
    z ^= shifted
    z *= _MIX2_U64
    np.right_shift(z, 31, out=shifted)
    z ^= shifted
    del shifted
    z >>= 11
    # 53-bit integers convert to float64 exactly; the uniforms overwrite z
    return np.multiply(z, 2.0**-53, out=z.view(np.float64))


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """The first n standard normals of the uniform pairs (u[0], u[1]), (u[2],
    u[3]), ... along the last axis, which has an even length: pair i gives
    normal 2i = r cos(theta) and 2i+1 = r sin(theta), with r = sqrt(-2 ln(1 -
    u[2i])) and theta = 2 pi u[2i+1]. The sine is sqrt((1 - c)(1 + c)) of the
    cosine c, signed as 0.5 - u[2i+1] (theta below or above pi), so each pair
    costs one log, two sqrts and one cos."""
    u1 = u[..., 1::2]
    r = 1.0 - u[..., 0::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c = u1 * (2.0 * np.pi)
    np.cos(c, out=c)
    s = 1.0 - c
    t = 1.0 + c
    s *= t
    np.sqrt(s, out=s)
    np.copysign(s, np.subtract(0.5, u1, out=t), out=s)
    out = np.empty(u.shape)
    np.multiply(r, c, out=out[..., 0::2])
    np.multiply(r, s, out=out[..., 1::2])
    return out[..., :n]


class RngStreams:
    """Several Rng streams drawn side by side, each from where its Rng stands.

    Row c of a block continues stream c bit for bit. A draw for `active` streams
    draws for the first `active` only and advances only their counters. `close`
    hands the counters back, so every Rng ends where drawing the same blocks
    one stream at a time would have left it. Each stream must be its own Rng.
    """

    def __init__(self, rngs):
        if len({id(r) for r in rngs}) != len(rngs):
            raise ValueError("each stream needs its own Rng")
        self._rngs = list(rngs)
        self._seeds = np.array([r.seed for r in self._rngs], dtype=np.uint64)
        self._counters = np.array([r._count for r in self._rngs], dtype=np.uint64)

    def uniforms(self, n: int, active: int = None) -> np.ndarray:
        """The next n uniforms of each of the first `active` streams (all by
        default), one row per stream: row c, element j is the uniform of
        mix64(seed_c + (counter_c + j + 1) * GOLDEN)."""
        m = len(self._rngs) if active is None else active
        z = _positions(self._seeds[:m, None], self._counters[:m, None], n)
        self._counters[:m] += np.uint64(n)
        return _mixed_uniforms(z)

    def normals(self, shape, active: int = None) -> np.ndarray:
        """Normals of `shape` (an int or a tuple) from each of the first
        `active` streams, one leading row per stream. Each run along the last
        axis is one `Rng.normals(shape[-1])` call, the next one's draws
        following it in the stream, so an odd length skips a uniform per run."""
        *runs, n = np.atleast_1d(shape).tolist()
        width = n + n % 2
        u = self.uniforms(math.prod(runs) * width, active)
        return _box_muller(u.reshape(len(u), *runs, width), n)

    def close(self):
        for rng, count in zip(self._rngs, self._counters.tolist()):
            rng._count = count


def normalize(weights) -> np.ndarray:
    """Scale non-negative weights into a probability vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a 1-D weight vector of length >= 2")
    if np.any(w < 0):
        raise DynexecError("weights must be non-negative")
    total = float(w.sum())
    if total == 0.0:
        raise DynexecError("cannot normalize an all-zero weight vector")
    return w / total


def check_dist(d, name: str = "distribution", vocab_size: int = None) -> np.ndarray:
    """Validate a probability vector: non-negative entries summing to 1 within
    1e-9, and vocab_size of them when it is given."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size < MIN_VOCAB:
        raise DynexecError(f"{name} must be a 1-D vector of length >= {MIN_VOCAB}")
    if (d < 0).any() or not np.isfinite(d).all():
        raise DynexecError(f"{name} has negative or non-finite entries")
    with np.errstate(over="ignore"):  # huge finite entries sum to inf, which the check rejects
        total = float(d.sum())
    if abs(total - 1.0) > DIST_ATOL:
        raise DynexecError(f"{name} sums to {total!r}, not 1")
    if vocab_size is not None and d.size != vocab_size:
        raise DynexecError(f"{name} has {d.size} entries, not the vocabulary size {vocab_size}")
    return d


def entropy(d) -> float:
    """Shannon entropy in nats, with 0*ln(0) taken as 0.

    Nats are used throughout so that ln(2) is the two-class uniform bound for
    early-exit gates and ln(V) the V-class bound for routing difficulty.
    """
    d = np.asarray(d, dtype=np.float64)
    p = d[d > 0]
    return max(0.0, float(-(p * np.log(p)).sum()))


def running_sums(d) -> list:
    """The running totals of d (an array or a list) in index order, as Python
    floats, cut after its last positive entry, whose total becomes inf."""
    values = d.tolist() if isinstance(d, np.ndarray) else d
    last = len(values) - 1
    while last > 0 and not values[last] > 0:
        last -= 1
    sums = list(itertools.accumulate(values[:last + 1]))
    sums[last] = math.inf
    return sums


def sample(d, rng: Rng) -> int:
    """Draw one token by inverse CDF: bisect_right of d's `running_sums` at one
    uniform, so a uniform past the mass (short of 1 by ~1e-9) gives the last
    positive entry.

    Consuming exactly one uniform makes brute-force enumeration of a decode
    tractable (uniforms integrate out analytically). Python floats add with
    the same IEEE operations as float64 elements. d must be non-negative, as
    every distribution is: adding 0.0 or -0.0 is exact, so the token is the
    first whose running total of the positive entries exceeds the uniform."""
    return bisect_right(running_sums(d), rng.uniform())


def inverse_cdf(d, u) -> np.ndarray:
    """`sample` for each uniform in u, from d or from the matching row of d:
    the batched form of the same rule.

    The cumulative sum is `running_sums`' totals, added in the same order, so
    the first index whose sum exceeds u is the token sample() returns; when u
    lies past the mass, the last positive entry is.
    """
    d = np.asarray(d, dtype=np.float64)
    idx = (np.cumsum(d, axis=-1) <= np.asarray(u)[..., None]).sum(axis=-1)
    last_positive = d.shape[-1] - 1 - np.argmax(d[..., ::-1] > 0, axis=-1)
    return np.minimum(idx, last_positive)


def softmax(scores) -> np.ndarray:
    """Softmax along the last axis."""
    scores = np.asarray(scores, dtype=np.float64)
    z = scores - scores.max(axis=-1, keepdims=True)  # the one new array; the rest is in place
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def is_int(value) -> bool:
    """A JSON integer: an int that is not a bool. Config and file checks share it."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number: a float, or an int that is not a bool."""
    return isinstance(value, float) or is_int(value)


def check_context(ctx, vocab_size: int) -> Context:
    ctx = tuple(int(t) for t in ctx)
    for t in ctx:
        if t < 0 or t >= vocab_size:
            raise DynexecError(f"token {t} outside vocabulary of size {vocab_size}")
    return ctx


def _check_vocab_size(v: int) -> int:
    v = int(v)
    if not MIN_VOCAB <= v <= MAX_VOCAB:
        raise ValueError(f"vocab size must be in [{MIN_VOCAB}, {MAX_VOCAB}], got {v}")
    return v


def _check_cost(cost_units) -> float:
    if not 0 < cost_units < np.inf:
        raise ValueError("cost_units must be positive and finite")
    return float(cost_units)


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _row_matrix(rows, vocab_size: int):
    """The rows as one read-only (len(rows), vocab_size) float64 matrix, and the
    index of the first row that check_dist with vocab_size rejects (len(rows)
    if none), from one pass over the matrix. Rows that do not stack into that
    shape give (None, 0): each must be checked on its own."""
    try:
        matrix = np.array(rows, dtype=np.float64)
    except (ValueError, TypeError, OverflowError):
        return None, 0
    if matrix.shape != (len(rows), vocab_size):
        return None, 0
    # x >= 0 is false for NaN, and a row holding +inf or huge finite entries
    # sums to inf, one holding both infinities to NaN; each row's sum is the
    # same float as that row's own d.sum(), bit for bit
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (matrix >= 0).all(axis=1) & (np.abs(matrix.sum(axis=1) - 1.0) <= DIST_ATOL)
    matrix.flags.writeable = False
    return matrix, len(rows) if ok.all() else int(np.argmin(ok))


class SequenceModel:
    """Deterministic next-token distribution producer with a per-call cost.

    The model reads a context through an immutable state: `start(ctx)` reads
    a whole context, `advance(state, token)` extends it by one token and
    `dist(state)` is the length-V next-token distribution. States are plain
    tuples or arrays and never change, so a verify cycle branches its K+1
    positions from one state and decoding costs one `advance` per token.
    A feature model's `advance` and `dist` also take a batch, one state (and
    one token) per row, and row i equals the 1-D call bit for bit.
    `dists(states)` reads the K+1 positions of a cycle at once: a table model
    looks up each row, a feature model runs one batched `dist`. `rows_after`
    reads sequences laid end to end: a row matrix and each position's row, a
    table model's by one gather per window token, no search. `next_dist(ctx)`
    is `dist(start(ctx))`. Models are immutable after construction and safe
    to share across sessions.
    """

    vocab_size: int
    cost_units: float

    def start(self, ctx: Context):
        raise NotImplementedError

    def advance(self, state, token: int):
        raise NotImplementedError

    def dist(self, state) -> np.ndarray:
        raise NotImplementedError

    def dists(self, states):
        """The distribution of each state, in order."""
        return [self.dist(s) for s in states]

    # no caller in src/, which reads contexts through states, but the tests'
    # from-scratch references read every prefix through it. Each subclass
    # names it again: the benchmark's tracer wraps it per class.
    def next_dist(self, ctx: Context) -> np.ndarray:
        return self.dist(self.start(ctx))

    def branch(self, state, tokens) -> list:
        """The states after each prefix of tokens, from the empty one to all of them."""
        states = [state]
        for token in tokens:
            states.append(self.advance(states[-1], token))
        return states


class TableModel(SequenceModel):
    """Order-m lookup model: the last m context tokens select a stored row.

    Windows shorter than m (or absent from the table) fall back to a fixed
    distribution, uniform by default, so every context yields a valid row.
    Order 0 is a context-free (memoryless) model.
    """

    def __init__(self, vocab_size, order, table, fallback=None, cost_units=1.0):
        self.vocab_size = _check_vocab_size(vocab_size)
        order = int(order)
        if not 0 <= order <= MAX_TABLE_ORDER:
            raise ValueError(f"table order must be in [0, {MAX_TABLE_ORDER}]")
        self.order = order
        self.cost_units = _check_cost(cost_units)
        if fallback is None:
            fallback = np.full(self.vocab_size, 1.0 / self.vocab_size)
        rows = [*table.values(), fallback]
        matrix, first_bad = _row_matrix(rows, self.vocab_size)
        windows = []
        for i, window in enumerate(table):
            window = check_context(window, self.vocab_size)
            if len(window) != order:
                raise ValueError(f"window {window} does not have length {order}")
            if i >= first_bad:
                check_dist(rows[i], f"table row {window}", self.vocab_size)
            windows.append(window)
        if first_bad < len(rows):
            check_dist(fallback, "fallback", self.vocab_size)
        self.table = dict(zip(windows, matrix))  # read-only row views of the one matrix
        self.fallback = matrix[-1]
        # for `rows_after`: the rows with the fallback last, and a read-only transition array
        # per window position j, from node * V + token to the node of the windows' distinct
        # (j + 1)-token prefixes, at the last j the window's row; a prefix no window has goes
        # to a dead node, one past the level's nodes, that leads to the fallback
        self.rows = matrix
        self._steps, parent, nodes = (), np.zeros(len(windows), dtype=np.int64), 1
        tokens = np.fromiter(itertools.chain.from_iterable(windows), np.int64).reshape(len(windows), order)
        for j in range(order):
            keys = parent * self.vocab_size + tokens[:, j]
            if j < order - 1:  # the distinct prefixes in key order, and each window's
                keys, parent = np.unique(keys, return_inverse=True)
            step = np.full((nodes + 1) * self.vocab_size, len(keys), dtype=np.int64)
            step[keys] = np.arange(len(keys))
            step.flags.writeable = False
            self._steps += (step,)
            nodes = len(keys)

    # The state is the window of the last `order` tokens. A shorter one, from
    # a context shorter than the order, is no table key, so it selects the
    # fallback row like a window absent from the table.
    def start(self, ctx: Context) -> Context:
        return tuple(ctx[-self.order:]) if self.order else ()

    def advance(self, state: Context, token: int) -> Context:
        return (state + (token,))[-self.order:] if self.order else ()

    def dist(self, state: Context) -> np.ndarray:
        return self.table.get(state, self.fallback)

    next_dist = SequenceModel.next_dist

    def rows_after(self, tokens: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`rows`, and the index into it of `dist` after each position k of int64
        `tokens`, having read the offsets[k] + 1 tokens tokens[k - offsets[k]] ..
        tokens[k]: one gather per window token through its position's transition
        array, with a window shorter than the order, like one absent from the table,
        selecting the fallback (the last row). Every token must lie in the vocabulary."""
        index = np.zeros(len(tokens), dtype=np.int64)  # order 0: the () row, else the fallback
        for shift, step in zip(range(self.order - 1, -1, -1), self._steps):  # oldest token first
            index[shift:] = step[index[shift:] * self.vocab_size + tokens[:len(tokens) - shift]]
        index[offsets < self.order - 1] = len(self.rows) - 1
        return self.rows, index


class FeatureModel(SequenceModel):
    """Tiny recurrent model that exposes its penultimate feature sequence.

    One step consumes a token: f <- tanh(recur_w @ [f; embed[token]] + recur_b),
    starting from f = 0. The output head maps the current feature to scores,
    softmaxed into the next-token distribution. The feature sequence itself is
    what feature-level drafting extrapolates.
    """

    # each weight's name and number of axes, in the constructor's order
    WEIGHTS = {"embed": 2, "recur_w": 2, "recur_b": 1, "head_w": 2, "head_b": 1}

    def __init__(self, vocab_size, embed, recur_w, recur_b, head_w, head_b, cost_units=1.0):
        self.vocab_size = _check_vocab_size(vocab_size)
        for name, arr in zip(self.WEIGHTS, (embed, recur_w, recur_b, head_w, head_b)):
            setattr(self, name, _frozen(arr))
        if self.embed.shape[0] != self.vocab_size:
            raise ValueError("embed must have one row per token")
        dim = self.embed.shape[1]
        if not MIN_FEATURE_DIM <= dim <= MAX_FEATURE_DIM:
            raise ValueError(f"feature dim must be in [{MIN_FEATURE_DIM}, {MAX_FEATURE_DIM}]")
        self.dim = dim
        if self.recur_w.shape != (dim, 2 * dim) or self.recur_b.shape != (dim,):
            raise ValueError("recurrence must map 2*dim -> dim")
        if self.head_w.shape != (self.vocab_size, dim) or self.head_b.shape != (self.vocab_size,):
            raise ValueError("head must map dim -> vocab scores")
        for name in self.WEIGHTS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")
        # Features lie in [-1, 1], so |w| @ (largest |input|) + |b| bounds each score
        # and pre-activation; where that is not finite, products can overflow to NaN.
        largest_in = np.concatenate([np.ones(dim), np.abs(self.embed).max(axis=0)])
        with np.errstate(over="ignore"):
            bounds = {"head": np.abs(self.head_w).sum(axis=1) + np.abs(self.head_b),
                      "recurrence": np.abs(self.recur_w) @ largest_in + np.abs(self.recur_b)}
        for layer, bound in bounds.items():
            if not np.isfinite(bound).all():
                raise ValueError(f"the {layer} can overflow: |w| @ (largest |input|) + |b| is not finite")
        self.cost_units = _check_cost(cost_units)

    # The state is the current feature, the toy analogue of a KV cache.
    def start(self, ctx: Context) -> np.ndarray:
        ctx = check_context(ctx, self.vocab_size)
        if not ctx:
            raise DynexecError("a feature model needs at least one context token")
        return self.branch(np.zeros(self.dim), ctx)[-1]

    # advance and dist take one feature or a batch of them, one per row. The
    # stacked mat-vec runs the same kernel on each row as on a single feature,
    # so row i of a batch equals the 1-D call bit for bit; a single gemm over
    # the batch (features @ W.T) would not.
    def advance(self, state: np.ndarray, token) -> np.ndarray:
        x = np.concatenate([state, self.embed[token]], axis=-1)
        return np.tanh(np.matmul(self.recur_w, x[..., None])[..., 0] + self.recur_b)

    def dist(self, state: np.ndarray) -> np.ndarray:
        return softmax(np.matmul(self.head_w, state[..., None])[..., 0] + self.head_b)

    # one stacked mat-vec and one softmax for all the states, row i equal to dist(states[i])
    def dists(self, states) -> np.ndarray:
        return self.dist(np.array(states))

    def rows_after(self, tokens: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """As `TableModel.rows_after`, with one row per position: the sequences,
        each from an offset of 0, step in lockstep, longest first, one stacked
        `advance` per position over those still running, then one batched `dist`
        of all the features, so row k is `next_dist` of its prefix bit for bit."""
        starts = np.flatnonzero(offsets == 0)
        lengths = np.diff(starts, append=len(tokens))
        starts = starts[np.argsort(-lengths)]
        running = len(starts) - np.cumsum(np.bincount(lengths))  # sequences longer than each position
        features = np.empty((len(tokens), self.dim))
        state = np.zeros((len(starts), self.dim))
        for position, count in enumerate(running[:-1].tolist()):
            at = starts[:count] + position
            state = features[at] = self.advance(state[:count], tokens[at])
        return self.dist(features), np.arange(len(tokens))

    next_dist = SequenceModel.next_dist


def feature_forward(model: FeatureModel, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Run the recurrence over ctx, returning all penultimate features and the
    next-token distribution after the final token."""
    ctx = check_context(ctx, model.vocab_size)
    if not ctx:
        raise DynexecError("feature_forward needs at least one context token")
    feats = np.array(model.branch(model.start(ctx[:1]), ctx[1:]))
    return feats, model.dist(feats[-1])


# ---------------------------------------------------------------------------
# Model serialization: JSON listing every model field. Floats go through
# Python repr, which round-trips float64 exactly, so load(save(m)) is bit-exact.
# ---------------------------------------------------------------------------

def model_to_dict(model: SequenceModel) -> dict:
    if isinstance(model, TableModel):
        table = {",".join(map(str, w)): row.tolist() for w, row in sorted(model.table.items())}
        return {
            "vocab_size": model.vocab_size,
            "kind": "table",
            "cost_units": model.cost_units,
            "order": model.order,
            "fallback": model.fallback.tolist(),
            "table": table,
        }
    if isinstance(model, FeatureModel):
        return {
            "vocab_size": model.vocab_size,
            "kind": "feature",
            "cost_units": model.cost_units,
            "dim": model.dim,
            **{name: getattr(model, name).tolist() for name in FeatureModel.WEIGHTS},
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


_NUMBER_TYPES = {int, float}


def _check_numbers(name: str, rows):
    """Every row a JSON array and every entry a JSON number: np.asarray would
    coerce "0.5" or true into a float. Two passes over the types, not a check
    per entry, keep large tables cheap to load."""
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(type, itertools.chain.from_iterable(rows))) <= _NUMBER_TYPES):
        raise SchemaError(f"'{name}' must hold only JSON numbers", key=name)


def model_from_dict(doc: dict) -> SequenceModel:
    kind = doc.get("kind")
    # int() and float() would coerce 8.9, "8" or true into a valid model
    for key, check, rule in (("vocab_size", is_int, "an integer"), ("order", is_int, "an integer"),
                             ("cost_units", is_number, "a number")):
        if key in doc and not check(doc[key]):
            raise SchemaError(f"key '{key}' must be {rule}, got {doc[key]!r}", key=key)
    if kind == "table":
        table = {}
        for key, row in doc["table"].items():
            window = tuple(map(int, key.split(","))) if key else ()
            if ",".join(map(str, window)) != key:
                raise SchemaError(f"table key {key!r} is not comma-joined decimal integers", key="table")
            table[window] = row
        _check_numbers("table", list(table.values()))
        _check_numbers("fallback", [doc["fallback"]])
        return TableModel(doc["vocab_size"], doc["order"], table,
                          fallback=doc["fallback"], cost_units=doc["cost_units"])
    if kind == "feature":
        weights = [doc[name] for name in FeatureModel.WEIGHTS]
        for (name, ndim), value in zip(FeatureModel.WEIGHTS.items(), weights):
            _check_numbers(name, value if ndim == 2 else [value])
        return FeatureModel(doc["vocab_size"], *weights, cost_units=doc["cost_units"])
    raise ValueError(f"unknown model kind {kind!r}")


def atomic_write_text(path: str, text: str):
    """Write via a temp file + rename so a killed run never leaves a partial file.

    The temp file is created with mode 0o666, like any new file, so the
    umask decides its permissions; tempfile.mkstemp would force 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model: SequenceModel, path: str):
    atomic_write_text(path, json.dumps(model_to_dict(model), sort_keys=True, indent=1) + "\n")


def _parse_json(data: bytes, path: str):
    """Parse one JSON input file's bytes; a syntax error is a ParseError at path:line:col."""
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except RecursionError:
        raise ParseError(f"{path}: nested too deeply to parse") from None
    except ValueError as exc:
        # an integer beyond Python's int-from-text limit of 4300 digits
        raise ParseError(f"{path}: {exc}") from None


def _load_json(path: str):
    with open(path, "rb") as fh:
        return _parse_json(fh.read(), path)


# What `load_checked` keeps: (build, file bytes) -> build's object, least recently
# used first. One run of every technique reads about a dozen files.
_LOADED_CAP = 16
_loaded = {}


def load_checked(path: str, build):
    """build(doc, path) of the JSON document in the file at path, parsed and
    built once per content. The file is read at every call; bytes equal to
    those of an earlier call that succeeded give that call's object. A failure
    is never kept, and only the _LOADED_CAP objects used last are. So build
    checks only what the document holds (path names the file in its errors),
    and what it returns is never None and never changed; a caller runs any
    check against other inputs itself, at every call."""
    with open(path, "rb") as fh:
        data = fh.read()
    key = build, data
    value = _loaded.pop(key, None)
    if value is None:
        value = build(_parse_json(data, path), path)
        if len(_loaded) >= _LOADED_CAP:
            del _loaded[next(iter(_loaded))]
    _loaded[key] = value
    return value


def _model_from_file(doc, path: str) -> SequenceModel:
    try:
        return model_from_dict(doc)
    except KeyError as exc:
        raise SchemaError(f"model file {path} lacks key {exc}", key=path) from exc
    except (AttributeError, TypeError, ValueError, OverflowError, DynexecError) as exc:
        raise SchemaError(f"malformed model file {path}: {exc}", key=path) from exc


def load_model(path: str) -> SequenceModel:
    """The model saved at path; equal bytes give the one shared (immutable) model."""
    return load_checked(path, _model_from_file)

"""Toy sequence models, probability utilities, seeded randomness, and cost accounting.

Everything downstream (speculative decoding, lookahead, routing, ...) consumes the
primitives defined here: probability vectors are plain float64 numpy arrays of
length V, contexts are tuples of token ids, and all randomness flows through the
counter-based `Rng` so any experiment is reproducible from a single 64-bit seed.
"""

import json
import os
import secrets

import numpy as np

from .errors import (
    AllZero,
    EmptyContext,
    InvalidDistribution,
    NegativeWeight,
    VocabMismatch,
)

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


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based SplitMix64 stream.

    Draw number k (1-based) of a stream with seed s is mix64(s + k*GOLDEN mod 2^64),
    which makes scalar and vectorized draws bit-identical and the whole stream a
    pure function of (seed, draw index) on every platform. Uniforms use the top
    53 bits, so values lie in [0, 1). Normals are Box-Muller pairs consuming two
    uniforms each. `child(i)` derives an independent stream by hashing the master
    seed with the child index; it does not disturb this stream's counter.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def child(self, index: int) -> "Rng":
        if index < 0:
            raise ValueError("child index must be non-negative")
        return Rng(_mix64(self._seed ^ _mix64((index + 1) * _GOLDEN)))

    def u64(self) -> int:
        self._count += 1
        return _mix64(self._seed + self._count * _GOLDEN)

    def uniform(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = np.uint64(self._seed) + ks * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def normals(self, n: int) -> np.ndarray:
        u = self.uniforms(2 * n)
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        return r * np.cos(2.0 * np.pi * u[1::2])


class CostMeter:
    """Accumulates abstract cost units and per-role call counts for one session."""

    ROLES = ("target", "draft")

    def __init__(self):
        self.target_calls = 0
        self.draft_calls = 0
        self.cost_accumulated = 0.0

    def record(self, role: str, cost_units: float, calls: int = 1):
        if role not in self.ROLES:
            raise ValueError(f"unknown meter role {role!r}")
        if calls < 0 or cost_units < 0:
            raise ValueError("meter counters never decrease")
        if role == "target":
            self.target_calls += calls
        else:
            self.draft_calls += calls
        self.cost_accumulated += calls * cost_units


def normalize(weights) -> np.ndarray:
    """Scale non-negative weights into a probability vector."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a 1-D weight vector of length >= 2")
    if np.any(w < 0):
        raise NegativeWeight("weights must be non-negative")
    total = float(w.sum())
    if total == 0.0:
        raise AllZero("cannot normalize an all-zero weight vector")
    return w / total


def check_dist(d, name: str = "distribution") -> np.ndarray:
    """Validate a probability vector: non-negative entries summing to 1 within 1e-9."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1 or d.size < MIN_VOCAB:
        raise InvalidDistribution(f"{name} must be a 1-D vector of length >= {MIN_VOCAB}")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise InvalidDistribution(f"{name} has negative or non-finite entries")
    if abs(float(d.sum()) - 1.0) > DIST_ATOL:
        raise InvalidDistribution(f"{name} sums to {d.sum()!r}, not 1")
    return d


def entropy(d) -> float:
    """Shannon entropy in nats, with 0*ln(0) taken as 0.

    Nats are used throughout so that ln(2) is the two-class uniform bound for
    early-exit gates and ln(V) the V-class bound for routing difficulty.
    """
    d = np.asarray(d, dtype=np.float64)
    p = d[d > 0]
    return max(0.0, float(-(p * np.log(p)).sum()))


def sample(d, rng: Rng) -> int:
    """Draw one token by inverse CDF, scanning tokens in index order.

    Consumes exactly one uniform, which is what makes brute-force enumeration
    of the decode process tractable (uniforms integrate out analytically).
    """
    u = rng.uniform()
    acc = 0.0
    last_positive = 0
    for i, p in enumerate(d):
        if p > 0:
            last_positive = i
            acc += p
            if u < acc:
                return i
    # u landed beyond the accumulated mass (sum can be < 1 by ~1e-9)
    return last_positive


def sample_many(d, n: int, rng: Rng) -> np.ndarray:
    """Vectorized `sample`: n tokens from one distribution, n uniforms consumed.

    Produces the same tokens sample() would produce from the same stream.
    """
    d = np.asarray(d, dtype=np.float64)
    u = rng.uniforms(n)
    cdf = np.cumsum(d)
    idx = np.searchsorted(cdf, u, side="right")
    last_positive = int(np.nonzero(d)[0][-1])
    return np.minimum(idx, last_positive)


def softmax(scores) -> np.ndarray:
    z = np.asarray(scores, dtype=np.float64)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def check_context(ctx, vocab_size: int) -> Context:
    ctx = tuple(int(t) for t in ctx)
    for t in ctx:
        if t < 0 or t >= vocab_size:
            raise VocabMismatch(f"token {t} outside vocabulary of size {vocab_size}")
    return ctx


def _check_vocab_size(v: int) -> int:
    v = int(v)
    if not MIN_VOCAB <= v <= MAX_VOCAB:
        raise ValueError(f"vocab size must be in [{MIN_VOCAB}, {MAX_VOCAB}], got {v}")
    return v


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


class SequenceModel:
    """Deterministic next-token distribution producer with a per-call cost.

    The model reads a context through an immutable state: `start(ctx)` reads
    a whole context, `advance(state, token)` extends it by one token and
    `dist(state)` is the length-V next-token distribution. States are plain
    tuples or arrays and never change, so a verify cycle branches its K+1
    positions from one state and decoding costs one `advance` per token.
    `next_dist(ctx)` is `dist(start(ctx))`. Models are immutable after
    construction and safe to share across sessions.
    """

    vocab_size: int
    cost_units: float

    def start(self, ctx: Context):
        raise NotImplementedError

    def advance(self, state, token: int):
        raise NotImplementedError

    def dist(self, state) -> np.ndarray:
        raise NotImplementedError

    def next_dist(self, ctx: Context) -> np.ndarray:
        raise NotImplementedError

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
        if cost_units <= 0:
            raise ValueError("cost_units must be positive")
        self.cost_units = float(cost_units)
        rows = {}
        for window, row in table.items():
            window = check_context(window, self.vocab_size)
            if len(window) != order:
                raise ValueError(f"window {window} does not have length {order}")
            rows[window] = _frozen(check_dist(row, f"table row {window}"))
        self.table = rows
        if fallback is None:
            fallback = np.full(self.vocab_size, 1.0 / self.vocab_size)
        self.fallback = _frozen(check_dist(fallback, "fallback"))

    # The state is the window of the last `order` tokens. A shorter one, from
    # a context shorter than the order, is no table key, so it selects the
    # fallback row like a window absent from the table.
    def start(self, ctx: Context) -> Context:
        return tuple(ctx[-self.order:]) if self.order else ()

    def advance(self, state: Context, token: int) -> Context:
        return (state + (token,))[-self.order:] if self.order else ()

    def dist(self, state: Context) -> np.ndarray:
        return self.table.get(state, self.fallback)

    # dist(start(ctx)) in one call: routing reads every prompt prefix through
    # it. Defined on each subclass: the benchmark's tracer wraps it per class.
    def next_dist(self, ctx: Context) -> np.ndarray:
        return self.table.get(tuple(ctx[-self.order:]) if self.order else (), self.fallback)


class FeatureModel(SequenceModel):
    """Tiny recurrent model that exposes its penultimate feature sequence.

    One step consumes a token: f <- tanh(recur_w @ [f; embed[token]] + recur_b),
    starting from f = 0. The output head maps the current feature to scores,
    softmaxed into the next-token distribution. The feature sequence itself is
    what feature-level drafting extrapolates.
    """

    def __init__(self, vocab_size, embed, recur_w, recur_b, head_w, head_b, cost_units=1.0):
        self.vocab_size = _check_vocab_size(vocab_size)
        embed = np.asarray(embed, dtype=np.float64)
        if embed.shape[0] != self.vocab_size:
            raise ValueError("embed must have one row per token")
        dim = embed.shape[1]
        if not MIN_FEATURE_DIM <= dim <= MAX_FEATURE_DIM:
            raise ValueError(f"feature dim must be in [{MIN_FEATURE_DIM}, {MAX_FEATURE_DIM}]")
        self.dim = dim
        recur_w = np.asarray(recur_w, dtype=np.float64)
        recur_b = np.asarray(recur_b, dtype=np.float64)
        head_w = np.asarray(head_w, dtype=np.float64)
        head_b = np.asarray(head_b, dtype=np.float64)
        if recur_w.shape != (dim, 2 * dim) or recur_b.shape != (dim,):
            raise ValueError("recurrence must map 2*dim -> dim")
        if head_w.shape != (self.vocab_size, dim) or head_b.shape != (self.vocab_size,):
            raise ValueError("head must map dim -> vocab scores")
        for name, arr in (("embed", embed), ("recur_w", recur_w), ("recur_b", recur_b),
                          ("head_w", head_w), ("head_b", head_b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
        if cost_units <= 0:
            raise ValueError("cost_units must be positive")
        self.cost_units = float(cost_units)
        self.embed = _frozen(embed)
        self.recur_w = _frozen(recur_w)
        self.recur_b = _frozen(recur_b)
        self.head_w = _frozen(head_w)
        self.head_b = _frozen(head_b)

    def step(self, feature: np.ndarray, token: int) -> np.ndarray:
        x = np.concatenate([feature, self.embed[token]])
        return np.tanh(self.recur_w @ x + self.recur_b)

    def head_dist(self, feature: np.ndarray) -> np.ndarray:
        return softmax(self.head_w @ feature + self.head_b)

    # The state is the current feature, the toy analogue of a KV cache.
    def start(self, ctx: Context) -> np.ndarray:
        ctx = check_context(ctx, self.vocab_size)
        if not ctx:
            raise EmptyContext("a feature model needs at least one context token")
        f = np.zeros(self.dim)
        for token in ctx:
            f = self.step(f, token)
        return f

    def advance(self, state: np.ndarray, token: int) -> np.ndarray:
        return self.step(state, token)

    def dist(self, state: np.ndarray) -> np.ndarray:
        return self.head_dist(state)

    # defined on each subclass: the benchmark's tracer wraps it per class
    def next_dist(self, ctx: Context) -> np.ndarray:
        return self.dist(self.start(ctx))


def feature_forward(model: FeatureModel, ctx) -> tuple[np.ndarray, np.ndarray]:
    """Run the recurrence over ctx, returning all penultimate features and the
    next-token distribution after the final token."""
    ctx = check_context(ctx, model.vocab_size)
    if not ctx:
        raise EmptyContext("feature_forward needs at least one context token")
    feats = np.empty((len(ctx), model.dim))
    f = np.zeros(model.dim)
    for t, token in enumerate(ctx):
        f = model.step(f, token)
        feats[t] = f
    return feats, model.head_dist(f)


def model_next(model: SequenceModel, ctx, meter: CostMeter = None, role: str = "target") -> np.ndarray:
    """Evaluate the model on a context, billing its cost to the meter.

    `role` selects which meter counter the call lands on; decoders bill their
    draft model as "draft" and everything else as "target".
    """
    ctx = check_context(ctx, model.vocab_size)
    dist = model.next_dist(ctx)
    if meter is not None:
        meter.record(role, model.cost_units)
    return dist


# ---------------------------------------------------------------------------
# Model serialization: JSON with full parameter listing. Floats go through
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
            "embed": model.embed.tolist(),
            "recur_w": model.recur_w.tolist(),
            "recur_b": model.recur_b.tolist(),
            "head_w": model.head_w.tolist(),
            "head_b": model.head_b.tolist(),
        }
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict) -> SequenceModel:
    kind = doc.get("kind")
    if kind == "table":
        table = {}
        for key, row in doc["table"].items():
            window = tuple(int(t) for t in key.split(",")) if key else ()
            table[window] = row
        return TableModel(doc["vocab_size"], doc["order"], table,
                          fallback=doc["fallback"], cost_units=doc["cost_units"])
    if kind == "feature":
        return FeatureModel(doc["vocab_size"], doc["embed"], doc["recur_w"],
                            doc["recur_b"], doc["head_w"], doc["head_b"],
                            cost_units=doc["cost_units"])
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


def load_model(path: str) -> SequenceModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))

"""Greedy decoding accelerated by an n-gram cache.

Continuations observed earlier in the history are replayed as proposals and
checked against the target's argmax up to the first mismatch, one simulated
target call per round. Output is bit-identical to plain greedy decoding; the
cache only changes how many target calls it takes to get there. Argmax ties
break to the lowest token index on both the proposal and verification sides,
which is what makes the equivalence exact and seed-free.
"""

from dataclasses import dataclass, field

from .core import SequenceModel, TableModel, check_context
from .specdec import _UNCACHED, _decode_loop, _RowMemo


@dataclass
class NGramCache:
    """Most-recent-wins map from (n-1)-token windows to the token that followed."""

    n: int
    map: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n-gram size must be >= 2")


@dataclass(frozen=True)
class LookaheadStats:
    tokens_generated: int
    target_calls: int
    proposed: int
    verified_hits: int


def cache_update(cache: NGramCache, history) -> NGramCache:
    """Insert every (window -> next token) pair from history, later occurrences winning."""
    history = tuple(history)
    w = cache.n - 1
    for i in range(len(history) - w):
        cache.map[history[i:i + w]] = history[i + w]
    return cache


def propose(cache: NGramCache, ctx, L: int) -> list[int]:
    """Chain cache hits from ctx's trailing window, up to L tokens, stopping at the first miss."""
    if L < 1:
        raise ValueError("L must be >= 1")
    ctx = tuple(ctx)
    w = cache.n - 1
    if len(ctx) < w:
        return []
    window = ctx[-w:]
    out = []
    for _ in range(L):
        token = cache.map.get(window)
        if token is None:
            break
        out.append(token)
        window = (window + (token,))[-w:]
    return out


def lookahead_decode(target: SequenceModel, prompt, N: int, n: int, L: int):
    """Greedy-decode N tokens, verifying cached n-gram proposals.

    Each round counts one simulated target call. Its rule receives the
    target's state and walks it through the proposal: `dist`, then an
    `advance` only where that row's argmax matches the proposed token. So a
    round reads n_accepted + 1 positions and emits the accepted prefix plus
    the argmax after it, taking each row's argmax once per decode (a table
    target's rows recur, so a `_RowMemo` keeps them). A round with no cached
    continuation proposes nothing and emits the plain greedy token. Surplus
    tokens past N from the final round are dropped. The cache receives only
    the windows that end in tokens emitted since the previous round, which
    are the latest windows and so still win.
    """
    prompt = check_context(prompt, target.vocab_size)
    cache = NGramCache(n)
    w = n - 1
    seen = 0  # history tokens whose windows are in the cache
    memo = _RowMemo(len(target.rows)) if isinstance(target, TableModel) else _UNCACHED

    # cache_update and propose are read from the module on every round, where
    # the benchmark's tracer and the tests may have replaced them
    def propose_from_cache(history, _, __):
        nonlocal seen
        cache_update(cache, history[max(0, seen - w):])
        seen = len(history)
        tokens = propose(cache, history[-w:], L)
        return tokens, tokens, None

    def greedy(state, proposal):
        emitted = []
        for token in proposal + [None]:  # None matches no argmax: the walk ends by then
            emitted.append(memo.top(target.dist(state)))
            if emitted[-1] != token:
                return len(emitted) - 1, emitted, state
            state = target.advance(state, token)

    out, cycles, proposed, hits = _decode_loop(target, prompt, N, propose_from_cache, greedy)
    return out, LookaheadStats(
        tokens_generated=len(out),
        target_calls=cycles,
        proposed=proposed,
        verified_hits=hits,
    )

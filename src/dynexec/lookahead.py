"""Greedy decoding accelerated by an n-gram cache.

Continuations observed earlier in the history are replayed as proposals and
verified against the target's argmax in one batched call per round. Output is
bit-identical to plain greedy decoding; the cache only changes how many target
calls it takes to get there. Argmax ties break to the lowest token index on
both the proposal and verification sides, which is what makes the equivalence
exact and seed-free.
"""

from dataclasses import dataclass, field

from .core import SequenceModel, check_context
from .specdec import _decode_loop


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


def _greedy_prefix(dists, proposal):
    """The verify rule: keep the longest prefix of proposal that matches the
    target's argmax, then emit the argmax after it (n_accepted, emitted,
    corrected). A plain tuple, as the loop builds one per round."""
    # argmax returns the first maximum, i.e. the lowest token index on ties
    for i, token in enumerate(proposal):
        best = int(dists[i].argmax())
        if best != token:
            return i, proposal[:i] + [best], True
    return len(proposal), proposal + [int(dists[-1].argmax())], False


def lookahead_decode(target: SequenceModel, prompt, N: int, n: int, L: int):
    """Greedy-decode N tokens, verifying cached n-gram proposals in batched calls.

    Each round scores the proposal positions plus one in a single target call,
    keeps the longest prefix matching the target's argmax, and always emits at
    least the argmax at the first mismatch (or the position after a fully
    accepted proposal). A round with no cached continuation proposes nothing
    and emits the plain greedy token. Surplus tokens past N from the final
    round are dropped. The cache receives only the windows that end in tokens
    emitted since the previous round, which are the latest windows and so
    still win.
    """
    prompt = check_context(prompt, target.vocab_size)
    cache = NGramCache(n)
    w = n - 1
    seen = 0  # history tokens whose windows are in the cache

    # cache_update and propose are read from the module on every round, where
    # the benchmark's tracer and the tests may have replaced them
    def propose_from_cache(history, _, __):
        nonlocal seen
        cache_update(cache, history[max(0, seen - w):])
        seen = len(history)
        tokens = propose(cache, history[-w:], L)
        return tokens, tokens, None

    out, cycles, proposed, hits = _decode_loop(target, prompt, N, propose_from_cache, _greedy_prefix)
    return out, LookaheadStats(
        tokens_generated=len(out),
        target_calls=cycles,
        proposed=proposed,
        verified_hits=hits,
    )

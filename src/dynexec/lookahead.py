"""Greedy decoding accelerated by an n-gram cache.

Continuations observed earlier in the history are replayed as proposals and
verified against the target's argmax in one batched call per round. Output is
bit-identical to plain greedy decoding; the cache only changes how many target
calls it takes to get there. Argmax ties break to the lowest token index on
both the proposal and verification sides, which is what makes the equivalence
exact and seed-free.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import SequenceModel, check_context


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


def _argmax(dist) -> int:
    # np.argmax returns the first maximum, i.e. the lowest token index on ties
    return int(np.argmax(dist))


def lookahead_decode(target: SequenceModel, prompt, N: int, n: int = 3, L: int = 4):
    """Greedy-decode N tokens, verifying cached n-gram proposals in batched calls.

    Each round scores the proposal positions plus one in a single target call,
    keeps the longest prefix matching the target's argmax, and always emits at
    least the argmax at the first mismatch (or the position after a fully
    accepted proposal). Surplus tokens past N from the final round are dropped.
    The target's state branches over the proposal and moves on from the
    accepted prefix's branch by the last emitted token; the cache receives only
    the windows that end in tokens emitted since the previous round, which
    are the latest windows and so still win.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    history = list(check_context(prompt, target.vocab_size))
    n_prompt = len(history)
    cache = NGramCache(n)
    w = n - 1
    state = target.start(history)
    seen = 0  # history tokens whose windows are in the cache
    target_calls = 0
    proposed_total = 0
    hits_total = 0
    while len(history) - n_prompt < N:
        cache_update(cache, history[max(0, seen - w):])
        seen = len(history)
        proposal = propose(cache, history[-w:], L)
        branch = target.branch(state, proposal)
        dists = [target.dist(s) for s in branch]
        target_calls += 1
        proposed_total += len(proposal)
        emitted = []
        matched = 0
        for i, token in enumerate(proposal):
            best = _argmax(dists[i])
            if best == token:
                emitted.append(token)
                matched += 1
            else:
                emitted.append(best)
                break
        else:
            emitted.append(_argmax(dists[len(proposal)]))
        hits_total += matched
        state = target.advance(branch[matched], emitted[-1])
        history.extend(emitted)
    out = history[n_prompt:n_prompt + N]
    stats = LookaheadStats(
        tokens_generated=len(out),
        target_calls=target_calls,
        proposed=proposed_total,
        verified_hits=hits_total,
    )
    return out, stats

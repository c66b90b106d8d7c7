"""Token-level speculative sampling.

A cheap draft model proposes K tokens through `draft(dist, advance, state, K,
rng, memo)`, the one drafting loop, which runs from the drafter's state after
the context. The target model scores the whole proposal in one batched call,
and a modified rejection scan decides how many to keep. On the first
rejection one token is resampled from the residual distribution
normalize(max(0, p - q)); if everything survives, a bonus token is sampled
from the target's distribution after the drafts. Under this rule the emitted
sequence follows the target model's autoregressive distribution exactly, no
matter how bad the draft model is; draft quality only moves the acceptance
rate, and with it the simulated speedup.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Rng, SequenceModel, TableModel, check_context, running_sums
from .errors import DynexecError


class DraftOutput(NamedTuple):
    """K drafted tokens plus the draft distribution each was sampled from;
    `verify` checks that there is at least one, each with its distribution."""

    tokens: tuple[int, ...]
    dists: tuple[np.ndarray, ...]


class VerificationResult(NamedTuple):
    """Outcome of one verify cycle.

    emitted always has n_accepted + 1 tokens: the accepted draft prefix plus
    either a residual-resampled token (resampled=True) or the bonus token.
    A named tuple: every cycle builds one, and a frozen dataclass costs more
    to build.
    """

    n_accepted: int
    emitted: tuple[int, ...]
    resampled: bool


@dataclass(frozen=True)
class DecodeStats:
    tokens_generated: int
    target_calls: int
    draft_calls: int
    cycles: int
    acceptance_rate: float
    tokens_per_target_call: float


class _RowMemo:
    """What a decode derives from a row: the `running_sums` of each row it
    draws from and of each rejected (target row, draft row) pair's residual,
    and the greedy token, its first argmax (the lowest index on ties), of
    each row it checks. Up to `cap` of each are kept, keyed by identity and
    stored with their rows, so no key is reused; past the cap, and always at
    the default's cap 0, they are derived at every read."""

    def __init__(self, cap: int):
        self._rows = {}
        self._pairs = {}
        self._tops = {}
        self._cap = cap

    def row(self, d) -> list:
        entry = self._rows.get(id(d))
        if entry is None:
            entry = running_sums(d), d
            if len(self._rows) < self._cap:
                self._rows[id(d)] = entry
        return entry[0]

    def rejected(self, p, q) -> list:
        key = (id(p), id(q))
        entry = self._pairs.get(key)
        if entry is None:
            entry = running_sums(residual(p, q)), p, q
            if len(self._pairs) < self._cap:
                self._pairs[key] = entry
        return entry[0]

    def top(self, d) -> int:
        entry = self._tops.get(id(d))
        if entry is None:
            entry = int(d.argmax()), d
            if len(self._tops) < self._cap:
                self._tops[id(d)] = entry
        return entry[0]


_UNCACHED = _RowMemo(0)


def draft(dist, advance, state, K: int, rng: Rng, memo: _RowMemo = _UNCACHED):
    """The one drafting loop: sample K tokens autoregressively from a drafter's
    state after the context, recording each distribution.

    `dist(state)` is the drafter's next-token distribution and
    `advance(state, token)` its next state; the drafter steps only between
    drafted tokens. Each token is `sample`'s draw from its distribution q,
    made inline on q's running sums from `memo`. Returns the proposal and
    the K states the tokens were drafted from.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    tokens = []
    dists = []
    states = [state]
    for k in range(K):
        q = dist(states[-1])
        tokens.append(bisect_right(memo.row(q), rng.uniform()))
        dists.append(q)
        if k + 1 < K:
            states.append(advance(states[-1], tokens[-1]))
    return DraftOutput(tuple(tokens), tuple(dists)), states


def residual(p, q) -> np.ndarray:
    """The distribution sampled after a rejection: normalize(max(0, p - q))."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise DynexecError("residual needs two 1-D distributions of equal length")
    r = p - q
    np.maximum(r, 0.0, out=r)
    total = float(r.sum())
    if total == 0.0:
        raise DynexecError("p equals q elementwise; rejection there has probability 0")
    # r is non-negative by construction, so this is normalize(r) without its checks
    return r / total


def verify(target_dists, d: DraftOutput, rng: Rng, memo: _RowMemo = _UNCACHED) -> VerificationResult:
    """Scan drafted tokens in order, accepting token x at position i iff
    u < min(1, p_i(x) / q_i(x)) for a fresh uniform u.

    On the first rejection, one token is drawn from residual(p_i, q_i) and the
    scan stops; if all K drafts survive, a bonus token is drawn from
    target_dists[K]. Each is `sample`'s draw, made inline on the running sums
    from `memo`. Exactly one uniform is consumed per scanned position plus
    one for the terminal draw, so the randomness budget is countable.
    """
    K = len(d.tokens)
    if K != len(d.dists) or not K:
        raise DynexecError("draft needs K >= 1 tokens with one distribution each")
    if len(target_dists) != K + 1:
        raise DynexecError(f"expected {K + 1} target distributions, got {len(target_dists)}")
    for i in range(K):
        token = d.tokens[i]
        p_i = target_dists[i]
        q_i = d.dists[i]
        q_tok = float(q_i[token])
        if q_tok <= 0.0:
            raise DynexecError(
                f"drafted token {token} has zero draft probability at position {i}")
        u = rng.uniform()
        if u < min(1.0, float(p_i[token]) / q_tok):
            continue
        corrected = bisect_right(memo.rejected(p_i, q_i), rng.uniform())
        return VerificationResult(i, d.tokens[:i] + (corrected,), True)
    bonus = bisect_right(memo.row(target_dists[K]), rng.uniform())
    return VerificationResult(K, d.tokens + (bonus,), False)


def _decode_loop(target: SequenceModel, prompt, N, propose, check, draft_model=None):
    """The one draft -> verify loop over incremental model states.

    Each cycle `propose(history, state, draft_state)` returns the proposed
    tokens (possibly none), the object `check` verifies and the states
    draft_model drafted them from (None without a draft model).
    `check(state, proposal)` receives the target's state, reads the positions
    it needs and returns (n_accepted, emitted, the target's state after the
    accepted prefix); a cycle counts one simulated target call however many
    positions it read. The target's state then moves on by the last emitted
    token, and the draft model's from its last state inside the accepted
    prefix by the emitted tokens after it, so every model reads the prompt
    once and each emitted token once. `history` is the prompt plus the
    tokens emitted so far.

    Returns the first N emitted tokens, the cycles run (one target call
    each) and the tokens drafted (one draft call each) and accepted over all
    of them.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    history = list(prompt)
    n_prompt = len(history)
    state = target.start(prompt)
    draft_state = None if draft_model is None else draft_model.start(prompt)
    cycles = 0
    accepted = 0
    drafted = 0
    while len(history) - n_prompt < N:
        tokens, proposal, draft_branch = propose(history, state, draft_state)
        n_accepted, emitted, state = check(state, proposal)
        state = target.advance(state, emitted[-1])
        if draft_model is not None:
            i = min(n_accepted, len(tokens) - 1)
            draft_state = draft_model.branch(draft_branch[i], emitted[i:])[-1]
        history.extend(emitted)
        cycles += 1
        accepted += n_accepted
        drafted += len(tokens)
    return history[n_prompt:n_prompt + N], cycles, drafted, accepted


def _speculate(target: SequenceModel, prompt, N, rng, propose, draft_model=None, memo=_UNCACHED):
    """_decode_loop with the rejection scan `verify` as its rule, which reads the positions
    after every prefix of the proposal in one batched `target.dists` call, and its DecodeStats."""

    def check(state, d):
        branch = target.branch(state, d.tokens)
        n_accepted, emitted, _ = verify(target.dists(branch), d, rng, memo)
        return n_accepted, emitted, branch[n_accepted]

    out, cycles, drafted, accepted = _decode_loop(target, prompt, N, propose, check, draft_model)
    return out, DecodeStats(
        tokens_generated=len(out),
        target_calls=cycles,
        draft_calls=drafted,
        cycles=cycles,
        acceptance_rate=accepted / drafted,
        tokens_per_target_call=len(out) / cycles,
    )


def speculative_decode(target: SequenceModel, draft_model: SequenceModel,
                       prompt, N: int, K: int, rng: Rng):
    """Generate N tokens whose joint distribution is exactly the target's.

    Each cycle drafts K tokens and counts K draft calls plus ONE target
    call: the K+1 target evaluations of a cycle model the paper-style batched
    forward pass. Surplus tokens from the final cycle are discarded, but its
    drafted/accepted counts still feed acceptance_rate. A decode on two table
    models keeps up to rows_target + rows_draft sums of each kind in a `_RowMemo`.
    """
    if target.vocab_size != draft_model.vocab_size:
        raise DynexecError("target and draft models must share a vocabulary")
    prompt = check_context(prompt, target.vocab_size)
    tables = isinstance(target, TableModel) and isinstance(draft_model, TableModel)
    memo = _RowMemo(len(target.rows) + len(draft_model.rows)) if tables else _UNCACHED

    def propose(_, __, draft_state):
        d, states = draft(draft_model.dist, draft_model.advance, draft_state, K, rng, memo)
        return d.tokens, d, states

    return _speculate(target, prompt, N, rng, propose, draft_model, memo)


def simulated_speedup(stats: DecodeStats, target_cost: float, draft_cost: float) -> float:
    """Tokens generated, valued at target cost, divided by the simulated spend."""
    spend = stats.target_calls * target_cost + stats.draft_calls * draft_cost
    return stats.tokens_generated * target_cost / spend

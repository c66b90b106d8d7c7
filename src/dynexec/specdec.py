"""Token-level speculative sampling.

A cheap draft model proposes K tokens, the target model scores the whole
proposal in one batched call, and a modified rejection scan decides how many
to keep. On the first rejection one token is resampled from the residual
distribution normalize(max(0, p - q)); if everything survives, a bonus token
is sampled from the target's distribution after the drafts. Under this rule
the emitted sequence follows the target model's autoregressive distribution
exactly, no matter how bad the draft model is; draft quality only moves the
acceptance rate, and with it the simulated speedup.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .core import Rng, SequenceModel, TableModel, check_context, sample
from .errors import AllZeroResidual, ContractViolation, LengthMismatch, VocabMismatch


@dataclass(frozen=True)
class DraftOutput:
    """K drafted tokens plus the draft distribution each was sampled from."""

    tokens: tuple[int, ...]
    dists: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.dists) or not self.tokens:
            raise LengthMismatch("draft needs K >= 1 tokens with one distribution each")


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


def draft(draft_model: SequenceModel, ctx, K: int, rng: Rng) -> DraftOutput:
    """Sample K tokens autoregressively from the draft model, recording each distribution."""
    ctx = check_context(ctx, draft_model.vocab_size)
    return draft_from(draft_model.dist, draft_model.advance, draft_model.start(ctx), K, rng)[0]


def draft_from(dist, advance, state, K: int, rng: Rng, draw=None):
    """The one drafting loop: `draft` from a drafter's state after the context.

    `dist(state)` is the drafter's next-token distribution and
    `advance(state, token)` its next state; the drafter steps only between
    drafted tokens. Each token is `draw(q, rng)` from its distribution q:
    `sample` by default, or a draw that gives the same token from the same
    one uniform, such as `_TableDraws`' bisection of a table row. Returns the
    proposal and the K states the tokens were drafted from.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if draw is None:
        draw = sample
    tokens = []
    dists = []
    states = [state]
    for k in range(K):
        q = dist(states[-1])
        tokens.append(draw(q, rng))
        dists.append(q)
        if k + 1 < K:
            states.append(advance(states[-1], tokens[-1]))
    return DraftOutput(tuple(tokens), tuple(dists)), states


def residual(p, q) -> np.ndarray:
    """The distribution sampled after a rejection: normalize(max(0, p - q))."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch("residual needs two 1-D distributions of equal length")
    r = p - q
    np.maximum(r, 0.0, out=r)
    total = float(r.sum())
    if total == 0.0:
        raise AllZeroResidual("p equals q elementwise; rejection there has probability 0")
    # r is non-negative by construction, so this is normalize(r) without its checks
    return r / total


class _Draws:
    """A decode's draws: from a target row, from a draft row, and from the
    residual of a rejected (target row, draft row) pair. These plain ones,
    `sample` and `sample(residual(p, q))`, serve any model's rows."""

    def target(self, d, rng):
        return sample(d, rng)

    draft = target

    def rejected(self, p, q, rng):
        return sample(residual(p, q), rng)


def _running_sums(values) -> list:
    """`sample`'s running totals over `values`, cut after the last positive
    entry, whose total becomes inf, so bisect_right(sums, u) is the token
    `sample` draws with the uniform u, a u past the mass included. Adding a
    zero is exact, so the total at each positive entry is the one `sample`
    reaches, by the same IEEE additions in the same order."""
    last = len(values) - 1
    while last > 0 and not values[last] > 0:
        last -= 1
    sums = list(accumulate(values[:last + 1]))
    sums[last] = math.inf
    return sums


class _TableDraws(_Draws):
    """The draws of one decode whose target and draft are table models.

    A table model has a fixed set of rows, so the running sums of each row
    drawn from, and of each rejected pair's residual, are built the first
    time the decode needs them (nothing at load), and a draw is then one
    uniform and one bisection, the token and the uniform `sample` would take.
    Rows are keyed by identity and kept alive, so no key is reused. At most
    rows_target + rows_draft sums of each kind are kept; a row or pair past
    that cap is drawn the plain way.
    """

    def __init__(self, target: TableModel, draft_model: TableModel):
        self._sums = {}
        self._pairs = {}
        self._kept = []
        self._cap = len(target.rows) + len(draft_model.rows)

    def target(self, d, rng):
        sums = self._sums.get(id(d))
        if sums is None:
            if len(self._sums) >= self._cap:
                return sample(d, rng)
            sums = self._sums[id(d)] = _running_sums(d.tolist())
            self._kept.append(d)
        return bisect_right(sums, rng.uniform())

    draft = target

    def rejected(self, p, q, rng):
        key = (id(p), id(q))
        sums = self._pairs.get(key)
        if sums is None:
            r = residual(p, q)
            if len(self._pairs) >= self._cap:
                return sample(r, rng)
            sums = self._pairs[key] = _running_sums(r.tolist())
            self._kept += (p, q)
        return bisect_right(sums, rng.uniform())


_PLAIN_DRAWS = _Draws()


def verify(target_dists, d: DraftOutput, rng: Rng, draws: _Draws = _PLAIN_DRAWS) -> VerificationResult:
    """Scan drafted tokens in order, accepting token x at position i iff
    u < min(1, p_i(x) / q_i(x)) for a fresh uniform u.

    On the first rejection, one token is drawn from residual(p_i, q_i) and the
    scan stops; if all K drafts survive, a bonus token is drawn from
    target_dists[K]. `draws` makes these two draws: `sample` by default, or
    `_TableDraws`' bisections, which give the same tokens. Exactly one uniform
    is consumed per scanned position plus one for the terminal draw, so the
    randomness budget is countable.
    """
    K = len(d.tokens)
    if len(target_dists) != K + 1:
        raise LengthMismatch(f"expected {K + 1} target distributions, got {len(target_dists)}")
    for i in range(K):
        token = d.tokens[i]
        p_i = target_dists[i]
        q_i = d.dists[i]
        q_tok = float(q_i[token])
        if q_tok <= 0.0:
            raise ContractViolation(
                f"drafted token {token} has zero draft probability at position {i}")
        u = rng.uniform()
        if u < min(1.0, float(p_i[token]) / q_tok):
            continue
        corrected = draws.rejected(p_i, q_i, rng)
        return VerificationResult(i, d.tokens[:i] + (corrected,), True)
    bonus = draws.target(target_dists[K], rng)
    return VerificationResult(K, d.tokens + (bonus,), False)


def _decode_loop(target: SequenceModel, prompt, N, propose, check, draft_model=None):
    """The one draft -> verify loop over incremental model states.

    Each cycle `propose(history, state, draft_state)` returns the proposed
    tokens (possibly none), the object `check` verifies and the states
    draft_model drafted them from (None without a draft model). The target's
    positions after each proposal prefix branch from its one state, and one
    `target.dists` call, one batched target call, reads them all;
    `check(dists, proposal)` returns (n_accepted, emitted, resampled).
    Each state then moves on from the last one inside the accepted prefix
    by the emitted tokens after it, so every model reads the prompt once and
    each emitted token once. `history` is the prompt plus the tokens emitted
    so far.

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
        branch = target.branch(state, tokens)
        n_accepted, emitted, _ = check(target.dists(branch), proposal)
        last = emitted[-1]
        state = target.advance(branch[n_accepted], last)
        if draft_model is not None:
            i = min(n_accepted, len(tokens) - 1)
            draft_state = draft_model.branch(draft_branch[i], emitted[i:])[-1]
        history.extend(emitted)
        cycles += 1
        accepted += n_accepted
        drafted += len(tokens)
    return history[n_prompt:n_prompt + N], cycles, drafted, accepted


def _speculate(target: SequenceModel, prompt, N, rng, propose, draft_model=None, draws=_PLAIN_DRAWS):
    """_decode_loop with the rejection scan `verify` as its rule, and its DecodeStats."""
    out, cycles, drafted, accepted = _decode_loop(
        target, prompt, N, propose, lambda dists, d: verify(dists, d, rng, draws), draft_model)
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
    drafted/accepted counts still feed acceptance_rate. When both models
    are table models, their rows are drawn from by bisection of running sums
    built during this decode (`_TableDraws`).
    """
    if target.vocab_size != draft_model.vocab_size:
        raise VocabMismatch("target and draft models must share a vocabulary")
    prompt = check_context(prompt, target.vocab_size)
    tables = isinstance(target, TableModel) and isinstance(draft_model, TableModel)
    draws = _TableDraws(target, draft_model) if tables else _PLAIN_DRAWS

    def propose(_, __, draft_state):
        d, states = draft_from(draft_model.dist, draft_model.advance, draft_state, K, rng, draws.draft)
        return d.tokens, d, states

    return _speculate(target, prompt, N, rng, propose, draft_model, draws)


def simulated_speedup(stats: DecodeStats, target_cost: float, draft_cost: float) -> float:
    """Tokens generated, valued at target cost, divided by the simulated spend."""
    spend = stats.target_calls * target_cost + stats.draft_calls * draft_cost
    return stats.tokens_generated * target_cost / spend

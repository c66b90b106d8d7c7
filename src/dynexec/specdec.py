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

from dataclasses import dataclass

import numpy as np

from .core import CostMeter, Rng, SequenceModel, check_context, normalize, sample
from .errors import AllZeroResidual, ContractViolation, LengthMismatch, VocabMismatch


@dataclass(frozen=True)
class DraftOutput:
    """K drafted tokens plus the draft distribution each was sampled from."""

    tokens: tuple[int, ...]
    dists: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.dists) or not self.tokens:
            raise LengthMismatch("draft needs K >= 1 tokens with one distribution each")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one verify cycle.

    emitted always has n_accepted + 1 tokens: the accepted draft prefix plus
    either a residual-resampled token (resampled=True) or the bonus token.
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


def draft(draft_model: SequenceModel, ctx, K: int, rng: Rng, meter: CostMeter) -> DraftOutput:
    """Sample K tokens autoregressively from the draft model, recording each distribution."""
    if K < 1:
        raise ValueError("K must be >= 1")
    ctx = check_context(ctx, draft_model.vocab_size)
    return draft_from(draft_model, draft_model.start(ctx), K, rng, meter)[0]


def draft_from(draft_model: SequenceModel, state, K: int, rng: Rng, meter: CostMeter):
    """`draft` from the draft model's state after the context.

    Returns the proposal and the draft model's K+1 branch states: its state
    before each drafted token, then after the last one.
    """
    tokens = []
    dists = []
    states = [state]
    for _ in range(K):
        q = draft_model.dist(states[-1])
        meter.record("draft", draft_model.cost_units)
        tokens.append(sample(q, rng))
        dists.append(q)
        states.append(draft_model.advance(states[-1], tokens[-1]))
    return DraftOutput(tuple(tokens), tuple(dists)), states


def residual(p, q) -> np.ndarray:
    """The distribution sampled after a rejection: normalize(max(0, p - q))."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise LengthMismatch("residual needs distributions of equal length")
    r = np.maximum(p - q, 0.0)
    if float(r.sum()) == 0.0:
        raise AllZeroResidual("p equals q elementwise; rejection there has probability 0")
    return normalize(r)


def verify(target_dists, d: DraftOutput, rng: Rng) -> VerificationResult:
    """Scan drafted tokens in order, accepting token x at position i iff
    u < min(1, p_i(x) / q_i(x)) for a fresh uniform u.

    On the first rejection, one token is drawn from residual(p_i, q_i) and the
    scan stops; if all K drafts survive, a bonus token is drawn from
    target_dists[K]. Exactly one uniform is consumed per scanned position plus
    one for the terminal sample, so the randomness budget is countable.
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
        corrected = sample(residual(p_i, q_i), rng)
        return VerificationResult(i, d.tokens[:i] + (corrected,), True)
    bonus = sample(target_dists[K], rng)
    return VerificationResult(K, d.tokens + (bonus,), False)


def _decode_loop(target: SequenceModel, prompt, N, rng, meter, draft_fn, draft_model=None):
    """Shared draft -> verify loop over incremental model states.

    `draft_fn(state, draft_state)` bills its own draft calls and returns the
    proposal with draft_model's K+1 branch states (None without a draft
    model). The target's K+1 positions branch from its one state and are
    billed as one call. After verification each state moves on from the
    branch of the accepted prefix by the one corrected or bonus token, so
    every model reads the prompt once and each emitted token once.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    out: list[int] = []
    state = target.start(prompt)
    draft_state = None if draft_model is None else draft_model.start(prompt)
    cycles = 0
    accepted = 0
    drafted = 0
    while len(out) < N:
        d, draft_branch = draft_fn(state, draft_state)
        branch = target.branch(state, d.tokens)
        meter.record("target", target.cost_units)
        result = verify([target.dist(s) for s in branch], d, rng)
        last = result.emitted[-1]
        state = target.advance(branch[result.n_accepted], last)
        if draft_model is not None:
            draft_state = draft_model.advance(draft_branch[result.n_accepted], last)
        out.extend(result.emitted)
        cycles += 1
        accepted += result.n_accepted
        drafted += len(d.tokens)
    out = out[:N]
    stats = DecodeStats(
        tokens_generated=len(out),
        target_calls=meter.target_calls,
        draft_calls=meter.draft_calls,
        cycles=cycles,
        acceptance_rate=accepted / drafted,
        tokens_per_target_call=len(out) / meter.target_calls,
    )
    return out, stats


def speculative_decode(target: SequenceModel, draft_model: SequenceModel,
                       prompt, N: int, K: int, rng: Rng):
    """Generate N tokens whose joint distribution is exactly the target's.

    Each cycle drafts K tokens and is billed K draft calls plus ONE target
    call: the K+1 target evaluations of a cycle model the paper-style batched
    forward pass. Surplus tokens from the final cycle are discarded, but its
    drafted/accepted counts still feed acceptance_rate.
    """
    if target.vocab_size != draft_model.vocab_size:
        raise VocabMismatch("target and draft models must share a vocabulary")
    if K < 1:
        raise ValueError("K must be >= 1")
    prompt = check_context(prompt, target.vocab_size)
    meter = CostMeter()

    def draft_fn(_, draft_state):
        return draft_from(draft_model, draft_state, K, rng, meter)

    return _decode_loop(target, prompt, N, rng, meter, draft_fn, draft_model)


def acceptance_rate_memoryless(p, q) -> float:
    """Closed-form per-position accept probability for context-free models:
    beta = sum_i min(p_i, q_i)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise LengthMismatch("need distributions of equal length")
    return float(np.minimum(p, q).sum())


def expected_tokens_per_cycle(beta: float, K: int) -> float:
    """Expected emitted tokens per cycle: (1 - beta^(K+1)) / (1 - beta).

    The accepted run length plus the terminal token; beta = 1 is handled as
    the analytic limit K + 1 to avoid 0/0.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if K < 1:
        raise ValueError("K must be >= 1")
    if beta == 1.0:
        return float(K + 1)
    return (1.0 - beta ** (K + 1)) / (1.0 - beta)


def simulated_speedup(stats: DecodeStats, target_cost: float, draft_cost: float) -> float:
    """Tokens generated, valued at target cost, divided by the simulated spend."""
    spend = stats.target_calls * target_cost + stats.draft_calls * draft_cost
    return stats.tokens_generated * target_cost / spend

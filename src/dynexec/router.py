"""Difficulty-threshold routing between a cheap and an expensive model.

The cheap model doubles as the probe: prompt difficulty is its mean next-token
entropy over prompt prefixes (the continuation is never consulted, so routing
cannot peek at the answer). Items whose difficulty exceeds the threshold go to
the large model. Reports carry the cost/quality frontier; picking a "best"
threshold is left to the reader.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import SequenceModel, check_context, entropy
from .errors import EmptyPrompt, VocabMismatch

LOGPROB_FLOOR = 1e-12


@dataclass(frozen=True)
class RoutePolicy:
    threshold: float
    probe: SequenceModel


@dataclass(frozen=True)
class WorkloadItem:
    prompt: tuple[int, ...]
    reference_continuation: tuple[int, ...]

    def __post_init__(self):
        if not self.reference_continuation:
            raise ValueError("reference continuation must be non-empty")


@dataclass(frozen=True)
class RouteReport:
    total_cost: float
    mean_quality: float
    fraction_large: float


def difficulty(prompt, probe: SequenceModel, memo: dict = None) -> float:
    """Mean entropy of the probe's next-token distribution after each prompt
    prefix (lengths 1..len(prompt)); ranges over [0, ln V].

    The probe reads the prompt in one state walk. `memo` keeps the entropy of
    each table state (a tuple); a feature state is an array, no dict key, and
    its walk is already linear. `frontier` shares one memo across its items.
    """
    prompt = check_context(prompt, probe.vocab_size)
    if not prompt:
        raise EmptyPrompt("difficulty needs a non-empty prompt")
    memo = {} if memo is None else memo
    total = 0.0
    # from prompt[:1]: a feature model has no state for the empty context
    for state in probe.branch(probe.start(prompt[:1]), prompt[1:]):
        if not isinstance(state, tuple):
            total += entropy(probe.dist(state))
            continue
        h = memo.get(state)
        if h is None:
            h = memo[state] = entropy(probe.dist(state))
        total += h
    return total / len(prompt)


def _log_prob(model: SequenceModel, state, token: int) -> float:
    # floor keeps zero-probability table rows from yielding -inf
    return math.log(max(float(model.dist(state)[token]), LOGPROB_FLOOR))


def _mean_log_likelihood(model: SequenceModel, item: WorkloadItem, memo: dict = None) -> float:
    """Mean log-probability of the continuation after the prompt, read in one
    state walk; `memo` keeps it per (table state, token), as in `difficulty`."""
    memo = {} if memo is None else memo
    tokens = item.reference_continuation
    # advance does not check its token, and dist would read a negative one from the end
    if min(tokens) < 0 or max(tokens) >= model.vocab_size:
        raise VocabMismatch(f"continuation token outside vocabulary of size {model.vocab_size}")
    total = 0.0
    for state, token in zip(model.branch(model.start(item.prompt), tokens[:-1]), tokens):
        if not isinstance(state, tuple):
            total += _log_prob(model, state, token)
            continue
        key = (state, token)
        lp = memo.get(key)
        if lp is None:
            lp = memo[key] = _log_prob(model, state, token)
        total += lp
    return total / len(tokens)


def frontier(probe: SequenceModel, thetas, workload, small: SequenceModel,
             large: SequenceModel) -> list[RouteReport]:
    """One RouteReport per threshold, in the order given.

    Each item's difficulty and its mean log-likelihood under both models are
    computed once; a threshold only picks between them. Items whose difficulty
    strictly exceeds it go to the large model. Costs are one probe call per
    prompt token plus one chosen-model call per continuation token, summed in
    item order, so every report is the one a per-threshold pass gives. The
    per-state memos live for this call only, so the models stay immutable.
    """
    workload = list(workload)
    if not workload:
        raise ValueError("workload must be non-empty")
    entropies, small_logps, large_logps = {}, {}, {}
    scored = []
    for item in workload:
        n = len(item.reference_continuation)
        scored.append((difficulty(item.prompt, probe, entropies), len(item.prompt) * probe.cost_units,
                       (_mean_log_likelihood(small, item, small_logps), n * small.cost_units),
                       (_mean_log_likelihood(large, item, large_logps), n * large.cost_units)))
    reports = []
    for theta in thetas:
        total_cost = 0.0
        n_large = 0
        qualities = []
        for score, probe_cost, to_small, to_large in scored:
            goes_large = score > theta
            quality, cost = to_large if goes_large else to_small
            n_large += goes_large
            # two additions, not one of a sum: the float rounding of a per-item pass
            total_cost += probe_cost
            total_cost += cost
            qualities.append(quality)
        reports.append(RouteReport(total_cost=total_cost, mean_quality=float(np.mean(qualities)),
                                   fraction_large=n_large / len(workload)))
    return reports


def evaluate(policy: RoutePolicy, workload, small: SequenceModel, large: SequenceModel) -> RouteReport:
    """The frontier at one threshold."""
    return frontier(policy.probe, [policy.threshold], workload, small, large)[0]

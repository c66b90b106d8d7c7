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
from .errors import EmptyPrompt

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


def difficulty(prompt, probe: SequenceModel) -> float:
    """Mean entropy of the probe's next-token distribution after each prompt
    prefix (lengths 1..len(prompt)); ranges over [0, ln V]."""
    prompt = check_context(prompt, probe.vocab_size)
    if not prompt:
        raise EmptyPrompt("difficulty needs a non-empty prompt")
    total = 0.0
    for i in range(1, len(prompt) + 1):
        total += entropy(probe.next_dist(prompt[:i]))
    return total / len(prompt)


def _mean_log_likelihood(model: SequenceModel, item: WorkloadItem) -> float:
    # floor keeps zero-probability table rows from yielding -inf
    ctx = item.prompt
    total = 0.0
    for token in item.reference_continuation:
        total += math.log(max(float(model.next_dist(ctx)[token]), LOGPROB_FLOOR))
        ctx = ctx + (token,)
    return total / len(item.reference_continuation)


def frontier(probe: SequenceModel, thetas, workload, small: SequenceModel,
             large: SequenceModel) -> list[RouteReport]:
    """One RouteReport per threshold, in the order given.

    Each item's difficulty and its mean log-likelihood under both models are
    computed once; a threshold only picks between them. Items whose difficulty
    strictly exceeds it go to the large model. Costs are one probe call per
    prompt token plus one chosen-model call per continuation token, summed in
    item order, so every report is the one a per-threshold pass gives.
    """
    workload = list(workload)
    if not workload:
        raise ValueError("workload must be non-empty")
    scored = []
    for item in workload:
        n = len(item.reference_continuation)
        scored.append((difficulty(item.prompt, probe), len(item.prompt) * probe.cost_units,
                       (_mean_log_likelihood(small, item), n * small.cost_units),
                       (_mean_log_likelihood(large, item), n * large.cost_units)))
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

"""Difficulty-threshold routing between a cheap and an expensive model.

The cheap model doubles as the probe: prompt difficulty is its mean next-token
entropy over prompt prefixes (the continuation is never consulted, so routing
cannot peek at the answer). Items whose difficulty exceeds the threshold go to
the large model. Reports carry the cost/quality frontier; picking a "best"
threshold is left to the reader.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SequenceModel, TableModel, check_context, entropy
from .errors import EmptyPrompt, VocabMismatch

LOGPROB_FLOOR = 1e-12


@dataclass(frozen=True)
class WorkloadItem:
    prompt: tuple[int, ...]
    reference_continuation: tuple[int, ...]

    def __post_init__(self):
        if not self.reference_continuation:
            raise ValueError("reference continuation must be non-empty")


class RouteWorkload(NamedTuple):
    """Route items as flat arrays: `tokens` holds each item's prompt and then
    its continuation, item after item, as int64; the lengths are per item."""
    tokens: np.ndarray
    prompt_lens: np.ndarray
    continuation_lens: np.ndarray

    @classmethod
    def of(cls, items) -> "RouteWorkload":
        """The workload of WorkloadItems, in order."""
        items = list(items)
        return cls(np.fromiter(itertools.chain.from_iterable(item.prompt + item.reference_continuation
                                                             for item in items), dtype=np.int64),
                   np.array([len(item.prompt) for item in items], dtype=np.int64),
                   np.array([len(item.reference_continuation) for item in items], dtype=np.int64))

    def pairs(self) -> list:
        """Each item's (prompt, continuation), as tuples of ints."""
        tokens = self.tokens.tolist()
        ends = np.cumsum(np.column_stack([self.prompt_lens, self.continuation_lens])).tolist()
        spans = [tuple(tokens[a:b]) for a, b in zip([0, *ends], ends)]
        return list(zip(spans[0::2], spans[1::2]))


@dataclass(frozen=True)
class RouteReport:
    total_cost: float
    mean_quality: float
    fraction_large: float


def difficulty(prompt, probe: SequenceModel) -> float:
    """Mean entropy of the probe's next-token distribution after each prompt
    prefix (lengths 1..len(prompt)); ranges over [0, ln V].

    The probe reads the prompt in one state walk. `frontier` walks a feature
    probe this way and reads a table probe's entropies from arrays.
    """
    prompt = check_context(prompt, probe.vocab_size)
    if not prompt:
        raise EmptyPrompt("difficulty needs a non-empty prompt")
    total = 0.0
    # from prompt[:1]: a feature model has no state for the empty context
    for state in probe.branch(probe.start(prompt[:1]), prompt[1:]):
        total += entropy(probe.dist(state))
    return total / len(prompt)


def _log_prob(p: float) -> float:
    # the floor keeps zero-probability table rows from yielding -inf; math.log,
    # not np.log, which is another implementation and may differ in the last bit
    return math.log(max(p, LOGPROB_FLOOR))


def _mean_log_likelihood(model: SequenceModel, prompt, continuation) -> float:
    """Mean log-probability of the continuation after the prompt, read in one
    state walk; every token must lie inside the vocabulary, as `frontier` checks."""
    total = 0.0
    for state, token in zip(model.branch(model.start(prompt), continuation[:-1]), continuation):
        total += _log_prob(float(model.dist(state)[token]))
    return total / len(continuation)


def _item_means(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each item's mean over its run of `values`, the runs laid end to end.

    The runs of each length stack into an exact (count, length) matrix, and
    np.cumsum along its rows adds in order from the first value: the running
    total of a per-token loop from 0.0 (no value is -0.0), where np.sum would
    add pairwise. No run is padded to the longest.
    """
    starts = np.cumsum(lengths) - lengths
    sums = np.empty(len(lengths))
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        chosen = lengths == length
        sums[chosen] = np.cumsum(values[starts[chosen, None] + np.arange(length)], axis=1)[:, -1]
    return sums / lengths


def _table_difficulties(probe: TableModel, rows, in_prompt, prompt_lens) -> np.ndarray:
    """`difficulty` of every prompt under a table probe, bit for bit, from the
    probe's `rows_after`: one `entropy` per distinct row the prompts read."""
    read = rows[in_prompt]
    seen = np.flatnonzero(np.bincount(read))
    entropies = np.zeros(len(probe.rows))
    entropies[seen] = [entropy(probe.rows[row]) for row in seen.tolist()]
    return _item_means(entropies[read], prompt_lens)


def _table_qualities(model: TableModel, rows, tokens, in_prompt, continuation_lens) -> np.ndarray:
    """`_mean_log_likelihood` of every item under a table model, bit for bit, from
    its `rows_after`: one `_log_prob` per distinct (row, token) the continuations read."""
    at = np.flatnonzero(~in_prompt)
    # a continuation token is drawn from the row after the position before it
    cells, cell_at = np.unique(rows[at - 1] * model.vocab_size + tokens[at], return_inverse=True)
    log_probs = np.array([_log_prob(p) for p in model.rows.ravel()[cells].tolist()])
    return _item_means(log_probs[cell_at], continuation_lens)


def frontier(thetas, workload: RouteWorkload, small: SequenceModel, large: SequenceModel) -> list[RouteReport]:
    """One RouteReport per threshold, in the order given; every workload
    token must lie inside both vocabularies. The small model is the probe.

    Each item's difficulty and its mean log-likelihood under both models are
    computed once; a threshold only picks between them in one array pass.
    Items whose difficulty strictly exceeds it go to the large model. Costs
    are one small-model call per prompt token plus one chosen-model call per
    continuation token, summed in item order, so every report is the one a
    per-threshold pass gives. A table model is read from the flat token
    array, a window lookup per position (`TableModel.rows_after`); a feature
    model walks each item's states.
    """
    tokens, prompt_lens, continuation_lens = workload
    if not len(prompt_lens):
        raise ValueError("workload must be non-empty")
    if not prompt_lens.all():
        raise EmptyPrompt("difficulty needs a non-empty prompt")
    if not continuation_lens.all():
        raise ValueError("reference continuation must be non-empty")
    vocab = min(small.vocab_size, large.vocab_size)
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise VocabMismatch(f"workload token outside the models' vocabulary of size {vocab}")
    item_lens = prompt_lens + continuation_lens
    offsets = np.arange(len(tokens)) - np.repeat(np.cumsum(item_lens) - item_lens, item_lens)
    in_prompt = offsets < np.repeat(prompt_lens, item_lens)
    # each table model's row after every position, read once when both models are one
    tables = {id(model): model for model in (small, large) if isinstance(model, TableModel)}
    rows = {key: model.rows_after(tokens, offsets) for key, model in tables.items()}
    if id(small) in rows:
        scores = _table_difficulties(small, rows[id(small)], in_prompt, prompt_lens)
    else:
        scores = np.array([difficulty(prompt, small) for prompt, _ in workload.pairs()])
    small_q, large_q = (
        _table_qualities(model, rows[id(model)], tokens, in_prompt, continuation_lens) if id(model) in rows
        else np.array([_mean_log_likelihood(model, *pair) for pair in workload.pairs()])
        for model in (small, large))
    # (prompt cost, chosen cost) per item, interleaved: np.cumsum adds in order where np.sum
    # adds pairwise, so its last element is the running total of a per-item pass
    costs = np.empty((len(prompt_lens), 2))
    costs[:, 0] = prompt_lens * small.cost_units
    reports = []
    for theta in thetas:
        goes_large = scores > theta
        costs[:, 1] = continuation_lens * np.where(goes_large, large.cost_units, small.cost_units)
        # np.mean of the chosen qualities in item order: the sum np.mean of a per-item list takes
        reports.append(RouteReport(total_cost=float(np.cumsum(costs)[-1]),
                                   mean_quality=float(np.mean(np.where(goes_large, large_q, small_q))),
                                   fraction_large=int(goes_large.sum()) / len(prompt_lens)))
    return reports


def evaluate(threshold: float, workload: RouteWorkload, small: SequenceModel, large: SequenceModel) -> RouteReport:
    """The frontier at one threshold."""
    return frontier([threshold], workload, small, large)[0]

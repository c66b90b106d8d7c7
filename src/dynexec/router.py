"""Difficulty-threshold routing between a cheap and an expensive model.

The cheap model doubles as the probe: prompt difficulty is its mean next-token
entropy over prompt prefixes (the continuation is never consulted, so routing
cannot peek at the answer); `difficulty(rows, index, in_prompt, prompt_lens)`
scores every prompt at once from the probe's `rows_after`. Items whose
difficulty exceeds the threshold go to the large model. Reports carry the
cost/quality frontier; picking a "best" threshold is left to the reader.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import SequenceModel, entropy
from .errors import DynexecError

LOGPROB_FLOOR = 1e-12


class RouteWorkload(NamedTuple):
    """Route items as flat arrays: `tokens` holds each item's prompt and then
    its continuation, item after item, as int64; the lengths are per item."""
    tokens: np.ndarray
    prompt_lens: np.ndarray
    continuation_lens: np.ndarray


@dataclass(frozen=True)
class RouteReport:
    """One threshold's point on the frontier; its fields, in order, are the
    route report's CSV columns after `theta`."""

    fraction_large: float
    total_cost: float
    mean_quality: float


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


def _once_per_key(keys, size, values_of) -> np.ndarray:
    """values_of(the distinct keys, ascending) gathered back to each key in [0, size):
    keys are marked in a boolean array over size when it is no longer than keys, and
    sorted by np.unique otherwise, so memory stays linear in len(keys) either way."""
    if size > len(keys):
        distinct, at = np.unique(keys, return_inverse=True)
        return np.array(values_of(distinct), dtype=np.float64)[at]
    marked = np.zeros(size, dtype=bool)
    marked[keys] = True
    values = np.zeros(size)
    values[marked] = values_of(np.flatnonzero(marked))
    return values[keys]


def difficulty(rows, index, in_prompt, prompt_lens) -> np.ndarray:
    """Each prompt's difficulty from the probe's `rows_after`: the mean entropy
    of the probe's next-token distribution after each prompt prefix (lengths
    1..len(prompt)), in [0, ln V]. One `entropy` per distinct row the prompts
    read."""
    entropies = _once_per_key(index[in_prompt], len(rows), lambda seen: [entropy(rows[r]) for r in seen.tolist()])
    return _item_means(entropies, prompt_lens)


def _qualities(rows, index, tokens, in_prompt, continuation_lens) -> np.ndarray:
    """Each item's mean log-probability of its continuation after its prompt, from
    the model's `rows_after`: one log per distinct (row, token) the continuations read."""
    at = np.flatnonzero(~in_prompt)
    # a continuation token is drawn from the row after the position before it. The floor
    # keeps zero-probability rows from yielding -inf; math.log, not np.log, which is
    # another implementation and may differ in the last bit
    return _item_means(_once_per_key(index[at - 1] * rows.shape[1] + tokens[at], rows.size, lambda seen: [
        math.log(max(p, LOGPROB_FLOOR)) for p in rows.ravel()[seen].tolist()]), continuation_lens)


def frontier(thetas, workload: RouteWorkload, small: SequenceModel, large: SequenceModel) -> list[RouteReport]:
    """One RouteReport per threshold, in the order given; every workload
    token must lie inside both vocabularies. The small model is the probe.

    Each item's difficulty and its mean log-likelihood under both models are
    computed once; a threshold only picks between them in one array pass.
    Items whose difficulty strictly exceeds it go to the large model. Costs
    are one small-model call per prompt token plus one chosen-model call per
    continuation token, summed in item order, so every report is the one a
    per-threshold pass gives. Each model is read once through its
    `rows_after`, a row matrix and the row after every position: a table
    model's stored rows and a window lookup of one gather per window token,
    a feature model's lockstep walk over the items.
    """
    tokens, prompt_lens, continuation_lens = workload
    if not len(prompt_lens):
        raise ValueError("workload must be non-empty")
    if not prompt_lens.all():
        raise DynexecError("difficulty needs a non-empty prompt")
    if not continuation_lens.all():
        raise ValueError("reference continuation must be non-empty")
    vocab = min(small.vocab_size, large.vocab_size)
    if tokens.min() < 0 or tokens.max() >= vocab:
        raise DynexecError(f"workload token outside the models' vocabulary of size {vocab}")
    item_lens = prompt_lens + continuation_lens
    offsets = np.arange(len(tokens)) - np.repeat(np.cumsum(item_lens) - item_lens, item_lens)
    in_prompt = offsets < np.repeat(prompt_lens, item_lens)
    rows, index = small.rows_after(tokens, offsets)
    scores = difficulty(rows, index, in_prompt, prompt_lens)
    small_q = _qualities(rows, index, tokens, in_prompt, continuation_lens)
    del rows, index  # a feature model's rows are a (tokens, V) matrix: hold one model's at a time
    large_q = _qualities(*large.rows_after(tokens, offsets), tokens, in_prompt, continuation_lens)
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

"""Entropy-gated early exit over a synthetic 2-D classification task.

The ground-truth boundary is the cubic y = x^3 - x on x in [-1.5, 1.5]: easy
points sit far enough from the curve that a straight line separates them,
hard points hug it inside a narrow band and need the curved boundary. Stage 0
is a plain logistic regression (cost 1), the final stage a cubic-feature
logistic regression (cost 4), and a per-input entropy gate decides whether
stage 0's answer is confident enough to stop there.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Rng
from .errors import DegenerateData

BOUNDARY_X_RANGE = (-1.5, 1.5)
HARD_BAND = (0.02, 0.30)
EASY_BAND = (0.90, 1.90)
STAGE0_COST = 1.0
STAGE1_COST = 4.0
TRAIN_ITERATIONS = 500
TRAIN_STEP = 0.1


def boundary(x):
    # float_power is C pow, like Python's x**3; numpy's x**3 differs in the last bits
    return np.float_power(x, 3.0) - x


class Dataset(NamedTuple):
    """Labeled points as three parallel arrays, point i at index i of each."""

    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class ExitStage:
    """One classifier stage: logistic weights over a named feature map."""

    weights: np.ndarray  # last entry is the intercept
    feature_kind: str    # "linear" or "cubic"
    cost_units: float

    def dists(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        p1 = _sigmoid(featurize(self.feature_kind, xs, ys) @ self.weights[:-1] + self.weights[-1])
        return np.stack([1.0 - p1, p1], axis=1)


@dataclass(frozen=True)
class MultiExitNet:
    """Two stages; the final stage has no entropy gate and answers what the first does not."""

    stages: tuple[ExitStage, ExitStage]

    def __post_init__(self):
        if len(self.stages) != 2:
            raise ValueError(f"need exactly two stages, got {len(self.stages)}")

    @property
    def full_cost(self) -> float:
        return sum(s.cost_units for s in self.stages)


@dataclass(frozen=True)
class SweepRow:
    tau: float
    accuracy: float
    mean_cost: float
    early_exit_fraction: float
    speedup: float


def featurize(kind: str, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return np.stack([xs, ys], axis=1)
    if kind == "cubic":
        return np.stack([xs, ys, xs * xs, xs * ys, ys * ys,
                         xs**3, xs * xs * ys, xs * ys * ys, ys**3], axis=1)
    raise ValueError(f"unknown feature kind {kind!r}")


def _logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def _sigmoid(z):
    # exp(-z) overflows to inf for z below about -709, which gives the exact 0.0
    with np.errstate(over="ignore"):
        return _logistic(z)


def gen_dataset(count: int, hard_fraction: float, seed: int) -> Dataset:
    """Labeled points around the cubic boundary, balanced classes by alternation.

    A hard_fraction coin places each point inside the narrow band around the
    curve; everyone else lands in the easy band, far enough out that the easy
    subset is linearly separable.
    """
    if count < 10:
        raise ValueError("count must be >= 10")
    if not 0.0 <= hard_fraction <= 1.0:
        raise ValueError("hard_fraction must lie in [0, 1]")
    # one uniform triple per point (x, band coin, offset), drawn in point order
    u = Rng(seed).uniforms(3 * count).reshape(count, 3)
    lo_x, hi_x = BOUNDARY_X_RANGE
    x = lo_x + (hi_x - lo_x) * u[:, 0]
    hard = u[:, 1] < hard_fraction
    lo = np.where(hard, HARD_BAND[0], EASY_BAND[0])
    width = np.where(hard, HARD_BAND[1] - HARD_BAND[0], EASY_BAND[1] - EASY_BAND[0])
    offset = lo + width * u[:, 2]
    labels = np.arange(count) % 2
    y = boundary(x) + np.where(labels == 1, offset, -offset)
    return Dataset(x, y, labels)


def _fit_logistic(feats: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Full-batch gradient descent on the mean logistic loss: fixed 500 iterations, step 0.1."""
    X = np.hstack([feats, np.ones((len(feats), 1))])
    w = np.zeros(X.shape[1])
    n = len(labels)
    # as in _sigmoid, but entered once: an errstate per iteration costs about 1 ms per fit
    with np.errstate(over="ignore"):
        for _ in range(TRAIN_ITERATIONS):
            p = _logistic(X @ w)
            w = w - TRAIN_STEP * (X.T @ (p - labels)) / n
    return w


def train_stages(data: Dataset) -> MultiExitNet:
    """Train the linear stage and the cubic stage on the same data."""
    if len(data.labels) < 100:
        raise ValueError("need at least 100 training points")
    labels = data.labels.astype(np.float64)
    if len(np.unique(labels)) < 2:
        raise DegenerateData("training data contains a single class")
    stage0 = ExitStage(_fit_logistic(featurize("linear", data.xs, data.ys), labels), "linear", STAGE0_COST)
    stage1 = ExitStage(_fit_logistic(featurize("cubic", data.xs, data.ys), labels), "cubic", STAGE1_COST)
    return MultiExitNet((stage0, stage1))


def sweep(net: MultiExitNet, data: Dataset, taus) -> list[SweepRow]:
    """Evaluate the gate across an ascending grid of thresholds tau (nats).

    Stage outputs and stage 0's entropies are computed once per point and
    reused for every tau. A point exits at stage 0 when its entropy is
    strictly below tau, so tau=0 never exits early and tau above ln(2), the
    two-class maximum, always does; the final stage answers the rest.
    """
    taus = list(taus)
    if not taus:
        raise ValueError("tau grid must be non-empty")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be sorted ascending")
    first, final = net.stages
    first_dists = first.dists(data.xs, data.ys)
    first_preds = np.argmax(first_dists, axis=1)
    final_preds = np.argmax(final.dists(data.xs, data.ys), axis=1)
    first_ents = _row_entropies(first_dists)
    full_cost = net.full_cost
    rows = []
    for tau in taus:
        exits = first_ents < tau
        mean_cost = float(np.mean(np.where(exits, first.cost_units, full_cost)))
        rows.append(SweepRow(
            tau=float(tau),
            accuracy=float(np.mean(np.where(exits, first_preds, final_preds) == data.labels)),
            mean_cost=mean_cost,
            early_exit_fraction=float(np.mean(exits)),
            speedup=full_cost / mean_cost,
        ))
    return rows


def _row_entropies(dists: np.ndarray) -> np.ndarray:
    """core.entropy of each two-class row, bit for bit: a zero entry adds an exact 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(dists > 0, dists * np.log(dists), 0.0).sum(axis=1)
    return np.maximum(0.0, -s)


def stage_accuracy(stage: ExitStage, data: Dataset) -> float:
    preds = np.argmax(stage.dists(data.xs, data.ys), axis=1)
    return float(np.mean(preds == data.labels))

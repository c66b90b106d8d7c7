"""Entropy-gated early exit over a synthetic 2-D classification task.

The ground-truth boundary is the cubic y = x^3 - x on x in [-1.5, 1.5]: easy
points sit far enough from the curve that a straight line separates them,
hard points hug it inside a narrow band and need the curved boundary. Both
stages are logistic regressions over one cubic feature matrix: stage 0 (cost
1) reads its first two rows, x and y, and the final stage (cost 4) all nine.
A per-input entropy gate decides whether stage 0's answer is confident enough
to stop there.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Rng
from .errors import DynexecError

BOUNDARY_X_RANGE = (-1.5, 1.5)
HARD_BAND = (0.02, 0.30)
EASY_BAND = (0.90, 1.90)
STAGE0_COST = 1.0
STAGE1_COST = 4.0
# Newton's method on the penalised mean logistic loss: RIDGE/2 * |w|^2 on the
# non-intercept weights keeps the optimum finite on separable data, and the fit
# stops once no weight moves by FIT_TOLERANCE, within FIT_MAX_ITERATIONS steps
RIDGE = 1e-3
FIT_TOLERANCE = 1e-10
FIT_MAX_ITERATIONS = 50


def boundary(x):
    # float_power is C pow, like Python's x**3; numpy's x**3 differs in the last bits
    return np.float_power(x, 3.0) - x


class Dataset(NamedTuple):
    """Labeled points as three parallel arrays, point i at index i of each."""

    xs: np.ndarray
    ys: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class MultiExitNet:
    """Two stages, each its logistic weights over `featurize`'s rows, intercept
    last: stage 0 costs STAGE0_COST, and the final stage, which has no entropy
    gate and answers what the first does not, STAGE1_COST more."""

    stages: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if len(self.stages) != 2:
            raise ValueError(f"need exactly two stages, got {len(self.stages)}")


@dataclass(frozen=True)
class SweepRow:
    tau: float
    accuracy: float
    mean_cost: float
    early_exit_fraction: float
    speedup: float


def featurize(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The C-contiguous (9, n) cubic features of n points, x and y first. A
    stage whose weights are w reads the leading len(w) - 1 rows, so the
    linear stage reads the contiguous view [:2]."""
    # products, not **3: numpy's power is about 70x slower than two multiplies
    xx, xy, yy = xs * xs, xs * ys, ys * ys
    return np.stack([xs, ys, xx, xy, yy, xx * xs, xx * ys, xy * ys, yy * ys])


def stage_dists(weights: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """A stage's (n, 2) class distributions from its weights over `featurize`'s rows."""
    p1 = _sigmoid(weights[:-1] @ feats[:len(weights) - 1] + weights[-1])
    return np.stack([1.0 - p1, p1], axis=1)


def _sigmoid(z):
    # exp(-z) overflows to inf for z below about -709, which gives the exact 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


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


def _loss_and_p(feats: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """The penalised mean logistic loss at `weights` and each point's p(1)."""
    z = weights[:-1] @ feats + weights[-1]
    p = _sigmoid(z)
    # a point's loss is -log p, plus z where its label is 0; a p of exactly 0 gives inf. Not
    # labels @ z: OpenBLAS threads a dot this long, and in some processes each call then waits
    # a scheduler tick (8 ms against 5 us at 25 000 points)
    with np.errstate(divide="ignore"):
        loss = (z.sum() - (labels * z).sum() - np.log(p).sum()) / len(z)
    return loss + RIDGE / 2 * (weights[:-1] @ weights[:-1]), p


def _fit_logistic(feats: np.ndarray, labels: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton's method (IRLS) on the penalised loss from `start`, over d feature
    rows of n points: the weights, intercept last, and the step count, or
    DynexecError. One d x n buffer holds feats * p(1-p) on every step."""
    d, n = feats.shape
    weighted = np.empty_like(feats)
    hessian = np.empty((d + 1, d + 1))
    weights, (loss, p) = start, _loss_and_p(feats, labels, start)
    for steps in range(1, FIT_MAX_ITERATIONS + 1):
        curvature = p * (1.0 - p)
        residual = np.subtract(p, labels, out=p)
        np.multiply(feats, curvature, out=weighted)
        # the intercept's row and column are row sums, in place of a row of ones
        hessian[:d, :d] = weighted @ feats.T / n + RIDGE * np.eye(d)
        hessian[:d, d] = hessian[d, :d] = weighted.sum(axis=1) / n
        hessian[d, d] = curvature.sum() / n
        step = np.linalg.solve(hessian, np.append(feats @ residual / n + RIDGE * weights[:-1], residual.sum() / n))
        if np.max(np.abs(step)) < FIT_TOLERANCE:
            return weights - step, steps
        # a full step far from the optimum, as from a warm start, can overshoot
        # and diverge; halve it while it raises the loss (ESL 4.4.1)
        while (trial := _loss_and_p(feats, labels, weights - step))[0] > loss + FIT_TOLERANCE:
            step /= 2
        weights, (loss, p) = weights - step, trial
    raise DynexecError(f"logistic fit still moving after {FIT_MAX_ITERATIONS} Newton steps")


def train_stages(data: Dataset) -> MultiExitNet:
    """Train the linear stage and the cubic stage on the same data."""
    if len(data.labels) < 100:
        raise ValueError("need at least 100 training points")
    labels = data.labels.astype(np.float64)
    # not np.unique, which imports numpy.ma at its first call in a process
    if labels.min() == labels.max():
        raise DynexecError("training data contains a single class")
    feats = featurize(data.xs, data.ys)
    linear, _ = _fit_logistic(feats[:2], labels, np.zeros(3))
    # the cubic rows start with the linear two: start there, 0 on the seven higher-order rows
    cubic, _ = _fit_logistic(feats, labels, np.insert(linear, -1, np.zeros(7)))
    return MultiExitNet((linear, cubic))


def sweep(net: MultiExitNet, data: Dataset, taus) -> list[SweepRow]:
    """Evaluate the gate across an ascending grid of thresholds tau (nats).

    Stage outputs and stage 0's entropies are computed once per point. A
    point exits at stage 0 when its entropy is strictly below tau, so tau=0
    never exits early and tau above ln(2), the two-class maximum, always
    does; the final stage answers the rest.

    Each point is bucketed once by the number of grid values at or below its
    entropy, so the points exiting at the j-th tau are the buckets 0..j, and
    each row reads exact integer prefix counts of exits and right answers.
    The stage costs are integers, so every sum is an integer below 2**53, and
    each row equals the per-point means bit for bit.
    """
    taus = list(taus)
    if not taus:
        raise ValueError("tau grid must be non-empty")
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau grid must be sorted ascending")
    first, final = net.stages
    feats = featurize(data.xs, data.ys)
    first_dists = stage_dists(first, feats)
    first_right = np.argmax(first_dists, axis=1) == data.labels
    final_right = np.argmax(stage_dists(final, feats), axis=1) == data.labels
    # a NaN entropy sorts past every tau, so its point never exits, as `<` says
    buckets = np.searchsorted(np.array(taus, dtype=np.float64), _row_entropies(first_dists), side="right")
    m = len(taus)
    exits, first_hits, final_hits = (
        np.cumsum(np.bincount(b, minlength=m + 1)[:m]).tolist()
        for b in (buckets, buckets[first_right], buckets[final_right]))
    n = len(data.labels)
    final_total = int(np.count_nonzero(final_right))
    full_cost = STAGE0_COST + STAGE1_COST
    rows = []
    for tau, k, first_k, final_k in zip(taus, exits, first_hits, final_hits):
        mean_cost = (k * STAGE0_COST + (n - k) * full_cost) / n
        rows.append(SweepRow(
            tau=float(tau),
            accuracy=(first_k + final_total - final_k) / n,
            mean_cost=mean_cost,
            early_exit_fraction=k / n,
            speedup=full_cost / mean_cost,
        ))
    return rows


def _row_entropies(dists: np.ndarray) -> np.ndarray:
    """core.entropy of each two-class row, bit for bit: a zero entry adds an exact 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(dists > 0, dists * np.log(dists), 0.0).sum(axis=1)
    return np.maximum(0.0, -s)


def stage_accuracy(weights: np.ndarray, data: Dataset) -> float:
    preds = np.argmax(stage_dists(weights, featurize(data.xs, data.ys)), axis=1)
    return float(np.mean(preds == data.labels))

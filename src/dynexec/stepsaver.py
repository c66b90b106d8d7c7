"""Adaptive denoising-step recommendation on 1-D Gaussian-mixture targets.

A discrete-time ancestral sampler with the mixture's analytic score stands in
for a learned diffusion model, so the steps-vs-quality tradeoff is measurable
without any training: quality is the exact 1-D Wasserstein-1 distance against
reference samples, a grid oracle finds the minimal step count that stays
within (1+eps) of the full-schedule baseline, and an isotonic regressor maps
a mixture-difficulty scalar to a recommended step count.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Rng
from .errors import InsufficientData, StepsOutOfRange

DEFAULT_STEPS = 100
DEFAULT_BETA_START = 1e-4
DEFAULT_BETA_END = 0.02
DIFFICULTY_CAP = 10.0
ORACLE_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 63, 79, 100)
QUALITY_FLOOR = 1e-12
RELATIVE_QUALITY_CAP = 100.0
MIN_LABELED_SPECS = 5


class NoiseSchedule:
    """Linear beta schedule with derived alphas and cumulative products."""

    def __init__(self, T: int = DEFAULT_STEPS,
                 beta_start: float = DEFAULT_BETA_START,
                 beta_end: float = DEFAULT_BETA_END):
        if T < 1:
            raise ValueError("schedule needs at least one timestep")
        self.T = int(T)
        self.betas = np.linspace(beta_start, beta_end, self.T)
        if np.any(self.betas <= 0) or np.any(self.betas >= 1):
            raise ValueError("betas must lie in (0, 1)")
        self.alphas = 1.0 - self.betas
        self.alpha_bar = np.cumprod(self.alphas)
        if np.any(np.diff(self.alpha_bar) >= 0):
            raise ValueError("cumulative product must be strictly decreasing")


@dataclass(frozen=True)
class MixtureSpec:
    """Target distribution: weighted 1-D Gaussian components (weight, mean, stddev)."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(len(c) != 3 for c in self.components):
            raise ValueError("each component must be (weight, mean, stddev)")
        if not all(map(math.isfinite, itertools.chain.from_iterable(self.components))):
            raise ValueError("component weights, means and stddevs must be finite")
        ws = np.array([c[0] for c in self.components])
        sgs = np.array([c[2] for c in self.components])
        if np.any(ws <= 0):
            raise ValueError("component weights must be positive")
        if abs(float(ws.sum()) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(sgs <= 0):
            raise ValueError("component stddevs must be positive")

    @property
    def difficulty(self) -> float:
        """Component count plus a pairwise-separation term, clipped to [0, 10].

        Separation sums w_i * w_j * |mu_i - mu_j| / (sigma_i + sigma_j) over
        pairs: many well-separated narrow modes score high, a single broad
        Gaussian scores 1.
        """
        comps = self.components
        raw = float(len(comps))
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                wi, mi, si = comps[i]
                wj, mj, sj = comps[j]
                raw += wi * wj * abs(mi - mj) / (si + sj)
        return min(DIFFICULTY_CAP, max(0.0, raw))

    def sample(self, count: int, rng: Rng) -> np.ndarray:
        """Draw directly from the mixture (component choice + one normal each)."""
        ws = np.array([c[0] for c in self.components])
        mus = np.array([c[1] for c in self.components])
        sgs = np.array([c[2] for c in self.components])
        idx = np.minimum(np.searchsorted(np.cumsum(ws), rng.uniforms(count)), len(ws) - 1)
        return mus[idx] + sgs[idx] * rng.normals(count)

    def noised(self, alpha_bar: float) -> "MixtureSpec":
        """The forward-process marginal: component means scale by sqrt(alpha_bar),
        variances become alpha_bar * sigma^2 + (1 - alpha_bar)."""
        root = math.sqrt(alpha_bar)
        comps = tuple((w, root * mu, math.sqrt(alpha_bar * sg * sg + 1.0 - alpha_bar))
                      for w, mu, sg in self.components)
        return MixtureSpec(comps)


@dataclass(frozen=True)
class StepRecommender:
    """Monotone piecewise-linear map from difficulty to a recommended step count."""

    difficulties: np.ndarray
    fitted_steps: np.ndarray
    max_steps: int

    def recommend(self, difficulty) -> int:
        value = float(np.interp(difficulty, self.difficulties, self.fitted_steps))
        return int(min(self.max_steps, max(1, round(value))))


@dataclass(frozen=True)
class QualityReport:
    steps_used: int
    w1: float
    baseline_w1: float
    relative_quality: float


def _mixture_score(spec: MixtureSpec, x: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Analytic score d/dx log p_t(x) of the mixture convolved with forward noise."""
    # noised()'s parameters with its float operations, without building and
    # re-validating a MixtureSpec on every step
    root = math.sqrt(alpha_bar)
    ms = np.array([root * mu for _, mu, _ in spec.components])
    vs = np.array([math.sqrt(alpha_bar * sg * sg + 1.0 - alpha_bar) ** 2 for _, _, sg in spec.components])
    ws = np.array([w for w, _, _ in spec.components])
    # responsibilities via a stable log-sum-exp
    diffs = x[None, :] - ms[:, None]
    logs = np.log(ws)[:, None] - 0.5 * np.log(2.0 * np.pi * vs)[:, None] - 0.5 * diffs**2 / vs[:, None]
    logs -= logs.max(axis=0, keepdims=True)
    gamma = np.exp(logs)
    gamma /= gamma.sum(axis=0, keepdims=True)
    return (gamma * (-diffs / vs[:, None])).sum(axis=0)


def respaced_timesteps(T: int, steps: int) -> np.ndarray:
    """Evenly spaced kept timesteps, descending from T-1 to 0 (strided respacing)."""
    return np.round(np.linspace(T - 1, 0, steps)).astype(int)


def generate(spec: MixtureSpec, schedule: NoiseSchedule, steps: int, count: int, rng: Rng) -> np.ndarray:
    """Ancestral sampling over an evenly spaced sub-sequence of the schedule.

    Each macro-step from kept timestep t down to the next kept timestep uses
    the analytic score at t: x <- (x + b*score) / sqrt(a) + sqrt(b) * z with
    a = alpha_bar(t) / alpha_bar(prev) and b = 1 - a. Noise is added at every
    step, including the last: with this variance the step is the exact
    posterior for unit-variance Gaussian targets, so quality loss at small
    step counts measures mixture structure rather than a baked-in bias.

    The chain starts from the analytic noised marginal at the first kept
    timestep (for unit-scale targets this is close to a standard normal);
    this toy schedule only reaches alpha_bar ~ 0.37, so a literal N(0,1)
    start would swamp the steps-vs-quality signal with a fixed prior error.
    """
    if not 1 <= steps <= schedule.T:
        raise StepsOutOfRange(f"steps must lie in [1, {schedule.T}], got {steps}")
    if count < 1:
        raise ValueError("count must be >= 1")
    kept = respaced_timesteps(schedule.T, steps)
    x = spec.noised(float(schedule.alpha_bar[kept[0]])).sample(count, rng)
    for i, t in enumerate(kept):
        ab_t = float(schedule.alpha_bar[t])
        ab_prev = float(schedule.alpha_bar[kept[i + 1]]) if i + 1 < steps else 1.0
        a_eff = ab_t / ab_prev
        b_eff = 1.0 - a_eff
        score = _mixture_score(spec, x, ab_t)
        x = (x + b_eff * score) / math.sqrt(a_eff) + math.sqrt(b_eff) * rng.normals(count)
    return x


def wasserstein1(a, b) -> float:
    """Exact 1-D Wasserstein-1 distance between two empirical samples.

    Equal sizes reduce to the mean absolute difference of order statistics;
    unequal sizes integrate |F_a - F_b| over the merged support.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both sample sets must be non-empty")
    if a.size == b.size:
        return float(np.mean(np.abs(a - b)))
    support = np.sort(np.concatenate([a, b]))
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def quality(samples, spec: MixtureSpec, reference_count: int, rng: Rng) -> float:
    """W1 distance between generated samples and fresh reference draws from the spec."""
    return wasserstein1(samples, spec.sample(reference_count, rng))


def min_steps_oracle(spec: MixtureSpec, schedule: NoiseSchedule, epsilon: float,
                     count: int, rng: Rng) -> int:
    """Smallest grid step count whose W1 stays within (1+epsilon) of the T-step baseline.

    Scans the fixed grid ascending; returns T when nothing qualifies. Each
    candidate gets its own derived rng streams so the scan order is irrelevant.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    grid = [s for s in ORACLE_GRID if s <= schedule.T]
    if schedule.T not in grid:
        grid.append(schedule.T)

    def w1_at(steps):
        branch = rng.child(steps)
        samples = generate(spec, schedule, steps, count, branch.child(0))
        return quality(samples, spec, count, branch.child(1))

    baseline = w1_at(schedule.T)
    for steps in grid:
        if steps == schedule.T or w1_at(steps) <= (1.0 + epsilon) * baseline:
            return steps
    return schedule.T


def fit_recommender(labeled_specs, max_steps: int = DEFAULT_STEPS) -> StepRecommender:
    """Isotonic (non-decreasing) fit of oracle step labels against difficulty.

    Pool-adjacent-violators on difficulty-sorted labels, with exact difficulty
    ties averaged first. Monotone labels are reproduced exactly at the
    training difficulties; fully anti-monotone labels collapse to their mean.
    """
    pairs = [(spec.difficulty, float(label)) for spec, label in labeled_specs]
    if len(pairs) < MIN_LABELED_SPECS:
        raise InsufficientData(f"need at least {MIN_LABELED_SPECS} labeled specs, got {len(pairs)}")
    pairs.sort(key=lambda p: p[0])
    xs: list[float] = []
    ys: list[float] = []
    ws: list[float] = []
    for x, y in pairs:
        if xs and x == xs[-1]:
            ws[-1] += 1.0
            ys[-1] += (y - ys[-1]) / ws[-1]
        else:
            xs.append(x)
            ys.append(y)
            ws.append(1.0)
    fitted = _pool_adjacent_violators(np.array(ys), np.array(ws))
    return StepRecommender(np.array(xs), fitted, int(max_steps))


def _pool_adjacent_violators(ys: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Classic PAV: merge adjacent blocks while any earlier block exceeds a later one."""
    values = list(ys)
    weights = list(ws)
    sizes = [1] * len(ys)
    i = 0
    while i < len(values) - 1:
        if values[i] > values[i + 1]:
            total = weights[i] + weights[i + 1]
            merged = (values[i] * weights[i] + values[i + 1] * weights[i + 1]) / total
            values[i:i + 2] = [merged]
            weights[i:i + 2] = [total]
            sizes[i:i + 2] = [sizes[i] + sizes[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    return np.repeat(values, sizes)


def adaptive_generate(spec: MixtureSpec, recommender: StepRecommender,
                      schedule: NoiseSchedule, count: int, rng: Rng,
                      baseline_w1: float = None):
    """Generate with the recommended step count and report quality against the
    T-step baseline (computed here unless supplied)."""
    steps = recommender.recommend(spec.difficulty)
    samples = generate(spec, schedule, steps, count, rng.child(0))
    w1 = quality(samples, spec, count, rng.child(1))
    if baseline_w1 is None:
        base = generate(spec, schedule, schedule.T, count, rng.child(2))
        baseline_w1 = quality(base, spec, count, rng.child(3))
    relative = min(RELATIVE_QUALITY_CAP, baseline_w1 / max(w1, QUALITY_FLOOR))
    report = QualityReport(steps_used=steps, w1=w1, baseline_w1=baseline_w1,
                           relative_quality=relative)
    return samples, report

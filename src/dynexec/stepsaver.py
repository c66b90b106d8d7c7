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

from .core import Rng, RngStreams
from .errors import InsufficientData, StepsOutOfRange

DEFAULT_STEPS = 100
BETA_START = 1e-4
BETA_END = 0.02
# the most timesteps whose float64 cumulative product still decreases
# strictly; from 73 253 it underflows (found by bisection over T)
MAX_STEPS = 73_252
DIFFICULTY_CAP = 10.0
ORACLE_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 63, 79, 100)
MIN_LABELED_SPECS = 5
# bound on |mean| and stddev of a mixture component: far below where the
# sampler's squared distances could overflow
MAX_COMPONENT_SCALE = 1e6


class NoiseSchedule:
    """Linear beta schedule with derived alphas and cumulative products."""

    def __init__(self, T: int = DEFAULT_STEPS):
        if T < 1:
            raise ValueError("schedule needs at least one timestep")
        # before any T-length array is allocated
        if T > MAX_STEPS:
            raise ValueError(f"more than {MAX_STEPS} timesteps, where the cumulative product underflows")
        self.T = int(T)
        self.betas = np.linspace(BETA_START, BETA_END, self.T)
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
        if any(abs(mu) > MAX_COMPONENT_SCALE or sg > MAX_COMPONENT_SCALE for _, mu, sg in self.components):
            raise ValueError(f"component means and stddevs must lie within {MAX_COMPONENT_SCALE:g} of 0")

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


def _noised_components(spec: MixtureSpec, alpha_bar: float):
    """The forward-process marginal's component means and stddevs: means scale
    by sqrt(alpha_bar), variances become alpha_bar * sigma^2 + (1 - alpha_bar)."""
    root = math.sqrt(alpha_bar)
    return ([root * mu for _, mu, _ in spec.components],
            [math.sqrt(alpha_bar * sg * sg + 1.0 - alpha_bar) for _, _, sg in spec.components])


def _log_norms(ws: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Each component's log(weight) - log(sqrt(2 pi variance)), the score's
    per-component constant."""
    return np.log(ws) - 0.5 * np.log(2.0 * np.pi * vs)


def _mixture_score(x: np.ndarray, log_norms: np.ndarray, ms: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Analytic score d/dx log p_t(x) of mixtures convolved with forward noise.

    Row c of x (chains, n) is scored under the mixture with noised means ms[c]
    and variances vs[c] (chains, components), and `_log_norms` of its weights
    and vs[c]. Each row has the bits of the row-by-row computation: every
    operation is elementwise, and the component axis is reduced in order.
    """
    diffs = x[:, None, :] - ms[:, :, None]
    if ms.shape[1] == 1:
        # one component: every responsibility is exactly 1, and the sum over
        # the component axis adds its terms to 0.0, which turns -0.0 into 0.0
        score = -diffs[:, 0] / vs
        score += 0.0
        return score
    vs = vs[:, :, None]
    # responsibilities via a stable log-sum-exp
    logs = log_norms[:, :, None] - 0.5 * diffs**2 / vs
    logs -= logs.max(axis=1, keepdims=True)
    gamma = np.exp(logs, out=logs)
    gamma /= gamma.sum(axis=1, keepdims=True)
    return (gamma * (-diffs / vs)).sum(axis=1)


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
    return generate_many([(spec, steps, rng)], schedule, count)[0]


# elements (chains x count x components) of one lockstep batch; larger groups
# run in several batches, so a big workload does not hold it all at once
_BATCH_ELEMENTS = 1 << 18
# normals drawn ahead in one block, several steps' noise for the running
# chains; small enough that a block's uint64 and float buffers stay below
# the rest of a run's memory
_NOISE_ELEMENTS = 1 << 14


def generate_many(chains, schedule: NoiseSchedule, count: int) -> list[np.ndarray]:
    """`generate` for every (spec, steps, rng) chain, run side by side.

    Chains with the same component count step in lockstep, longest first, so
    the chains still running are always a leading block: one diffusion step
    is one batched score, one batched noise draw and one update for all of
    them. Each chain draws from its own rng as `generate` would, and every
    per-chain scalar comes from the same float operations, so each returned
    sample array, and each rng's final counter, equals the one-chain run.
    """
    for _, steps, _ in chains:
        if not 1 <= steps <= schedule.T:
            raise StepsOutOfRange(f"steps must lie in [1, {schedule.T}], got {steps}")
    if count < 1:
        raise ValueError("count must be >= 1")
    groups = {}
    for i, (spec, _, _) in enumerate(chains):
        groups.setdefault(len(spec.components), []).append(i)
    out = [None] * len(chains)
    for k, members in groups.items():
        members.sort(key=lambda i: -chains[i][1])
        per_batch = max(1, _BATCH_ELEMENTS // (count * k))
        for start in range(0, len(members), per_batch):
            batch = members[start:start + per_batch]
            for i, x in zip(batch, _lockstep([chains[i] for i in batch], schedule, count)):
                out[i] = x
    return out


def _lockstep(chains, schedule: NoiseSchedule, count: int) -> np.ndarray:
    """One `generate` per row for chains of one component count, sorted by
    steps, longest first."""
    n_chains, max_steps = len(chains), chains[0][1]
    n_comps = len(chains[0][0].components)
    # per step and chain: the score's noised means and variances, and the
    # update's b, sqrt(a) and sqrt(b); a finished chain's entries stay unread
    ms = np.zeros((max_steps, n_chains, n_comps))
    vs = np.ones((max_steps, n_chains, n_comps))
    coefs = np.zeros((max_steps, n_chains, 3, 1))
    sds0 = np.zeros((n_chains, n_comps))
    for c, (spec, steps, _) in enumerate(chains):
        kept = respaced_timesteps(schedule.T, steps)
        abs_ = [float(schedule.alpha_bar[t]) for t in kept] + [1.0]
        noised = [_noised_components(spec, ab_t) for ab_t in abs_[:-1]]
        ms[:steps, c] = [means for means, _ in noised]
        vs[:steps, c] = [[sd ** 2 for sd in sds] for _, sds in noised]
        sds0[c] = noised[0][1]
        a_effs = [ab_t / ab_prev for ab_t, ab_prev in zip(abs_, abs_[1:])]
        coefs[:steps, c, :, 0] = [(1.0 - a, math.sqrt(a), math.sqrt(1.0 - a)) for a in a_effs]
    ws = np.array([[w for w, _, _ in spec.components] for spec, _, _ in chains])
    log_norms = _log_norms(ws, vs)
    # the start: a draw from the noised mixture at kept[0] = T-1, as `MixtureSpec.sample` makes it
    streams = RngStreams([rng for _, _, rng in chains])
    u = streams.uniforms(count)
    idx = (np.cumsum(ws, axis=1)[:, :, None] < u[:, None, :]).sum(axis=1)  # searchsorted, row by row
    np.minimum(idx, n_comps - 1, out=idx)
    x = np.take_along_axis(ms[0], idx, 1) + np.take_along_axis(sds0, idx, 1) * streams.normals(count)
    active, block_end = n_chains, 0
    for i in range(max_steps):
        if i == block_end:
            while chains[active - 1][1] <= i:
                active -= 1
            # the noise of the next steps while no chain finishes, in one
            # block: step b's draws follow step b-1's in every stream
            block = min(chains[active - 1][1] - i, max(1, _NOISE_ELEMENTS // (active * count)))
            noise = streams.normals(block * count, active).reshape(active, block, count)
            block_start, block_end = i, i + block
        xa = x[:active]
        b, root_a, root_b = coefs[i, :active].transpose(1, 0, 2)
        score = _mixture_score(xa, log_norms[i, :active], ms[i, :active], vs[i, :active])
        x[:active] = (xa + b * score) / root_a + root_b * noise[:, i - block_start]
    streams.close()
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


def _scored(chains, schedule: NoiseSchedule, count: int):
    """Every (spec, steps, rng, reference rng) chain generated in one lockstep
    batch, and its W1 against `count` reference draws from its reference rng.
    Returns the samples and the W1s, one per chain, in order."""
    samples = generate_many([chain[:3] for chain in chains], schedule, count)
    return samples, [quality(x, spec, count, ref) for x, (spec, _, _, ref) in zip(samples, chains)]


def min_steps_oracle(spec: MixtureSpec, schedule: NoiseSchedule, epsilon: float,
                     count: int, rng: Rng) -> int:
    """Smallest grid step count whose W1 stays within (1+epsilon) of the T-step baseline.

    Scans the fixed grid ascending; returns T when nothing qualifies. Each
    candidate gets its own derived rng streams so the scan order is irrelevant.
    """
    return oracle_labels([(spec, rng)], schedule, epsilon, count)[0]


def oracle_labels(items, schedule: NoiseSchedule, epsilon: float, count: int) -> list[int]:
    """`min_steps_oracle` of every (spec, rng) item, one lockstep batch per phase.

    The T-step baselines of all items run together; then each grid value,
    ascending, runs for the items still without a label. Candidate s of an
    item generates on rng.child(s).child(0) and draws its reference from
    rng.child(s).child(1), so every label equals the one-spec scan's.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def w1s(members, steps):
        branches = [rng.child(steps) for _, rng in members]
        return _scored([(spec, steps, branch.child(0), branch.child(1))
                        for (spec, _), branch in zip(members, branches)], schedule, count)[1]

    bounds = [(1.0 + epsilon) * w1 for w1 in w1s(items, schedule.T)]
    labels = [schedule.T] * len(items)
    pending = list(range(len(items)))
    for steps in (s for s in ORACLE_GRID if s < schedule.T):
        if not pending:
            break
        passed = [w1 <= bounds[i] for i, w1 in zip(pending, w1s([items[i] for i in pending], steps))]
        for i in (i for i, ok in zip(pending, passed) if ok):
            labels[i] = steps
        pending = [i for i, ok in zip(pending, passed) if not ok]
    return labels


def fit_recommender(labeled_specs, max_steps: int) -> StepRecommender:
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
                      schedule: NoiseSchedule, count: int, rng: Rng):
    """Generate with the recommended step count and report quality against the
    T-step baseline."""
    return adaptive_generate_many([(spec, rng)], recommender, schedule, count)[0]


def adaptive_generate_many(items, recommender: StepRecommender, schedule: NoiseSchedule,
                           count: int) -> list[tuple[np.ndarray, QualityReport]]:
    """`adaptive_generate` of every (spec, rng) item, with every
    recommended-step chain and every baseline in one lockstep batch. The
    chains draw from rng.child(0), the baselines from rng.child(2), and their
    references from rng.child(1) and rng.child(3)."""
    steps = [recommender.recommend(spec.difficulty) for spec, _ in items]
    chains = [(spec, s, rng.child(0), rng.child(1)) for (spec, rng), s in zip(items, steps)]
    chains += [(spec, schedule.T, rng.child(2), rng.child(3)) for spec, rng in items]
    samples, w1s = _scored(chains, schedule, count)
    return [(x, QualityReport(steps_used=s, w1=w1, baseline_w1=base_w1))
            for x, s, w1, base_w1 in zip(samples, steps, w1s, w1s[len(items):])]


def train_and_evaluate(specs, schedule: NoiseSchedule, epsilon: float, n_train: int,
                       count: int, rng: Rng) -> list[QualityReport]:
    """The step recommender's whole flow on one workload of specs.

    The first n_train specs get oracle labels (spec i on rng.child(i)), the
    recommender is fit to them, and every spec is then generated at its
    recommended step count and scored against its T-step baseline (spec j on
    rng.child(100000 + j)). Returns one report per spec, in order.
    """
    train = specs[:n_train]
    labels = oracle_labels([(spec, rng.child(i)) for i, spec in enumerate(train)], schedule, epsilon, count)
    recommender = fit_recommender(list(zip(train, labels)), schedule.T)
    items = [(spec, rng.child(100000 + j)) for j, spec in enumerate(specs)]
    return [report for _, report in adaptive_generate_many(items, recommender, schedule, count)]

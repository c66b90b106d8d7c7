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
from .errors import DynexecError

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
# the most components of one mixture: `MixtureSpec.difficulty` sums over
# pairs in Python, about 6 ms a call at 256 components and 110 ms at 1 024
MAX_COMPONENTS = 256


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
        if len(self.components) > MAX_COMPONENTS:
            raise ValueError(f"mixture has {len(self.components)} components; at most {MAX_COMPONENTS}")
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


# float64s of one lockstep batch: per chain, count x components scores and
# its kept alpha_bar of each step; larger groups run in several batches, so a
# big workload does not hold it all at once
_BATCH_ELEMENTS = 1 << 18
# normals drawn ahead in one block, several steps' noise for the running
# chains, counted with those steps' per-component coefficients; small enough
# that a block's uint64 and float buffers stay below the rest of a run's memory
_NOISE_ELEMENTS = 1 << 14


def generate_many(chains, schedule: NoiseSchedule, count: int) -> list[np.ndarray]:
    """`generate` for every (spec, steps, rng) chain, run side by side; each
    chain needs its own rng.

    Chains with the same component count step in lockstep, longest first, so
    the chains still running are always a leading block: one diffusion step
    is one batched score, one batched noise draw and one update for all of
    them. Every per-chain scalar comes from the same float operations, so
    each returned sample array, and each rng's final counter, equals the
    one-chain run.
    """
    for _, steps, _ in chains:
        if not 1 <= steps <= schedule.T:
            raise DynexecError(f"steps must lie in [1, {schedule.T}], got {steps}")
    if count < 1:
        raise ValueError("count must be >= 1")
    groups = {}
    for i, (spec, _, _) in enumerate(chains):
        groups.setdefault(len(spec.components), []).append(i)
    out = [None] * len(chains)
    for k, members in groups.items():
        members.sort(key=lambda i: -chains[i][1])
        per_batch = max(1, _BATCH_ELEMENTS // (count * k + chains[members[0]][1]))
        for start in range(0, len(members), per_batch):
            batch = members[start:start + per_batch]
            for i, x in zip(batch, _lockstep([chains[i] for i in batch], schedule, count)):
                out[i] = x
    return out


def _step_coefficients(ab, ws, mus, sgs):
    """The sampler's numbers for the steps whose alpha_bars are ab[:-1], each
    followed by ab[1:], from (steps + 1, chains, 1) alpha_bar columns and
    (chains, components) weights, means and stddevs: the noised component
    means sqrt(ab)*mu, variances ab*sigma*sigma + 1 - ab, their square roots
    and `_log_norms`, (steps, chains, components), and the update's b = 1 - a,
    sqrt(a) and sqrt(b) with a = ab / next ab, (steps, chains, 1).

    Each is the scalar formula's operations in its order, elementwise, so
    every value has the bits of the one-chain Python floats.
    """
    ab, a = ab[:-1], ab[:-1] / ab[1:]
    vs = ab * sgs * sgs + 1.0 - ab
    return np.sqrt(ab) * mus, np.sqrt(vs), vs, _log_norms(ws, vs), 1.0 - a, np.sqrt(a), np.sqrt(1.0 - a)


def _lockstep(chains, schedule: NoiseSchedule, count: int) -> list[np.ndarray]:
    """One `generate` per (spec, steps, rng) chain of one component count,
    sorted by steps, longest first: row c of every array is chain c and its stream."""
    n_chains, max_steps, n_comps = len(chains), chains[0][1], len(chains[0][0].components)
    # each chain's kept alpha_bars, one column per chain, then 1.0: the last
    # step's a divides by it; a finished chain's rows stay unread
    abs_ = np.ones((max_steps + 1, n_chains, 1))
    for c, (_, steps, _) in enumerate(chains):
        abs_[:steps, c, 0] = schedule.alpha_bar[respaced_timesteps(schedule.T, steps)]
    ws, mus, sgs = np.array([spec.components for spec, _, _ in chains]).transpose(2, 0, 1)
    # the start: a draw from the noised mixture at kept[0] = T-1, whatever the
    # step count, as `MixtureSpec.sample` makes it
    ms0, sds0 = _step_coefficients(abs_[:2], ws, mus, sgs)[:2]
    streams = RngStreams([rng for _, _, rng in chains])
    u = streams.uniforms(count)
    idx = (np.cumsum(ws, axis=1)[:, :, None] < u[:, None, :]).sum(axis=1)  # searchsorted, row by row
    np.minimum(idx, n_comps - 1, out=idx)
    x = np.take_along_axis(ms0[0], idx, 1) + np.take_along_axis(sds0[0], idx, 1) * streams.normals(count)
    active, block_end = n_chains, 0
    for i in range(max_steps):
        if i == block_end:
            while chains[active - 1][1] <= i:
                active -= 1
            # the noise and the coefficients of the next steps while no chain
            # finishes, in one block: each step's noise is its own draw of
            # count normals, following the step before's in every stream
            block = min(chains[active - 1][1] - i, max(1, _NOISE_ELEMENTS // (active * (count + n_comps))))
            noise = streams.normals((block, count), active)
            ms, _, vs, log_norms, bs, root_as, root_bs = _step_coefficients(
                abs_[i:i + block + 1, :active], ws[:active], mus[:active], sgs[:active])
            block_start, block_end = i, i + block
        j = i - block_start
        xa = x[:active]
        score = _mixture_score(xa, log_norms[j], ms[j], vs[j])
        x[:active] = (xa + bs[j] * score) / root_as[j] + root_bs[j] * noise[:, j]
    streams.close()
    return list(x)


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
        return _sorted_w1(a, b)
    support = np.sort(np.concatenate([a, b]))
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def _sorted_w1(a: np.ndarray, b: np.ndarray) -> float:
    """`wasserstein1` of two sorted float64 samples of one size."""
    return float(np.mean(np.abs(a - b)))


class _Scores:
    """The W1 of each (spec, steps, branch) chain, each run once.

    A chain generates on an Rng of branch.child(0) and is scored against the
    one reference of (spec, branch), `count` draws from branch.child(1); a
    call runs the chains not yet run, by spec, steps and branch seed, in one
    `generate_many` call. Each value is a pure function of its key, so a kept
    one only saves work: a reference is kept once its branch's T-step chain
    has run, as the later chains on a branch are scored beside that baseline.
    """

    def __init__(self, schedule: NoiseSchedule, count: int):
        self.schedule, self.count = schedule, count
        self._w1s, self._refs = {}, {}

    def __call__(self, chains) -> list[float]:
        keys = [(spec, steps, branch.seed) for spec, steps, branch in chains]
        new = {key: branch for key, (_, _, branch) in zip(keys, chains) if key not in self._w1s}
        samples = generate_many([(spec, steps, branch.child(0)) for (spec, steps, _), branch in new.items()],
                                self.schedule, self.count)
        for ((spec, steps, seed), branch), x in zip(new.items(), samples):
            if (spec, seed) not in self._refs:
                self._refs[spec, seed] = np.sort(spec.sample(self.count, branch.child(1)))
            self._w1s[spec, steps, seed] = _sorted_w1(np.sort(x), self._refs[spec, seed])
        self._refs = {key: ref for key, ref in self._refs.items() if (key[0], self.schedule.T, key[1]) in self._w1s}
        return [self._w1s[key] for key in keys]


def min_steps_oracle(spec: MixtureSpec, schedule: NoiseSchedule, epsilon: float,
                     count: int, rng: Rng) -> int:
    """Smallest grid step count whose W1 stays within (1+epsilon) of the T-step baseline.

    Scans the fixed grid ascending; returns T when nothing qualifies. Each
    candidate s is the chain (spec, s, rng.child(s)) of `_Scores`, on its own
    branch, so the scan order is irrelevant.
    """
    return _labels([(spec, rng)], _Scores(schedule, count), epsilon)[0]


def _labels(items, scores: _Scores, epsilon: float) -> list[int]:
    """`min_steps_oracle` of every (spec, rng) item, candidate s on the
    branch rng.child(s): the T-step baselines of all items in one call, then
    each grid value, ascending, for the items still without a label."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    T = scores.schedule.T
    bounds = [(1.0 + epsilon) * w1 for w1 in scores([(spec, T, rng.child(T)) for spec, rng in items])]
    labels = [T] * len(items)
    pending = list(range(len(items)))
    for steps in (s for s in ORACLE_GRID if s < T):
        if not pending:
            break
        w1s = scores([(items[i][0], steps, items[i][1].child(steps)) for i in pending])
        passed = [w1 <= bounds[i] for i, w1 in zip(pending, w1s)]
        for i in itertools.compress(pending, passed):
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
        raise DynexecError(f"need at least {MIN_LABELED_SPECS} labeled specs, got {len(pairs)}")
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
    T-step baseline. The recommended-step chain and the baseline each run on
    an Rng of the stream rng.child(0), so they read the same draws, and both
    are scored against one reference from rng.child(1)."""
    steps = recommender.recommend(spec.difficulty)
    x, baseline = generate_many([(spec, steps, rng.child(0)), (spec, schedule.T, rng.child(0))], schedule, count)
    ref = np.sort(spec.sample(count, rng.child(1)))
    return x, QualityReport(steps, _sorted_w1(np.sort(x), ref), _sorted_w1(np.sort(baseline), ref))


def train_and_evaluate(specs, schedule: NoiseSchedule, epsilon: float, n_train: int,
                       count: int, rng: Rng) -> list[QualityReport]:
    """The step recommender's whole flow on one workload of specs.

    The first n_train specs get oracle labels (spec i on rng.child(i)), the
    recommender is fit to them, and every spec's recommended chain and its
    T-step baseline are then scored, as `_Scores` chains, on the spec's
    branch: rng.child(i).child(T), the oracle baseline's own, for training
    spec i, so its baseline is not run again, and rng.child(100000 + j) for
    every other spec j, whose two chains read the same draws. A recommended
    chain of T steps is its own baseline. Returns one report per spec, in
    order.
    """
    T, scores = schedule.T, _Scores(schedule, count)
    labels = _labels([(spec, rng.child(i)) for i, spec in enumerate(specs[:n_train])], scores, epsilon)
    recommender = fit_recommender(list(zip(specs, labels)), T)
    branches = [rng.child(i).child(T) if i < n_train else rng.child(100000 + i) for i in range(len(specs))]
    steps = [recommender.recommend(spec.difficulty) for spec in specs]
    w1s = scores([*zip(specs, steps, branches), *((spec, T, branch) for spec, branch in zip(specs, branches))])
    return [QualityReport(s, w1, baseline_w1) for s, w1, baseline_w1 in zip(steps, w1s, w1s[len(specs):])]

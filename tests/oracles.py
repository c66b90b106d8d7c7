"""Independent brute-force oracles the test suite checks implementations against.

These deliberately avoid the library's decode/verify code paths: output
distributions are computed by enumerating every discrete outcome of the
draft-verify process with the uniform draws integrated out analytically, and
greedy decoding is re-derived from plain argmax steps.
"""

import itertools
import math
from collections import defaultdict

import numpy as np

from dynexec.cli import _as_int_list
from dynexec.core import Rng, _load_json, check_context, check_dist, entropy, feature_forward
from dynexec.eagle import Extrapolator
from dynexec.earlyexit import (BOUNDARY_X_RANGE, EASY_BAND, FIT_MAX_ITERATIONS, FIT_TOLERANCE, HARD_BAND, RIDGE,
                               STAGE0_COST, STAGE1_COST, Dataset, MultiExitNet, SweepRow, _row_entropies, _sigmoid,
                               featurize, stage_dists)
from dynexec.errors import DynexecError, SchemaError
from dynexec.router import LOGPROB_FLOOR, RouteReport
from dynexec.specdec import DraftOutput, verify
from dynexec.stepsaver import ORACLE_GRID, MixtureSpec, fit_recommender, respaced_timesteps, wasserstein1


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64_reference(z: int) -> int:
    """The SplitMix64 finalizer of one 64-bit word, in Python integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def uniform_reference(seed: int, k: int) -> float:
    """Draw k (1-based) of the `Rng` stream with this seed, one draw at a time:
    the top 53 bits of mix64(seed + k*GOLDEN mod 2^64), scaled to [0, 1)."""
    return (mix64_reference((seed & _MASK64) + k * _GOLDEN) >> 11) * 2.0**-53


def child_seed_reference(seed: int, index: int) -> int:
    """The seed of `Rng(seed).child(index)`."""
    return mix64_reference((seed & _MASK64) ^ mix64_reference((index + 1) * _GOLDEN))


def fixture_normals(rng, n):
    """n normals from 2n uniforms, one per pair as r cos(theta) only: the first
    Box-Muller form of `Rng.normals`, frozen so that fixture data drawn from it
    keeps its bits whatever `Rng.normals` becomes."""
    u = rng.uniforms(2 * n)
    r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
    return r * np.cos(u[1::2] * (2.0 * np.pi))


def sample_reference(d, rng) -> int:
    """`core.sample` as a scan over float64 array elements: one uniform, then
    the first index whose running total of the positive entries exceeds it,
    or the last positive entry when it lies past the mass."""
    u = rng.uniform()
    acc = 0.0
    last_positive = 0
    for i, p in enumerate(np.asarray(d, dtype=np.float64)):
        if p > 0:
            last_positive = i
            acc += p
            if u < acc:
                return i
    return last_positive


def autoregressive_distribution(next_fn, prompt, length, vocab):
    """Exact probability of every length-N sequence under plain ancestral sampling."""
    out = {}
    for seq in itertools.product(range(vocab), repeat=length):
        prob = 1.0
        ctx = tuple(prompt)
        for tok in seq:
            prob *= float(next_fn(ctx)[tok])
            ctx += (tok,)
        out[seq] = prob
    return out


def decode_output_distribution(target_next, draft_dist_fn, prompt, length, K, vocab):
    """Exact output distribution of the speculative decode process.

    Enumerates, per cycle, every draft path, every accept/reject cut point,
    and every residual/bonus terminal token; the per-position accept
    probability min(1, p/q) and the residual normalize(max(0, p-q)) enter as
    analytic weights rather than sampled coins. Cycles chain through a
    dynamic program over emitted prefixes (the process is Markov in the
    context), and the final cycle's surplus is truncated exactly like the
    implementation's contract says.

    draft_dist_fn(ctx, drafted_prefix) must return the draft distribution for
    the next position; this is the only draft-side knowledge the oracle needs,
    so it covers both token-level and feature-level drafting.
    """
    prompt = tuple(prompt)
    chunk_cache = {}

    def chunk_dist(ctx):
        if ctx in chunk_cache:
            return chunk_cache[ctx]
        out = defaultdict(float)

        def recurse(prefix, qprob, qdists):
            if len(prefix) == K:
                pdists = [np.asarray(target_next(ctx + prefix[:i])) for i in range(K + 1)]
                alive = qprob
                for i in range(K):
                    x = prefix[i]
                    accept = min(1.0, float(pdists[i][x]) / float(qdists[i][x]))
                    rejected = alive * (1.0 - accept)
                    if rejected > 0.0:
                        residual = np.maximum(pdists[i] - qdists[i], 0.0)
                        residual /= residual.sum()
                        for y in np.nonzero(residual)[0]:
                            out[prefix[:i] + (int(y),)] += rejected * float(residual[y])
                    alive *= accept
                if alive > 0.0:
                    bonus = pdists[K]
                    for y in np.nonzero(bonus)[0]:
                        out[prefix + (int(y),)] += alive * float(bonus[y])
                return
            q = np.asarray(draft_dist_fn(ctx, prefix))
            for x in np.nonzero(q)[0]:
                recurse(prefix + (int(x),), qprob * float(q[x]), qdists + [q])

        recurse((), 1.0, [])
        chunk_cache[ctx] = dict(out)
        return chunk_cache[ctx]

    level = {(): 1.0}
    final = defaultdict(float)
    while level:
        nxt = defaultdict(float)
        for emitted, prob in level.items():
            for chunk, chunk_prob in chunk_dist(prompt + emitted).items():
                grown = emitted + chunk
                if len(grown) >= length:
                    final[grown[:length]] += prob * chunk_prob
                else:
                    nxt[grown] += prob * chunk_prob
        level = nxt
    return dict(final)


def max_preservation_deviation(target_model, draft_dist_fn, prompt, length, K):
    """Max absolute gap between the decode output distribution and the target's."""
    vocab = target_model.vocab_size
    decoded = decode_output_distribution(target_model.next_dist, draft_dist_fn,
                                         prompt, length, K, vocab)
    truth = autoregressive_distribution(target_model.next_dist, prompt, length, vocab)
    return max(abs(decoded.get(seq, 0.0) - p) for seq, p in truth.items())


def acceptance_rate_memoryless(p, q) -> float:
    """Closed-form per-position accept probability for context-free models:
    beta = sum_i min(p_i, q_i)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DynexecError("need distributions of equal length")
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


def table_draft_dist_fn(draft_model):
    def fn(ctx, prefix):
        return draft_model.next_dist(ctx + prefix)
    return fn


def eagle_draft_dist_fn(model, extrapolator):
    """Replays the feature-level rollout to get the draft distribution at any
    position of a cycle: true features for the context, extrapolated beyond."""
    def fn(ctx, prefix):
        feats, _ = feature_forward(model, ctx)
        f = feats[-1]
        for tok in prefix:
            f = extrapolator.predict(f, model.embed[tok])
        return model.dist(f)
    return fn


def greedy_decode(model, prompt, length):
    """Plain greedy argmax decoding; ties break to the lowest token index."""
    out = []
    ctx = tuple(prompt)
    for _ in range(length):
        tok = int(np.argmax(model.next_dist(ctx)))
        out.append(tok)
        ctx += (tok,)
    return out


def lookahead_reference(model, prompt, length, n, L):
    """Lookahead decoding from scratch. Every round rebuilds the n-gram map
    from the whole history (later windows win), chains up to L cached
    continuations of the last n-1 tokens, and checks each against the
    argmax of next_dist on the full context.

    Returns the tokens and (tokens_generated, target_calls, proposed,
    verified_hits).
    """
    prompt = list(prompt)
    history = list(prompt)
    w = n - 1
    calls = proposed = hits = 0
    while len(history) - len(prompt) < length:
        cache = {tuple(history[i:i + w]): history[i + w] for i in range(len(history) - w)}
        proposal = []
        window = tuple(history[-w:])
        while len(proposal) < L and window in cache:
            proposal.append(cache[window])
            window = (window + (proposal[-1],))[-w:]
        calls += 1
        proposed += len(proposal)
        for token in proposal:
            best = int(np.argmax(model.next_dist(tuple(history))))
            history.append(best)
            if best != token:
                break
            hits += 1
        else:
            history.append(int(np.argmax(model.next_dist(tuple(history)))))
    out = history[len(prompt):len(prompt) + length]
    return out, (len(out), calls, proposed, hits)


def speculative_reference(target, draft_model, prompt, length, K, rng):
    """Speculative decoding from scratch: each cycle samples K drafts from
    draft_model.next_dist(ctx + prefix), takes the K+1 target distributions
    from next_dist on full contexts and runs one `verify`.

    Returns the tokens and the DecodeStats fields as a dict.
    """
    def draft_from_scratch(ctx):
        tokens = []
        dists = []
        for _ in range(K):
            q = draft_model.next_dist(ctx + tuple(tokens))
            tokens.append(sample_reference(q, rng))
            dists.append(q)
        return tokens, dists

    return _verify_cycles_reference(target, draft_from_scratch, prompt, length, K, rng)


def eagle_reference(model, extrapolator, prompt, length, K, rng):
    """Feature-level drafting from scratch: each cycle runs the feature
    recurrence from zero over the whole context, rolls the extrapolator out
    K steps from its last feature, takes the K+1 target distributions from
    next_dist on full contexts and runs one `verify`.

    Returns the tokens and the DecodeStats fields as a dict.
    """
    def rollout_from_scratch(ctx):
        f = np.zeros(model.dim)
        for token in ctx:
            f = model.advance(f, token)
        tokens = []
        dists = []
        for _ in range(K):
            q = model.dist(f)
            tokens.append(sample_reference(q, rng))
            dists.append(q)
            f = extrapolator.predict(f, model.embed[tokens[-1]])
        return tokens, dists

    return _verify_cycles_reference(model, rollout_from_scratch, prompt, length, K, rng)


def _verify_cycles_reference(target, draft_fn, prompt, length, K, rng):
    """Cycles of draft_fn(ctx) -> (K tokens, K draft distributions), each
    verified against next_dist on full contexts, until `length` tokens; one
    target call per cycle and one draft call per drafted token."""
    out = []
    cycles = accepted = 0
    while len(out) < length:
        ctx = tuple(prompt) + tuple(out)
        tokens, dists = draft_fn(ctx)
        p = [target.next_dist(ctx + tuple(tokens[:i])) for i in range(K + 1)]
        result = verify(p, DraftOutput(tuple(tokens), tuple(dists)), rng)
        out.extend(result.emitted)
        cycles += 1
        accepted += result.n_accepted
    out = out[:length]
    return out, {"tokens_generated": len(out), "target_calls": cycles, "draft_calls": K * cycles,
                 "cycles": cycles, "acceptance_rate": accepted / (K * cycles),
                 "tokens_per_target_call": len(out) / cycles}


def collect_trajectories(model, tokens):
    """(features, tokens) per row of a corpus's token array, the features from
    one `feature_forward` over that sequence alone."""
    return [(feature_forward(model, seq)[0], tuple(seq)) for seq in tokens.tolist()]


def sample_corpus_reference(model, n_sequences, length, rng):
    """Self-distillation corpus one sequence and one scalar step at a time:
    the first token uniform over the vocabulary, then ancestral samples."""
    corpus = []
    for _ in range(n_sequences):
        first = min(int(rng.uniform() * model.vocab_size), model.vocab_size - 1)
        seq = [first]
        f = model.advance(np.zeros(model.dim), first)
        for _ in range(length - 1):
            token = sample_reference(model.dist(f), rng)
            seq.append(token)
            f = model.advance(f, token)
        corpus.append(tuple(seq))
    return corpus


def fit_extrapolator_reference(model, corpus, ridge):
    """Ridge least squares built row by row from per-sequence forward passes."""
    xs = []
    ys = []
    for ctx in corpus:
        feats, _ = feature_forward(model, ctx)
        for t in range(len(ctx) - 1):
            xs.append(np.concatenate([feats[t], model.embed[ctx[t + 1]]]))
            ys.append(feats[t + 1])
    d = model.dim
    if len(xs) < 2 * d + 1:
        raise DynexecError(f"need at least {2 * d + 1} transitions, got {len(xs)}")
    X = np.asarray(xs)
    Y = np.asarray(ys)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    W = np.linalg.solve(Xc.T @ Xc + ridge * np.eye(2 * d), Xc.T @ (Y - y_mean))
    return Extrapolator(W.T, y_mean - W.T @ x_mean)


def table_model_reference(vocab_size, order, table, fallback=None):
    """`TableModel`'s table and fallback checked one row at a time: in table
    order, each window through check_context and then its row through
    check_dist and a length check against vocab_size, the fallback last, each
    row copied into its own read-only array. Returns (rows by window,
    fallback), or raises what the first failing check raises. vocab_size and
    order must already be valid."""
    def frozen_row(row, name):
        d = check_dist(row, name)
        if d.size != vocab_size:
            raise DynexecError(f"{name} has {d.size} entries, not the vocabulary size {vocab_size}")
        out = np.array(d, dtype=np.float64)
        out.flags.writeable = False
        return out

    rows = {}
    for window, row in table.items():
        window = check_context(window, vocab_size)
        if len(window) != order:
            raise ValueError(f"window {window} does not have length {order}")
        rows[window] = frozen_row(row, f"table row {window}")
    if fallback is None:
        fallback = np.full(vocab_size, 1.0 / vocab_size)
    return rows, frozen_row(fallback, "fallback")


def gen_dataset_reference(count, hard_fraction, seed):
    """Early-exit points one at a time, three scalar uniforms each (x, band
    coin, offset), with the boundary as Python's x**3 - x."""
    rng = Rng(seed)
    lo_x, hi_x = BOUNDARY_X_RANGE
    xs, ys, labels = [], [], []
    for i in range(count):
        label = i % 2
        x = lo_x + (hi_x - lo_x) * rng.uniform()
        band = HARD_BAND if rng.uniform() < hard_fraction else EASY_BAND
        offset = band[0] + (band[1] - band[0]) * rng.uniform()
        xs.append(x)
        ys.append(x**3 - x + (offset if label == 1 else -offset))
        labels.append(label)
    return Dataset(np.array(xs), np.array(ys), np.array(labels))


def features_reference(xs, ys, d):
    """The first d early-exit features sample-major, one (n, d) row per point."""
    xx, xy, yy = xs * xs, xs * ys, ys * ys
    return np.stack([xs, ys, xx, xy, yy, xx * xs, xx * ys, xy * ys, yy * ys][:d], axis=1)


def fit_logistic_reference(feats, labels, start=None):
    """Newton's method on the mean logistic loss plus RIDGE/2 * |w|^2 over
    sample-major (n, d) features, taking every full step, from zero weights
    unless `start` (intercept last) is given. Returns the weights, intercept
    last; raises DynexecError after FIT_MAX_ITERATIONS steps."""
    n, d = feats.shape
    w, b = (np.zeros(d), 0.0) if start is None else (start[:-1].copy(), start[-1])
    weighted = np.empty_like(feats)
    hessian = np.empty((d + 1, d + 1))
    penalty = RIDGE * np.eye(d)
    for _ in range(FIT_MAX_ITERATIONS):
        p = _sigmoid(feats @ w + b)
        residual = p - labels
        curvature = p * (1.0 - p)
        np.multiply(feats, curvature[:, None], out=weighted)
        hessian[:d, :d] = feats.T @ weighted / n + penalty
        hessian[:d, d] = hessian[d, :d] = weighted.sum(axis=0) / n
        hessian[d, d] = curvature.sum() / n
        gradient = np.append(feats.T @ residual / n + RIDGE * w, residual.sum() / n)
        step = np.linalg.solve(hessian, gradient)
        w -= step[:d]
        b -= step[d]
        if np.max(np.abs(step)) < FIT_TOLERANCE:
            return np.append(w, b)
    raise DynexecError(f"logistic fit still moving after {FIT_MAX_ITERATIONS} Newton steps")


def sample_major_dists(weights, xs, ys):
    """A stage's two-class distributions from the sample-major product of its
    weights over the first len(weights) - 1 columns of `features_reference`."""
    p1 = _sigmoid(features_reference(xs, ys, len(weights) - 1) @ weights[:-1] + weights[-1])
    return np.stack([1.0 - p1, p1], axis=1)


def library_dists(weights, xs, ys):
    """`earlyexit.stage_dists` over the points' `featurize` rows, as `sweep` reads them."""
    return stage_dists(weights, featurize(xs, ys))


def train_stages_reference(data):
    """Both early-exit stages' weights fitted from zero by `fit_logistic_reference`."""
    labels = data.labels.astype(np.float64)
    return MultiExitNet(tuple(fit_logistic_reference(features_reference(data.xs, data.ys, d), labels) for d in (2, 9)))


def point_rows(net, data):
    """Per point, its row of each stage's one batched pass over the data: the
    distributions `sweep` reads. BLAS sums a batched product in an order that
    depends on the batch, so a one-point pass can differ in the last bit."""
    return list(zip(*(library_dists(weights, data.xs, data.ys) for weights in net.stages)))


def sweep_reference(net, data, taus, dists=library_dists):
    """`earlyexit.sweep` as one pass over every point per tau, each stage's
    distributions from `dists(weights, xs, ys)`: a mask of the points whose
    stage-0 entropy is strictly below tau, and the means of the chosen
    answers' hits and of the chosen costs."""
    first, final = net.stages
    first_dists = dists(first, data.xs, data.ys)
    first_preds = np.argmax(first_dists, axis=1)
    final_preds = np.argmax(dists(final, data.xs, data.ys), axis=1)
    first_ents = _row_entropies(first_dists)
    full_cost = STAGE0_COST + STAGE1_COST
    rows = []
    for tau in taus:
        exits = first_ents < tau
        mean_cost = float(np.mean(np.where(exits, STAGE0_COST, full_cost)))
        rows.append(SweepRow(
            tau=float(tau),
            accuracy=float(np.mean(np.where(exits, first_preds, final_preds) == data.labels)),
            mean_cost=mean_cost,
            early_exit_fraction=float(np.mean(exits)),
            speedup=full_cost / mean_cost,
        ))
    return rows


def infer_with_exit(rows, tau):
    """Classify one point from its distribution at each of the two stages
    (`rows`), exiting at the first stage whose entropy is strictly below tau;
    the final stage always answers.

    Returns (label, exit_index, cost_spent). The strict inequality makes tau=0
    a clean never-exit endpoint (entropy >= 0 always).
    """
    cost = 0.0
    for idx, (cost_units, dist) in enumerate(zip((STAGE0_COST, STAGE1_COST), rows)):
        cost += cost_units
        final = idx == len(rows) - 1
        if final or entropy(dist) < tau:
            return int(np.argmax(dist)), idx, cost
    raise AssertionError("unreachable: final stage always answers")


def difficulty_reference(prompt, probe):
    """`router.difficulty` from scratch: the probe reads every prompt prefix anew."""
    prompt = check_context(prompt, probe.vocab_size)
    if not prompt:
        raise DynexecError("difficulty needs a non-empty prompt")
    total = 0.0
    for i in range(1, len(prompt) + 1):
        total += entropy(probe.next_dist(prompt[:i]))
    return total / len(prompt)


def mean_log_likelihood_reference(model, item):
    """An item's quality in `router.frontier`, its mean log-likelihood of the
    continuation after the prompt, from scratch: the model reads the prompt and
    each continuation prefix anew."""
    ctx = item.prompt
    total = 0.0
    for token in item.reference_continuation:
        total += math.log(max(float(model.next_dist(ctx)[token]), LOGPROB_FLOOR))
        ctx = ctx + (token,)
    return total / len(item.reference_continuation)


def route(threshold, small, item):
    """Returns "large" iff the item's difficulty under the small model strictly exceeds the threshold."""
    return "large" if difficulty_reference(item.prompt, small) > threshold else "small"


def load_route_workload_reference(path, small, large):
    """`cli.load_route_workload` one entry and then one item at a time: a list
    of WorkloadItems, or the SchemaError of the first fault met."""
    from helpers import WorkloadItem  # here, not at the top: helpers imports this module
    doc = _load_json(path)
    try:
        items = [WorkloadItem(tuple(_as_int_list(entry["prompt"], "prompt")),
                              tuple(_as_int_list(entry["continuation"], "continuation")))
                 for entry in doc["items"]]
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed route workload {path}: {exc}") from exc
    if not items:
        raise SchemaError(f"route workload {path} has no items")
    vocab = min(small.vocab_size, large.vocab_size)
    for i, item in enumerate(items):
        if not item.prompt:
            raise SchemaError(f"route workload {path}: item {i} has an empty prompt")
        tokens = item.prompt + item.reference_continuation
        if min(tokens) < 0 or max(tokens) >= vocab:
            raise SchemaError(f"route workload {path}: item {i} has a token outside the models' "
                              f"vocabulary of size {vocab}")
    return items


def route_evaluate_reference(threshold, workload, small, large):
    """One threshold's report for a list of WorkloadItems, recomputing every
    item's difficulty under the small model and scoring only the chosen
    model's likelihood."""
    total_cost = 0.0
    n_large = 0
    qualities = []
    for item in workload:
        total_cost += len(item.prompt) * small.cost_units
        if route(threshold, small, item) == "large":
            chosen = large
            n_large += 1
        else:
            chosen = small
        qualities.append(mean_log_likelihood_reference(chosen, item))
        total_cost += len(item.reference_continuation) * chosen.cost_units
    return RouteReport(total_cost=total_cost, mean_quality=float(np.mean(qualities)),
                       fraction_large=n_large / len(workload))


def noised_components_reference(spec, alpha_bar):
    """The forward-process marginal's (weight, mean, variance) components:
    means scale by sqrt(alpha_bar), variances become alpha_bar * sigma * sigma
    + 1 - alpha_bar."""
    root = math.sqrt(alpha_bar)
    return [(w, root * mu, alpha_bar * sg * sg + 1.0 - alpha_bar) for w, mu, sg in spec.components]


def noised_reference(spec, alpha_bar):
    """The forward-process marginal as a validated spec, each stddev the square
    root of its `noised_components_reference` variance."""
    return MixtureSpec(tuple((w, mu, math.sqrt(v)) for w, mu, v in noised_components_reference(spec, alpha_bar)))


def quality(samples, spec, reference_count, rng):
    """W1 distance between generated samples and fresh reference draws from the spec."""
    return wasserstein1(samples, spec.sample(reference_count, rng))


def mixture_score_reference(spec, x, alpha_bar):
    """The analytic score of the noised components."""
    ws, ms, vs = np.array(noised_components_reference(spec, alpha_bar)).T
    diffs = x[None, :] - ms[:, None]
    logs = np.log(ws)[:, None] - 0.5 * np.log(2.0 * np.pi * vs)[:, None] - 0.5 * diffs**2 / vs[:, None]
    logs -= logs.max(axis=0, keepdims=True)
    gamma = np.exp(logs)
    gamma /= gamma.sum(axis=0, keepdims=True)
    return (gamma * (-diffs / vs[:, None])).sum(axis=0)


def generate_reference(spec, schedule, steps, count, rng):
    """One diffusion chain one step at a time: the start drawn from the
    validated noised spec, then per step the 1-D score and one `normals` draw."""
    kept = respaced_timesteps(schedule.T, steps)
    x = noised_reference(spec, float(schedule.alpha_bar[kept[0]])).sample(count, rng)
    for i, t in enumerate(kept):
        ab_t = float(schedule.alpha_bar[t])
        ab_prev = float(schedule.alpha_bar[kept[i + 1]]) if i + 1 < steps else 1.0
        a_eff = ab_t / ab_prev
        b_eff = 1.0 - a_eff
        score = mixture_score_reference(spec, x, ab_t)
        x = (x + b_eff * score) / math.sqrt(a_eff) + math.sqrt(b_eff) * rng.normals(count)
    return x


def min_steps_oracle_reference(spec, schedule, epsilon, count, rng):
    """The oracle's grid scan one candidate at a time, ascending, stopping at
    the first step count within (1+epsilon) of the T-step baseline; candidate
    s generates on rng.child(s).child(0) and draws its reference from
    rng.child(s).child(1)."""
    grid = [s for s in ORACLE_GRID if s <= schedule.T]
    if schedule.T not in grid:
        grid.append(schedule.T)

    def w1_at(steps):
        branch = rng.child(steps)
        samples = generate_reference(spec, schedule, steps, count, branch.child(0))
        return quality(samples, spec, count, branch.child(1))

    baseline = w1_at(schedule.T)
    for steps in grid:
        if steps == schedule.T or w1_at(steps) <= (1.0 + epsilon) * baseline:
            return steps
    return schedule.T


def adaptive_generate_reference(spec, recommender, schedule, count, rng):
    """`adaptive_generate` one chain at a time: the recommended-step chain and
    the T-step baseline each on a fresh rng.child(0), so the shorter chain's
    noise is the first steps of the baseline's, both scored against reference
    draws from rng.child(1). Returns the samples, the steps used, the W1 and
    the baseline W1."""
    steps = recommender.recommend(spec.difficulty)
    x = generate_reference(spec, schedule, steps, count, rng.child(0))
    baseline = generate_reference(spec, schedule, schedule.T, count, rng.child(0))
    return x, steps, quality(x, spec, count, rng.child(1)), quality(baseline, spec, count, rng.child(1))


def train_and_evaluate_reference(specs, schedule, epsilon, n_train, count, rng):
    """`train_and_evaluate` one chain at a time: the scan oracle labels the
    training specs and the recommender is fit to them; a training spec's
    chain and its T-step baseline then each run on a fresh copy of the oracle
    baseline's stream rng.child(i).child(T).child(0), scored against
    reference draws from rng.child(i).child(T).child(1), and every other spec
    j is `adaptive_generate_reference` on rng.child(100000 + j). Returns
    (steps used, W1, baseline W1) per spec."""
    train = specs[:n_train]
    labels = [min_steps_oracle_reference(spec, schedule, epsilon, count, rng.child(i)) for i, spec in enumerate(train)]
    recommender = fit_recommender(list(zip(train, labels)), schedule.T)
    out = []
    for i, spec in enumerate(train):
        branch = rng.child(i).child(schedule.T)
        steps = recommender.recommend(spec.difficulty)
        x = generate_reference(spec, schedule, steps, count, branch.child(0))
        baseline = generate_reference(spec, schedule, schedule.T, count, branch.child(0))
        out.append((steps, quality(x, spec, count, branch.child(1)), quality(baseline, spec, count, branch.child(1))))
    for j in range(n_train, len(specs)):
        out.append(adaptive_generate_reference(specs[j], recommender, schedule, count, rng.child(100000 + j))[1:])
    return out

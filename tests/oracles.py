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

from dynexec.core import Rng, check_context, entropy, feature_forward, sample
from dynexec.eagle import Extrapolator
from dynexec.earlyexit import BOUNDARY_X_RANGE, EASY_BAND, HARD_BAND, Dataset
from dynexec.errors import EmptyPrompt, InsufficientData, LengthMismatch
from dynexec.router import LOGPROB_FLOOR, RouteReport
from dynexec.specdec import DraftOutput, verify
from dynexec.stepsaver import ORACLE_GRID, MixtureSpec, quality, respaced_timesteps


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
        raise LengthMismatch("need distributions of equal length")
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
            tokens.append(sample(q, rng))
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
            tokens.append(sample(q, rng))
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
            token = sample(model.dist(f), rng)
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
        raise InsufficientData(f"need at least {2 * d + 1} transitions, got {len(xs)}")
    X = np.asarray(xs)
    Y = np.asarray(ys)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    W = np.linalg.solve(Xc.T @ Xc + ridge * np.eye(2 * d), Xc.T @ (Y - y_mean))
    return Extrapolator(W.T, y_mean - W.T @ x_mean)


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


def point_rows(net, data):
    """Per point, its row of each stage's one batched pass over the data: the
    distributions `sweep` reads. BLAS sums a batched product in an order that
    depends on the batch, so a one-point pass can differ in the last bit."""
    return list(zip(*(stage.dists(data.xs, data.ys) for stage in net.stages)))


def infer_with_exit(net, rows, tau):
    """Classify one point from its distribution at each stage (`rows`),
    exiting at the first stage whose entropy is strictly below tau; the final
    stage always answers.

    Returns (label, exit_index, cost_spent). The strict inequality makes tau=0
    a clean never-exit endpoint (entropy >= 0 always).
    """
    cost = 0.0
    for idx, (stage, dist) in enumerate(zip(net.stages, rows)):
        cost += stage.cost_units
        final = idx == len(net.stages) - 1
        if final or entropy(dist) < tau:
            return int(np.argmax(dist)), idx, cost
    raise AssertionError("unreachable: final stage always answers")


def difficulty_reference(prompt, probe):
    """`router.difficulty` from scratch: the probe reads every prompt prefix anew."""
    prompt = check_context(prompt, probe.vocab_size)
    if not prompt:
        raise EmptyPrompt("difficulty needs a non-empty prompt")
    total = 0.0
    for i in range(1, len(prompt) + 1):
        total += entropy(probe.next_dist(prompt[:i]))
    return total / len(prompt)


def mean_log_likelihood_reference(model, item):
    """`router._mean_log_likelihood` from scratch: the model reads the prompt
    and each continuation prefix anew."""
    ctx = item.prompt
    total = 0.0
    for token in item.reference_continuation:
        total += math.log(max(float(model.next_dist(ctx)[token]), LOGPROB_FLOOR))
        ctx = ctx + (token,)
    return total / len(item.reference_continuation)


def route(policy, item):
    """Returns "large" iff the item's difficulty strictly exceeds the threshold."""
    return "large" if difficulty_reference(item.prompt, policy.probe) > policy.threshold else "small"


def route_evaluate_reference(policy, workload, small, large):
    """One threshold's report, recomputing every item's difficulty and scoring
    only the chosen model's likelihood."""
    total_cost = 0.0
    n_large = 0
    qualities = []
    for item in workload:
        total_cost += len(item.prompt) * policy.probe.cost_units
        if route(policy, item) == "large":
            chosen = large
            n_large += 1
        else:
            chosen = small
        qualities.append(mean_log_likelihood_reference(chosen, item))
        total_cost += len(item.reference_continuation) * chosen.cost_units
    return RouteReport(total_cost=total_cost, mean_quality=float(np.mean(qualities)),
                       fraction_large=n_large / len(workload))


def noised_reference(spec, alpha_bar):
    """The forward-process marginal as a validated spec: component means scale
    by sqrt(alpha_bar), variances become alpha_bar * sigma^2 + (1 - alpha_bar)."""
    root = math.sqrt(alpha_bar)
    return MixtureSpec(tuple((w, root * mu, math.sqrt(alpha_bar * sg * sg + 1.0 - alpha_bar))
                             for w, mu, sg in spec.components))


def mixture_score_reference(spec, x, alpha_bar):
    """The analytic score read from the validated noised spec."""
    noised = noised_reference(spec, alpha_bar)
    ms = np.array([c[1] for c in noised.components])
    vs = np.array([c[2] ** 2 for c in noised.components])
    ws = np.array([c[0] for c in noised.components])
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
    """`adaptive_generate` one chain at a time: the recommended-step chain on
    rng.child(0) and the T-step baseline on rng.child(2), scored against
    reference draws from rng.child(1) and rng.child(3). Returns the samples,
    the steps used, the W1 and the baseline W1."""
    steps = recommender.recommend(spec.difficulty)
    x = generate_reference(spec, schedule, steps, count, rng.child(0))
    baseline = generate_reference(spec, schedule, schedule.T, count, rng.child(2))
    return x, steps, quality(x, spec, count, rng.child(1)), quality(baseline, spec, count, rng.child(3))

"""Output checks, computed apart from the program.

Each check reads one report and returns None when it holds, or a one-line
reason. References come from the benchmark's own reading of the input files
(table lookups, its own recurrence and its own samplers), or are properties
the method must have. The one exception is the early-exit full-stage
accuracy, which only the library's trained stage defines; it is computed
outside the timed region.
"""

import csv
import json
import math
import os
import re

import numpy as np

from workloads import SPEC_K, STEPS, VOCAB

Z_BOUND = 6.5            # normal quantile of the goodness-of-fit bound (one-sided tail about 4e-11)
MIN_BIN_EXPECTED = 5.0   # goodness-of-fit bins are merged until each expects this many
REFERENCE_SEQUENCES = 256
# An emitted sequence's statistic may lie at most this many times the largest
# reference deviation from the reference median. The statistic is skewed and
# heavy-tailed for chaotic feature models, so a normal bound would be unsafe.
REFERENCE_SPAN = 4.0
LOGPROB_FLOOR = 1e-12
STAGE_COSTS = (1.0, 4.0)  # early-exit stage costs, fixed by the library
CSV_TECHNIQUES = ("early-exit", "stepsaver", "route")


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _table_rows(doc):
    return {tuple(int(t) for t in key.split(",")) if key else (): row for key, row in doc["table"].items()}


def _chi2_bound(df):
    """Wilson-Hilferty upper quantile of chi-square with df degrees of freedom at Z_BOUND."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + Z_BOUND * math.sqrt(c)) ** 3


def transition_fit(sequence, rows):
    """G statistic of observed order-1 transitions against the rows that should
    have produced them, with its degrees of freedom (low-expectation cells pooled)."""
    counts = {}
    for a, b in zip(sequence, sequence[1:]):
        counts.setdefault(a, np.zeros(VOCAB))[b] += 1
    g = 0.0
    df = 0
    for a, observed in counts.items():
        expected = observed.sum() * np.asarray(rows[(a,)])
        order = np.argsort(-expected)
        bins = []  # [expected, observed]
        for j in order:
            if bins and bins[-1][0] < MIN_BIN_EXPECTED:
                bins[-1][0] += expected[j]
                bins[-1][1] += observed[j]
            else:
                bins.append([expected[j], observed[j]])
        if len(bins) > 1 and bins[-1][0] < MIN_BIN_EXPECTED:
            e, o = bins.pop()
            bins[-1][0] += e
            bins[-1][1] += o
        if len(bins) < 2:
            continue
        for e, o in bins:
            g += 2.0 * ((o * math.log(o / e) if o > 0 else 0.0) - (o - e))
        df += len(bins) - 1
    return g, df


class FeatureForward:
    """The feature model's recurrence, head and ancestral sampler, vectorised over sequences."""

    def __init__(self, doc):
        self.embed = np.asarray(doc["embed"])
        self.recur_w = np.asarray(doc["recur_w"])
        self.recur_b = np.asarray(doc["recur_b"])
        self.head_w = np.asarray(doc["head_w"])
        self.head_b = np.asarray(doc["head_b"])

    def step(self, f, tokens):
        x = np.concatenate([f, self.embed[tokens]], axis=1)
        return np.tanh(x @ self.recur_w.T + self.recur_b)

    def log_probs(self, f):
        z = f @ self.head_w.T + self.head_b
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def _start(self, prompt, m):
        f = np.zeros((m, self.recur_b.size))
        for t in prompt:
            f = self.step(f, np.full(m, t))
        return f

    def mean_log_likelihood(self, prompt, tokens):
        f = self._start(prompt, 1)
        total = 0.0
        for t in tokens:
            total += self.log_probs(f)[0, t]
            f = self.step(f, np.array([t]))
        return total / len(tokens)

    def ancestral_mean_log_likelihoods(self, prompt, n, m, rng):
        f = self._start(prompt, m)
        total = np.zeros(m)
        for _ in range(n):
            lp = self.log_probs(f)
            cdf = np.cumsum(np.exp(lp), axis=1)
            tokens = np.minimum((cdf < rng.random((m, 1)) * cdf[:, -1:]).sum(axis=1), cdf.shape[1] - 1)
            total += lp[np.arange(m), tokens]
            f = self.step(f, tokens)
        return total / n


def _flag(exp, name):
    flags = list(exp.flags)
    for i, a in enumerate(flags):
        if a == name:
            return flags[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def _is_close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _read_csv(path):
    with open(path, newline="") as fh:
        return [{k: float(v) if k != "spec_id" else v for k, v in row.items()} for row in csv.DictReader(fh)]


class Checker:
    """Checks for one workload's inputs; references that depend only on the
    input files are computed once per run."""

    def __init__(self, directory):
        self.dir = directory
        self._cache = {}
        self._rows = {}

    def rows(self, name):
        if name not in self._rows:
            self._rows[name] = _table_rows(_load(os.path.join(self.dir, name)))
        return self._rows[name]

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, exp, report_path):
        """Check the report of one successful run; returns (reason or None, parsed report)."""
        if exp.technique in CSV_TECHNIQUES:
            report = _read_csv(report_path)
            if any(not math.isfinite(v) for row in report for k, v in row.items() if k != "spec_id"
                   and not (k == "theta" and v == math.inf)):
                return "non-finite value in report", report
        else:
            report = _load(report_path)["metrics"]
        return getattr(self, "_" + exp.technique.replace("-", "_"))(exp, report), report

    def _specdec(self, exp, m):
        n = int(_flag(exp, "--n"))
        prompt = [int(t) for t in _flag(exp, "--prompt").split(",")]
        tokens = m["tokens"]
        if len(tokens) != n or m["tokens_generated"] != n:
            return f"emitted {len(tokens)} tokens, asked for {n}"
        if m["target_calls"] != m["cycles"] or m["draft_calls"] != SPEC_K * m["cycles"]:
            return "target calls must equal cycles and draft calls K per cycle"
        g, df = transition_fit(prompt[-1:] + tokens, self.rows(_flag(exp, "--target")))
        if df and g > _chi2_bound(df):
            return f"transition frequencies off the target's rows: G={g:.1f} on {df} df"
        if _flag(exp, "--draft") == _flag(exp, "--target"):
            if m["acceptance_rate"] != 1.0 or m["tokens_per_target_call"] != SPEC_K + 1:
                return (f"draft equal to target gave acceptance {m['acceptance_rate']} and "
                        f"{m['tokens_per_target_call']} tokens per target call")
        return None

    def _eagle(self, exp, m):
        n = int(_flag(exp, "--n"))
        prompt = [int(t) for t in _flag(exp, "--prompt").split(",")]
        if len(m["tokens"]) != n:
            return f"emitted {len(m['tokens'])} tokens, asked for {n}"
        if m["target_calls"] != m["cycles"] or m["draft_calls"] != SPEC_K * m["cycles"]:
            return "target calls must equal cycles and draft calls K per cycle"
        name = _flag(exp, "--model")
        model = self._cached(name, lambda: FeatureForward(_load(os.path.join(self.dir, name))))
        ref = self._cached(("eagle", name, n, tuple(prompt)), lambda: model.ancestral_mean_log_likelihoods(
            prompt, n, REFERENCE_SEQUENCES, np.random.default_rng([n, *prompt])))
        got = model.mean_log_likelihood(prompt, m["tokens"])
        centre = float(np.median(ref))
        spread = REFERENCE_SPAN * float(np.max(np.abs(ref - centre)))
        if abs(got - centre) > spread:
            return f"mean log-likelihood {got:.4f} outside {centre:.4f} +/- {spread:.4f} of ancestral samples"
        return None

    def _lookahead(self, exp, m):
        n = int(_flag(exp, "--n"))
        ctx = [int(t) for t in _flag(exp, "--prompt").split(",")]
        rows = self.rows(_flag(exp, "--model"))
        successor = self._cached("greedy", lambda: {w: max(range(VOCAB), key=lambda t: (row[t], -t))
                                                    for w, row in rows.items()})
        for _ in range(n):
            ctx.append(successor[tuple(ctx[-2:])])
        if m["tokens"] != ctx[-n:]:
            return "tokens differ from plain greedy decoding"
        if not 1 <= m["target_calls"] <= n or m["verified_hits"] > m["proposed"]:
            return "target calls or hit counts out of range"
        return None

    def _early_exit(self, exp, rows):
        taus = [float(t) for t in _flag(exp, "--taus").split(",")]
        if [r["tau"] for r in rows] != sorted(taus):
            return "rows do not follow the tau grid"
        for prev, row in zip(rows, rows[1:]):
            if row["early_exit_fraction"] < prev["early_exit_fraction"] or row["mean_cost"] > prev["mean_cost"]:
                return f"exit fraction fell or mean cost rose between tau {prev['tau']} and {row['tau']}"
        full_cost = sum(STAGE_COSTS)
        if any(r["speedup"] != full_cost / r["mean_cost"] for r in rows):
            return "speedup differs from full_cost / mean_cost"
        zero = rows[0]
        if zero["tau"] != 0.0:
            return "tau grid lacks 0"
        full = _full_stage_accuracy(exp)
        if zero["early_exit_fraction"] != 0.0 or zero["accuracy"] != full:
            return f"tau=0 exits {zero['early_exit_fraction']} with accuracy {zero['accuracy']}, full stage {full}"
        return None

    def _stepsaver(self, exp, rows):
        specs = _load(os.path.join(self.dir, _flag(exp, "--workload")))["specs"]
        if [r["spec_id"] for r in rows] != [s["id"] for s in specs]:
            return "rows do not follow the workload's specs"
        for r in rows:
            if not 1 <= r["steps_used"] <= STEPS or r["throughput_ratio"] != STEPS / r["steps_used"]:
                return f"{r['spec_id']}: steps_used {r['steps_used']} or its throughput ratio out of range"
        by_difficulty = sorted(rows, key=lambda r: r["difficulty"])
        if any(b["steps_used"] < a["steps_used"] for a, b in zip(by_difficulty, by_difficulty[1:])):
            return "steps_used falls as difficulty rises"
        return None

    def _route(self, exp, rows):
        thetas = [float(t) for t in _flag(exp, "--thetas").split(",")]
        if [r["theta"] for r in rows] != thetas:
            return "rows do not follow the theta grid"
        for prev, row in zip(rows, rows[1:]):
            if row["fraction_large"] > prev["fraction_large"] or row["total_cost"] > prev["total_cost"]:
                return f"frontier not monotone between theta {prev['theta']} and {row['theta']}"
        items = _load(os.path.join(self.dir, _flag(exp, "--workload")))["items"]
        for theta, name, fraction in ((-1.0, "--large", 1.0), (math.inf, "--small", 0.0)):
            row = next((r for r in rows if r["theta"] == theta), None)
            if row is None:
                return f"theta grid lacks {theta}"
            model = _flag(exp, name)
            quality = self._cached(("quality", model), lambda: _mean_log_likelihood(self.rows(model), items))
            if row["fraction_large"] != fraction or not _is_close(row["mean_quality"], quality):
                return (f"theta {theta}: fraction_large {row['fraction_large']}, mean_quality "
                        f"{row['mean_quality']} against {quality}")
        return None


def _mean_log_likelihood(rows, items):
    per_item = []
    for item in items:
        ctx = item["prompt"][-1]
        total = 0.0
        for t in item["continuation"]:
            total += math.log(max(rows[(ctx,)][t], LOGPROB_FLOOR))
            ctx = t
        per_item.append(total / len(item["continuation"]))
    return float(np.mean(per_item))


def _full_stage_accuracy(exp):
    from dynexec.earlyexit import gen_dataset, stage_accuracy, train_stages

    data = gen_dataset(int(_flag(exp, "--count")), float(_flag(exp, "--hard-fraction")), int(_flag(exp, "--seed")))
    return stage_accuracy(train_stages(data).stages[-1], data)


def check_malformed(exp, code, error, stderr, wrote_report):
    """A malformed input passes only if main returns 1, raises nothing, writes
    no report and names the offending key or file."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    if code != 1:
        return f"exit code {code}, expected 1"
    if wrote_report:
        return "wrote a report"
    names = {exp.expect_error, exp.expect_error.replace("_", "-")}
    if not any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", stderr) for name in names):
        return f"message does not name {exp.expect_error!r}: {stderr.strip()[:120]!r}"
    return None

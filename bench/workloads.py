"""Benchmark inputs and the experiments each workload runs.

Every input is a pure function of the workload seed: model parameters and
workload items come from numpy's PCG64 generator seeded with it, and models
are built and written through the library (`TableModel`, `FeatureModel`,
`save_model`). The malformed-input files do not depend on the seed.
"""

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from dynexec import FeatureModel, TableModel, save_model
from dynexec.core import normalize

VOCAB = 16             # table models: specdec, lookahead, route
FEATURE_VOCAB = 8      # feature model: eagle
FEATURE_DIM = 8
FEATURE_MODELS = 3     # one per eagle ladder rung, so a round averages over three models
TARGET_COST, DRAFT_COST = 8.0, 1.0
SMALL_COST, LARGE_COST = 1.0, 8.0
SPEC_K = 4
STEPS = 100            # stepsaver schedule length T


@dataclass(frozen=True)
class Profile:
    """How one workload's inputs lean: easy (accept/exit paths) or hard."""

    target_alpha: float     # Dirichlet concentration of the specdec target rows
    draft_mix: float        # weight of the target inside each draft row; 0 = independent draft
    draft_alpha: float      # concentration of the draft's own rows
    text: str               # lookahead greedy path: "cycle" (repetitive) or "debruijn"
    text_alpha: float       # concentration of the lookahead model's rows
    ngram: int              # lookahead n-gram size
    feature_scale: float    # recurrence weight scale of the eagle model
    head_scale: float       # output-head weight scale of the eagle model
    hard_share: float       # share of hard early-exit points, mixture specs and route items


EASY = Profile(target_alpha=0.3, draft_mix=0.85, draft_alpha=1.0, text="cycle", text_alpha=0.3,
               ngram=3, feature_scale=0.4, head_scale=1.5, hard_share=0.2)
HARD = Profile(target_alpha=20.0, draft_mix=0.0, draft_alpha=0.1, text="debruijn", text_alpha=20.0,
               ngram=2, feature_scale=3.0, head_scale=3.0, hard_share=0.8)


@dataclass(frozen=True)
class Sizes:
    """Experiment sizes of one workload. A round runs each decoder ladder and
    each sweep `*_repeat` times, so every technique gets a similar share of it."""

    specdec_n: tuple[int, ...]
    specdec_repeat: int
    self_draft_n: int       # multiple of K+1, so a self-draft run shows exactly K+1 tokens per call
    eagle_n: tuple[int, ...]
    eagle_repeat: int
    lookahead_n: tuple[int, ...]
    lookahead_repeat: int
    points: int
    taus: tuple[float, ...]
    exit_repeat: int
    specs: int
    samples: int
    spec_repeat: int
    items: int
    thetas: tuple[float, ...]
    route_repeat: int


def _grid(lo, hi, count):
    return tuple(round(lo + (hi - lo) * i / (count - 1), 6) for i in range(count))


@dataclass(frozen=True)
class Workload:
    name: str
    profile: Profile
    sizes: Sizes
    malformed: bool


WORKLOADS = {w.name: w for w in (
    Workload(
        "long-context",
        EASY,
        Sizes(specdec_n=(512, 1024, 2048), specdec_repeat=1, self_draft_n=250,
              eagle_n=(64, 128, 256), eagle_repeat=1,
              lookahead_n=(1024, 2048, 4096), lookahead_repeat=1,
              points=25000, taus=_grid(0.0, 0.75, 31), exit_repeat=1,
              specs=24, samples=1000, spec_repeat=1,
              items=2000, thetas=(-1.0,) + _grid(0.0, 2.8, 8) + (math.inf,), route_repeat=1),
        malformed=False),
    Workload(
        "short-runs",
        EASY,
        Sizes(specdec_n=(32, 64, 128), specdec_repeat=24, self_draft_n=60,
              eagle_n=(32, 64, 128), eagle_repeat=1,
              lookahead_n=(32, 64, 128), lookahead_repeat=12,
              points=2000, taus=_grid(0.0, 0.75, 16), exit_repeat=5,
              specs=10, samples=600, spec_repeat=2,
              items=100, thetas=(-1.0, 0.5, 1.5, math.inf), route_repeat=24),
        malformed=True),
    Workload(
        "hard-inputs",
        HARD,
        Sizes(specdec_n=(256, 512, 1024), specdec_repeat=1, self_draft_n=250,
              eagle_n=(64, 128, 256), eagle_repeat=1,
              lookahead_n=(512, 1024, 2048), lookahead_repeat=1,
              points=5000, taus=_grid(0.0, 0.75, 16), exit_repeat=4,
              specs=40, samples=200, spec_repeat=1,
              items=500, thetas=(-1.0,) + _grid(0.0, 2.8, 6) + (math.inf,), route_repeat=6),
        malformed=False),
)}


@dataclass(frozen=True)
class Experiment:
    """One `dynexec` invocation: a technique, its flags (paths relative to the
    input directory) and the work it does, in the unit of its rate."""

    technique: str
    flags: tuple[str, ...]
    work: int
    size: int = 0               # decoder output length, for the scaling slope
    expect_error: str = None    # malformed input: the key or file the error must name


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def experiments(workload: Workload, prompt) -> list[Experiment]:
    """One round of the workload, interleaved technique by technique; `prompt`
    starts the lookahead model on its planted greedy path. The runner gives
    every experiment of every round its own `--seed`."""
    s = workload.sizes
    text_prompt = ",".join(map(str, prompt))
    k = str(SPEC_K)
    per_technique = [
        [Experiment("specdec", ("--target", "target.json", "--draft", "draft.json", "--k", k,
                                "--n", str(n), "--prompt", "0"), n, n)
         for n in s.specdec_n] * s.specdec_repeat
        + [Experiment("specdec", ("--target", "target.json", "--draft", "target.json", "--k", k,
                                  "--n", str(s.self_draft_n), "--prompt", "0"), s.self_draft_n)],
        [Experiment("eagle", ("--model", f"feature{i % FEATURE_MODELS}.json", "--k", k, "--n", str(n),
                              "--prompt", "0"), n, n)
         for i, n in enumerate(s.eagle_n)] * s.eagle_repeat,
        [Experiment("lookahead", ("--model", "text.json", "--n", str(n), "--ngram", str(workload.profile.ngram),
                                  "--window", "4", "--prompt", text_prompt), n, n)
         for n in s.lookahead_n] * s.lookahead_repeat,
        [Experiment("early-exit", ("--count", str(s.points), "--hard-fraction", repr(workload.profile.hard_share),
                                   "--taus", _fmt(s.taus)), s.points)] * s.exit_repeat,
        [Experiment("stepsaver", ("--workload", "specs.json", "--epsilon", "0.1", "--train-frac", "0.5",
                                  "--count", str(s.samples), "--steps", str(STEPS)), s.specs)] * s.spec_repeat,
        [Experiment("route", ("--small", "small.json", "--large", "large.json", "--workload", "items.json",
                              "--thetas=" + _fmt(s.thetas)), s.items)] * s.route_repeat,
    ]
    if workload.malformed:
        per_technique.append(MALFORMED)
    round_ = []
    for i in range(max(len(exps) for exps in per_technique)):
        for exps in per_technique:
            if i < len(exps):
                round_.append(exps[i])
    return round_


def warm_up(prompt) -> list[Experiment]:
    """One small experiment per technique over the workload's own inputs."""
    return [
        Experiment("specdec", ("--target", "target.json", "--draft", "draft.json", "--n", "16"), 16),
        Experiment("eagle", ("--model", "feature0.json", "--n", "16", "--fit-seqs", "32"), 16),
        Experiment("lookahead", ("--model", "text.json", "--n", "16", "--prompt", ",".join(map(str, prompt))), 16),
        Experiment("early-exit", ("--count", "200"), 200),
        Experiment("stepsaver", ("--workload", "specs.json", "--count", "100", "--steps", "10"), 0),
        Experiment("route", ("--small", "small.json", "--large", "large.json", "--workload", "items.json",
                             "--thetas", "0.5"), 0),
    ]


# Each of these must exit 1 naming the key or file, and write no report.
MALFORMED = [
    Experiment("specdec", ("--target", "target.json", "--draft", "draft.json", "--k", "0"), 0,
               expect_error="k"),
    Experiment("specdec", ("--target", "target.json", "--draft", "draft.json", "--prompt", str(VOCAB + 3)), 0,
               expect_error="prompt"),
    Experiment("early-exit", ("--count", "500", "--hard-fraction", "2"), 0, expect_error="hard_fraction"),
    Experiment("stepsaver", ("--workload", "specs.json", "--epsilon", "-1"), 0, expect_error="epsilon"),
    Experiment("early-exit", ("--count", "500", "--taus", "0,nan,0.1"), 0, expect_error="taus"),
    Experiment("route", ("--small", "small.json", "--large", "large.json", "--workload", "items.json",
                         "--thetas", "nan"), 0, expect_error="thetas"),
    Experiment("lookahead", ("--model", "no-fallback.json", "--n", "8"), 0, expect_error="no-fallback.json"),
    Experiment("lookahead", ("--model", "broken.json", "--n", "8"), 0, expect_error="broken.json"),
]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _dirichlet_row(rng, alpha, size=VOCAB):
    return normalize(rng.dirichlet(np.full(size, alpha)))


def _with_argmax(row, token):
    """Raise `token` to the unique maximum of the row, keeping the rest."""
    w = row.copy()
    w[token] = w.max() + 0.05
    return normalize(w)


def de_bruijn(k: int, n: int) -> list[int]:
    """Cyclic sequence over k symbols in which every n-gram occurs exactly once."""
    a = [0] * (k * n)
    out = []

    def db(t, p):
        if t > n:
            if n % p == 0:
                out.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return out


def greedy_path(rng, profile: Profile) -> list[int]:
    """The cyclic token sequence the lookahead model's argmax follows."""
    perm = rng.permutation(VOCAB)
    if profile.text == "debruijn":
        return [int(perm[t]) for t in de_bruijn(VOCAB, 2)]
    # a short cycle whose token pairs are all distinct, so order-2 argmax can follow it
    return [int(t) for t in perm[:12]]


def build_models(rng, profile: Profile):
    """The workload's models by file stem, the lookahead model's greedy path,
    and the route probe's uncertain tokens."""
    target_rows = [_dirichlet_row(rng, profile.target_alpha) for _ in range(VOCAB)]
    draft_rows = [normalize(profile.draft_mix * p + (1 - profile.draft_mix) * _dirichlet_row(rng, profile.draft_alpha))
                  for p in target_rows]
    models = {
        "target": TableModel(VOCAB, 1, {(a,): r for a, r in enumerate(target_rows)}, cost_units=TARGET_COST),
        "draft": TableModel(VOCAB, 1, {(a,): r for a, r in enumerate(draft_rows)}, cost_units=DRAFT_COST),
    }
    path = greedy_path(rng, profile)
    succ = {(path[i], path[(i + 1) % len(path)]): path[(i + 2) % len(path)] for i in range(len(path))}
    text = {}
    for window in itertools.product(range(VOCAB), repeat=2):
        row = _dirichlet_row(rng, profile.text_alpha)
        text[window] = _with_argmax(row, succ[window]) if window in succ else row
    models["text"] = TableModel(VOCAB, 2, text, cost_units=TARGET_COST)

    d, v = FEATURE_DIM, FEATURE_VOCAB
    uni = lambda shape, scale: rng.uniform(-scale, scale, size=shape)
    for i in range(FEATURE_MODELS):
        models[f"feature{i}"] = FeatureModel(v, uni((v, d), 1.0), uni((d, 2 * d), profile.feature_scale),
                                             uni(d, 0.3), uni((v, d), profile.head_scale), uni(v, 0.3),
                                             cost_units=TARGET_COST)

    # route: the probe is confident after "easy" tokens and near-uniform after "hard" ones
    hard_tokens = set(int(t) for t in rng.permutation(VOCAB)[:4])
    small_rows = {(a,): _dirichlet_row(rng, 50.0 if a in hard_tokens else 0.1) for a in range(VOCAB)}
    models["small"] = TableModel(VOCAB, 1, small_rows, cost_units=SMALL_COST)
    models["large"] = TableModel(VOCAB, 1, {(a,): _dirichlet_row(rng, 0.5) for a in range(VOCAB)},
                                 cost_units=LARGE_COST)
    return models, path, sorted(hard_tokens)


def _sample_row(rng, row):
    return int(min(np.searchsorted(np.cumsum(row), rng.random(), side="right"), len(row) - 1))


def route_items(rng, large: TableModel, hard_tokens, count, hard_share):
    """Prompts from the probe's easy or hard tokens, continuations sampled from the large model."""
    easy_tokens = [t for t in range(VOCAB) if t not in hard_tokens]
    items = []
    for _ in range(count):
        pool = hard_tokens if rng.random() < hard_share else easy_tokens
        prompt = [int(rng.choice(pool)) for _ in range(int(rng.integers(2, 5)))]
        cont = []
        for _ in range(int(rng.integers(4, 7))):
            cont.append(_sample_row(rng, large.next_dist(tuple(prompt + cont))))
        items.append({"prompt": prompt, "continuation": cont})
    return items


def mixture_specs(rng, count, hard_share):
    """Single broad Gaussians (easy) and separated narrow mixtures of 2, 3 and 4
    modes in turn (hard), interleaved so any leading training split sees both
    kinds. The seed only jitters the parameters, so every seed's spec set costs
    about the same to run."""
    n_hard = round(count * hard_share)
    hard_at = set(np.round(np.linspace(0, count - 1, n_hard)).astype(int).tolist()) if n_hard else set()
    specs = []
    for i in range(count):
        if i in hard_at:
            m = 2 + sum(spec["id"].startswith("hard") for spec in specs) % 3
            means = np.linspace(-2.5, 2.5, m) + rng.uniform(-0.1, 0.1, size=m)
            weights = normalize(rng.uniform(0.8, 1.0, size=m))
            comps = [[float(w), float(mu), float(rng.uniform(0.18, 0.22))] for w, mu in zip(weights, means)]
            specs.append({"id": f"hard-{i}", "components": comps})
        else:
            specs.append({"id": f"easy-{i}", "components": [[1.0, float(rng.uniform(-1.5, 1.5)), 1.0]]})
    return specs


def write_inputs(workload: Workload, seed: int, directory: str, draw: int = 0) -> list[int]:
    """Write every input file of the workload's `draw`-th input set into
    `directory`; returns the lookahead prompt, the start of the text model's
    planted greedy path."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload.name)), draw])
    models, path, hard_tokens = build_models(rng, workload.profile)
    for name, model in models.items():
        save_model(model, os.path.join(directory, f"{name}.json"))
    s = workload.sizes
    _write_json(os.path.join(directory, "items.json"),
                {"items": route_items(rng, models["large"], hard_tokens, s.items, workload.profile.hard_share)})
    _write_json(os.path.join(directory, "specs.json"),
                {"specs": mixture_specs(rng, s.specs, workload.profile.hard_share)})
    if workload.malformed:
        _write_json(os.path.join(directory, "no-fallback.json"),
                    {"kind": "table", "vocab_size": 2, "order": 0, "cost_units": 1.0,
                     "table": {"": [0.5, 0.5]}})
        with open(os.path.join(directory, "broken.json"), "w") as fh:
            fh.write('{"kind": "table", "vocab_size": 2,\n "order": 0 "table": {}}\n')
    return path[:2]


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)

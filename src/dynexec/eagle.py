"""Feature-level speculative drafting.

Instead of a separate draft model, an affine extrapolator predicts the target
FeatureModel's next penultimate feature from the current feature and the next
token's embedding (the token sequence runs one step ahead of the feature
sequence). Draft distributions come from the target's own output head applied
to extrapolated features, and verification is the unchanged specdec scan, so
the emitted distribution equals the target's no matter how bad the
extrapolator is; its quality only moves the acceptance rate.
"""

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    Context,
    CostMeter,
    FeatureModel,
    Rng,
    atomic_write_text,
    check_context,
    feature_forward,
    sample,
)
from .errors import InsufficientData, SingularSystem
from .specdec import DraftOutput, _decode_loop

DEFAULT_RIDGE = 1e-6
DEFAULT_DRAFT_COST_FACTOR = 0.1
DEFAULT_FIT_SEQUENCES = 256
DEFAULT_FIT_LENGTH = 16


@dataclass(frozen=True)
class Extrapolator:
    """Affine map [feature; next-token embedding] (2d) -> predicted next feature (d)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.weight.shape[0] * 2 != self.weight.shape[1]:
            raise ValueError("weight must have shape (d, 2d)")
        if self.bias.shape != (self.weight.shape[0],):
            raise ValueError("bias must have shape (d,)")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("extrapolator parameters must be finite")

    def predict(self, feature: np.ndarray, embedding: np.ndarray) -> np.ndarray:
        return self.weight @ np.concatenate([feature, embedding]) + self.bias


@dataclass(frozen=True)
class FeatureTrajectory:
    features: np.ndarray
    tokens: tuple[int, ...]

    def __post_init__(self):
        if len(self.features) != len(self.tokens):
            raise ValueError("one feature per consumed token")


def collect_trajectories(model: FeatureModel, corpus) -> list[FeatureTrajectory]:
    out = []
    for ctx in corpus:
        ctx = check_context(ctx, model.vocab_size)
        feats, _ = feature_forward(model, ctx)
        out.append(FeatureTrajectory(feats, ctx))
    return out


def sample_corpus(model: FeatureModel, n_sequences: int, length: int, rng: Rng) -> list[Context]:
    """Self-distillation corpus: ancestral samples from the model itself.

    The first token of each sequence is uniform over the vocabulary (the model
    needs a non-empty context before it can produce a distribution).
    """
    if n_sequences < 1 or length < 2:
        raise ValueError("need at least one sequence of length >= 2")
    corpus = []
    for _ in range(n_sequences):
        first = min(int(rng.uniform() * model.vocab_size), model.vocab_size - 1)
        seq = [first]
        f = model.step(np.zeros(model.dim), first)
        for _ in range(length - 1):
            token = sample(model.head_dist(f), rng)
            seq.append(token)
            f = model.step(f, token)
        corpus.append(tuple(seq))
    return corpus


def fit_extrapolator(model: FeatureModel, corpus, ridge: float = DEFAULT_RIDGE) -> Extrapolator:
    """Least-squares fit of f_{t+1} against [f_t ; embed(token_{t+1})].

    Ridge penalizes the weights but not the bias, so the large-ridge limit
    predicts the sample mean. With ridge=0 a rank-deficient design raises
    SingularSystem instead of silently picking one of many solutions.
    """
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    xs = []
    ys = []
    for traj in collect_trajectories(model, corpus):
        feats, tokens = traj.features, traj.tokens
        for t in range(len(tokens) - 1):
            xs.append(np.concatenate([feats[t], model.embed[tokens[t + 1]]]))
            ys.append(feats[t + 1])
    d = model.dim
    needed = 2 * d + 1
    if len(xs) < needed:
        raise InsufficientData(f"need at least {needed} transitions, got {len(xs)}")
    X = np.asarray(xs)
    Y = np.asarray(ys)
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    gram = Xc.T @ Xc
    if ridge == 0.0 and np.linalg.matrix_rank(Xc) < 2 * d:
        raise SingularSystem("design matrix is rank-deficient; use ridge > 0")
    W = np.linalg.solve(gram + ridge * np.eye(2 * d), Xc.T @ Yc)
    weight = W.T
    bias = y_mean - weight @ x_mean
    return Extrapolator(weight, bias)


def eagle_draft(model: FeatureModel, ex: Extrapolator, ctx, K: int, rng: Rng,
                meter: CostMeter = None, cost_units: float = None) -> DraftOutput:
    """Draft K tokens by rolling the extrapolator at the feature level.

    One true forward pass over ctx seeds the rollout (its cost belongs to the
    target's own batched call, so the draft side bills only K cheap calls).
    The first draft distribution therefore equals the target's, and drift
    enters through extrapolated features from the second position on.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return eagle_draft_from(model, ex, model.start(ctx), K, rng, meter, cost_units)


def eagle_draft_from(model: FeatureModel, ex: Extrapolator, feature: np.ndarray, K: int, rng: Rng,
                     meter: CostMeter = None, cost_units: float = None) -> DraftOutput:
    """`eagle_draft` seeded by the target's feature after the context."""
    tokens = []
    dists = []
    for k in range(K):
        dist = model.head_dist(feature)
        tokens.append(sample(dist, rng))
        dists.append(dist)
        if k + 1 < K:
            feature = ex.predict(feature, model.embed[tokens[-1]])
    if meter is not None:
        if cost_units is None:
            cost_units = DEFAULT_DRAFT_COST_FACTOR * model.cost_units
        meter.record("draft", cost_units, calls=K)
    return DraftOutput(tuple(tokens), tuple(dists))


def eagle_decode(model: FeatureModel, ex: Extrapolator, prompt, N: int, K: int, rng: Rng,
                 draft_cost_factor: float = DEFAULT_DRAFT_COST_FACTOR):
    """speculative_decode with eagle_draft supplying the proposals.

    The target's own state, its current feature, seeds every rollout, so
    drafting reuses the features the verify cycles already computed.
    Distribution preservation holds verbatim because verification is unchanged.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    meter = CostMeter()
    draft_cost = draft_cost_factor * model.cost_units

    def draft_fn(feature, _):
        return eagle_draft_from(model, ex, feature, K, rng, meter, draft_cost), None

    return _decode_loop(model, prompt, N, rng, meter, draft_fn)


def extrapolator_to_dict(ex: Extrapolator) -> dict:
    return {"weight": ex.weight.tolist(), "bias": ex.bias.tolist()}


def extrapolator_from_dict(doc: dict) -> Extrapolator:
    return Extrapolator(np.asarray(doc["weight"], dtype=np.float64),
                        np.asarray(doc["bias"], dtype=np.float64))


def save_extrapolator(ex: Extrapolator, path: str):
    atomic_write_text(path, json.dumps(extrapolator_to_dict(ex), sort_keys=True, indent=1) + "\n")


def load_extrapolator(path: str) -> Extrapolator:
    with open(path) as fh:
        return extrapolator_from_dict(json.load(fh))

"""Feature-level speculative drafting.

Instead of a separate draft model, an affine extrapolator predicts the target
FeatureModel's next penultimate feature from the current feature and the next
token's embedding (the token sequence runs one step ahead of the feature
sequence). Draft distributions come from the target's own output head applied
to extrapolated features, and verification is the unchanged specdec scan, so
the emitted distribution equals the target's no matter how bad the
extrapolator is; its quality only moves the acceptance rate.
"""

from dataclasses import dataclass

import numpy as np

from .core import FeatureModel, Rng, inverse_cdf
from .errors import InsufficientData, SingularSystem
from .specdec import DraftOutput, _speculate, draft_from

DEFAULT_RIDGE = 1e-6


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
            raise ValueError("extrapolator weight and bias must be finite")

    def predict(self, feature: np.ndarray, embedding: np.ndarray) -> np.ndarray:
        return self.weight @ np.concatenate([feature, embedding]) + self.bias


def sample_corpus(model: FeatureModel, n_sequences: int, length: int,
                  rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Self-distillation corpus: ancestral samples from the model itself.

    Returns the tokens (n_sequences, length) and the feature after each token
    (n_sequences, length, d). The first token of each sequence is uniform over
    the vocabulary (the model needs a non-empty context before it can produce
    a distribution). The sequences advance together, one batched `advance`
    per position; row i of a batched call equals the 1-D call bit for bit, and
    sequence i reads uniforms i*length .. (i+1)*length - 1 of the stream, as
    if the sequences were sampled one after another.
    """
    if n_sequences < 1 or length < 2:
        raise ValueError("need at least one sequence of length >= 2")
    u = rng.uniforms(n_sequences * length).reshape(n_sequences, length)
    tokens = np.empty((n_sequences, length), dtype=np.intp)
    tokens[:, 0] = np.minimum((u[:, 0] * model.vocab_size).astype(np.intp), model.vocab_size - 1)
    feats = np.empty((n_sequences, length, model.dim))
    f = np.zeros((n_sequences, model.dim))
    for t in range(1, length):
        f = feats[:, t - 1] = model.advance(f, tokens[:, t - 1])
        tokens[:, t] = inverse_cdf(model.dist(f), u[:, t])
    feats[:, -1] = model.advance(f, tokens[:, -1])
    return tokens, feats


def fit_extrapolator(model: FeatureModel, corpus: tuple[np.ndarray, np.ndarray],
                     ridge: float = DEFAULT_RIDGE) -> Extrapolator:
    """Least-squares fit of f_{t+1} against [f_t ; embed(token_{t+1})] over
    the (tokens, features) corpus `sample_corpus` returns.

    Ridge penalizes the weights but not the bias, so the large-ridge limit
    predicts the sample mean. With ridge=0 a rank-deficient design raises
    SingularSystem instead of silently picking one of many solutions.
    """
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    tokens, feats = corpus
    d = model.dim
    # the transitions inside each sequence, in sequence-major order
    X = np.concatenate([feats[:, :-1], model.embed[tokens[:, 1:]]], axis=-1).reshape(-1, 2 * d)
    Y = feats[:, 1:].reshape(-1, d)
    needed = 2 * d + 1
    if len(X) < needed:
        raise InsufficientData(f"need at least {needed} transitions, got {len(X)}")
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


def eagle_draft(model: FeatureModel, ex: Extrapolator, ctx, K: int, rng: Rng) -> DraftOutput:
    """Draft K tokens by rolling the extrapolator at the feature level.

    One true forward pass over ctx seeds the rollout (its cost belongs to the
    target's own batched call, so the draft side counts only K cheap calls).
    The first draft distribution therefore equals the target's, and drift
    enters through extrapolated features from the second position on.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    return draft_from(model.dist, lambda f, t: ex.predict(f, model.embed[t]), model.start(ctx), K, rng)[0]


def eagle_decode(model: FeatureModel, ex: Extrapolator, prompt, N: int, K: int, rng: Rng):
    """speculative_decode with eagle_draft supplying the proposals.

    The target's own state, its current feature, seeds every rollout, so
    drafting reuses the features the verify cycles already computed.
    Distribution preservation holds verbatim because verification is unchanged.
    """
    if K < 1:
        raise ValueError("K must be >= 1")

    def propose(_, feature, __):
        d, _ = draft_from(model.dist, lambda f, t: ex.predict(f, model.embed[t]), feature, K, rng)
        return d.tokens, d, None

    return _speculate(model, prompt, N, rng, propose)

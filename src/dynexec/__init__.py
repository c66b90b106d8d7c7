"""Dynamic-execution inference optimizations on fully specified toy models.

Each technique preserves a brute-force-checkable invariant: speculative and
feature-level drafting preserve the target distribution exactly, lookahead is
bit-identical to greedy decoding, the entropy gate is monotone in its
threshold, the step recommender is monotone in difficulty, and routing
reports an exact cost/quality frontier.
"""

from .core import (
    FeatureModel,
    Rng,
    SequenceModel,
    TableModel,
    entropy,
    feature_forward,
    load_model,
    normalize,
    sample,
    save_model,
    softmax,
)
from .eagle import (
    Extrapolator,
    eagle_decode,
    eagle_draft,
    fit_extrapolator,
    sample_corpus,
)
from .earlyexit import (
    Dataset,
    MultiExitNet,
    gen_dataset,
    sweep,
    train_stages,
)
from .lookahead import NGramCache, cache_update, lookahead_decode, propose
from .router import RouteReport, RouteWorkload, difficulty, evaluate, frontier
from .specdec import (
    DecodeStats,
    DraftOutput,
    VerificationResult,
    draft,
    residual,
    simulated_speedup,
    speculative_decode,
    verify,
)
from .stepsaver import (
    MixtureSpec,
    NoiseSchedule,
    QualityReport,
    StepRecommender,
    adaptive_generate,
    fit_recommender,
    generate,
    generate_many,
    min_steps_oracle,
    train_and_evaluate,
    wasserstein1,
)

__version__ = "0.1.0"

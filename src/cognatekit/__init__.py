"""Cognate detection and retrieval toolkit.

Words are split into positional character shingles, compared with IR
ranking functions over an inverted lexicon index, and scored together
with a trainable model of substring transformations.  See the README
for the CLI and the experiment harness.
"""

__version__ = "0.1.0"

from .baselines import (
    baseline_similarity,
    edit_distance,
    lcsr,
    normalized_edit_similarity,
    xdice_words,
)
from .errors import (
    CognateKitError,
    ConfigError,
    DataError,
    InvalidWordError,
    TrainingError,
)
from .error_model import (
    EMPTY_TOKEN,
    ErrorGraph,
    ErrorModel,
    build_graph,
    train_error_model,
)
from .evaluation import (
    AblationCell,
    EvalReport,
    BaselineSystem,
    LabeledPair,
    PipelineSystem,
    ShingledPairs,
    ablation,
    eval_classification,
    eval_mrr,
    evaluate,
    fit_pipeline,
    load_dataset,
    run_baseline_experiment,
    run_experiment,
    split,
    tune,
)
from .persistence import load_model, save_model
from .ranking import (
    LexiconIndex,
    RankerParams,
    build_index,
    load_lexicon,
    rank,
    sim,
)
from .scorer import CombinedScorer, ScoreConfig, learn_threshold, train_scorer
from .shingling import ShingleSet, ShinglerConfig, intersect, normalize_word, shingle

__all__ = [
    "AblationCell",
    "BaselineSystem",
    "CognateKitError",
    "CombinedScorer",
    "ConfigError",
    "DataError",
    "EMPTY_TOKEN",
    "ErrorGraph",
    "ErrorModel",
    "EvalReport",
    "InvalidWordError",
    "LabeledPair",
    "LexiconIndex",
    "PipelineSystem",
    "RankerParams",
    "ScoreConfig",
    "ShingleSet",
    "ShingledPairs",
    "ShinglerConfig",
    "TrainingError",
    "ablation",
    "baseline_similarity",
    "build_graph",
    "build_index",
    "edit_distance",
    "eval_classification",
    "eval_mrr",
    "evaluate",
    "fit_pipeline",
    "intersect",
    "lcsr",
    "learn_threshold",
    "load_dataset",
    "load_lexicon",
    "load_model",
    "normalize_word",
    "normalized_edit_similarity",
    "rank",
    "run_baseline_experiment",
    "run_experiment",
    "save_model",
    "shingle",
    "sim",
    "split",
    "train_error_model",
    "train_scorer",
    "tune",
    "xdice_words",
]

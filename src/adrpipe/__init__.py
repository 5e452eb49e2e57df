"""adrpipe: preprocessing, subword analysis, prediction ensembling, and
recall-oriented evaluation for adverse-drug-reaction tweet classification.

The baseline names are imported on first use (PEP 562), so every other
module, the prediction path included, loads without numpy.
"""

import importlib

from .corpus import (
    Dataset,
    LabeledTweet,
    duplicate_positives,
    load_dataset,
    save_dataset,
    stratified_split,
)
from .preprocess import (
    DrugLexicon,
    PipelineConfig,
    anonymize,
    drug_normalize,
    load_lexicon,
    preprocess,
    remove_hashtags,
    replace_handles,
)
from .tokenize import (
    SubwordVocab,
    TokenizationReport,
    corpus_token_stats,
    load_vocab,
    overlap_report,
    wordpiece_tokenize,
)
from .predictions import (
    RunMatrix,
    average_runs,
    filter_runs,
    load_predictions,
    write_predictions,
)
from .ensemble import EnsembleConfig, EnsembleDecision, decide, single_model_decide
from .evaluate import (
    AttributionBreakdown,
    ConfusionCounts,
    Metrics,
    VariabilityReport,
    attribution,
    confusion,
    metrics,
    variability,
)
from .synthetic import make_synthetic_dataset

__version__ = "0.1.0"

# Exported name -> the numpy-backed module that defines it.
_LAZY = dict.fromkeys(
    ("BaselineConfig", "BaselineModel", "load_model", "predict_prob", "run_protocol",
     "save_model", "train"),
    "baseline",
)


def __getattr__(name):
    if name in _LAZY.values():  # the submodules themselves, as `adrpipe.baseline`
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

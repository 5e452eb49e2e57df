"""adrpipe: preprocessing, subword analysis, prediction ensembling, and
recall-oriented evaluation for adverse-drug-reaction tweet classification.

Every exported name but the preprocessing ones is imported on first use (PEP
562), so a command loads only the modules it runs, and every module but the
baseline loads without numpy or `dataclasses`. The preprocessing names load
eagerly: the CLI parser reads `STAGES` anyway, and importing the `preprocess`
submodule later would rebind `adrpipe.preprocess` from the function to the
module.

The plain records, such as `Metrics` and `EnsembleDecision`, are named tuples:
they take `_replace`, not `dataclasses.replace`.
"""

import importlib

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

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_LAZY = {
    **dict.fromkeys(
        ("Dataset", "LabeledTweet", "duplicate_positives", "load_dataset", "save_dataset",
         "stratified_split"),
        "corpus",
    ),
    **dict.fromkeys(
        ("SubwordVocab", "TokenizationReport", "corpus_token_stats", "load_vocab", "overlap_report",
         "wordpiece_tokenize"),
        "tokenize",
    ),
    **dict.fromkeys(
        ("RunMatrix", "average_runs", "filter_runs", "load_predictions", "write_predictions"),
        "predictions",
    ),
    **dict.fromkeys(("EnsembleConfig", "EnsembleDecision", "decide", "single_model_decide"), "ensemble"),
    **dict.fromkeys(
        ("AttributionBreakdown", "ConfusionCounts", "Metrics", "VariabilityReport", "attribution",
         "confusion", "metrics", "variability"),
        "evaluate",
    ),
    "make_synthetic_dataset": "synthetic",
    **dict.fromkeys(
        ("BaselineConfig", "BaselineModel", "load_model", "save_model", "train"),
        "baseline",
    ),
}

# What `from adrpipe import *` binds: every export but the numpy-backed ones,
# as when all the others were imported eagerly.
__all__ = [
    "DrugLexicon", "PipelineConfig", "anonymize", "drug_normalize", "load_lexicon", "preprocess",
    "remove_hashtags", "replace_handles",
    *(name for name, module in _LAZY.items() if module != "baseline"),
]


def __getattr__(name):
    if name in _LAZY.values():  # the submodules themselves, as `adrpipe.baseline`
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

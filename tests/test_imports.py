"""The package's import surface: text-only commands run without numpy, and
every name the package has exported still imports from `adrpipe`."""

import os
import subprocess
import sys
from pathlib import Path

import adrpipe

SRC = Path(adrpipe.__file__).resolve().parent.parent
DATA = SRC.parent / "data"

# Every name `adrpipe` exported before the numpy-backed ones became lazy.
EXPORTS = (
    "Dataset", "LabeledTweet", "duplicate_positives", "load_dataset", "save_dataset",
    "stratified_split",
    "DrugLexicon", "PipelineConfig", "anonymize", "drug_normalize", "load_lexicon",
    "preprocess", "remove_hashtags", "replace_handles",
    "SubwordVocab", "TokenizationReport", "corpus_token_stats", "load_vocab",
    "overlap_report", "wordpiece_tokenize",
    "PredictionRecord", "RunMatrix", "average_runs", "filter_runs", "load_predictions",
    "write_predictions",
    "EnsembleConfig", "EnsembleDecision", "decide", "single_model_decide",
    "AttributionBreakdown", "ConfusionCounts", "Metrics", "VariabilityReport", "attribution",
    "confusion", "metrics", "variability",
    "BaselineConfig", "BaselineModel", "load_model", "predict_prob", "run_protocol",
    "save_model", "train",
    "make_synthetic_dataset",
    "__version__",
)

# Runs text-only commands in a fresh interpreter and prints whether numpy loaded.
TEXT_COMMANDS = """
import sys
from adrpipe.cli import main
d, data = sys.argv[1], sys.argv[2]
argvs = [
    ["preprocess", "--input", f"{d}/tweets.tsv", "--lexicon", f"{data}/drug_lexicon.tsv",
     "--output", f"{d}/clean.tsv"],
    ["tokens", "--vocab", f"{data}/fixture_vocab.txt", "--stats", "--input", f"{d}/clean.tsv"],
    ["split", "--input", f"{d}/tweets.tsv", "--fraction", "0.5", "--seed", "1"],
    ["evaluate", "--decisions", f"{d}/decisions.tsv", "--gold", f"{d}/tweets.tsv",
     "--report", f"{d}/report.json"],
]
codes = [main(argv) for argv in argvs]
print(codes, "numpy" in sys.modules, file=sys.stderr)
"""


def test_every_exported_name_imports_from_package():
    for name in EXPORTS:
        assert getattr(adrpipe, name) is not None, name
    assert adrpipe.train is adrpipe.baseline.train
    assert adrpipe.RunMatrix is adrpipe.predictions.RunMatrix
    assert set(EXPORTS) <= set(dir(adrpipe))


def test_submodules_resolve_as_package_attributes():
    done = subprocess.run(
        [sys.executable, "-c",
         "import adrpipe; print(adrpipe.baseline.train is adrpipe.train,"
         " adrpipe.predictions.RunMatrix is adrpipe.RunMatrix)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.split() == ["True", "True"], done.stderr


def test_text_only_commands_do_not_load_numpy(tmp_path):
    rows = ["tweet_id\tlabel\ttext"] + [
        f"t{i}\t{int(i < 2)}\t#Seroquel @doc mail a@b.com {i}" for i in range(6)
    ]
    (tmp_path / "tweets.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    decisions = ["tweet_id\tmodel_probs\tmodel_verdicts\tensemble"] + [
        f"t{i}\tm:0.9\tm:1\t1" if i < 3 else f"t{i}\tm:0.1\tm:0\t0" for i in range(6)
    ]
    (tmp_path / "decisions.tsv").write_text("\n".join(decisions) + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", TEXT_COMMANDS, str(tmp_path), str(DATA)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0] False"

"""The package's import surface: each command loads only the modules it runs,
so every command but `baseline` and protocol-mode `reproduce` runs without
numpy or `dataclasses`, and every name the package has exported still imports
from `adrpipe`."""

import json
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
    "RunMatrix", "average_runs", "filter_runs", "load_predictions",
    "write_predictions",
    "EnsembleConfig", "EnsembleDecision", "decide", "single_model_decide",
    "AttributionBreakdown", "ConfusionCounts", "Metrics", "VariabilityReport", "attribution",
    "confusion", "metrics", "variability",
    "BaselineConfig", "BaselineModel", "load_model", "predict_prob", "run_protocol",
    "save_model", "train",
    "make_synthetic_dataset",
    "__version__",
)

# Runs adrpipe commands (a JSON list of argument lists) in a fresh interpreter
# and prints their exit codes and the modules loaded by the end, as JSON.
RUN_COMMANDS = """
import json, sys
from adrpipe.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(sys.modules)]), file=sys.stderr)
"""

# Modules that no numpy-free command loads: numpy, and `dataclasses`, which imports inspect and ast.
NOT_NUMPY_FREE = {"numpy", "dataclasses"}
# Modules that neither `preprocess` nor `tokens` runs.
NOT_TEXT = {"adrpipe.predictions", "adrpipe.ensemble", "adrpipe.evaluate", "adrpipe.synthetic",
            "adrpipe.baseline", "statistics", *NOT_NUMPY_FREE}
# Modules that no prediction command (ingest, ensemble, evaluate) runs.
NOT_PREDICTION = {"adrpipe.tokenize", "adrpipe.synthetic", "adrpipe.baseline", *NOT_NUMPY_FREE}


def run_fresh(argvs: list[list[str]]) -> tuple[list[int], set[str]]:
    """The commands' exit codes, run one after another in a fresh interpreter, and the modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    codes, modules = json.loads(done.stderr.splitlines()[-1])
    return codes, set(modules)


def write_tweets(d: Path) -> Path:
    rows = ["tweet_id\tlabel\ttext"] + [
        f"t{i}\t{int(i < 2)}\t#Seroquel @doc mail a@b.com {i}" for i in range(6)
    ]
    (d / "tweets.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return d / "tweets.tsv"


def test_every_exported_name_imports_from_package():
    for name in EXPORTS:
        assert getattr(adrpipe, name) is not None, name
    assert adrpipe.train is adrpipe.baseline.train
    assert adrpipe.RunMatrix is adrpipe.predictions.RunMatrix
    assert set(EXPORTS) <= set(dir(adrpipe))


def test_preprocess_stays_the_function_once_the_cli_is_loaded():
    # Importing the submodule after the package would rebind `adrpipe.preprocess` to it.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, adrpipe.cli; from adrpipe import preprocess;"
         " print(preprocess is sys.modules['adrpipe.preprocess'].preprocess)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.split() == ["True"], done.stderr


def test_star_import_binds_every_export_but_the_baseline_ones():
    done = subprocess.run(
        [sys.executable, "-c",
         "import json as _json, sys as _sys; from adrpipe import *;"
         " print(_json.dumps([sorted(n for n in dir() if not n.startswith('_')), 'numpy' in _sys.modules]))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    names, numpy_loaded = json.loads(done.stdout)
    baseline_names = {"BaselineConfig", "BaselineModel", "load_model", "predict_prob", "run_protocol",
                      "save_model", "train"}
    assert set(names) == set(EXPORTS) - baseline_names - {"__version__"}
    assert not numpy_loaded


def test_submodules_resolve_as_package_attributes():
    done = subprocess.run(
        [sys.executable, "-c",
         "import adrpipe; print(adrpipe.baseline.train is adrpipe.train,"
         " adrpipe.predictions.RunMatrix is adrpipe.RunMatrix)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert done.stdout.split() == ["True", "True"], done.stderr


def test_text_commands_load_no_prediction_code(tmp_path):
    tweets = write_tweets(tmp_path)
    argvs = [
        ["preprocess", "--input", str(tweets), "--lexicon", f"{DATA}/drug_lexicon.tsv",
         "--output", f"{tmp_path}/clean.tsv"],
        ["tokens", "--vocab", f"{DATA}/fixture_vocab.txt", "--stats", "--input", f"{tmp_path}/clean.tsv"],
    ]
    codes, modules = run_fresh(argvs)
    assert codes == [0, 0]
    assert modules & NOT_TEXT == set()


def test_text_only_commands_do_not_load_numpy(tmp_path):
    tweets = write_tweets(tmp_path)
    decisions = ["tweet_id\tmodel_probs\tmodel_verdicts\tensemble"] + [
        f"t{i}\tm:0.9\tm:1\t1" if i < 3 else f"t{i}\tm:0.1\tm:0\t0" for i in range(6)
    ]
    (tmp_path / "decisions.tsv").write_text("\n".join(decisions) + "\n", encoding="utf-8")
    argvs = [
        ["preprocess", "--input", str(tweets), "--lexicon", f"{DATA}/drug_lexicon.tsv",
         "--output", f"{tmp_path}/clean.tsv"],
        ["tokens", "--vocab", f"{DATA}/fixture_vocab.txt", "--stats", "--input", f"{tmp_path}/clean.tsv"],
        ["split", "--input", str(tweets), "--fraction", "0.5", "--seed", "1"],
        ["evaluate", "--decisions", f"{tmp_path}/decisions.tsv", "--gold", str(tweets),
         "--report", f"{tmp_path}/report.json"],
    ]
    codes, modules = run_fresh(argvs)
    assert codes == [0, 0, 0, 0] and modules & NOT_NUMPY_FREE == set()


def test_prediction_commands_do_not_load_numpy(tmp_path):
    tweets = write_tweets(tmp_path)
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "model_id\trun_id\ttweet_id\tprob\n" + "".join(
            f"{m}\t{r}\tt{i}\t{0.8 if i < 2 else 0.3}\n"
            for m in ("a", "b") for r in ("r1", "r2") for i in range(6)
        ),
        encoding="utf-8",
    )
    config = tmp_path / "reproduce.json"
    config.write_text(json.dumps({
        "dataset": str(tweets), "predictions": [str(preds)], "min_dev_f1": 0.1,
        "output_dir": str(tmp_path / "out"),
    }), encoding="utf-8")
    argvs = [
        ["ingest", "--pred", str(preds), "--expect-runs", "2", "--gold", str(tweets),
         "--min-dev-f1", "0.1", "--output", f"{tmp_path}/merged.tsv"],
        ["ensemble", "--pred", f"{tmp_path}/merged.tsv", "--expect-runs", "2",
         "--output", f"{tmp_path}/decisions.tsv"],
        ["evaluate", "--decisions", f"{tmp_path}/decisions.tsv", "--gold", str(tweets),
         "--report", f"{tmp_path}/report.json"],
    ]
    codes, modules = run_fresh(argvs)
    assert codes == [0, 0, 0]
    assert modules & NOT_PREDICTION == set()
    codes, modules = run_fresh([["reproduce", "--config", str(config)]])
    assert codes == [0] and modules & NOT_NUMPY_FREE == set()
    assert (tmp_path / "out" / "report.json").is_file()


def test_evaluate_does_not_load_the_prediction_code(tmp_path):
    tweets = write_tweets(tmp_path)
    decisions = ["tweet_id\tmodel_probs\tmodel_verdicts\tensemble"] + [
        f"t{i}\ta:0.9,b:0.2\ta:1,b:0\t1" if i < 3 else f"t{i}\ta:0.1,b:0.2\ta:0,b:0\t0" for i in range(6)
    ]
    (tmp_path / "decisions.tsv").write_text("\n".join(decisions) + "\n", encoding="utf-8")
    codes, modules = run_fresh([
        ["evaluate", "--decisions", f"{tmp_path}/decisions.tsv", "--gold", str(tweets),
         "--report", f"{tmp_path}/report.json"],
    ])
    assert codes == [0]
    assert "adrpipe.ensemble" in modules and "adrpipe.predictions" not in modules

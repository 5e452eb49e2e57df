"""The package's import surface: each command loads only the modules it runs,
so every command but `baseline` and protocol-mode `reproduce` runs without
numpy or `dataclasses`, only those two compile the JSON-config code, only they
and `preprocess` load the fork worker, no text command loads `pickle`, and every
name the package has exported still imports from `adrpipe`."""

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
    "EnsembleConfig", "EnsembleDecision", "decide",
    "AttributionBreakdown", "ConfusionCounts", "Metrics", "VariabilityReport", "attribution",
    "confusion", "metrics", "variability",
    "BaselineConfig", "BaselineModel", "load_model", "save_model", "train",
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
# Modules that neither `preprocess` nor `tokens` runs; `preprocess`'s worker sends its blocks with marshal.
NOT_TEXT = {"adrpipe.predictions", "adrpipe.ensemble", "adrpipe.evaluate", "adrpipe.synthetic",
            "adrpipe.baseline", "statistics", "pickle", *NOT_NUMPY_FREE}
# The fork worker: only `preprocess`, `baseline` and `reproduce` load it.
FORK = "adrpipe._fork"
# Modules that no prediction command (ingest, ensemble, evaluate) runs.
NOT_PREDICTION = {"adrpipe.tokenize", "adrpipe.synthetic", "adrpipe.baseline", FORK, *NOT_NUMPY_FREE}
# The module holding the JSON-config commands, `baseline` and `reproduce`: no other command compiles it.
CONFIG_COMMANDS = "adrpipe._workflow"


def run_fresh(argvs: list[list[str]]) -> tuple[list[int], set[str]]:
    """The commands' exit codes, run one after another in a fresh interpreter, and the modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, encoding="utf-8", timeout=60,
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
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.stdout.split() == ["True"], done.stderr


def test_star_import_binds_every_export_but_the_baseline_ones():
    done = subprocess.run(
        [sys.executable, "-c",
         "import json as _json, sys as _sys; from adrpipe import *;"
         " print(_json.dumps([sorted(n for n in dir() if not n.startswith('_')), 'numpy' in _sys.modules]))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    names, numpy_loaded = json.loads(done.stdout)
    baseline_names = {"BaselineConfig", "BaselineModel", "load_model", "save_model", "train"}
    assert set(names) == set(EXPORTS) - baseline_names - {"__version__"}
    assert not numpy_loaded


def test_submodules_resolve_as_package_attributes():
    done = subprocess.run(
        [sys.executable, "-c",
         "import adrpipe; print(adrpipe.baseline.train is adrpipe.train,"
         " adrpipe.predictions.RunMatrix is adrpipe.RunMatrix)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, encoding="utf-8", timeout=60,
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
    assert modules & NOT_TEXT == set() and FORK in modules


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


def test_ensemble_without_a_screen_does_not_load_the_evaluation_code(tmp_path):
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "model_id\trun_id\ttweet_id\tprob\n" + "".join(f"m\tr1\tt{i}\t0.{i}\n" for i in range(6)),
        encoding="utf-8",
    )
    codes, modules = run_fresh([
        ["ensemble", "--pred", str(preds), "--expect-runs", "1", "--output", f"{tmp_path}/decisions.tsv"],
    ])
    assert codes == [0]
    assert "adrpipe.predictions" in modules and "adrpipe.evaluate" not in modules


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
    assert "adrpipe.ensemble" in modules and modules & {"adrpipe.predictions", "datetime"} == set()


def test_only_the_config_commands_load_the_config_code(tmp_path):
    tweets = write_tweets(tmp_path)
    (tmp_path / "metrics.tsv").write_text("scenario\trun_id\tf1\trecall\ns\tr1\t0.5\t0.6\ns\tr2\t0.7\t0.8\n",
                                          encoding="utf-8")
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "model_id\trun_id\ttweet_id\tprob\n" + "".join(f"m\tr1\tt{i}\t{0.9 if i < 2 else 0.1}\n" for i in range(6)),
        encoding="utf-8",
    )
    lexicon = f"{DATA}/drug_lexicon.tsv"
    stage_commands = [
        ["preprocess", "--input", str(tweets), "--lexicon", lexicon, "--output", f"{tmp_path}/clean.tsv"],
        ["tokens", "--vocab", f"{DATA}/fixture_vocab.txt", "--stats", "--input", f"{tmp_path}/clean.tsv"],
        ["split", "--input", str(tweets), "--fraction", "0.5", "--seed", "1"],
        ["variability", "--metrics", f"{tmp_path}/metrics.tsv"],
        ["ingest", "--pred", str(preds), "--expect-runs", "1", "--gold", str(tweets), "--min-dev-f1", "0.1"],
        ["ensemble", "--pred", str(preds), "--expect-runs", "1", "--output", f"{tmp_path}/decisions.tsv"],
        ["evaluate", "--decisions", f"{tmp_path}/decisions.tsv", "--gold", str(tweets),
         "--report", f"{tmp_path}/report.tsv"],
    ]
    codes, modules = run_fresh(stage_commands)
    assert codes == [0] * len(stage_commands) and CONFIG_COMMANDS not in modules
    codes, modules = run_fresh(stage_commands[1:])  # all but preprocess
    assert codes == [0] * (len(stage_commands) - 1) and FORK not in modules

    configs = {
        "train.json": {"train": str(tweets), "model_out": f"{tmp_path}/m.npz", "config": {"epochs": 1}},
        "predictions.json": {"dataset": str(tweets), "predictions": [str(preds)], "output_dir": f"{tmp_path}/p"},
        "protocol.json": {"dataset": str(tweets), "lexicon": lexicon, "output_dir": f"{tmp_path}/q",
                          "split": {"train_fraction": 0.5},
                          "protocol": {"runs": 1, "specs": [{"model_id": "m", "epochs": 1}]}},
    }
    for name, doc in configs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
        argv = ["baseline", "train"] if name == "train.json" else ["reproduce"]
        codes, modules = run_fresh([[*argv, "--config", f"{tmp_path}/{name}"]])
        assert codes == [0] and CONFIG_COMMANDS in modules, name
        assert (FORK in modules) == (name != "predictions.json"), name  # the prediction workflow fits nothing


def test_a_config_command_run_as_a_script_does_not_import_the_cli_again(tmp_path):
    # Under `python -m adrpipe.cli` the CLI runs as `__main__`, so a config command that
    # imported `adrpipe.cli` would compile and execute it a second time.
    tweets = write_tweets(tmp_path)
    preds = tmp_path / "preds.tsv"
    preds.write_text(
        "model_id\trun_id\ttweet_id\tprob\n" + "".join(f"m\tr1\tt{i}\t{0.9 if i < 2 else 0.1}\n" for i in range(6)),
        encoding="utf-8",
    )
    config = tmp_path / "reproduce.json"
    config.write_text(json.dumps({"dataset": str(tweets), "predictions": [str(preds)],
                                  "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c",
         "import runpy, sys\n"
         "try:\n"
         "    runpy.run_module('adrpipe.cli', run_name='__main__', alter_sys=True)\n"
         "except SystemExit as e:\n"
         "    print(e.code, 'adrpipe.cli' in sys.modules, 'adrpipe._workflow' in sys.modules)",
         "reproduce", "--config", str(config)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert done.stdout.split()[-3:] == ["0", "False", "True"], done.stderr

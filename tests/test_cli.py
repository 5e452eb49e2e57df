import json
import os
import re
import subprocess
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import pytest

from adrpipe.cli import main
from adrpipe.corpus import load_dataset, save_dataset
from adrpipe.evaluate import manifest
from adrpipe.synthetic import make_synthetic_dataset

DATA = Path(__file__).resolve().parent.parent / "data"


def run(*argv):
    return main([str(a) for a in argv])


def small_dataset(tmp_path, name="d.tsv"):
    p = tmp_path / name
    lines = ["tweet_id\tlabel\ttext"]
    for i in range(20):
        label = 1 if i < 5 else 0
        text = f"seroquel made me dizzy {i}" if label else f"sunny park walk {i}"
        lines.append(f"t{i}\t{label}\t{text}")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def protocol_config(tmp_path, dataset):
    return {
        "dataset": str(dataset),
        "lexicon": str(DATA / "drug_lexicon.tsv"),
        "stages": ["anonymize", "handles", "hashtags", "lowercase", "drugnorm"],
        "split": {"train_fraction": 0.8, "seed": 7},
        "protocol": {
            "runs": 2,
            "specs": [
                {"model_id": "charview", "ngram_range": [3, 5], "epochs": 2, "seed": 100},
                {"model_id": "wordview", "ngram_range": [1, 2], "feature_mode": "word", "epochs": 2, "seed": 200},
            ],
        },
        "thresholds": {"default": 0.5},
        "output_dir": str(tmp_path / "out"),
    }


class TestBasics:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("adrpipe ")

    def test_no_command_prints_usage(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run("split", "--nope") == 1
        err = capsys.readouterr().err
        assert "usage" in err and "error" in err

    def test_manifest_timestamp_is_utc_to_the_second(self):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        stamp = manifest("evaluate", {}, {}, {}, {})["timestamp"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
        assert before <= datetime.fromisoformat(stamp) <= datetime.now(timezone.utc)


class TestSplit:
    def test_stratified_outputs(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        code = run("split", "--input", d, "--fraction", "0.8", "--seed", "7")
        assert code == 0
        train = load_dataset(tmp_path / "d.train.tsv")
        dev = load_dataset(tmp_path / "d.dev.tsv")
        assert train.positive_count == 4 and dev.positive_count == 1
        assert len(train) + len(dev) == 20

    def test_bad_fraction_exit_code(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        assert run("split", "--input", d, "--fraction", "1.5", "--seed", "1") == 1
        assert "train_fraction" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run("split", "--input", tmp_path / "absent.tsv", "--seed", "1") == 2

    @pytest.mark.parametrize("dev_out", ["same.tsv", "./sub/../same.tsv", "d.train.tsv"])
    def test_one_file_for_both_sides_rejected(self, tmp_path, capsys, monkeypatch, dev_out):
        d = small_dataset(tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        train_out = [] if dev_out == "d.train.tsv" else ["--train-out", "same.tsv"]
        assert run("split", "--input", "d.tsv", "--seed", "7", *train_out, "--dev-out", dev_out) == 1
        assert capsys.readouterr() == ("", f"split: train and dev outputs are the same file: {dev_out}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.tsv", "sub"]


class TestPreprocessCmd:
    def test_writes_cleaned_dataset(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        out = tmp_path / "clean.tsv"
        code = run(
            "preprocess", "--input", d, "--lexicon", DATA / "drug_lexicon.tsv",
            "--output", out,
        )
        assert code == 0
        cleaned = load_dataset(out)
        assert all("seroquel" not in r.text for r in cleaned.records)
        assert any("quetiapine" in r.text for r in cleaned.records)

    def test_drugnorm_without_lexicon(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        code = run("preprocess", "--input", d, "--output", tmp_path / "x.tsv")
        assert code == 1
        assert "lexicon required" in capsys.readouterr().err

    def test_no_partial_output_on_error(self, tmp_path):
        d = small_dataset(tmp_path)
        out = tmp_path / "x.tsv"
        assert run("preprocess", "--input", d, "--output", out) == 1
        assert not out.exists()

    def test_unknown_stage(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        out = tmp_path / "x.tsv"
        assert run("preprocess", "--input", d, "--output", out, "--stages", "anonymize, spellcheck,,") == 1
        assert capsys.readouterr().err == (
            "preprocess: unknown stages: 'spellcheck' (choose from anonymize, handles, hashtags, lowercase, drugnorm)\n"
        )
        assert not out.exists()

    def test_self_mapping_lexicon_names_file_and_line(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        lex = tmp_path / "lex.tsv"
        lex.write_text("# brand\tgeneric\nfoo\tfoo\n", encoding="utf-8")
        out = tmp_path / "x.tsv"
        assert run("preprocess", "--input", d, "--lexicon", lex, "--output", out) == 1
        assert capsys.readouterr().err == f"preprocess: {lex}: self-mapping rejected: 'foo' at line 2\n"
        assert not out.exists()


class TestTokensCmd:
    def test_compare(self, capsys):
        code = run("tokens", "--vocab", DATA / "fixture_vocab.txt", "--compare", "quetiapine", "olanzapine")
        assert code == 0
        out = capsys.readouterr().out
        assert "que ##tia ##pine" in out
        assert "o ##lan ##za ##pine" in out
        assert "##pine" in out.splitlines()[-1]

    def test_stats(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        code = run("tokens", "--vocab", DATA / "fixture_vocab.txt", "--stats", "--input", d)
        assert code == 0
        assert "unk rate" in capsys.readouterr().out

    def test_stats_without_input(self, capsys):
        assert run("tokens", "--vocab", DATA / "fixture_vocab.txt", "--stats") == 1


def make_predictions(tmp_path, dataset, runs=2):
    cfg = {
        "train": str(dataset),
        "eval": str(dataset),
        "runs": runs,
        "output": str(tmp_path / "preds.tsv"),
        "specs": [
            {"model_id": "charview", "epochs": 2, "seed": 1},
            {"model_id": "wordview", "ngram_range": [1, 2], "feature_mode": "word", "epochs": 2, "seed": 2},
        ],
    }
    cfg_path = tmp_path / "protocol.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["baseline", "protocol", "--config", str(cfg_path)]) == 0
    return tmp_path / "preds.tsv"


class TestPredictionCommands:
    def test_protocol_ingest_ensemble_evaluate(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)

        assert run("ingest", "--pred", preds, "--check", "--expect-runs", "2") == 0
        out = capsys.readouterr().out
        assert "models: 2" in out and "tweets: 20" in out

        decisions = tmp_path / "decisions.tsv"
        assert run(
            "ensemble", "--pred", preds, "--expect-runs", "2",
            "--threshold", "charview=0.5", "--output", decisions,
        ) == 0
        assert decisions.exists()

        report = tmp_path / "report.json"
        assert run("evaluate", "--decisions", decisions, "--gold", d, "--report", report) == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert set(doc["members"]) == {"charview", "wordview"}
        assert "ensemble" in doc and "manifest" in doc
        att = doc["attribution"]
        assert sum(att["tp_by_subset"].values()) == doc["ensemble"]["tp"]
        assert sum(att["fp_by_subset"].values()) == doc["ensemble"]["fp"]

    def test_ragged_predictions_fail_ingest(self, tmp_path, capsys):
        p = tmp_path / "ragged.tsv"
        p.write_text(
            "model_id\trun_id\ttweet_id\tprob\n"
            "m\tr1\tt1\t0.5\nm\tr1\tt2\t0.5\nm\tr2\tt1\t0.5\n",
            encoding="utf-8",
        )
        assert run("ingest", "--pred", p, "--check", "--expect-runs", "0") == 1
        assert "missing tweet t2" in capsys.readouterr().err

    def test_evaluate_coverage_mismatch_fails(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        decisions = tmp_path / "decisions.tsv"
        run("ensemble", "--pred", preds, "--expect-runs", "2", "--output", decisions)
        other = small_dataset(tmp_path, name="other.tsv")
        text = other.read_text(encoding="utf-8").replace("t19", "zz19")
        other.write_text(text, encoding="utf-8")
        assert run("evaluate", "--decisions", decisions, "--gold", other, "--report", tmp_path / "r.json") == 1
        assert "coverage mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "ensemble"])
    @pytest.mark.parametrize("value", ["-2", "-1", "two", "1.5"])
    def test_expect_runs_must_be_a_count(self, tmp_path, capsys, command, value):
        out = tmp_path / "out.tsv"
        assert run(command, "--pred", tmp_path / "p.tsv", "--expect-runs", value, "--output", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"adrpipe {command}: error: argument --expect-runs: must be an integer >= 0, got '{value}'\nusage: "
        )
        assert not out.exists()

    def test_min_dev_f1_filter(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        assert run(
            "ingest", "--pred", preds, "--check", "--expect-runs", "0",
            "--min-dev-f1", "0.05", "--gold", d,
        ) == 0

    def test_gold_is_read_as_labels_only(self, tmp_path, monkeypatch):
        # --gold is read through corpus.read_labels: no Dataset of every text is built.
        from adrpipe import corpus

        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        decisions = tmp_path / "decisions.tsv"
        monkeypatch.setattr(corpus, "load_dataset", lambda path: pytest.fail(f"load_dataset({path})"))
        assert run("ingest", "--pred", preds, "--expect-runs", "0", "--min-dev-f1", "0.05", "--gold", d) == 0
        assert run("ensemble", "--pred", preds, "--expect-runs", "0", "--min-dev-f1", "0.05", "--gold", d,
                   "--output", decisions) == 0
        assert run("evaluate", "--decisions", decisions, "--gold", d, "--report", tmp_path / "r.json") == 0

    @pytest.mark.parametrize("command", ["ingest", "ensemble"])
    @pytest.mark.parametrize("value, shown", [("1.5", "1.5"), ("nan", "nan"), ("-3", "-3.0")])
    def test_min_dev_f1_outside_unit_interval_fails(self, tmp_path, capsys, command, value, shown):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        out = tmp_path / "out.tsv"
        assert run(command, "--pred", preds, "--expect-runs", "0", "--min-dev-f1", value, "--gold", d,
                   "--output", out) == 1
        assert capsys.readouterr().err == f"{command}: min F1 must be in [0, 1], got {shown}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "ensemble"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--min-dev-f1", "0.5"], "--min-dev-f1 requires --gold"),
            (["--min-dev-f1", "nan", "--gold", "missing-gold.tsv"], "min F1 must be in [0, 1], got nan"),
            (["--min-dev-f1", "1.5", "--gold", "missing-gold.tsv"], "min F1 must be in [0, 1], got 1.5"),
        ],
    )
    def test_min_dev_f1_is_checked_before_any_file_is_opened(self, tmp_path, capsys, command, flags, message):
        # A missing --pred file would fail with exit 2; the flag's own error comes first, with exit 1.
        out = tmp_path / "out.tsv"
        assert run(command, "--pred", tmp_path / "missing.tsv", *flags, "--output", out) == 1
        assert capsys.readouterr().err == f"{command}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "ensemble"])
    @pytest.mark.parametrize("gold", ["missing-gold.tsv", "."], ids=["missing", "directory"])
    def test_bad_gold_fails_before_any_pred_file_is_parsed(self, tmp_path, capsys, monkeypatch, command, gold):
        from adrpipe import predictions

        parsed = []
        monkeypatch.setattr(predictions, "_parse_file", lambda *a: parsed.append(a) or iter(()))
        preds = make_predictions(tmp_path, small_dataset(tmp_path))
        out = tmp_path / "out.tsv"
        assert run(command, "--pred", preds, "--min-dev-f1", "0.5", "--gold", tmp_path / gold, "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: [Errno ") and repr(str(tmp_path / gold)) in err
        assert parsed == [] and not out.exists()

    def test_line_separators_in_ids_survive_ensemble_and_evaluate(self, tmp_path, capsys):
        # str.splitlines() breaks at \x1c, \x85 and \u2028; no file here does.
        ids = [f"t\x1c{i}" for i in range(3)] + [f"t\x85{i}" for i in range(3)] + ["t\u20280"]
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "tweet_id\tlabel\ttext\n" + "".join(f"{t}\t{i % 2}\tx\n" for i, t in enumerate(ids)),
            encoding="utf-8",
        )
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            "model_id\trun_id\ttweet_id\tprob\n"
            + "".join(f"m\u2028\tr1\t{t}\t{0.9 if i % 2 else 0.1}\n" for i, t in enumerate(ids)),
            encoding="utf-8",
        )
        decisions, report = tmp_path / "decisions.tsv", tmp_path / "report.json"
        assert run("ensemble", "--pred", preds, "--expect-runs", "1", "--output", decisions) == 0
        assert run("evaluate", "--decisions", decisions, "--gold", gold, "--report", report) == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["ensemble"]["tp"] == 3 and doc["ensemble"]["tn"] == 4

    def test_tsv_report(self, tmp_path):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        decisions = tmp_path / "decisions.tsv"
        run("ensemble", "--pred", preds, "--expect-runs", "2", "--output", decisions)
        report = tmp_path / "report.tsv"
        assert run("evaluate", "--decisions", decisions, "--gold", d, "--report", report) == 0
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# manifest")
        assert any(line.startswith("ensemble\t") for line in lines)

    @pytest.mark.parametrize("report", ["R.JSON", "report.txt", "report", "report.json.bak"])
    def test_report_suffix_other_than_json_or_tsv_rejected(self, tmp_path, capsys, report):
        # Checked before the inputs are read: neither of them exists.
        out = tmp_path / report
        assert run("evaluate", "--decisions", tmp_path / "absent.tsv", "--gold", tmp_path / "absent2.tsv",
                   "--report", out) == 1
        assert capsys.readouterr() == ("", f"evaluate: --report must end in .json or .tsv, got {str(out)!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_table_and_tsv_report_list_subsets_in_one_order(self, tmp_path, capsys):
        # '!' sorts before '+', so joining ids with '+' would put a!+z before a+a! and a+z.
        from adrpipe.ensemble import Decisions, write_decisions

        voters = [("a", "z"), ("a!", "z"), ("a", "a!"), ("z",)]
        models = ("a", "a!", "z")
        decisions = Decisions([f"t{i}" for i in range(len(voters))],
                              {m: [0.9 if m in v else 0.1 for v in voters] for m in models},
                              {m: [int(m in v) for v in voters] for m in models}, [1] * len(voters))
        write_decisions(decisions, tmp_path / "decisions.tsv")
        gold = tmp_path / "gold.tsv"
        gold.write_text("".join(f"t{i}\t{i % 2}\tx\n" for i in range(len(voters))), encoding="utf-8")
        report = tmp_path / "report.tsv"
        assert run("evaluate", "--decisions", tmp_path / "decisions.tsv", "--gold", gold, "--report", report) == 0
        printed = capsys.readouterr().out.split("positive voters")[1].splitlines()[1:5]
        assert [line.rsplit(None, 2)[0] for line in printed] == ["z", "a + a!", "a + z", "a! + z"]
        rows = [line.split("\t")[1] for line in report.read_text(encoding="utf-8").splitlines()
                if line.startswith("attribution\t")]
        assert rows == ["z", "a+a!", "a+z", "a!+z"]


class TestHeaderOnlyPredictions:
    """A prediction file with a header and no line holds no record: every command that reads one
    refuses it with the constructor's `no prediction records`, and writes nothing."""

    @pytest.mark.parametrize("command", ["ingest", "ensemble", "reproduce"])
    def test_refused_and_nothing_written(self, tmp_path, capsys, command):
        pred = tmp_path / "p.tsv"
        pred.write_text("model_id\trun_id\ttweet_id\tprob\n", encoding="utf-8")
        out = tmp_path / "out"
        if command == "reproduce":
            cfg = {"dataset": str(small_dataset(tmp_path)), "predictions": [str(pred)], "output_dir": str(out)}
            argv, prefix = ["reproduce", "--config", write_config(tmp_path, cfg)], "reproduce: ingest"
        else:
            argv, prefix = [command, "--pred", pred, "--output", out], command
        before = sorted(tmp_path.iterdir())
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{prefix}: no prediction records\n")
        assert sorted(tmp_path.iterdir()) == before and not out.exists()


class TestMissingOutputDirectory:
    @pytest.mark.parametrize("command", ["preprocess", "ensemble", "evaluate"])
    def test_error_names_the_output_and_is_the_same_on_every_run(self, tmp_path, capsys, command):
        d = small_dataset(tmp_path)
        pred = tmp_path / "p.tsv"
        pred.write_text(
            "model_id\trun_id\ttweet_id\tprob\n" + "".join(f"m\tr1\tt{i}\t0.{i % 10}\n" for i in range(20)),
            encoding="utf-8",
        )
        decisions = tmp_path / "decisions.tsv"
        assert run("ensemble", "--pred", pred, "--expect-runs", "1", "--output", decisions) == 0
        out = tmp_path / "no_dir" / ("report.json" if command == "evaluate" else "out.tsv")
        argv = {
            "preprocess": ["preprocess", "--input", d, "--stages", "lowercase", "--output", out],
            "ensemble": ["ensemble", "--pred", pred, "--expect-runs", "1", "--output", out],
            "evaluate": ["evaluate", "--decisions", decisions, "--gold", d, "--report", out],
        }[command]
        capsys.readouterr()
        errors = []
        for _ in range(3):
            assert run(*argv) == 2
            errors.append(capsys.readouterr())
        # os.open's own error names the temp file beside the output.
        assert errors == [("", f"{command}: [Errno 2] No such file or directory: {str(out)!r}\n")] * 3
        assert sorted(x.name for x in tmp_path.iterdir()) == ["d.tsv", "decisions.tsv", "p.tsv"]


class TestWarningLines:
    def write_predictions(self, tmp_path):
        """One run per model; `stuck` votes negative on every tweet, so its F1 is 0."""
        rows = ["model_id\trun_id\ttweet_id\tprob"]
        for i in range(20):
            rows += [f"good\tr1\tt{i}\t{0.9 if i < 5 else 0.1}", f"stuck\tr1\tt{i}\t0.0"]
        p = tmp_path / "p.tsv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return p

    def test_each_warning_is_one_line_naming_the_command(self, tmp_path):
        # Not Python's default `<file>:<line>: UserWarning:` and source line, which move as the code does.
        argv = ["ingest", "--pred", self.write_predictions(tmp_path), "--gold", small_dataset(tmp_path),
                "--min-dev-f1", "0.5"]
        done = subprocess.run(
            [sys.executable, "-m", "adrpipe.cli", *map(str, argv)],
            env=dict(os.environ, PYTHONPATH=str(DATA.parent / "src")), capture_output=True, text=True,
            encoding="utf-8", timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == (
            "ingest: warning: model good has 1 runs (expected 5)\n"
            "ingest: warning: model stuck has 1 runs (expected 5)\n"
            "ingest: warning: all runs below min F1 0.5 for: stuck\n"
        )

    def test_the_warning_format_is_restored(self, tmp_path, capsys):
        before = warnings.formatwarning
        with pytest.warns(UserWarning) as caught:
            assert run("ingest", "--pred", self.write_predictions(tmp_path), "--expect-runs", "5") == 0
        assert [str(w.message) for w in caught] == [
            "model good has 1 runs (expected 5)", "model stuck has 1 runs (expected 5)"
        ]
        assert warnings.formatwarning is before
        capsys.readouterr()


class TestThresholdsNameModels:
    """A threshold for a model id that no model has fails, as a misspelt id would leave its model on the default."""

    def test_reproduce_protocol_mode_before_hashing(self, tmp_path, capsys, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        cfg = {**protocol_config(tmp_path, small_dataset(tmp_path)), "thresholds": {"default": 0.5, "charvew": 0.9}}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            "reproduce: ensemble: threshold for unknown model 'charvew' (models: charview, wordview)\n"
        )
        assert calls == [] and not (tmp_path / "out").exists()

    def test_reproduce_predictions_mode_before_the_screen(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = {"dataset": str(d), "predictions": [str(make_predictions(tmp_path, d))], "min_dev_f1": 1.0,
               "thresholds": {"default": 0.5, "wordview": 0.5, "bret": 0.9}, "output_dir": str(tmp_path / "out")}
        capsys.readouterr()
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            "reproduce: ensemble: threshold for unknown model 'bret' (models: charview, wordview)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_ensemble_before_the_screen(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        capsys.readouterr()
        out = tmp_path / "decisions.tsv"
        assert run("ensemble", "--pred", preds, "--expect-runs", "2", "--threshold", "bret=0.9",
                   "--threshold", "charvew=0.9", "--min-dev-f1", "1.0", "--gold", d, "--output", out) == 1
        assert capsys.readouterr().err == (
            "ensemble: threshold for unknown model 'bret', 'charvew' (models: charview, wordview)\n"
        )
        assert not out.exists()


class TestVariabilityCmd:
    def test_table_and_value(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        rows = ["scenario\trun_id\tf1\trecall"]
        for i, (f1, rec) in enumerate(zip([0.59, 0.63, 0.62, 0.63, 0.62], [0.55, 0.61, 0.61, 0.60, 0.57])):
            rows.append(f"original\tr{i+1}\t{f1}\t{rec}")
        rows.append("duplicated\tr1\t0.6\t0.6")
        rows.append("duplicated\tr2\t0.8\t0.7")
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run("variability", "--metrics", p) == 0
        out = capsys.readouterr().out
        assert "F1 StDev" in out
        assert "0.0164" in out  # the five-run sample
        assert "original" in out and "duplicated" in out

    def test_scenario_filter(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        p.write_text(
            "scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.5\na\tr2\t0.6\t0.6\nb\tr1\t0.1\t0.1\nb\tr2\t0.2\t0.2\n",
            encoding="utf-8",
        )
        assert run("variability", "--metrics", p, "--scenario", "a") == 0
        out = capsys.readouterr().out
        assert "a" in out and "\nb" not in out

    def test_unknown_scenario(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        p.write_text("scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.5\na\tr2\t0.6\t0.6\n", encoding="utf-8")
        assert run("variability", "--metrics", p, "--scenario", "zzz") == 1

    def test_single_run_scenario_fails(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        p.write_text("scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.5\n", encoding="utf-8")
        assert run("variability", "--metrics", p) == 1
        assert "at least 2 runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "f1, recall", [("nan", "0.5"), ("0.5", "NaN"), ("0.5", "7"), ("-0.1", "0.5"), ("inf", "0.5")]
    )
    def test_nan_or_out_of_range_metric_rejected(self, tmp_path, capsys, f1, recall):
        p = tmp_path / "metrics.tsv"
        p.write_text(
            f"scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.5\na\tr2\t{f1}\t{recall}\n", encoding="utf-8"
        )
        assert run("variability", "--metrics", p) == 1
        assert capsys.readouterr().err == f"variability: {p}: bad metric value at line 3\n"

    def test_repeated_run_rejected(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        p.write_text(
            "scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.5\nb\tr1\t0.6\t0.6\na\tr2\t0.6\t0.6\n"
            "a\tr1\t0.5\t0.5\n",
            encoding="utf-8",
        )
        assert run("variability", "--metrics", p) == 1
        assert capsys.readouterr() == ("", f"variability: {p}: duplicate run r1 for scenario a at line 5\n")

    def test_header_only_file_rejected(self, tmp_path, capsys):
        p = tmp_path / "metrics.tsv"
        p.write_text("scenario\trun_id\tf1\trecall\n", encoding="utf-8")
        assert run("variability", "--metrics", p) == 1
        assert capsys.readouterr() == ("", f"variability: {p}: no metric rows\n")


class TestBaselineCmd:
    def test_train_and_predict(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(
            json.dumps(
                {
                    "train": str(d),
                    "model_out": str(tmp_path / "model.npz"),
                    "config": {"epochs": 2, "seed": 4},
                }
            ),
            encoding="utf-8",
        )
        assert run("baseline", "train", "--config", train_cfg) == 0

        predict_cfg = tmp_path / "predict.json"
        predict_cfg.write_text(
            json.dumps(
                {
                    "model": str(tmp_path / "model.npz"),
                    "input": str(d),
                    "output": str(tmp_path / "preds.tsv"),
                    "model_id": "m",
                    "run_id": "r1",
                }
            ),
            encoding="utf-8",
        )
        assert run("baseline", "predict", "--config", predict_cfg) == 0
        lines = (tmp_path / "preds.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 21

    def test_predict_file_equals_per_text_scores(self, tmp_path, capsys):
        from adrpipe import baseline, corpus, predictions

        d = small_dataset(tmp_path)
        model = baseline.train(load_dataset(d), baseline.BaselineConfig(epochs=2, l2=1e-3, seed=4))
        baseline.save_model(model, tmp_path / "model.npz")
        records = [*load_dataset(d).records, corpus.LabeledTweet("empty", "", 0),
                   corpus.LabeledTweet("blank", "  ", 1)]
        corpus.save_dataset(corpus.Dataset.from_records(records), tmp_path / "in.tsv")
        cfg = write_config(tmp_path, {"model": str(tmp_path / "model.npz"), "input": str(tmp_path / "in.tsv"),
                                      "output": str(tmp_path / "preds.tsv"), "model_id": "m", "run_id": "r1"})
        assert run("baseline", "predict", "--config", cfg) == 0
        per_text = [baseline.predict_probs(model, [r.text])[0] for r in records]
        expected = predictions.RunMatrix({("m", "r1"): ([r.tweet_id for r in records], per_text)})
        predictions.write_predictions(expected, tmp_path / "expected.tsv")
        assert (tmp_path / "preds.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()

    @pytest.mark.parametrize("action", ["predict", "protocol"])
    def test_header_only_input_writes_nothing(self, tmp_path, capsys, action):
        # Scoring no tweet makes a matrix that covers none, which RunMatrix refuses as the loader would;
        # protocol refuses the empty eval set before it fits anything.
        d = small_dataset(tmp_path)
        empty = tmp_path / "empty.tsv"
        empty.write_text("tweet_id\tlabel\ttext\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        if action == "predict":
            train_cfg = write_config(tmp_path, {"train": str(d), "model_out": str(tmp_path / "m.npz"),
                                                "config": {"epochs": 1, "feature_buckets": 256}}, "train.json")
            assert run("baseline", "train", "--config", train_cfg) == 0
            doc = {"model": str(tmp_path / "m.npz"), "input": str(empty), "output": str(out), "model_id": "m",
                   "run_id": "r1"}
        else:
            doc = {"train": str(d), "eval": str(empty), "output": str(out), "runs": 1,
                   "specs": [{"model_id": "m", "epochs": 1, "feature_buckets": 256}]}
        cfg = write_config(tmp_path, doc)
        capsys.readouterr()
        before = sorted(tmp_path.iterdir())
        assert run("baseline", action, "--config", cfg) == 1
        assert capsys.readouterr() == ("", "baseline: no prediction records\n")
        assert sorted(tmp_path.iterdir()) == before and not out.exists()

    def test_missing_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"train": "x"}), encoding="utf-8")
        assert run("baseline", "train", "--config", cfg) == 1
        assert "model_out" in capsys.readouterr().err


class TestReproduce:
    def test_full_chain(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(protocol_config(tmp_path, d)), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "decisions.tsv").exists()
        assert (out_dir / "predictions.tsv").exists()
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        ens = report["ensemble"]
        for member in report["members"].values():
            assert ens["recall"] >= member["recall"]
        assert report["manifest"]["seeds"]["split"] == 7

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        d = small_dataset(tmp_path)
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(protocol_config(tmp_path, d)), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 0
        out_dir = tmp_path / "out"
        first = {
            name: (out_dir / name).read_bytes()
            for name in ("decisions.tsv", "predictions.tsv", "report.json")
        }
        assert run("reproduce", "--config", cfg_path) == 0
        assert (out_dir / "decisions.tsv").read_bytes() == first["decisions.tsv"]
        assert (out_dir / "predictions.tsv").read_bytes() == first["predictions.tsv"]

        def strip_ts(raw):
            doc = json.loads(raw)
            doc["manifest"].pop("timestamp")
            return json.dumps(doc, sort_keys=True)

        assert strip_ts((out_dir / "report.json").read_bytes()) == strip_ts(first["report.json"])

    @pytest.mark.parametrize(
        "change, flags",
        [
            ({}, []),
            (
                {"min_dev_f1": 0.3, "thresholds": {"default": 0.4, "wordview": 0.6}},
                ["--min-dev-f1", "0.3", "--default-threshold", "0.4", "--threshold", "wordview=0.6"],
            ),
        ],
    )
    def test_decisions_equal_ensemble_of_its_own_predictions(self, tmp_path, capsys, change, flags):
        # reproduce decides from the values it writes to predictions.tsv without
        # reading the file back; `ensemble` on that file must make the same bytes.
        d = tmp_path / "d.tsv"
        save_dataset(make_synthetic_dataset(200, 0.3, seed=5), d)
        cfg = {**protocol_config(tmp_path, d), **change}
        cfg["protocol"]["runs"] = 3
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 0
        out_dir = tmp_path / "out"
        again = tmp_path / "again.tsv"
        assert run(
            "ensemble", "--pred", out_dir / "predictions.tsv", "--expect-runs", "3", "--gold", d,
            *flags, "--output", again,
        ) == 0
        assert again.read_bytes() == (out_dir / "decisions.tsv").read_bytes()

    def test_screen_that_drops_every_run_leaves_no_predictions(self, tmp_path, capsys):
        # Found only after training, but predictions.tsv is written after the screen.
        d = tmp_path / "d.tsv"
        save_dataset(make_synthetic_dataset(200, 0.3, seed=5), d)
        cfg = {**protocol_config(tmp_path, d), "min_dev_f1": 1.0}
        cfg["protocol"]["runs"] = 1
        with pytest.warns(UserWarning, match="all runs below min F1 1.0 for: charview, wordview"):
            assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "reproduce: ingest: no runs left after filtering at min F1 1.0\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_lexicon_with_drugnorm(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        del cfg["lexicon"]
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 1
        err = capsys.readouterr().err
        assert "lexicon required" in err
        assert not (tmp_path / "out" / "decisions.tsv").exists()

    def test_predictions_mode(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        cfg = {
            "dataset": str(d),
            "predictions": [str(preds)],
            "thresholds": {"default": 0.5},
            "output_dir": str(tmp_path / "out2"),
        }
        cfg_path = tmp_path / "repro2.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 0
        assert (tmp_path / "out2" / "report.json").exists()

    def test_predictions_mode_truncates_unlabeled_ids(self, tmp_path, capsys):
        d = tmp_path / "one.tsv"
        d.write_text("tweet_id\tlabel\ttext\nu00\t1\tseroquel\n", encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        rows = [f"m\tr1\tu{i:02d}\t0.5" for i in range(13)]
        preds.write_text("model_id\trun_id\ttweet_id\tprob\n" + "\n".join(rows) + "\n", encoding="utf-8")
        cfg = {"dataset": str(d), "predictions": [str(preds)], "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 1
        listed = ", ".join(f"u{i:02d}" for i in range(1, 11))
        assert capsys.readouterr().err == (
            f"reproduce: ingest: dataset lacks labels for: {listed}, ... (2 more)\n"
        )

    def test_both_modes_rejected(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["predictions"] = ["x.tsv"]
        cfg_path = tmp_path / "repro.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run("reproduce", "--config", cfg_path) == 1
        assert "exactly one" in capsys.readouterr().err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestConfigErrors:
    """Mis-shaped JSON fails as `<cmd>: <message>` naming the field, exit 1, no traceback."""

    def test_scalar_ngram_range(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"train": str(d), "model_out": str(tmp_path / "m.npz"),
                                      "config": {"ngram_range": 3}})
        assert run("baseline", "train", "--config", cfg) == 1
        assert capsys.readouterr().err == (
            "baseline: ngram_range must be a pair [lo, hi], got 3\n"
        )
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", "8", "epochs must be an integer, got '8'"),
            ("epochs", 2.5, "epochs must be an integer, got 2.5"),
            ("ngram_range", [3, "5"], "ngram_range must be a pair of integers, got (3, '5')"),
            ("learning_rate", "0.1", "learning_rate must be a number, got '0.1'"),
            ("feature_mode", 3, "feature_mode must be a string, got 3"),
        ],
    )
    def test_baseline_field_of_wrong_type(self, tmp_path, capsys, field, value, message):
        d = small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"train": str(d), "model_out": str(tmp_path / "m.npz"),
                                      "config": {field: value}})
        assert run("baseline", "train", "--config", cfg) == 1
        assert capsys.readouterr().err == f"baseline: {message}\n"
        assert not (tmp_path / "m.npz").exists()

    def test_specs_given_as_object(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["protocol"]["specs"] = {"model_id": "m"}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            "reproduce: config: 'specs' must be a list of objects, each with a string model_id\n"
        )

    def test_protocol_given_as_list(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["protocol"] = [cfg["protocol"]]
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "reproduce: config: 'protocol' must be an object\n"

    def test_spec_model_id_not_a_string(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = {"train": str(d), "eval": str(d), "output": str(tmp_path / "p.tsv"),
               "specs": [{"model_id": 7}]}
        assert run("baseline", "protocol", "--config", write_config(tmp_path, cfg)) == 1
        assert "string model_id" in capsys.readouterr().err

    def test_duplicate_spec_ids(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = {"train": str(d), "eval": str(d), "output": str(tmp_path / "p.tsv"), "runs": 1,
               "specs": [{"model_id": "m", "epochs": 1}, {"model_id": "m", "epochs": 2}]}
        assert run("baseline", "protocol", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "baseline: duplicate model_id in specs: m\n"
        assert not (tmp_path / "p.tsv").exists()


BAD_INTEGERS = [([1], "[1]"), (2.7, "2.7"), (2.0, "2.0"), (True, "True"), ("2", "'2'")]


class TestPathConfigFields:
    """Path-valued keys must be strings, and `stages` and `predictions` lists of strings."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dataset", True, "'dataset' must be a string, got True"),
            ("output_dir", 5, "'output_dir' must be a string, got 5"),
            ("lexicon", True, "'lexicon' must be a string, got True"),
            ("stages", [1], "'stages' must be a list of strings, got [1]"),
            ("stages", "anonymize,handles", "'stages' must be a list of strings, got 'anonymize,handles'"),
            ("predictions", [1], "'predictions' must be a list of strings, got [1]"),
            ("predictions", "abc", "'predictions' must be a list of strings, got 'abc'"),
        ],
    )
    def test_reproduce(self, tmp_path, capsys, key, value, message):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        if key == "predictions":
            del cfg["protocol"]
        cfg[key] = value
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"reproduce: config: {message}\n")
        out = tmp_path / "out"
        assert not out.exists()  # every config check runs before output_dir is created

    @pytest.mark.parametrize(
        "action, key",
        [("train", "train"), ("train", "model_out"), ("predict", "model"), ("predict", "input"),
         ("predict", "output"), ("protocol", "train"), ("protocol", "eval"), ("protocol", "output")],
    )
    @pytest.mark.parametrize("value, shown", [(True, "True"), (["d.tsv"], "['d.tsv']"), (None, "None")])
    def test_baseline(self, tmp_path, capsys, action, key, value, shown):
        d = small_dataset(tmp_path)
        cfg = {"train": str(d), "eval": str(d), "input": str(d), "model": str(tmp_path / "absent.npz"),
               "model_out": str(tmp_path / "m.npz"), "output": str(tmp_path / "p.tsv"),
               "model_id": "m", "run_id": "r1", "specs": [{"model_id": "m", "epochs": 1}], key: value}
        assert run("baseline", action, "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"baseline: config: {key!r} must be a string, got {shown}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d.tsv"]


class TestIntegerConfigFields:
    """`runs` and `split.seed` must be JSON integers and `split.train_fraction` a number."""

    @pytest.mark.parametrize("value, shown", BAD_INTEGERS)
    def test_baseline_protocol_runs(self, tmp_path, capsys, value, shown):
        d = small_dataset(tmp_path)
        cfg = {"train": str(d), "eval": str(d), "output": str(tmp_path / "p.tsv"), "runs": value,
               "specs": [{"model_id": "m", "epochs": 1}]}
        assert run("baseline", "protocol", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"baseline: config: 'runs' must be an integer, got {shown}\n"
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [("protocol", "runs", v, f"'runs' must be an integer, got {s}") for v, s in BAD_INTEGERS]
        + [("split", "seed", v, f"'split.seed' must be an integer, got {s}") for v, s in BAD_INTEGERS]
        + [
            ("split", "train_fraction", v, f"'split.train_fraction' must be a number, got {s}")
            for v, s in [("0.8", "'0.8'"), ([0.8], "[0.8]"), (False, "False")]
        ],
    )
    def test_reproduce_leaves_output_dir_empty(self, tmp_path, capsys, section, key, value, message):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg[section][key] = value
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: config: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_integral_values_accepted(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["protocol"]["runs"] = 1
        cfg["split"] = {"train_fraction": 1 / 2, "seed": 0}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 0
        lines = (tmp_path / "out" / "predictions.tsv").read_text(encoding="utf-8").splitlines()[1:]
        assert {line.split("\t")[1] for line in lines} == {"r1"}


class TestReproduceWritesNothingOnConfigErrors:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"thresholds": {"default": 1.5}}, "ensemble: default threshold must be in (0, 1), got 1.5"),
            ({"thresholds": [0.5]}, "config: 'thresholds' must be an object"),
            ({"split": [0.8]}, "config: 'split' must be an object"),
            ({"min_dev_f1": "high"}, "config: 'min_dev_f1' must be a number, got 'high'"),
            ({"min_dev_f1": [0.1]}, "config: 'min_dev_f1' must be a number, got [0.1]"),
            ({"min_dev_f1": True}, "config: 'min_dev_f1' must be a number, got True"),
            ({"min_dev_f1": "0.05"}, "config: 'min_dev_f1' must be a number, got '0.05'"),
            ({"min_dev_f1": 1.5}, "config: min F1 must be in [0, 1], got 1.5"),
            ({"min_dev_f1": float("nan")}, "config: min F1 must be in [0, 1], got nan"),
            ({"min_dev_f1": -3}, "config: min F1 must be in [0, 1], got -3.0"),
            ({"thresholds": {"default": "0.5"}}, "config: 'thresholds.default' must be a number, got '0.5'"),
            ({"thresholds": {"default": [0.5]}}, "config: 'thresholds.default' must be a number, got [0.5]"),
            ({"thresholds": {"default": True}}, "config: 'thresholds.default' must be a number, got True"),
            ({"thresholds": {"charview": None}}, "config: 'thresholds.charview' must be a number, got None"),
            ({"thresholds": {"char.view": "0.4"}}, "config: 'thresholds.char.view' must be a number, got '0.4'"),
        ],
    )
    def test_output_dir_stays_empty(self, tmp_path, capsys, change, message):
        d = small_dataset(tmp_path)
        cfg = {**protocol_config(tmp_path, d), **change}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_model_threshold_rejected_before_hashing(self, tmp_path, capsys, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        cfg = {**protocol_config(tmp_path, small_dataset(tmp_path)), "thresholds": {"default": None, "charview": 0.5}}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "reproduce: ensemble: no threshold configured for model wordview\n"
        assert calls == [] and not (tmp_path / "out").exists()

    def test_threshold_needed_even_for_a_model_the_screen_drops(self, tmp_path, capsys, monkeypatch):
        # The screen runs after training, so the check cannot spare the models it will drop.
        from adrpipe import baseline

        d = tmp_path / "d.tsv"
        save_dataset(make_synthetic_dataset(200, 0.3, seed=5), d)
        cfg = {**protocol_config(tmp_path, d), "min_dev_f1": 0.5}
        cfg["protocol"]["specs"].append(  # all-negative on the dev side: F1 = 0
            {"model_id": "stuck", "ngram_range": [1, 1], "feature_mode": "word", "epochs": 1,
             "learning_rate": 1e-9, "seed": 300}
        )
        cfg["thresholds"] = {"default": None, "charview": 0.5, "wordview": 0.5, "stuck": 0.5}
        with pytest.warns(UserWarning, match="all runs below min F1 0.5 for: stuck$"):
            assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["thresholds"] == {"charview": 0.5, "wordview": 0.5}
        capsys.readouterr()

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        del cfg["thresholds"]["stuck"]
        cfg["output_dir"] = str(tmp_path / "out2")
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "reproduce: ensemble: no threshold configured for model stuck\n"
        assert calls == [] and not (tmp_path / "out2").exists()

    def test_null_default_takes_each_models_threshold(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["thresholds"] = {"default": None, "charview": 0.25, "wordview": 0.75}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert report["thresholds"] == {"charview": 0.25, "wordview": 0.75}


class TestOneThresholdRule:
    """Every model the inputs name needs a threshold, in every command and mode, a model the
    --min-dev-f1 screen drops included: protocol mode checks before it trains, so before it can
    know which runs the screen drops, and the other paths check as early."""

    STUCK = {"model_id": "stuck", "ngram_range": [1, 1], "feature_mode": "word", "epochs": 1,
             "learning_rate": 1e-9, "seed": 300}  # all-negative on the dev side: F1 = 0

    def argv(self, tmp_path, path, dataset, thresholds, out):
        """The path's arguments with `thresholds` and no default, writing to `out`."""
        if path == "ensemble":
            pairs = [a for m, t in thresholds.items() for a in ("--threshold", f"{m}={t}")]
            return ["ensemble", "--pred", tmp_path / "p.tsv", "--expect-runs", "1", "--gold", dataset,
                    "--min-dev-f1", "0.5", "--no-default", *pairs, "--output", out]
        cfg = {**protocol_config(tmp_path, dataset), "min_dev_f1": 0.5, "output_dir": str(out),
               "thresholds": {"default": None, **thresholds}}
        if path == "protocol":
            cfg["protocol"]["specs"].append(self.STUCK)
        else:
            del cfg["protocol"]
            cfg["predictions"] = [str(tmp_path / "p.tsv")]
        return ["reproduce", "--config", write_config(tmp_path, cfg)]

    @pytest.mark.parametrize("path", ["protocol", "predictions", "ensemble"])
    def test_a_model_the_screen_drops_needs_one(self, tmp_path, capsys, path):
        d = tmp_path / "d.tsv"
        data = make_synthetic_dataset(200, 0.3, seed=5)
        save_dataset(data, d)
        (tmp_path / "p.tsv").write_text("model_id\trun_id\ttweet_id\tprob\n" + "".join(
            f"{m}\tr1\t{r.tweet_id}\t{p[r.label]}\n"
            for m, p in (("charview", (0.1, 0.9)), ("stuck", (0.0, 0.0)), ("wordview", (0.3, 0.8)))
            for r in data.records
        ), encoding="utf-8")
        thresholds = {"charview": 0.5, "stuck": 0.5, "wordview": 0.5}
        with pytest.warns(UserWarning, match="all runs below min F1 0.5 for: stuck$"):
            assert run(*self.argv(tmp_path, path, d, thresholds, tmp_path / "first")) == 0  # the screen drops it
        capsys.readouterr()

        del thresholds["stuck"]
        assert run(*self.argv(tmp_path, path, d, thresholds, tmp_path / "second")) == 1
        prefix = "ensemble: " if path == "ensemble" else "reproduce: ensemble: "
        assert capsys.readouterr() == ("", f"{prefix}no threshold configured for model stuck\n")
        assert not (tmp_path / "second").exists()


class TestUnwritableIds:
    @pytest.fixture
    def model(self, tmp_path):
        d = small_dataset(tmp_path)
        cfg = write_config(tmp_path, {"train": str(d), "model_out": str(tmp_path / "m.npz"),
                                      "config": {"epochs": 1, "feature_buckets": 256}}, "train.json")
        assert run("baseline", "train", "--config", cfg) == 0
        return d, tmp_path / "m.npz"

    @pytest.mark.parametrize(
        "key, message",
        [
            ({"model_id": ""}, "model_id, run_id and tweet_id must be non-empty"),
            ({"run_id": ""}, "model_id, run_id and tweet_id must be non-empty"),
            ({"model_id": "m\tx"}, "identifier 'm\\tx' must be a string with no tab or newline"),
            ({"run_id": "r\n1"}, "identifier 'r\\n1' must be a string with no tab or newline"),
            ({"run_id": 1}, "identifier 1 must be a string with no tab or newline"),
            ({"run_id": "r\r1"}, "identifier 'r\\r1' must be a string with no tab or newline"),
        ],
    )
    def test_baseline_predict(self, tmp_path, capsys, model, key, message):
        d, model_path = model
        out = tmp_path / "preds.tsv"
        doc = {"model": str(model_path), "input": str(d), "output": str(out), "model_id": "m", "run_id": "r1"}
        capsys.readouterr()
        assert run("baseline", "predict", "--config", write_config(tmp_path, {**doc, **key})) == 1
        assert capsys.readouterr().err == f"baseline: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model_id", ["", "m\tx", "m\nx"])
    def test_baseline_protocol(self, tmp_path, capsys, model_id):
        d = small_dataset(tmp_path)
        cfg = {"train": str(d), "eval": str(d), "output": str(tmp_path / "p.tsv"), "runs": 1,
               "specs": [{"model_id": model_id, "epochs": 1}]}
        assert run("baseline", "protocol", "--config", write_config(tmp_path, cfg)) == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("model_id", ["a,b", "a\tb", "a\nb", "a\rb"])
    def test_reproduce_leaves_output_dir_empty(self, tmp_path, capsys, monkeypatch, model_id):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["protocol"]["specs"][1]["model_id"] = model_id
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            f"reproduce: model id {model_id!r} cannot be encoded in a decisions file\n"
        )
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestReservedModelId:
    """`ensemble` names the ensemble's own row in the report, so no member may take it."""

    RESERVED = "model id 'ensemble' is reserved for the ensemble's row in the report"

    def test_ensemble_writes_no_decisions(self, tmp_path, capsys):
        preds = tmp_path / "p.tsv"
        preds.write_text(
            "model_id\trun_id\ttweet_id\tprob\n"
            + "".join(f"{m}\tr1\tt{i}\t0.{i}\n" for m in ("alpha", "ensemble") for i in range(3)),
            encoding="utf-8",
        )
        out = tmp_path / "d.tsv"
        assert run("ensemble", "--pred", preds, "--expect-runs", "1", "--output", out) == 1
        assert capsys.readouterr().err == f"ensemble: {self.RESERVED}\n"
        assert not out.exists()

    def test_reproduce_protocol_mode_before_hashing(self, tmp_path, capsys, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        cfg = protocol_config(tmp_path, small_dataset(tmp_path))
        cfg["protocol"]["specs"][1]["model_id"] = "ensemble"
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: {self.RESERVED}\n"
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_evaluate_writes_no_report(self, tmp_path, capsys):
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text(
            "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
            "t1\talpha:0.200000,ensemble:0.900000\talpha:0,ensemble:1\t1\n",
            encoding="utf-8",
        )
        report = tmp_path / "r.tsv"
        assert run("evaluate", "--decisions", decisions, "--gold", small_dataset(tmp_path), "--report", report) == 1
        assert capsys.readouterr().err == f"evaluate: {decisions}: {self.RESERVED} at line 2\n"
        assert not report.exists()


class TestPlusInModelId:
    """The report keys a voter subset by its model ids joined with `+`, so {`a+b`} and {`a`, `b`} would share a key."""

    PLUS = "model id 'a+b' holds '+', which joins a voter subset's ids in the report"

    def test_ensemble_writes_no_decisions(self, tmp_path, capsys):
        preds = tmp_path / "p.tsv"
        preds.write_text(
            "model_id\trun_id\ttweet_id\tprob\n"
            + "".join(f"{m}\tr1\tt{i}\t0.{i}\n" for m in ("a", "b", "a+b") for i in range(4)),
            encoding="utf-8",
        )
        out = tmp_path / "d.tsv"
        assert run("ensemble", "--pred", preds, "--expect-runs", "1", "--output", out) == 1
        assert capsys.readouterr().err == f"ensemble: {self.PLUS}\n"
        assert not out.exists()

    def test_reproduce_protocol_mode_before_hashing(self, tmp_path, capsys, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        cfg = protocol_config(tmp_path, small_dataset(tmp_path))
        cfg["protocol"]["specs"][1]["model_id"] = "a+b"
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: {self.PLUS}\n"
        assert calls == [] and not (tmp_path / "out").exists()

    def test_reproduce_predictions_mode_before_output_dir(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = tmp_path / "p.tsv"
        preds.write_text(
            "model_id\trun_id\ttweet_id\tprob\n" + "".join(f"a+b\tr1\tt{i}\t0.5\n" for i in range(20)),
            encoding="utf-8",
        )
        cfg = {"dataset": str(d), "predictions": [str(preds)], "output_dir": str(tmp_path / "out")}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: {self.PLUS}\n"
        assert not (tmp_path / "out").exists()

    def test_evaluate_writes_no_report(self, tmp_path, capsys):
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text(
            "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
            "t1\ta:0.200000,a+b:0.900000\ta:0,a+b:1\t1\n",
            encoding="utf-8",
        )
        report = tmp_path / "r.json"
        assert run("evaluate", "--decisions", decisions, "--gold", small_dataset(tmp_path), "--report", report) == 1
        assert capsys.readouterr().err == f"evaluate: {decisions}: {self.PLUS} at line 2\n"
        assert not report.exists()


class TestReproduceCreatesOutputDirAfterItsChecks:
    """Unknown keys and thresholds for unknown models are covered where those checks are tested."""

    def test_missing_dataset_leaves_no_output_dir(self, tmp_path, capsys):
        cfg = protocol_config(tmp_path, tmp_path / "absent.tsv")
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 2
        assert "absent.tsv" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_naming_a_file_fails_before_hashing(self, tmp_path, capsys, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        (tmp_path / "out").write_text("not a directory\n", encoding="utf-8")
        cfg = protocol_config(tmp_path, small_dataset(tmp_path))
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 2
        assert "out" in capsys.readouterr().err
        assert calls == [] and (tmp_path / "out").read_text(encoding="utf-8") == "not a directory\n"


    @pytest.mark.parametrize(
        "change, message",
        [
            ({"protocol": {"runs": 0, "specs": [{"model_id": "m"}]}}, "runs must be >= 1"),
            ({"protocol": {"runs": 1, "specs": [{"model_id": "m"}, {"model_id": "m"}]}},
             "duplicate model_id in specs: m"),
            ({"dataset": "all-negative"}, "training data must contain both labels"),
        ],
        ids=["no-runs", "repeated-model-id", "one-label"],
    )
    def test_protocol_matrix_checks_leave_no_output_dir(self, tmp_path, capsys, monkeypatch, change, message):
        # protocol_matrix's own checks run before the directory is made, through the same function.
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        negative = tmp_path / "negative.tsv"
        negative.write_text("".join(f"t{i}\t0\tsunny park walk {i}\n" for i in range(20)), encoding="utf-8")
        cfg = {**protocol_config(tmp_path, small_dataset(tmp_path)), **change}
        if cfg["dataset"] == "all-negative":
            cfg["dataset"] = str(negative)
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"reproduce: baseline: {message}\n")
        assert calls == [] and not (tmp_path / "out").exists()


class TestReproduceConfigKeys:
    """A config key `reproduce` would not read, or a malformed `stages` list, fails before any hashing."""

    @pytest.fixture
    def no_hashing(self, monkeypatch):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        yield
        assert calls == []

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"threshold": {"default": 0.9}}, "threshold"),
            ({"min_dev_F1": 0.5}, "min_dev_F1"),
            ({"split": {"seed": 3, "fraction": 0.5}}, "split.fraction"),
            ({"protocol": {"runs": 2, "specs": [{"model_id": "m"}], "run": 3}}, "protocol.run"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, no_hashing, change, key):
        cfg = {**protocol_config(tmp_path, small_dataset(tmp_path)), **change}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"reproduce: config: unknown key {key!r}\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected_in_predictions_mode(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        cfg = {"dataset": str(d), "predictions": [str(make_predictions(tmp_path, d))],
               "output_dir": str(tmp_path / "out"), "split": {"seed": 1, "fraction": 0.5}}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == "reproduce: config: unknown key 'split.fraction'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "stages, shown",
        [
            (["anonymize,handles", "", " lowercase "], "'anonymize,handles', '', ' lowercase '"),
            (["anonymize,handles"], "'anonymize,handles'"),
            ([""], "''"),
            ([" lowercase "], "' lowercase '"),
            (["spellcheck"], "'spellcheck'"),
        ],
    )
    def test_malformed_stages_list_rejected(self, tmp_path, capsys, no_hashing, stages, shown):
        cfg = {**protocol_config(tmp_path, small_dataset(tmp_path)), "stages": stages}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            f"reproduce: preprocess: unknown stages: {shown} "
            "(choose from anonymize, handles, hashtags, lowercase, drugnorm)\n"
        )
        assert not (tmp_path / "out").exists()


BASELINE_KEYS = {
    "train": ["train", "model_out"],
    "predict": ["model", "input", "output", "model_id", "run_id"],
    "protocol": ["train", "eval", "output"],
}


class TestBaselineConfigKeys:
    @pytest.mark.parametrize(
        "action, key",
        [("train", "run"), ("train", "specs"), ("predict", "config"), ("protocol", "run"),
         ("protocol", "config"), ("protocol", "model_out")],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, action, key):
        d = small_dataset(tmp_path)
        cfg = {
            "train": {"train": str(d), "model_out": str(tmp_path / "m.npz")},
            "predict": {"model": str(tmp_path / "absent.npz"), "input": str(d), "output": str(tmp_path / "p.tsv"),
                        "model_id": "m", "run_id": "r1"},
            "protocol": {"train": str(d), "eval": str(d), "output": str(tmp_path / "p.tsv"), "runs": 1,
                         "specs": [{"model_id": "m", "epochs": 1}]},
        }[action]
        cfg[key] = 1
        assert run("baseline", action, "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"baseline: config: unknown key {key!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d.tsv"]


class TestMissingRequiredKeys:
    @pytest.mark.parametrize(
        "command, key",
        [("reproduce", "dataset"), ("reproduce", "output_dir")]
        + [(f"baseline {action}", key) for action, keys in BASELINE_KEYS.items() for key in keys],
    )
    def test_named_and_nothing_written(self, tmp_path, capsys, command, key):
        d = small_dataset(tmp_path)
        if command == "reproduce":
            cfg = protocol_config(tmp_path, d)
        else:
            cfg = {"train": str(d), "eval": str(d), "input": str(d), "model": str(tmp_path / "absent.npz"),
                   "model_out": str(tmp_path / "m.npz"), "output": str(tmp_path / "p.tsv"),
                   "model_id": "m", "run_id": "r1", "specs": [{"model_id": "m", "epochs": 1}]}
        del cfg[key]
        assert run(*command.split(), "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr() == ("", f"{command.split()[0]}: config: {key!r} is required\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "d.tsv"]


class TestReadmeExample:
    def test_example_reproduce_config_runs(self, tmp_path, capsys):
        readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("Example `reproduce.json`:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        cfg = json.loads(block)
        cfg["dataset"] = str(DATA.parent / cfg["dataset"])
        cfg["lexicon"] = str(DATA.parent / cfg["lexicon"])
        cfg["output_dir"] = str(tmp_path / "out")
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 0
        # Swapped for `predictions`, as the README suggests, the protocol-mode keys stay accepted.
        del cfg["protocol"]
        cfg["predictions"] = [str(tmp_path / "out" / "predictions.tsv")]
        cfg["output_dir"] = str(tmp_path / "out2")
        assert run("reproduce", "--config", write_config(tmp_path, cfg, "swapped.json")) == 0


@pytest.fixture(params=[0o022, 0o077], ids=["umask022", "umask077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


class TestOutputMode:
    """Every file a command writes is created mode 0o666 less the umask, as open(path, "w") creates one."""

    def test_every_command_that_writes(self, tmp_path, capsys, umask):
        d = small_dataset(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        preds = make_predictions(tmp_path, d)  # baseline protocol
        assert run("preprocess", "--input", d, "--stages", "lowercase", "--output", out / "clean.tsv") == 0
        assert run("split", "--input", d, "--seed", "7", "--train-out", out / "train.tsv",
                   "--dev-out", out / "dev.tsv") == 0
        assert run("ingest", "--pred", preds, "--expect-runs", "2", "--output", out / "merged.tsv") == 0
        assert run("ensemble", "--pred", preds, "--expect-runs", "2", "--output", out / "decisions.tsv") == 0
        assert run("evaluate", "--decisions", out / "decisions.tsv", "--gold", d, "--report", out / "report.json") == 0
        model_cfg = {"train": str(d), "model_out": str(out / "model.npz"), "config": {"epochs": 1, "seed": 4}}
        assert run("baseline", "train", "--config", write_config(tmp_path, model_cfg)) == 0
        predict_cfg = {"model": str(out / "model.npz"), "input": str(d), "output": str(out / "pred.tsv"),
                       "model_id": "m", "run_id": "r1"}
        assert run("baseline", "predict", "--config", write_config(tmp_path, predict_cfg)) == 0
        assert run("reproduce", "--config", write_config(tmp_path, protocol_config(out, d))) == 0
        written = [preds, *sorted(p for p in out.rglob("*") if p.is_file())]
        assert [p.relative_to(tmp_path).as_posix() for p in written] == [
            "preds.tsv", "out/clean.tsv", "out/decisions.tsv", "out/dev.tsv", "out/merged.tsv", "out/model.npz",
            "out/out/decisions.tsv", "out/out/predictions.tsv", "out/out/report.json", "out/pred.tsv",
            "out/report.json", "out/train.tsv",
        ]
        assert {str(p): oct(p.stat().st_mode & 0o777) for p in written} == dict.fromkeys(
            map(str, written), oct(0o666 & ~umask)
        )
        capsys.readouterr()

    def test_rerun_keeps_a_readable_output_readable(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        old = os.umask(0o022)
        try:
            for _ in range(2):
                assert run("preprocess", "--input", d, "--stages", "lowercase", "--output", tmp_path / "clean.tsv") == 0
                assert (tmp_path / "clean.tsv").stat().st_mode & 0o777 == 0o644
        finally:
            os.umask(old)

import json
from pathlib import Path

import pytest

from adrpipe.cli import main
from adrpipe.corpus import load_dataset

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

    def test_min_dev_f1_filter(self, tmp_path, capsys):
        d = small_dataset(tmp_path)
        preds = make_predictions(tmp_path, d)
        assert run(
            "ingest", "--pred", preds, "--check", "--expect-runs", "0",
            "--min-dev-f1", "0.05", "--gold", d,
        ) == 0

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


class TestReproduceWritesNothingOnConfigErrors:
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"thresholds": {"default": 1.5}}, "ensemble: default threshold must be in (0, 1), got 1.5"),
            ({"thresholds": [0.5]}, "config: 'thresholds' must be an object"),
            ({"split": [0.8]}, "config: 'split' must be an object"),
            ({"min_dev_f1": "high"}, "config: 'min_dev_f1' must be a number, got 'high'"),
            ({"min_dev_f1": [0.1]}, "config: 'min_dev_f1' must be a number, got [0.1]"),
        ],
    )
    def test_output_dir_stays_empty(self, tmp_path, capsys, change, message):
        d = small_dataset(tmp_path)
        cfg = {**protocol_config(tmp_path, d), **change}
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == f"reproduce: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []


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

    @pytest.mark.parametrize("model_id", ["a,b", "a\tb", "a\nb"])
    def test_reproduce_leaves_output_dir_empty(self, tmp_path, capsys, monkeypatch, model_id):
        from adrpipe import baseline

        calls = []
        monkeypatch.setattr(baseline, "hashed_features", lambda *a: calls.append(a))
        d = small_dataset(tmp_path)
        cfg = protocol_config(tmp_path, d)
        cfg["protocol"]["specs"][1]["model_id"] = model_id
        assert run("reproduce", "--config", write_config(tmp_path, cfg)) == 1
        assert capsys.readouterr().err == (
            f"reproduce: model id {model_id!r} cannot be encoded in a decisions file\n"
        )
        assert calls == []
        assert list((tmp_path / "out").iterdir()) == []

"""Commands stay linear in the shape of their input files. Each command's core
runs in-process on a file with many models, many scenarios, ragged coverage,
repeated spec ids, many models per decision line, a (model, run) key that
changes on every line, many runs of one model, or 10 KB tweet ids, at a size
where code quadratic in that shape takes seconds, under a loose bound."""

import json
import time

import pytest

from adrpipe.baseline import BaselineConfig, protocol_matrix
from adrpipe.cli import main
from adrpipe.corpus import Dataset, LabeledTweet
from adrpipe.predictions import HEADER

BOUND_S = 2.0  # linear code takes under a second per input; `variability` spends most of it in stdev


def fastest(fn, tries=2):
    """Best time of up to `tries` calls, stopping once one is under the bound, and the last call's result."""
    best = float("inf")
    for _ in range(tries):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
        if best < BOUND_S:
            break
    return best, result


def run(*argv):
    return main([str(a) for a in argv])


def prediction_file(path, rows):
    """A prediction file of (model_id, run_id, tweet_id, prob) rows."""
    path.write_text(HEADER + "\n" + "".join(f"{m}\t{r}\t{t}\t{p}\n" for m, r, t, p in rows), encoding="utf-8")
    return path


def test_ingest_with_many_models(tmp_path, capsys):
    n = 4000
    pred = prediction_file(tmp_path / "p.tsv", [(f"m{i}", "r1", t, 0.5) for i in range(n) for t in ("t1", "t2")])
    took, code = fastest(lambda: run("ingest", "--pred", pred, "--expect-runs", "0"))
    assert code == 0 and took < BOUND_S
    assert capsys.readouterr().out.startswith(f"models: {n}, tweets: 2\n  m0: 1 runs (r1)\n")


def test_variability_with_many_scenarios(tmp_path, capsys):
    n = 8000
    metrics = tmp_path / "m.tsv"
    rows = [f"s{i}\tr{k}\t0.{k}{i % 10}\t0.{k + 5}\n" for i in range(n) for k in (1, 2)]
    metrics.write_text("scenario\trun_id\tf1\trecall\n" + "".join(rows), encoding="utf-8")
    took, code = fastest(lambda: run("variability", "--metrics", metrics))
    assert code == 0 and took < BOUND_S
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["s0", "0.0707", "0.0707", "2"] and out[n].split()[0] == f"s{n - 1}"


def test_ragged_coverage_error_is_linear_and_short(tmp_path, capsys):
    n = 4000  # each run covers a different single tweet, so every run misses all the others
    pred = prediction_file(tmp_path / "p.tsv", [("m", f"r{i:04d}", f"t{i:04d}", 0.5) for i in range(n)])
    took, code = fastest(lambda: run("ingest", "--pred", pred, "--expect-runs", "0"))
    assert code == 1 and took < BOUND_S
    err = capsys.readouterr().err.splitlines()[-1]
    first = "t0001, t0002, t0003, t0004, t0005, t0006, t0007, t0008, t0009, t0010, ... (3989 more)"
    assert err.startswith(f"ingest: ragged tweet coverage: run r0000 of m missing tweets {first}; ")
    assert err.endswith(f"; ... ({n - 10} more runs)")
    assert err.count("missing tweets") == 10 and len(err) < 1_500


def test_protocol_with_a_repeated_spec_id_among_many():
    data = Dataset((LabeledTweet("a", "good", 0), LabeledTweet("b", "bad", 1)))
    cfg = BaselineConfig()
    specs = [(f"m{i}", cfg) for i in range(20_000)] + [("m7", cfg)]

    def check():
        with pytest.raises(ValueError, match="^duplicate model_id in specs: m7$"):
            protocol_matrix(data, data, specs, 1)

    assert fastest(check)[0] < BOUND_S


def test_ensemble_then_evaluate_with_many_models_per_line(tmp_path):
    models, tweets = 2000, 20
    pred = prediction_file(
        tmp_path / "p.tsv",
        [(f"m{i:04d}", "r1", f"t{t:02d}", f"0.{(i * 7 + t * 3) % 10}") for i in range(models) for t in range(tweets)],
    )
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"t{t:02d}\t{t % 2}\ttext {t}\n" for t in range(tweets)), encoding="utf-8")
    decisions, report = tmp_path / "d.tsv", tmp_path / "r.json"
    took, code = fastest(lambda: run("ensemble", "--pred", pred, "--expect-runs", "0", "--output", decisions))
    assert code == 0 and took < BOUND_S
    took, code = fastest(lambda: run("evaluate", "--decisions", decisions, "--gold", gold, "--report", report))
    assert code == 0 and took < BOUND_S
    assert len(decisions.read_text(encoding="utf-8").splitlines()[1].split("\t")[1].split(",")) == models


def test_ingest_with_a_key_that_changes_on_every_line(tmp_path, capsys):
    keys = [(f"m{i}", f"r{k}") for i in range(20) for k in range(1, 6)]
    tweets = [f"t{j:03d}" for j in range(500)]
    pred = prediction_file(tmp_path / "p.tsv", [(m, r, t, 0.25) for t in tweets for m, r in keys])
    merged = tmp_path / "merged.tsv"
    took, code = fastest(lambda: run("ingest", "--pred", pred, "--output", merged))
    assert code == 0 and took < BOUND_S
    assert capsys.readouterr().out.startswith(f"models: 20, tweets: {len(tweets)}\n")
    assert len(merged.read_text(encoding="utf-8").splitlines()) == 1 + len(keys) * len(tweets)


def ensemble_then_evaluate(tmp_path, pred, gold):
    """Run `ensemble` then `evaluate` on the files, each under the bound; the decision lines and the report."""
    decisions, report = tmp_path / "d.tsv", tmp_path / "r.json"
    took, code = fastest(lambda: run("ensemble", "--pred", pred, "--expect-runs", "0", "--output", decisions))
    assert code == 0 and took < BOUND_S
    took, code = fastest(lambda: run("evaluate", "--decisions", decisions, "--gold", gold, "--report", report))
    assert code == 0 and took < BOUND_S
    return decisions.read_text(encoding="utf-8").splitlines()[1:], json.loads(report.read_text(encoding="utf-8"))


def test_ensemble_then_evaluate_with_many_runs_of_one_model(tmp_path):
    runs = 4000
    pred = prediction_file(
        tmp_path / "p.tsv", [("m", f"r{k:04d}", t, f"0.{k % 10}") for k in range(runs) for t in ("t1", "t2")]
    )
    gold = tmp_path / "gold.tsv"
    gold.write_text("t1\t1\ttext 1\nt2\t0\ttext 2\n", encoding="utf-8")
    lines, report = ensemble_then_evaluate(tmp_path, pred, gold)
    assert lines == ["t1\tm:0.450000\tm:0\t0", "t2\tm:0.450000\tm:0\t0"]
    assert report["ensemble"]["fn"] == 1 and report["ensemble"]["tn"] == 1


def test_ensemble_then_evaluate_with_10_kb_tweet_ids(tmp_path):
    tweets = [f"t{j:03d}" + "x" * 10_000 for j in range(300)]
    pred = prediction_file(
        tmp_path / "p.tsv",
        [(m, r, t, 0.75 if j % 2 else 0.25) for j, t in enumerate(tweets) for m in ("a", "b") for r in ("r1", "r2")],
    )
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"{t}\t{j % 2}\ttext {j}\n" for j, t in enumerate(tweets)), encoding="utf-8")
    lines, report = ensemble_then_evaluate(tmp_path, pred, gold)
    assert [line.split("\t")[0] for line in lines] == tweets
    assert report["ensemble"] == {"tp": 150, "fp": 0, "tn": 150, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}

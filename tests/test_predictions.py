import dataclasses
import random
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe.baseline import BaselineConfig, predict_prob, run_protocol, train
from adrpipe.corpus import Dataset
from adrpipe.evaluate import confusion, metrics
from adrpipe.predictions import (
    HEADER,
    PredictionRecord,
    RunMatrix,
    average_runs,
    filter_runs,
    load_predictions,
    write_predictions,
)


def write_pred_file(path, rows, header=HEADER):
    lines = [header] + [f"{m}\t{r}\t{t}\t{p}" for m, r, t, p in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def grid_rows(model, runs, tweets, prob=0.5):
    return [(model, f"r{i}", t, prob) for i in range(1, runs + 1) for t in tweets]


def records_text(records):
    """Oracle: the record writer the matrix writer replaced, sorted records in the standard format."""
    rows = sorted(records, key=lambda r: (r.model_id, r.run_id, r.tweet_id))
    lines = [HEADER] + [f"{r.model_id}\t{r.run_id}\t{r.tweet_id}\t{r.prob:.6f}" for r in rows]
    return "\n".join(lines) + "\n"


class TestLoad:
    def test_two_files_merge(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_pred_file(a, grid_rows("bert-large", 5, ["t1", "t2", "t3"]))
        write_pred_file(b, grid_rows("biobert", 5, ["t1", "t2", "t3"], prob=0.25))
        m = load_predictions([a, b])
        assert m.models == ("bert-large", "biobert")
        assert len(m.runs_per_model["bert-large"]) == 5
        assert m.tweet_ids == ("t1", "t2", "t3")

    def test_load_order_does_not_matter(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_pred_file(a, grid_rows("m1", 2, ["t1", "t2"], prob=0.1))
        write_pred_file(b, grid_rows("m2", 2, ["t1", "t2"], prob=0.9))
        m_ab = load_predictions([a, b], expected_runs=2)
        m_ba = load_predictions([b, a], expected_runs=2)
        assert m_ab == m_ba

    def test_missing_tweet_names_run_and_id(self, tmp_path):
        p = tmp_path / "p.tsv"
        rows = grid_rows("biobert", 3, ["t1", "t7"])
        rows.remove(("biobert", "r3", "t7", 0.5))
        write_pred_file(p, rows)
        with pytest.raises(ValueError, match="run r3 of biobert missing tweet t7"):
            load_predictions([p], expected_runs=None)

    def test_out_of_range_prob_names_line(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t1", "1.2")])
        with pytest.raises(ValueError, match="probability out of range at line 2"):
            load_predictions([p])

    def test_non_numeric_prob(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t1", "high")])
        with pytest.raises(ValueError, match="bad probability"):
            load_predictions([p])

    def test_duplicate_triple(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t1", 0.5), ("m", "r1", "t1", 0.6)])
        with pytest.raises(ValueError, match="duplicate prediction"):
            load_predictions([p])

    def test_duplicate_across_files(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_pred_file(a, [("m", "r1", "t1", 0.5)])
        write_pred_file(b, [("m", "r1", "t1", 0.6)])
        with pytest.raises(ValueError, match="duplicate prediction for model m, run r1, tweet t1"):
            load_predictions([a, b], expected_runs=None)

    @pytest.mark.parametrize("row", [("", "r1", "t1", 0.5), ("m", "", "t1", 0.5), ("m", "r1", "", 0.5)])
    def test_empty_identifier_names_file_and_line(self, tmp_path, row):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t0", 0.5), row])
        with pytest.raises(ValueError) as e:
            load_predictions([p], expected_runs=None)
        assert str(e.value) == f"{p}: model_id, run_id and tweet_id must be non-empty at line 3"

    def test_ragged_message_truncates_long_id_lists(self, tmp_path):
        p = tmp_path / "p.tsv"
        tweets = [f"t{i:02d}" for i in range(13)]
        write_pred_file(p, grid_rows("m", 1, tweets) + [("m", "r2", "t00", 0.5)])
        with pytest.raises(ValueError) as e:
            load_predictions([p], expected_runs=None)
        shown = ", ".join(tweets[1:11])
        assert str(e.value) == f"ragged tweet coverage: run r2 of m missing tweets {shown}, ... (2 more)"

    def test_missing_header(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t1", 0.5)], header="model\trun\ttweet\tp")
        with pytest.raises(ValueError, match="header"):
            load_predictions([p])

    def test_run_count_warning(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, grid_rows("m", 3, ["t1"]))
        with pytest.warns(UserWarning, match="has 3 runs"):
            load_predictions([p], expected_runs=5)

    def test_hard_labels_accepted_as_probs(self, tmp_path):
        p = tmp_path / "p.tsv"
        write_pred_file(p, [("m", "r1", "t1", "0"), ("m", "r1", "t2", "1")])
        m = load_predictions([p], expected_runs=None)
        assert m.keys == (("m", "r1"),)
        assert m.tweet_ids == ("t1", "t2")
        assert m.probs[0, 0] == 0.0
        assert m.probs[0, 1] == 1.0

    def test_write_read_round_trip(self, tmp_path):
        records = [
            PredictionRecord("m", f"r{i}", f"t{j}", (i + j) / 10)
            for i in range(1, 3)
            for j in range(4)
        ]
        out = tmp_path / "preds.tsv"
        write_predictions(RunMatrix.from_records(records), out)
        assert out.read_text(encoding="utf-8") == records_text(records)
        m = load_predictions([out], expected_runs=2)
        assert m.probs[m.keys.index(("m", "r2")), m.tweet_ids.index("t3")] == pytest.approx(0.5)


class TestAverageRuns:
    def test_mean_of_five(self):
        records = [
            PredictionRecord("m", f"r{i}", "t1", p)
            for i, p in enumerate([0.2, 0.4, 0.6, 0.8, 1.0], start=1)
        ]
        avg = average_runs(RunMatrix.from_records(records))
        assert avg["m"]["t1"] == pytest.approx(0.6)

    def test_single_run_identity(self):
        m = RunMatrix.from_records([PredictionRecord("m", "r1", "t1", 0.37)])
        assert average_runs(m)["m"]["t1"] == 0.37

    def test_run_relabeling_invariance(self):
        probs = [0.12, 0.93, 0.4]
        a = RunMatrix.from_records(
            [PredictionRecord("m", f"r{i}", "t", p) for i, p in enumerate(probs, 1)]
        )
        b = RunMatrix.from_records(
            [PredictionRecord("m", f"x{i}", "t", p) for i, p in enumerate(reversed(probs), 1)]
        )
        assert average_runs(a)["m"]["t"] == average_runs(b)["m"]["t"]

    def test_mean_within_run_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            probs = [rng.random() for _ in range(rng.randrange(1, 8))]
            m = RunMatrix.from_records(
                [PredictionRecord("m", f"r{i}", "t", p) for i, p in enumerate(probs, 1)]
            )
            mean = average_runs(m)["m"]["t"]
            assert min(probs) <= mean <= max(probs)


class TestFilterRuns:
    def test_drops_never_positive_run(self):
        gold = {"t1": 1, "t2": 0}
        records = [
            # r1 predicts the positive correctly, r2 predicts nothing positive
            PredictionRecord("m", "r1", "t1", 0.9),
            PredictionRecord("m", "r1", "t2", 0.1),
            PredictionRecord("m", "r2", "t1", 0.1),
            PredictionRecord("m", "r2", "t2", 0.1),
        ]
        m = RunMatrix.from_records(records)
        kept = filter_runs(m, gold, min_f1=0.5)
        assert kept.runs_per_model["m"] == ("r1",)

    def test_all_runs_dropped_is_error(self):
        gold = {"t1": 1}
        m = RunMatrix.from_records([PredictionRecord("m", "r1", "t1", 0.0)])
        with pytest.raises(ValueError, match="no runs left"):
            with pytest.warns(UserWarning):
                filter_runs(m, gold, min_f1=0.1)

    def test_missing_gold_is_error(self):
        m = RunMatrix.from_records([PredictionRecord("m", "r1", "t1", 0.5)])
        with pytest.raises(ValueError, match="gold labels missing"):
            filter_runs(m, {"other": 1}, min_f1=0.1)


class TestRecordValidation:
    def test_tab_in_identifier_rejected(self):
        with pytest.raises(ValueError, match="tab or newline"):
            PredictionRecord("m\tx", "r1", "t1", 0.5)

    def test_prob_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            PredictionRecord("m", "r1", "t1", -0.01)


class TestFromColumns:
    def test_builds_the_same_matrix_as_from_records(self):
        columns = {("b", "r2"): (["t2", "t1"], [0.25, 0.5]), ("a", "r1"): (["t1", "t2"], [1.0, 0.0])}
        records = [PredictionRecord(m, r, t, p) for (m, r), (ids, ps) in columns.items() for t, p in zip(ids, ps)]
        m = RunMatrix.from_columns(columns)
        assert m == RunMatrix.from_records(records)
        assert m.keys == (("a", "r1"), ("b", "r2"))
        assert m.probs.tolist() == [[1.0, 0.0], [0.5, 0.25]]

    @pytest.mark.parametrize(
        "key, message",
        [
            (("", "r1"), "model_id, run_id and tweet_id must be non-empty"),
            (("m", ""), "model_id, run_id and tweet_id must be non-empty"),
            (("m\tx", "r1"), "identifier 'm\\tx' must be a string with no tab or newline"),
            (("m", "r\n1"), "identifier 'r\\n1' must be a string with no tab or newline"),
        ],
    )
    def test_unwritable_key_rejected(self, key, message):
        with pytest.raises(ValueError) as e:
            RunMatrix.from_columns({key: (["t1"], [0.5])})
        assert str(e.value) == message

    @pytest.mark.parametrize("tweet_id", ["", "t\t1", "t\n1"])
    def test_unwritable_tweet_id_rejected(self, tweet_id):
        with pytest.raises(ValueError, match="must be"):
            RunMatrix.from_columns({("m", "r1"): ([tweet_id], [0.5])})

    @pytest.mark.parametrize("prob", [float("nan"), -0.5, 1.5])
    def test_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValueError, match="^probability out of range: "):
            RunMatrix.from_columns({("m", "r1"): (["t1", "t2"], [0.5, prob])})


class TestProtocolAgainstRecordOracle:
    def test_twelve_runs_unsorted_specs(self, tmp_path, fixture_corpus):
        # r10..r12 sort before r2, and the specs are not given in model_id order
        train_set = Dataset.from_records(fixture_corpus.records[::2])
        eval_set = Dataset.from_records(fixture_corpus.records[1::2])
        specs = [
            ("word", BaselineConfig(ngram_range=(1, 2), feature_mode="word", feature_buckets=2**10, epochs=1, seed=9)),
            ("char", BaselineConfig(ngram_range=(2, 3), feature_buckets=2**10, epochs=1, seed=3)),
            ("l2", BaselineConfig(feature_buckets=2**10, epochs=1, l2=1e-3, seed=5)),
        ]
        runs = 12
        out = run_protocol(train_set, eval_set, specs, runs=runs, out_path=tmp_path / "p.tsv")
        records = [
            PredictionRecord(model_id, f"r{k + 1}", r.tweet_id, predict_prob(model, r.text))
            for model_id, cfg in specs
            for k in range(runs)
            for model in [train(train_set, dataclasses.replace(cfg, seed=cfg.seed + k))]
            for r in eval_set.records
        ]
        assert out.read_text(encoding="utf-8") == records_text(records)


# ------------------------------------------------------------------ properties

PROBS = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(-0.0))


@st.composite
def run_grids(draw):
    """(model, run, tweet, prob) rows with rectangular coverage; runs per model vary."""
    tweets = draw(st.lists(st.sampled_from([f"t{i}" for i in range(8)]), min_size=1, unique=True))
    models = draw(st.lists(st.sampled_from(["bert", "biobert", "roberta"]), min_size=1, unique=True))
    rows = []
    for model in models:
        runs = draw(st.lists(st.sampled_from(["r1", "r2", "r3", "r10", "x"]), min_size=1, unique=True))
        rows.extend((model, run, t, draw(PROBS)) for run in runs for t in tweets)
    return rows


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


HYPOTHESIS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestProperties:
    @HYPOTHESIS
    @given(rows=run_grids(), seed=st.integers(0, 2**16), n_files=st.integers(1, 3))
    def test_load_ignores_file_and_line_order(self, tmp_path, rows, seed, n_files):
        reference = tmp_path / "sorted.tsv"
        write_pred_file(reference, sorted(rows, key=lambda r: r[:3]))
        expected = load_predictions([reference], expected_runs=None)
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        paths = []
        for k in range(n_files):
            path = tmp_path / f"part{k}.tsv"
            write_pred_file(path, shuffled[k::n_files])
            paths.append(path)
        m = load_predictions(paths, expected_runs=None)
        assert m == expected
        assert m.keys == tuple(sorted({r[:2] for r in rows}))
        assert m.tweet_ids == tuple(sorted({r[2] for r in rows}))
        for model_id, run_id, tweet_id, prob in rows:
            cell = m.probs[m.keys.index((model_id, run_id)), m.tweet_ids.index(tweet_id)]
            assert bits(cell) == bits(prob)

    @HYPOTHESIS
    @given(rows=run_grids())
    def test_write_load_round_trip(self, tmp_path, rows):
        records = [PredictionRecord(*r) for r in rows]
        m = RunMatrix.from_records(records)
        write_predictions(m, tmp_path / "matrix.tsv")
        text = (tmp_path / "matrix.tsv").read_text(encoding="utf-8")
        assert text == records_text(records)
        again = load_predictions([tmp_path / "matrix.tsv"], expected_runs=None)
        assert again == RunMatrix.from_records(
            PredictionRecord(mm, r, t, float(f"{p:.6f}")) for mm, r, t, p in rows
        )
        write_predictions(again, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == text

    @HYPOTHESIS
    @given(rows=run_grids())
    def test_average_matches_sorted_run_order_reference_bit_for_bit(self, rows):
        m = RunMatrix.from_records(PredictionRecord(*r) for r in rows)
        prob = {r[:3]: r[3] for r in rows}
        avg = average_runs(m)
        assert list(avg) == sorted({r[0] for r in rows})
        for model_id, runs in m.runs_per_model.items():
            assert list(runs) == sorted(runs)
            for t in m.tweet_ids:
                total = 0
                for run_id in runs:
                    total = total + prob[(model_id, run_id, t)]
                assert bits(avg[model_id][t]) == bits(total / len(runs))

    @HYPOTHESIS
    @given(
        rows=run_grids(),
        labels=st.lists(st.integers(0, 1), min_size=8, max_size=8),
        min_f1=st.floats(min_value=0.0, max_value=1.0),
        threshold=st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_filter_keeps_exactly_runs_at_or_above_min_f1(self, rows, labels, min_f1, threshold):
        m = RunMatrix.from_records(PredictionRecord(*r) for r in rows)
        gold = {f"t{i}": y for i, y in enumerate(labels)}
        subset = {t: gold[t] for t in m.tweet_ids}
        prob = {r[:3]: r[3] for r in rows}
        expected = tuple(
            (model_id, run_id)
            for model_id, run_id in m.keys
            if metrics(
                confusion({t: int(prob[(model_id, run_id, t)] >= threshold) for t in m.tweet_ids}, subset)
            ).f1
            >= min_f1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if not expected:
                with pytest.raises(ValueError, match="no runs left"):
                    filter_runs(m, gold, min_f1, threshold)
                return
            kept = filter_runs(m, gold, min_f1, threshold)
        assert kept.keys == expected
        assert kept.tweet_ids == m.tweet_ids
        for i, key in enumerate(kept.keys):
            assert (kept.probs[i] == m.probs[m.keys.index(key)]).all()

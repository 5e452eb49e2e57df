import dataclasses
import math
from array import array
import random
import struct
import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe._io import truncate_ids
from adrpipe.baseline import BaselineConfig, predict_prob, run_protocol, train
from adrpipe.corpus import Dataset
from adrpipe.evaluate import ConfusionCounts, confusion, metrics
from adrpipe.predictions import (
    HEADER,
    _check_ids,
    _parse_file,
    RunMatrix,
    average_runs,
    filter_runs,
    load_predictions,
    run_scores,
    write_predictions,
)


def write_pred_file(path, rows, header=HEADER):
    lines = [header] + [f"{m}\t{r}\t{t}\t{p}" for m, r, t, p in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def grid_rows(model, runs, tweets, prob=0.5):
    return [(model, f"r{i}", t, prob) for i in range(1, runs + 1) for t in tweets]


def records_text(rows):
    """Oracle: the record writer the matrix writer replaced.

    It writes (model, run, tweet, prob) rows sorted, in the standard format.
    """
    lines = [HEADER] + [f"{m}\t{r}\t{t}\t{p:.6f}" for m, r, t, p in sorted(rows, key=lambda row: row[:3])]
    return "\n".join(lines) + "\n"


def columns_of(rows):
    """(model, run, tweet, prob) rows as the columns RunMatrix takes, in row order."""
    columns = {}
    for model_id, run_id, tweet_id, prob in rows:
        ids, probs = columns.setdefault((model_id, run_id), ([], []))
        ids.append(tweet_id)
        probs.append(prob)
    return columns


def matrix_of(rows):
    """The RunMatrix of (model, run, tweet, prob) rows."""
    return RunMatrix(columns_of(rows))


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
        assert m.probs[0][0] == 0.0
        assert m.probs[0][1] == 1.0

    def test_write_read_round_trip(self, tmp_path):
        rows = [("m", f"r{i}", f"t{j}", (i + j) / 10) for i in range(1, 3) for j in range(4)]
        out = tmp_path / "preds.tsv"
        write_predictions(matrix_of(rows), out)
        assert out.read_text(encoding="utf-8") == records_text(rows)
        m = load_predictions([out], expected_runs=2)
        assert m.probs[m.keys.index(("m", "r2"))][m.tweet_ids.index("t3")] == pytest.approx(0.5)


class TestAverageRuns:
    def test_mean_of_five(self):
        rows = [("m", f"r{i}", "t1", p) for i, p in enumerate([0.2, 0.4, 0.6, 0.8, 1.0], start=1)]
        avg = average_runs(matrix_of(rows))
        assert list(avg) == ["m"] and avg["m"].typecode == "d" and list(avg["m"]) == [pytest.approx(0.6)]

    def test_single_run_identity(self):
        m = matrix_of([("m", "r1", "t1", 0.37)])
        assert average_runs(m) == {"m": array("d", [0.37])}

    def test_run_relabeling_invariance(self):
        probs = [0.12, 0.93, 0.4]
        a = matrix_of([("m", f"r{i}", "t", p) for i, p in enumerate(probs, 1)])
        b = matrix_of([("m", f"x{i}", "t", p) for i, p in enumerate(reversed(probs), 1)])
        assert average_runs(a) == average_runs(b)

    def test_mean_within_run_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            probs = [rng.random() for _ in range(rng.randrange(1, 8))]
            m = matrix_of([("m", f"r{i}", "t", p) for i, p in enumerate(probs, 1)])
            (mean,) = average_runs(m)["m"]
            assert min(probs) <= mean <= max(probs)


class TestFilterRuns:
    def test_drops_never_positive_run(self):
        gold = {"t1": 1, "t2": 0}
        # r1 predicts the positive correctly, r2 predicts nothing positive
        m = matrix_of([("m", "r1", "t1", 0.9), ("m", "r1", "t2", 0.1),
                       ("m", "r2", "t1", 0.1), ("m", "r2", "t2", 0.1)])
        kept = filter_runs(m, gold, min_f1=0.5)
        assert kept.runs_per_model["m"] == ("r1",)

    def test_all_runs_dropped_is_error(self):
        gold = {"t1": 1}
        m = matrix_of([("m", "r1", "t1", 0.0)])
        with pytest.raises(ValueError, match="no runs left"):
            with pytest.warns(UserWarning):
                filter_runs(m, gold, min_f1=0.1)

    @pytest.mark.parametrize("min_f1, shown", [(1.5, "1.5"), (math.nan, "nan"), (-3, "-3"), (-1e-9, "-1e-09")])
    def test_min_f1_outside_unit_interval_is_error(self, min_f1, shown):
        m = matrix_of([("m", "r1", "t1", 0.9)])
        with pytest.raises(ValueError, match=rf"^min F1 must be in \[0, 1\], got {shown}$"):
            filter_runs(m, {"t1": 1}, min_f1=min_f1)

    @pytest.mark.parametrize("min_f1", [0, 0.0, 1.0])
    def test_min_f1_bounds_are_accepted(self, min_f1):
        m = matrix_of([("m", "r1", "t1", 0.9)])
        assert filter_runs(m, {"t1": 1}, min_f1=min_f1) == m

    def test_missing_gold_is_error(self):
        m = matrix_of([("m", "r1", "t1", 0.5)])
        with pytest.raises(ValueError, match="gold labels missing"):
            filter_runs(m, {"other": 1}, min_f1=0.1)

    def test_min_f1_is_checked_before_gold(self):
        m = matrix_of([("m", "r1", "t1", 0.5)])
        with pytest.raises(ValueError, match=r"^min F1 must be in \[0, 1\], got 2$"):
            filter_runs(m, {"other": 1}, min_f1=2)


class TestRunScores:
    def test_counts_each_run_in_key_order(self):
        m = matrix_of([("b", "r1", "t1", 0.5), ("b", "r1", "t2", 0.4),
                       ("a", "r2", "t1", 0.1), ("a", "r2", "t2", 0.9)])
        scores = run_scores(m, {"t1": 1, "t2": 0, "t3": 1})  # a gold label with no prediction is ignored
        assert list(scores) == [("a", "r2"), ("b", "r1")]
        assert scores == {
            ("a", "r2"): ConfusionCounts(tp=0, fp=1, tn=0, fn=1),
            ("b", "r1"): ConfusionCounts(tp=1, fp=0, tn=1, fn=0),  # 0.5 is at the threshold: positive
        }

    def test_missing_gold_names_the_sorted_tweets(self):
        tweets = [f"t{i:02d}" for i in range(12)]
        m = matrix_of([("m", "r1", t, 0.5) for t in reversed(tweets)])
        with pytest.raises(ValueError) as e:
            run_scores(m, {"t05": 1})
        missing = [t for t in tweets if t != "t05"]
        assert str(e.value) == f"gold labels missing for tweets: {', '.join(missing[:10])}, ... (1 more)"


class TestConstructor:
    def test_lays_the_columns_out_as_the_records_spell_them(self):
        columns = {("b", "r2"): (["t2", "t1"], [0.25, 0.5]), ("a", "r1"): (["t1", "t2"], [1.0, 0.0])}
        # The matrix those four records spell out, with keys and tweets sorted.
        m = RunMatrix(columns)
        assert m.keys == (("a", "r1"), ("b", "r2")) and m.tweet_ids == ("t1", "t2")
        assert m.probs == (array("d", [1.0, 0.0]), array("d", [0.5, 0.25]))
        assert m == RunMatrix({("a", "r1"): (("t2", "t1"), [0.0, 1.0]), ("b", "r2"): (("t1", "t2"), [0.5, 0.25])})

    def test_one_tweet_and_no_tweets(self):
        one = RunMatrix({("m", "r2"): (["t1"], [0.75]), ("m", "r1"): (["t1"], [0.25])})
        assert one.probs == (array("d", [0.25]), array("d", [0.75]))
        assert average_runs(one) == {"m": array("d", [0.5])}
        none = RunMatrix({("m", "r1"): ([], []), ("m", "r2"): ([], [])})
        assert none.tweet_ids == () and none.probs == (array("d"), array("d"))

    @pytest.mark.parametrize(
        "key, message",
        [
            (("", "r1"), "model_id, run_id and tweet_id must be non-empty"),
            (("m", ""), "model_id, run_id and tweet_id must be non-empty"),
            (("m\tx", "r1"), "identifier 'm\\tx' must be a string with no tab or newline"),
            (("m", "r\n1"), "identifier 'r\\n1' must be a string with no tab or newline"),
            # The loader reads in universal-newline mode, where \r ends a line too.
            (("m\r1", "r1"), "identifier 'm\\r1' must be a string with no tab or newline"),
        ],
    )
    def test_unwritable_key_rejected(self, key, message):
        with pytest.raises(ValueError) as e:
            RunMatrix({key: (["t1"], [0.5])})
        assert str(e.value) == message

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_other_line_separators_reload_unchanged(self, tmp_path, char):
        m = RunMatrix({(f"m{char}", f"r{char}1"): ([f"t{char}1", "t2"], [0.25, 0.5])})
        write_predictions(m, tmp_path / "p.tsv")
        assert load_predictions([tmp_path / "p.tsv"], expected_runs=None) == m

    @pytest.mark.parametrize("tweet_id", ["", "t\t1", "t\n1", "t\r1"])
    def test_unwritable_tweet_id_rejected(self, tweet_id):
        with pytest.raises(ValueError, match="must be"):
            RunMatrix({("m", "r1"): ([tweet_id], [0.5])})

    @pytest.mark.parametrize("prob", [float("nan"), -0.5, 1.5])
    def test_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValueError, match="^probability out of range: "):
            RunMatrix({("m", "r1"): (["t1", "t2"], [0.5, prob])})


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
            (model_id, f"r{k + 1}", r.tweet_id, predict_prob(model, r.text))
            for model_id, cfg in specs
            for k in range(runs)
            for model in [train(train_set, dataclasses.replace(cfg, seed=cfg.seed + k))]
            for r in eval_set.records
        ]
        assert out.read_text(encoding="utf-8") == records_text(records)


# ------------------------------------------------------------------ properties

PROBS = st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(-0.0))
# Where printing to 6 decimals rounds: half-way values k + 0.5 millionths and
# their float neighbours, and values below 5e-7 that print as 0.000000.
HALF_WAY = st.integers(0, 999_999).map(lambda k: (2 * k + 1) / 2_000_000)
PROBS_TO_ROUND = st.one_of(
    PROBS,
    HALF_WAY,
    HALF_WAY.map(lambda p: math.nextafter(p, 0.0)),
    HALF_WAY.map(lambda p: math.nextafter(p, 1.0)),
    st.floats(min_value=0.0, max_value=5e-7),
)


@st.composite
def run_grids(draw, probs=PROBS):
    """(model, run, tweet, prob) rows with rectangular coverage; runs per model vary."""
    tweets = draw(st.lists(st.sampled_from([f"t{i}" for i in range(8)]), min_size=1, unique=True))
    models = draw(st.lists(st.sampled_from(["bert", "biobert", "roberta"]), min_size=1, unique=True))
    rows = []
    for model in models:
        runs = draw(st.lists(st.sampled_from(["r1", "r2", "r3", "r10", "x"]), min_size=1, unique=True))
        rows.extend((model, run, t, draw(probs)) for run in runs for t in tweets)
    return rows


def per_tweet_confusions(rows, tweet_ids, gold, threshold):
    """Oracle: each run's confusion counts from a per-tweet verdict dict, through `confusion`."""
    subset = {t: gold[t] for t in tweet_ids}
    prob = {r[:3]: r[3] for r in rows}
    return {
        (model_id, run_id): confusion({t: int(prob[(model_id, run_id, t)] >= threshold) for t in tweet_ids}, subset)
        for model_id, run_id in {r[:2] for r in rows}
    }


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
            cell = m.probs[m.keys.index((model_id, run_id))][m.tweet_ids.index(tweet_id)]
            assert bits(cell) == bits(prob)

    @HYPOTHESIS
    @given(rows=run_grids(), data=st.data())
    def test_rows_are_columns_in_sorted_tweet_order(self, rows, data):
        columns = columns_of(rows)
        for key, (ids, probs) in columns.items():  # any tweet order, per key
            order = data.draw(st.permutations(range(len(ids))))
            columns[key] = ([ids[k] for k in order], [probs[k] for k in order])
        m = RunMatrix(columns)
        assert m.keys == tuple(sorted(columns))
        for key, row in zip(m.keys, m.probs):
            ids, probs = columns[key]
            by_id = dict(zip(ids, probs))
            assert type(row) is array and row.typecode == "d"
            assert [bits(p) for p in row] == [bits(by_id[t]) for t in m.tweet_ids]

    @HYPOTHESIS
    @given(rows=run_grids(PROBS_TO_ROUND), data=st.data())
    def test_constructor_keeps_the_bits_and_uses_a_sorted_column_as_its_row(self, rows, data):
        in_order = {key: (ids, array("d", probs)) for key, (ids, probs) in columns_of(sorted(rows)).items()}
        permuted = {}
        for key, (ids, probs) in in_order.items():
            order = data.draw(st.permutations(range(len(ids))))
            permuted[key] = ([ids[k] for k in order], [probs[k] for k in order])
        for columns in (in_order, permuted):
            m = RunMatrix(columns)
            for key, row in zip(m.keys, m.probs):
                assert type(row) is array and row.typecode == "d"
                assert [bits(p) for p in row] == [bits(p) for p in in_order[key][1]]
        for key, row in zip(m.keys, RunMatrix(in_order).probs):
            assert row is in_order[key][1]

    @HYPOTHESIS
    @given(rows=run_grids(st.one_of(PROBS_TO_ROUND, st.sampled_from([-0.0, 1e-07, 5e-07, 0.9999995]))))
    def test_write_after_load_keeps_every_6_decimal_text(self, tmp_path, rows):
        text = records_text(rows)  # sorted, every probability as its 6-decimal text
        (tmp_path / "p.tsv").write_text(text, encoding="utf-8")
        write_predictions(load_predictions([tmp_path / "p.tsv"], expected_runs=None), tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == text

    @HYPOTHESIS
    @given(rows=run_grids())
    def test_write_load_round_trip(self, tmp_path, rows):
        m = matrix_of(rows)
        write_predictions(m, tmp_path / "matrix.tsv")
        text = (tmp_path / "matrix.tsv").read_text(encoding="utf-8")
        assert text == records_text(rows)
        again = load_predictions([tmp_path / "matrix.tsv"], expected_runs=None)
        assert again == matrix_of((mm, r, t, float(f"{p:.6f}")) for mm, r, t, p in rows)
        write_predictions(again, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text(encoding="utf-8") == text

    @HYPOTHESIS
    @given(rows=run_grids(PROBS_TO_ROUND))
    def test_rounding_to_6_places_is_what_load_reads_back(self, tmp_path, rows):
        m = matrix_of(rows)
        write_predictions(m, tmp_path / "matrix.tsv")
        again = load_predictions([tmp_path / "matrix.tsv"], expected_runs=None)
        written = matrix_of((mm, r, t, round(p, 6)) for mm, r, t, p in rows)
        assert written == again
        assert [bits(p) for row in written.probs for p in row] == [bits(p) for row in again.probs for p in row]

    @HYPOTHESIS
    @given(rows=run_grids(PROBS_TO_ROUND))
    def test_rounding_to_6_places_writes_the_same_bytes(self, tmp_path, rows):
        # reproduce writes predictions.tsv from the rounded matrix protocol_matrix returns.
        m = matrix_of(rows)
        write_predictions(m, tmp_path / "matrix.tsv")
        write_predictions(matrix_of((mm, r, t, round(p, 6)) for mm, r, t, p in rows), tmp_path / "rounded.tsv")
        assert (tmp_path / "rounded.tsv").read_bytes() == (tmp_path / "matrix.tsv").read_bytes()

    @HYPOTHESIS
    @given(rows=run_grids())
    def test_average_matches_sorted_run_order_reference_bit_for_bit(self, rows):
        m = matrix_of(rows)
        prob = {r[:3]: r[3] for r in rows}
        avg = average_runs(m)
        assert list(avg) == sorted({r[0] for r in rows})
        for model_id, runs in m.runs_per_model.items():
            assert list(runs) == sorted(runs)
            for j, t in enumerate(m.tweet_ids):
                total = 0
                for run_id in runs:
                    total = total + prob[(model_id, run_id, t)]
                assert bits(avg[model_id][j]) == bits(total / len(runs))

    @HYPOTHESIS
    @given(
        rows=run_grids(),
        labels=st.lists(st.integers(0, 1), min_size=8, max_size=8),
        threshold=st.one_of(st.sampled_from([0.25, 0.5, 0.75]), PROBS),
    )
    def test_run_scores_equal_per_tweet_confusion(self, rows, labels, threshold):
        m = matrix_of(rows)
        gold = {f"t{i}": y for i, y in enumerate(labels)}
        scores = run_scores(m, gold, threshold)
        assert list(scores) == list(m.keys)
        assert scores == per_tweet_confusions(rows, m.tweet_ids, gold, threshold)

    @HYPOTHESIS
    @given(
        rows=run_grids(),
        labels=st.lists(st.integers(0, 1), min_size=8, max_size=8),
        min_f1=st.floats(min_value=0.0, max_value=1.0),
        threshold=st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_filter_keeps_exactly_runs_at_or_above_min_f1(self, rows, labels, min_f1, threshold):
        m = matrix_of(rows)
        gold = {f"t{i}": y for i, y in enumerate(labels)}
        oracle = per_tweet_confusions(rows, m.tweet_ids, gold, threshold)
        expected = tuple(key for key in m.keys if metrics(oracle[key]).f1 >= min_f1)
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
            assert kept.probs[i] == m.probs[m.keys.index(key)]


def from_columns_oracle(columns):
    """Oracle: the body of the classmethod `RunMatrix.from_columns`, which the one constructor
    replaced, as (keys, tweet_ids, rows); its column layout is written here as a dict lookup."""
    if not columns:
        raise ValueError("no prediction records")
    keys = tuple(sorted(columns))
    covered = {}
    distinct = []
    order = None
    for key in keys:
        ids = columns[key][0]
        if ids != order:
            order = ids
            distinct.append(set(ids))
        covered[key] = distinct[-1]
    for (model_id, run_id), tweets in covered.items():
        _check_ids(model_id, run_id)
        ids = columns[model_id, run_id][0]
        if len(tweets) == len(ids):
            continue
        seen = set()
        for tweet_id in ids:
            if tweet_id in seen:
                raise ValueError(f"duplicate prediction for model {model_id}, run {run_id}, tweet {tweet_id}")
            seen.add(tweet_id)
    all_tweets = distinct[0] if len(distinct) == 1 else set().union(*distinct)
    ragged = [key for key, tweets in covered.items() if len(tweets) != len(all_tweets)]
    if ragged:
        problems = []
        for model_id, run_id in ragged[:10]:
            missing = sorted(all_tweets - covered[model_id, run_id])
            noun = "tweet" if len(missing) == 1 else "tweets"
            problems.append(f"run {run_id} of {model_id} missing {noun} {truncate_ids(missing)}")
        if len(ragged) > 10:
            problems.append(f"... ({len(ragged) - 10} more runs)")
        raise ValueError("ragged tweet coverage: " + "; ".join(problems))
    tweet_ids = tuple(sorted(all_tweets))
    _check_ids(*tweet_ids)
    rows = []
    for key in keys:
        by_id = dict(zip(*columns[key]))
        row = array("d", [by_id[t] for t in tweet_ids])
        for p in row:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range: {p}")
        rows.append(row)
    return keys, tweet_ids, rows


WRITABLE_IDS = st.sampled_from(["m", "n", "r1", "r2", "t1", "t2", "t3", "\x1c"])
CELLS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, 0.0, 1.0]))
FAULTS = ["model id", "run id", "tweet id", "cell", "repeated tweet", "missing tweet", "no tweets", "no keys"]


@st.composite
def odd_columns(draw):
    """Columns the constructor may accept or refuse: a grid of writable ids and cells, each key's
    tweets in its own drawn order, with up to two faults drawn in. A fault is an id a file cannot
    hold (empty, tab, \\r, \\n), a cell outside [0, 1] (NaN too), a repeated or a missing tweet,
    runs with no tweets, or no runs; \\x1c, ±0.0 and 1.0 are no fault."""
    tweets = draw(st.lists(WRITABLE_IDS, min_size=1, max_size=4, unique=True))
    keys = draw(st.lists(st.tuples(WRITABLE_IDS, WRITABLE_IDS), min_size=1, max_size=11, unique=True))
    columns = {}
    for key in keys:
        ids = draw(st.permutations(tweets))
        columns[key] = (ids, draw(st.lists(CELLS, min_size=len(ids), max_size=len(ids))))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        bad_id = draw(st.sampled_from(["", "a\tb", "a\rb", "a\nb"]))
        key = draw(st.sampled_from(sorted(columns) or [("m", "r1")]))
        ids, probs = columns.pop(key, ([], []))
        j = draw(st.integers(0, max(len(ids) - 1, 0)))
        if fault in ("model id", "run id"):
            key = (bad_id, key[1]) if fault == "model id" else (key[0], bad_id)
        elif fault == "tweet id":  # renamed in every run, so coverage stays rectangular
            old = ids[j] if ids else "t1"
            columns = {k: ([bad_id if t == old else t for t in c[0]], c[1]) for k, c in columns.items()}
            ids = [bad_id if t == old else t for t in ids]
        elif fault == "cell" and ids:
            probs = [*probs[:j], draw(st.sampled_from([math.nan, 1.5, -0.5])), *probs[j + 1:]]
        elif fault == "repeated tweet" and ids:
            ids, probs = [*ids, ids[j]], [*probs, draw(CELLS)]
        elif fault == "missing tweet":
            ids, probs = ids[:j] + ids[j + 1:], probs[:j] + probs[j + 1:]
        elif fault == "no tweets":
            columns = {k: ([], []) for k in columns}
            ids, probs = [], []
        columns[key] = (ids, probs)
        if fault == "no keys":
            columns = {}
    return columns


class TestOneConstructor:
    """RunMatrix(columns) is the only way to a matrix, so what it accepts is what a file can hold."""

    @settings(max_examples=400, deadline=None)
    @given(columns=odd_columns())
    def test_accepts_exactly_what_from_columns_accepted(self, columns):
        try:
            keys, tweet_ids, rows = from_columns_oracle(columns)
        except ValueError as e:
            with pytest.raises(ValueError) as raised:
                RunMatrix(columns)
            assert str(raised.value) == str(e)
            return
        m = RunMatrix(columns)
        assert m.keys == keys and m.tweet_ids == tweet_ids
        assert [row.tobytes() for row in m.probs] == [row.tobytes() for row in rows]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=odd_columns())
    def test_every_matrix_it_accepts_reads_back_from_its_file(self, tmp_path, columns):
        try:
            m = RunMatrix(columns)
        except ValueError:
            return
        write_predictions(m, tmp_path / "p.tsv")
        if not m.tweet_ids:
            # Runs with no tweets write no line, and a file with no line holds no run: the one
            # matrix the format cannot carry. The loader refuses what is left, the header.
            with pytest.raises(ValueError, match="^no prediction records$"):
                load_predictions([tmp_path / "p.tsv"], expected_runs=None)
            return
        again = load_predictions([tmp_path / "p.tsv"], expected_runs=None)
        assert again.keys == m.keys and again.tweet_ids == m.tweet_ids
        assert [row.tobytes() for row in again.probs] == [
            array("d", [round(p, 6) for p in row]).tobytes() for row in m.probs
        ]


class TestMemory:
    """tracemalloc guards: allocation peaks, which RSS is too noisy to pin."""

    def test_write_predictions_streams(self, tmp_path):
        rng = random.Random(12)
        keys = tuple((f"model{m}", f"r{r}") for m in range(6) for r in range(1, 6))
        tweet_ids = tuple(sorted(f"tweet{i:06d}" for i in range(2000)))
        m = RunMatrix({key: (tweet_ids, [rng.random() for _ in tweet_ids]) for key in keys})
        out = tmp_path / "preds.tsv"
        tracemalloc.start()
        try:
            write_predictions(m, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 60_000 * 30
        assert peak < size / 4

    def test_loaded_matrix_holds_at_most_16_bytes_a_cell(self, tmp_path):
        # 20 runs x 3,000 tweets in sorted order, as this package writes them. Each
        # row is an array('d') of 8 bytes a cell; the rest is the tweet ids. A
        # boxed float and its list or tuple slot take 32 bytes.
        tweets = [f"tweet{j:05d}" for j in range(3000)]
        path = tmp_path / "p.tsv"
        rows = [("m", f"r{r:02d}", t, (j * 7919 % 1000) / 1000) for r in range(1, 21) for j, t in enumerate(tweets)]
        write_pred_file(path, rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = load_predictions([path], expected_runs=None)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cells = len(m.keys) * len(m.tweet_ids)
        assert cells == 60_000
        assert held / cells <= 16

    def test_parsed_columns_keep_one_string_per_tweet_id(self, tmp_path):
        ids = [f"t{i}" for i in range(50)]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_pred_file(a, [("a", r, t, 0.5) for r in ("r1", "r2") for t in ids])
        write_pred_file(b, [("b", "r1", t, 0.25) for t in reversed(ids)])
        tweet_ids = {}
        columns = {key: ids for path in (a, b) for key, ids, _ in _parse_file(path, tweet_ids)}
        a1, a2, b1 = (columns[key] for key in (("a", "r1"), ("a", "r2"), ("b", "r1")))
        assert a1 == ids and b1 == ids[::-1]
        for j, t in enumerate(a1):
            assert a2[j] is t and b1[-1 - j] is t and tweet_ids[t] is t

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe import ensemble
from adrpipe.ensemble import (
    Decisions,
    EnsembleConfig,
    EnsembleDecision,
    decide,
    read_decisions,
    single_model_decide,
    write_decisions,
)
from adrpipe.predictions import RunMatrix, average_runs
from conftest import one_run_matrix


def random_instance(rng, max_tweets=1000, n_models=3):
    tweets = [f"t{i}" for i in range(rng.randrange(1, max_tweets + 1))]
    avg = {
        f"m{j}": {t: rng.random() for t in tweets} for j in range(n_models)
    }
    gold = {t: int(rng.random() < 0.5) for t in tweets}
    return avg, gold


MODEL_IDS = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r,+"), min_size=1)
TWEET_IDS = st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1)


@st.composite
def run_columns(draw):
    """(model_id, run_id) -> (tweet ids, probabilities): one to three models, each with
    one to four runs, every run over the same one to six tweets in an order of its own."""
    models = draw(st.lists(MODEL_IDS, min_size=1, max_size=3, unique=True))
    tweets = draw(st.lists(TWEET_IDS, min_size=1, max_size=6, unique=True))
    columns = {}
    for m in models:
        for run_id in draw(st.lists(TWEET_IDS, min_size=1, max_size=4, unique=True)):
            order = draw(st.permutations(tweets))
            columns[m, run_id] = (order, [draw(st.floats(0.0, 1.0)) for _ in order])
    return columns


@st.composite
def tables_with_one_fault_or_none(draw):
    """A decisions table's columns, some with one injected fault, and the row that breaks a rule
    (None if none does): a verdict of 2, a NaN probability, a repeated tweet id, an ensemble
    value that is not the OR of its row, or the reserved model id `ensemble` (charged to row 0)."""
    models = sorted(draw(st.lists(MODEL_IDS.filter(lambda m: m != "ensemble"), min_size=1, max_size=3, unique=True)))
    tweet_ids = draw(st.lists(TWEET_IDS, min_size=1, max_size=6, unique=True))
    probs = {m: [draw(st.integers(0, 10**6)) / 10**6 for _ in tweet_ids] for m in models}  # exact in 6 decimals
    verdicts = {m: [draw(st.integers(0, 1)) for _ in tweet_ids] for m in models}
    ensemble = [int(any(row)) for row in zip(*verdicts.values())]
    fault = draw(st.sampled_from(["none", "verdict", "nan", "duplicate", "or", "reserved"]))
    row, model = draw(st.integers(0, len(tweet_ids) - 1)), draw(st.sampled_from(models))
    if fault == "verdict":
        verdicts[model][row] = 2
    elif fault == "nan":
        probs[model][row] = float("nan")
    elif fault == "duplicate" and row > 0:
        tweet_ids[row] = tweet_ids[draw(st.integers(0, row - 1))]
    elif fault == "or":
        ensemble[row] = 1 - ensemble[row]
    elif fault == "reserved":
        probs["ensemble"], verdicts["ensemble"] = [0.5] * len(tweet_ids), [0] * len(tweet_ids)
        probs, verdicts = ({m: c[m] for m in sorted(c)} for c in (probs, verdicts))  # columns stay sorted
        row = 0
    else:
        row = None
    return tweet_ids, probs, verdicts, ensemble, row


def decide_by_rows(columns, cfg):
    """One EnsembleDecision per tweet, built row by row with dicts, each model's probability
    the mean of its runs added in run_id order: the oracle of decide's per-tweet view."""
    prob = {(m, r, t): p for (m, r), (ids, probs) in columns.items() for t, p in zip(ids, probs)}
    runs = {}
    for m, r in sorted(columns):
        runs.setdefault(m, []).append(r)
    decisions = []
    for tweet_id in sorted({t for ids, _ in columns.values() for t in ids}):
        probs = {}
        for m, run_ids in runs.items():
            total = 0.0
            for r in run_ids:
                total += prob[m, r, tweet_id]
            probs[m] = total / len(run_ids)
        verdicts = {m: int(probs[m] >= cfg.threshold_for(m)) for m in probs}
        decisions.append(
            EnsembleDecision(
                tweet_id=tweet_id,
                per_model_prob=probs,
                per_model_verdict=verdicts,
                ensemble_verdict=int(any(verdicts.values())),
            )
        )
    return decisions


class TestDecide:
    def test_or_rule(self):
        avg = {"bert": {"t1": 0.4}, "biobert": {"t1": 0.7}, "clinical": {"t1": 0.2}}
        (d,) = decide(one_run_matrix(avg), EnsembleConfig())
        assert d.per_model_verdict == {"bert": 0, "biobert": 1, "clinical": 0}
        assert d.ensemble_verdict == 1

    def test_all_below_threshold(self):
        avg = {"bert": {"t1": 0.4}, "biobert": {"t1": 0.45}, "clinical": {"t1": 0.2}}
        (d,) = decide(one_run_matrix(avg), EnsembleConfig())
        assert d.ensemble_verdict == 0

    def test_raised_threshold_flips_verdict(self):
        # thresholds {bert: 0.5, biobert: 0.6, clinical: 0.6}
        cfg = EnsembleConfig(thresholds={"biobert": 0.6, "clinical": 0.6})
        avg = {"bert": {"t1": 0.2}, "biobert": {"t1": 0.55}, "clinical": {"t1": 0.1}}
        (d,) = decide(one_run_matrix(avg), cfg)
        assert d.per_model_verdict["biobert"] == 0
        assert d.ensemble_verdict == 0

    def test_decisions_sorted_by_tweet_id(self):
        avg = {"m": {"t3": 0.1, "t1": 0.9, "t2": 0.4}}
        ids = [d.tweet_id for d in decide(one_run_matrix(avg), EnsembleConfig())]
        assert ids == sorted(ids)

    def test_coverage_mismatch_is_error(self):
        # decide takes a RunMatrix, and coverage is checked where one is built.
        avg = {"a": {"t1": 0.5, "t2": 0.5}, "b": {"t1": 0.5}}
        with pytest.raises(ValueError, match="^ragged tweet coverage: run r1 of b missing tweet t2$"):
            one_run_matrix(avg)

    def test_no_models_is_error(self):
        with pytest.raises(ValueError, match="^no models to ensemble$"):
            decide(RunMatrix((), (), ()), EnsembleConfig())

    def test_probability_columns_are_the_run_averages_as_returned(self, monkeypatch):
        returned = []

        def recorded(m):
            returned.append(average_runs(m))
            return returned[-1]

        monkeypatch.setattr(ensemble, "average_runs", recorded)
        decisions = decide(one_run_matrix({"a": {"t2": 0.25, "t1": 0.75}}), EnsembleConfig())
        assert decisions.probs is returned[0]
        assert decisions.tweet_ids == ["t1", "t2"] and decisions.probs == {"a": [0.75, 0.25]}

    def test_missing_threshold_without_default(self):
        cfg = EnsembleConfig(thresholds={"a": 0.5}, default_threshold=None)
        avg = {"a": {"t1": 0.5}, "b": {"t1": 0.5}}
        with pytest.raises(ValueError, match="no threshold configured for model b"):
            decide(one_run_matrix(avg), cfg)

    def test_bad_threshold_value(self):
        with pytest.raises(ValueError, match="must be in"):
            EnsembleConfig(thresholds={"a": 1.5})


class TestSingleModel:
    def test_boundary_goes_positive(self):
        assert single_model_decide({"t1": 0.5}, 0.5) == {"t1": 1}

    def test_extremes(self):
        for threshold in (0.1, 0.5, 0.9):
            assert single_model_decide({"t": 0.0}, threshold) == {"t": 0}
            assert single_model_decide({"t": 1.0}, threshold) == {"t": 1}

    def test_threshold_monotonicity(self):
        assert single_model_decide({"t": 0.55}, 0.5) == {"t": 1}
        assert single_model_decide({"t": 0.55}, 0.6) == {"t": 0}


class TestEnsembleLaws:
    def test_union_law_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(60):
            avg, _ = random_instance(rng, max_tweets=120)
            cfg = EnsembleConfig(
                thresholds={m: rng.uniform(0.2, 0.8) for m in avg}, default_threshold=None
            )
            decisions = decide(one_run_matrix(avg), cfg)
            ens_pos = {d.tweet_id for d in decisions if d.ensemble_verdict == 1}
            member_union = set()
            for m in avg:
                verdicts = single_model_decide(avg[m], cfg.threshold_for(m))
                member_union |= {t for t, v in verdicts.items() if v == 1}
            assert ens_pos == member_union

    @settings(max_examples=100, deadline=None)
    @given(columns=run_columns(), data=st.data())
    def test_rows_of_decide_equal_the_per_tweet_oracle(self, columns, data):
        thresholds = {m: data.draw(st.floats(0.01, 0.99)) for m, _ in columns}
        cfg = EnsembleConfig(thresholds=thresholds)
        decisions = decide(RunMatrix.from_columns(columns), cfg)
        expected = decide_by_rows(columns, cfg)
        assert list(decisions) == expected
        assert [decisions[i] for i in range(len(decisions))] == expected

    def test_lowering_threshold_never_shrinks_positive_set(self):
        rng = random.Random(8)
        avg, _ = random_instance(rng, max_tweets=200)
        hi = decide(one_run_matrix(avg), EnsembleConfig(default_threshold=0.7))
        lo = decide(one_run_matrix(avg), EnsembleConfig(default_threshold=0.3))
        hi_pos = {d.tweet_id for d in hi if d.ensemble_verdict == 1}
        lo_pos = {d.tweet_id for d in lo if d.ensemble_verdict == 1}
        assert hi_pos <= lo_pos

    def test_equal_thresholds_match_max_prob_rule(self):
        rng = random.Random(9)
        for _ in range(40):
            avg, _ = random_instance(rng, max_tweets=150)
            theta = rng.uniform(0.2, 0.8)
            decisions = decide(one_run_matrix(avg), EnsembleConfig(default_threshold=theta))
            for d in decisions:
                assert d.ensemble_verdict == int(max(d.per_model_prob.values()) >= theta)

    def test_adding_a_member_never_decreases_recall(self):
        from adrpipe.evaluate import confusion, metrics

        rng = random.Random(10)
        for _ in range(30):
            avg, gold = random_instance(rng, max_tweets=150)
            smaller = {m: avg[m] for m in list(avg)[:2]}
            cfg = EnsembleConfig()
            recall_of = lambda a: metrics(
                confusion({d.tweet_id: d.ensemble_verdict for d in decide(one_run_matrix(a), cfg)}, gold)
            ).recall
            assert recall_of(avg) >= recall_of(smaller)


class TestDecisionsFile:
    def test_round_trip(self, tmp_path):
        avg = {"a": {"t1": 0.5, "t2": 0.25}, "b": {"t1": 0.125, "t2": 0.75}}
        decisions = decide(one_run_matrix(avg), EnsembleConfig())
        path = tmp_path / "decisions.tsv"
        write_decisions(decisions, path)
        again = read_decisions(path)
        assert again == decisions

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_round_trip_over_unicode(self, tmp_path, data):
        # Ids hold any character but tab and the line breaks; model ids not a comma either. A file
        # with no decision lines names no models (see test_empty_table_reads_back_with_no_models).
        models = sorted(data.draw(st.lists(MODEL_IDS, min_size=1, max_size=3, unique=True)))
        tweet_ids = data.draw(st.lists(TWEET_IDS, min_size=1, max_size=6, unique=True))
        probs = {m: [data.draw(st.floats(0.0, 1.0)) for _ in tweet_ids] for m in models}
        verdicts = {m: [data.draw(st.integers(0, 1)) for _ in tweet_ids] for m in models}
        ensemble = [int(any(row)) for row in zip(*verdicts.values())]
        write_decisions(Decisions(tweet_ids, probs, verdicts, ensemble), tmp_path / "d.tsv")
        rounded = {m: [round(p, 6) for p in column] for m, column in probs.items()}
        assert read_decisions(tmp_path / "d.tsv") == Decisions(tweet_ids, rounded, verdicts, ensemble)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=run_columns(), theta=st.floats(0.01, 0.99))
    def test_decide_table_survives_the_file_up_to_six_decimals(self, tmp_path, columns, theta):
        # read_decisions(write_decisions(d)) == d, once d's probabilities are rounded as the file rounds them.
        decisions = decide(RunMatrix.from_columns(columns), EnsembleConfig(default_threshold=theta))
        write_decisions(decisions, tmp_path / "d.tsv")
        rounded = {m: [round(p, 6) for p in column] for m, column in decisions.probs.items()}
        expected = Decisions(decisions.tweet_ids, rounded, decisions.verdicts, decisions.ensemble)
        assert read_decisions(tmp_path / "d.tsv") == expected

    def test_empty_table_reads_back_with_no_models(self, tmp_path):
        write_decisions(Decisions([], {"a": []}, {"a": []}, []), tmp_path / "d.tsv")
        assert (tmp_path / "d.tsv").read_text(encoding="utf-8") == "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
        assert read_decisions(tmp_path / "d.tsv") == Decisions([], {}, {}, [])

    def test_unknown_first_line_is_read_as_data(self, tmp_path):
        # The header is optional, so a first line that is not the header is a
        # decision line, and this one has too few fields.
        p = tmp_path / "d.tsv"
        p.write_text("bad header\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{p}: expected 4 fields at line 1")):
            read_decisions(p)

    def test_malformed_row(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("tweet_id\tmodel_probs\tmodel_verdicts\tensemble\nt1\tnope\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_decisions(p)

    def test_headerless_file_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("t1\tm:0.750000\tm:1\t1\n", encoding="utf-8")
        (d,) = read_decisions(p)
        assert d.per_model_prob == {"m": 0.75}
        assert d.ensemble_verdict == 1

    def test_unencodable_model_id_rejected(self):
        # decide builds no table that write_decisions could not write.
        with pytest.raises(ValueError, match="cannot be encoded"):
            decide(one_run_matrix({"a,b": {"t1": 0.9}}), EnsembleConfig())

    @pytest.mark.parametrize("bad", ["a,b", "a\tb", "a\nb", "a\rb"])
    def test_unencodable_model_id_leaves_no_file(self, tmp_path, bad):
        # The constructor refuses the table, so there is nothing to write.
        with pytest.raises(ValueError) as e:
            columns = {bad: [0.5, 0.5], "m": [0.5, 0.5]}, {bad: [1, 1], "m": [1, 1]}
            write_decisions(Decisions(["t1", "t2"], *columns, [1, 1]), tmp_path / "d.tsv")
        assert str(e.value) == f"model id {bad!r} cannot be encoded in a decisions file"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((["t1"], {}, {}, [0]), "a decisions table with 1 tweets must name at least one model"),
            ((["t1"], {"a": [0.9]}, {"a": [1]}, [0]), "ensemble verdict 0 is not the OR of the member verdicts"),
            ((["t1", "t1"], {"a": [0.9, 0.9]}, {"a": [1, 1]}, [1, 1]), "duplicate tweet_id 't1'"),
            (([""], {"a": [0.9]}, {"a": [1]}, [1]), "tweet_id '' cannot be encoded in a decisions file"),
            ((["t\t1"], {"a": [0.9]}, {"a": [1]}, [1]),
             "tweet_id 't\\t1' cannot be encoded in a decisions file"),
            ((["t\r1"], {"a": [0.9]}, {"a": [1]}, [1]),
             "tweet_id 't\\r1' cannot be encoded in a decisions file"),
            ((["t1"], {"": [0.9]}, {"": [1]}, [1]), "model id '' cannot be encoded in a decisions file"),
            ((["t1"], {"ensemble": [0.9]}, {"ensemble": [1]}, [1]),
             "model id 'ensemble' is reserved for the ensemble's row in the report"),
            ((["t1"], {"a": [0.9]}, {"a": [2]}, [1]), "verdicts must be 0 or 1"),
            ((["t1"], {"a": [0.9]}, {"a": [True]}, [1]), "verdicts must be 0 or 1"),
            ((["t1"], {"a": [0.9]}, {"a": [1]}, [1.0]), "verdicts must be 0 or 1"),
            ((["t1"], {"a": [float("nan")]}, {"a": [0]}, [0]), "probability out of range for model 'a'"),
            ((["t1"], {"a": [1.5]}, {"a": [1]}, [1]), "probability out of range for model 'a'"),
            ((["t1"], {"a": [-0.1]}, {"a": [0]}, [0]), "probability out of range for model 'a'"),
        ],
        ids=["tweets-without-models", "ensemble-not-the-or", "repeated-tweet-id", "empty-tweet-id", "tab-in-tweet-id", "cr-in-tweet-id",
             "empty-model-id", "reserved-model-id", "verdict-2", "verdict-true", "ensemble-float",
             "nan-prob", "prob-above-1", "negative-prob"],
    )
    def test_table_the_reader_would_reject_leaves_no_file(self, tmp_path, fields, message):
        # The constructor refuses the table, so there is nothing to write.
        with pytest.raises(ValueError) as e:
            write_decisions(Decisions(*fields), tmp_path / "d.tsv")
        assert str(e.value) == message
        assert list(tmp_path.iterdir()) == []


class TestDecisionsTable:
    def table(self, **changes):
        fields = dict(tweet_ids=["t1", "t2"], probs={"a": [0.9, 0.1], "b": [0.2, 0.3]},
                      verdicts={"a": [1, 0], "b": [0, 0]}, ensemble=[1, 0])
        return Decisions(**{**fields, **changes})

    def test_rows_are_a_view_of_the_columns(self):
        d = self.table()
        assert len(d) == 2
        assert d[1] == EnsembleDecision("t2", {"a": 0.1, "b": 0.3}, {"a": 0, "b": 0}, 0)
        assert list(d) == [d[0], d[1]]
        assert [row.per_model_prob for row in d] == [{"a": 0.9, "b": 0.2}, {"a": 0.1, "b": 0.3}]

    @pytest.mark.parametrize(
        "changes",
        [
            {"tweet_ids": ["t1"]},
            {"ensemble": [1, 0, 0]},
            {"probs": {"a": [0.9], "b": [0.2, 0.3]}},
            {"verdicts": {"a": [1, 0], "b": [0]}},
        ],
        ids=["fewer-tweet-ids", "longer-ensemble", "short-prob-column", "short-verdict-column"],
    )
    def test_columns_of_different_lengths_rejected(self, changes):
        with pytest.raises(ValueError, match="^every decision column must hold one value for each of [12] tweets$"):
            self.table(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"verdicts": {"a": [1, 0], "c": [0, 0]}},
            {"verdicts": {"a": [1, 0]}},
            {"verdicts": {"b": [0, 0], "a": [1, 0]}},
            {"probs": {"b": [0.2, 0.3], "a": [0.9, 0.1]}, "verdicts": {"b": [0, 0], "a": [1, 0]}},
        ],
        ids=["other-verdict-model", "verdict-model-missing", "verdicts-unsorted", "both-unsorted"],
    )
    def test_models_must_match_and_be_sorted(self, changes):
        with pytest.raises(ValueError, match="^probs and verdicts must name the same sorted models: "):
            self.table(**changes)


HEADER_LINE = "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
GOOD_LINE = "t1\ta:0.900000,b:0.100000\ta:1,b:0\t1\n"


class TestDecisionsFileRejects:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("t2\ta:nan,b:0.1\ta:0,b:0\t0", "probability out of range for model 'a' at line 3"),
            ("t2\ta:1.5,b:0.1\ta:1,b:0\t1", "probability out of range for model 'a' at line 3"),
            ("t2\ta:-0.1,b:0.1\ta:0,b:0\t0", "probability out of range for model 'a' at line 3"),
            ("t2\ta:0.9,b:0.1\ta:1,b:0\t0", "ensemble verdict 0 is not the OR of the member verdicts at line 3"),
            ("t2\ta:0.1,b:0.1\ta:0,b:0\t1", "ensemble verdict 1 is not the OR of the member verdicts at line 3"),
            ("t2\ta:0.1,b:0.1\ta:0,c:0\t0",
             "model_probs and model_verdicts must name the same models, each once, at line 3"),
            ("t2\ta:0.1,a:0.2\ta:0,a:0\t0",
             "model_probs and model_verdicts must name the same models, each once, at line 3"),
            ("t2\ta:0.1,c:0.1\ta:0,c:0\t0", "models differ from those at line 2 at line 3"),
            ("t2\ta:0.1\ta:0\t0", "models differ from those at line 2 at line 3"),
            ("t1\ta:0.1,b:0.1\ta:0,b:0\t0", "duplicate tweet_id 't1' at line 3"),
        ],
        ids=[
            "nan-prob", "prob-above-1", "negative-prob", "ensemble-0-with-positive-member",
            "ensemble-1-without-positive-member", "probs-verdicts-models-differ", "repeated-model",
            "models-differ-from-first-line", "model-missing", "duplicate-tweet-id",
        ],
    )
    def test_inconsistent_line_named(self, tmp_path, line, message):
        p = tmp_path / "d.tsv"
        p.write_text(HEADER_LINE + GOOD_LINE + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("\ta:0.2,b:0.1\ta:0,b:0\t0", "tweet_id '' cannot be encoded in a decisions file at line 3"),
            ("t2\t:0.7\t:1\t1", "models differ from those at line 2 at line 3"),
        ],
        ids=["empty-tweet-id", "empty-model-id-on-a-later-line"],
    )
    def test_empty_id_named(self, tmp_path, line, message):
        p = tmp_path / "d.tsv"
        p.write_text(HEADER_LINE + GOOD_LINE + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: {message}"

    @pytest.mark.parametrize("models", [":0.7\t:1", "a:0.7,:0.1\t:0,a:1"], ids=["only-model", "one-of-two"])
    def test_empty_model_id_on_the_first_line_named(self, tmp_path, models):
        p = tmp_path / "d.tsv"
        p.write_text(f"{HEADER_LINE}t1\t{models}\t1\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: model id '' cannot be encoded in a decisions file at line 2"

    @pytest.mark.parametrize("models", ["ensemble:0.7\tensemble:1", "a:0.7,ensemble:0.1\ta:1,ensemble:0"],
                             ids=["only-model", "one-of-two"])
    def test_reserved_model_id_on_the_first_line_named(self, tmp_path, models):
        p = tmp_path / "d.tsv"
        p.write_text(f"{HEADER_LINE}t1\t{models}\t1\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: model id 'ensemble' is reserved for the ensemble's row in the report at line 2"

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables_with_one_fault_or_none(), header=st.booleans(), blanks=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_reader_rejects_exactly_what_the_constructor_rejects(self, tmp_path, table, header, blanks):
        # Lines written by hand, since write_decisions takes only a table the constructor built.
        tweet_ids, probs, verdicts, ensemble, faulty_row = table
        lines, line_of_row = [HEADER_LINE] if header else [], []
        for i, tweet_id in enumerate(tweet_ids):
            if blanks[i]:
                lines.append("\n")
            line_of_row.append(len(lines) + 1)
            prob_text = ",".join(f"{m}:{column[i]:.6f}" for m, column in probs.items())
            verdict_text = ",".join(f"{m}:{column[i]}" for m, column in verdicts.items())
            lines.append(f"{tweet_id}\t{prob_text}\t{verdict_text}\t{ensemble[i]}\n")
        p = tmp_path / "d.tsv"
        p.write_text("".join(lines), encoding="utf-8")
        try:
            expected = Decisions(tweet_ids, probs, verdicts, ensemble)
        except ValueError as built:
            assert faulty_row is not None
            with pytest.raises(ValueError) as read:
                read_decisions(p)
            assert str(read.value) == f"{p}: {built} at line {line_of_row[faulty_row]}"
        else:
            assert faulty_row is None
            assert read_decisions(p) == expected

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([GOOD_LINE, "t2\ta:0.9,b:0.1\ta:1,b:0\t0\n", "t3\tnope\tnope\t0\n"], "malformed decision at line 4"),
            (["t1\tensemble:0.9\tensemble:1\t1\n", "t2\ta:0.1\ta:0\t0\n"],
             "models differ from those at line 2 at line 3"),
            ([GOOD_LINE, "t2\ta:0.9,b:0.1\ta:1,b:0\t0\n", "t3\ta:0.1,a:0.2\ta:0,a:0\t0\n"],
             "model_probs and model_verdicts must name the same models, each once, at line 4"),
            ([GOOD_LINE, "t1\ta:0.1,b:0.1\ta:0,b:0\t0\n", "t3\ta:nan,b:0.1\ta:0,b:0\t0\n"],
             "duplicate tweet_id 't1' at line 3"),
            ([GOOD_LINE, "t3\ta:nan,b:0.1\ta:0,b:0\t0\n", "t1\ta:0.1,b:0.1\ta:0,b:0\t0\n"],
             "probability out of range for model 'a' at line 3"),
        ],
        ids=["malformed-after-faulty-row", "models-differ-after-reserved-id", "repeated-model-after-faulty-row",
             "duplicate-before-nan", "nan-before-duplicate"],
    )
    def test_line_faults_first_as_met_then_the_earliest_faulty_row(self, tmp_path, lines, message):
        p = tmp_path / "d.tsv"
        p.write_text(HEADER_LINE + "".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: {message}"

    def test_faulty_row_named_past_blank_lines_without_a_header(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("\n\n" + GOOD_LINE + "\n" + "t1\ta:0.1,b:0.1\ta:0,b:0\t0\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            read_decisions(p)
        assert str(e.value) == f"{p}: duplicate tweet_id 't1' at line 5"

    def test_consistent_file_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(HEADER_LINE + GOOD_LINE + "t2\ta:0.0,b:1.0\ta:0,b:1\t1\n", encoding="utf-8")
        assert [d.tweet_id for d in read_decisions(p)] == ["t1", "t2"]

    def test_uncovered_tweets_truncated_in_message(self):
        tweets = [f"t{i:02d}" for i in range(12)]
        avg = {"a": {t: 0.5 for t in tweets}, "b": {"t00": 0.5}}
        shown = ", ".join(tweets[1:11])
        with pytest.raises(ValueError) as e:
            one_run_matrix(avg)
        assert str(e.value) == f"ragged tweet coverage: run r1 of b missing tweets {shown}, ... (1 more)"

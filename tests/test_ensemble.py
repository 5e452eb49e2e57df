import random
import re

import pytest

from adrpipe.ensemble import (
    EnsembleConfig,
    decide,
    read_decisions,
    single_model_decide,
    write_decisions,
)


def random_instance(rng, max_tweets=1000, n_models=3):
    tweets = [f"t{i}" for i in range(rng.randrange(1, max_tweets + 1))]
    avg = {
        f"m{j}": {t: rng.random() for t in tweets} for j in range(n_models)
    }
    gold = {t: int(rng.random() < 0.5) for t in tweets}
    return avg, gold


class TestDecide:
    def test_or_rule(self):
        avg = {"bert": {"t1": 0.4}, "biobert": {"t1": 0.7}, "clinical": {"t1": 0.2}}
        (d,) = decide(avg, EnsembleConfig())
        assert d.per_model_verdict == {"bert": 0, "biobert": 1, "clinical": 0}
        assert d.ensemble_verdict == 1

    def test_all_below_threshold(self):
        avg = {"bert": {"t1": 0.4}, "biobert": {"t1": 0.45}, "clinical": {"t1": 0.2}}
        (d,) = decide(avg, EnsembleConfig())
        assert d.ensemble_verdict == 0

    def test_raised_threshold_flips_verdict(self):
        # thresholds {bert: 0.5, biobert: 0.6, clinical: 0.6}
        cfg = EnsembleConfig(thresholds={"biobert": 0.6, "clinical": 0.6})
        avg = {"bert": {"t1": 0.2}, "biobert": {"t1": 0.55}, "clinical": {"t1": 0.1}}
        (d,) = decide(avg, cfg)
        assert d.per_model_verdict["biobert"] == 0
        assert d.ensemble_verdict == 0

    def test_decisions_sorted_by_tweet_id(self):
        avg = {"m": {"t3": 0.1, "t1": 0.9, "t2": 0.4}}
        ids = [d.tweet_id for d in decide(avg, EnsembleConfig())]
        assert ids == sorted(ids)

    def test_coverage_mismatch_is_error(self):
        avg = {"a": {"t1": 0.5, "t2": 0.5}, "b": {"t1": 0.5}}
        with pytest.raises(ValueError, match="different tweets"):
            decide(avg, EnsembleConfig())

    def test_missing_threshold_without_default(self):
        cfg = EnsembleConfig(thresholds={"a": 0.5}, default_threshold=None)
        avg = {"a": {"t1": 0.5}, "b": {"t1": 0.5}}
        with pytest.raises(ValueError, match="no threshold configured for model b"):
            decide(avg, cfg)

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
            decisions = decide(avg, cfg)
            ens_pos = {d.tweet_id for d in decisions if d.ensemble_verdict == 1}
            member_union = set()
            for m in avg:
                verdicts = single_model_decide(avg[m], cfg.threshold_for(m))
                member_union |= {t for t, v in verdicts.items() if v == 1}
            assert ens_pos == member_union

    def test_lowering_threshold_never_shrinks_positive_set(self):
        rng = random.Random(8)
        avg, _ = random_instance(rng, max_tweets=200)
        hi = decide(avg, EnsembleConfig(default_threshold=0.7))
        lo = decide(avg, EnsembleConfig(default_threshold=0.3))
        hi_pos = {d.tweet_id for d in hi if d.ensemble_verdict == 1}
        lo_pos = {d.tweet_id for d in lo if d.ensemble_verdict == 1}
        assert hi_pos <= lo_pos

    def test_equal_thresholds_match_max_prob_rule(self):
        rng = random.Random(9)
        for _ in range(40):
            avg, _ = random_instance(rng, max_tweets=150)
            theta = rng.uniform(0.2, 0.8)
            decisions = decide(avg, EnsembleConfig(default_threshold=theta))
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
                confusion({d.tweet_id: d.ensemble_verdict for d in decide(a, cfg)}, gold)
            ).recall
            assert recall_of(avg) >= recall_of(smaller)


class TestDecisionsFile:
    def test_round_trip(self, tmp_path):
        avg = {"a": {"t1": 0.5, "t2": 0.25}, "b": {"t1": 0.125, "t2": 0.75}}
        decisions = decide(avg, EnsembleConfig())
        path = tmp_path / "decisions.tsv"
        write_decisions(decisions, path)
        again = read_decisions(path)
        assert again == decisions

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

    def test_unencodable_model_id_rejected(self, tmp_path):
        avg = {"a,b": {"t1": 0.9}}
        decisions = decide(avg, EnsembleConfig())
        with pytest.raises(ValueError, match="cannot be encoded"):
            write_decisions(decisions, tmp_path / "d.tsv")


HEADER_LINE = "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
GOOD_LINE = "t1\ta:0.900000,b:0.100000\ta:1,b:0\t1\n"


class TestDecisionsFileRejects:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("t2\ta:nan,b:0.1\ta:0,b:0\t0", "probability out of range at line 3"),
            ("t2\ta:1.5,b:0.1\ta:1,b:0\t1", "probability out of range at line 3"),
            ("t2\ta:-0.1,b:0.1\ta:0,b:0\t0", "probability out of range at line 3"),
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

    def test_consistent_file_accepted(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(HEADER_LINE + GOOD_LINE + "t2\ta:0.0,b:1.0\ta:0,b:1\t1\n", encoding="utf-8")
        assert [d.tweet_id for d in read_decisions(p)] == ["t1", "t2"]

    def test_uncovered_tweets_truncated_in_message(self):
        tweets = [f"t{i:02d}" for i in range(12)]
        avg = {"a": {t: 0.5 for t in tweets}, "b": {"t00": 0.5}}
        shown = ", ".join(tweets[1:11])
        with pytest.raises(ValueError) as e:
            decide(avg, EnsembleConfig())
        assert str(e.value) == f"models a and b cover different tweets: {shown}, ... (1 more)"

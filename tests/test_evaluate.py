import random
import statistics

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adrpipe.ensemble import EnsembleConfig, decide
from adrpipe.evaluate import (
    AttributionBreakdown,
    ConfusionCounts,
    Metrics,
    attribution,
    attribution_table,
    confusion,
    count_cells,
    f1_from,
    metrics,
    metrics_table,
    variability,
    variability_table,
)
from conftest import one_run_matrix


class TestConfusion:
    def test_hand_count(self):
        c = confusion({"t1": 1, "t2": 0, "t3": 1}, {"t1": 1, "t2": 0, "t3": 0})
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 0)
        assert c.total == 3

    def test_all_negative_predictor(self):
        gold = {f"t{i}": i % 2 for i in range(10)}
        c = confusion({t: 0 for t in gold}, gold)
        assert c.tp == 0 and c.fp == 0
        assert c.fn == 5 and c.tn == 5

    def test_perfect_predictor(self):
        gold = {f"t{i}": i % 3 == 0 and 1 or 0 for i in range(9)}
        c = confusion(dict(gold), gold)
        assert c.fp == 0 and c.fn == 0

    def test_coverage_mismatch_lists_difference(self):
        with pytest.raises(ValueError, match="only in gold: t2"):
            confusion({"t1": 1}, {"t1": 1, "t2": 0})
        with pytest.raises(ValueError, match="only in verdicts: t3"):
            confusion({"t1": 0, "t3": 0}, {"t1": 1})

    def test_coverage_mismatch_truncates_long_id_lists(self):
        gold = {f"t{i:02d}": 0 for i in range(15)}
        with pytest.raises(ValueError) as e:
            confusion({"t00": 0, "x": 1}, gold)
        shown = ", ".join(f"t{i:02d}" for i in range(1, 11))
        assert str(e.value) == (
            f"verdict/gold coverage mismatch; only in verdicts: x; only in gold: {shown}, ... (4 more)"
        )


def if_chain_counts(verdicts, labels):
    """The counting loop `confusion` used before `count_cells`: the oracle for it."""
    tp = fp = tn = fn = 0
    for v, g in zip(verdicts, labels):
        if v == 1 and g == 1:
            tp += 1
        elif v == 1 and g == 0:
            fp += 1
        elif v == 0 and g == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


class TestCountCells:
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1))), st.booleans())
    def test_equals_the_if_chain(self, pairs, as_bool):
        verdicts = [bool(v) if as_bool else v for v, _ in pairs]
        labels = [g for _, g in pairs]
        assert count_cells(verdicts, labels) == if_chain_counts(verdicts, labels)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="^2 verdicts for 3 labels$"):
            count_cells([1, 0], [1, 0, 0])


class TestMetrics:
    def test_run_average_row(self):
        # published run-averaged precision/recall; their harmonic mean rounds to 0.618
        f1 = f1_from(0.654, 0.587)
        assert f1 == pytest.approx(0.6187, abs=5e-5)
        assert round(f1, 3) == 0.619 or round(f1, 4) == 0.6187

    def test_max_ensemble_row(self):
        assert f1_from(0.59, 0.77) == pytest.approx(0.6681, abs=5e-5)

    def test_zero_tp_scores_zero_everywhere(self):
        m = metrics(ConfusionCounts(tp=0, fp=4, tn=10, fn=6))
        assert m.precision == 0.0
        # fp > 0 means precision denominator is nonzero but the ratio is 0
        assert m.recall == 0.0 and m.f1 == 0.0

    def test_all_negative_predictor_zero_denominators(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, tn=10, fn=3))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_f1_identity_on_random_counts(self):
        rng = random.Random(1)
        for _ in range(200):
            c = ConfusionCounts(
                tp=rng.randrange(0, 50),
                fp=rng.randrange(0, 50),
                tn=rng.randrange(0, 50),
                fn=rng.randrange(0, 50),
            )
            m = metrics(c)
            if m.precision + m.recall > 0:
                expected = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(m.f1 - expected) <= 1e-12
            else:
                assert m.f1 == 0.0


def decisions_from(verdict_rows):
    """verdict_rows: tweet_id -> {model: verdict}, every row naming the same models; probs mirror verdicts."""
    from adrpipe.ensemble import Decisions

    models = sorted(next(iter(verdict_rows.values())))
    verdicts = {m: [per_model[m] for per_model in verdict_rows.values()] for m in models}
    return Decisions(
        tweet_ids=list(verdict_rows),
        probs={m: [float(v) for v in column] for m, column in verdicts.items()},
        verdicts=verdicts,
        ensemble=[int(any(per_model.values())) for per_model in verdict_rows.values()],
    )


class TestAttribution:
    def test_hand_example(self):
        rows = {
            "t1": {"bert": 1, "biobert": 0},
            "t2": {"bert": 1, "biobert": 1},
            "t3": {"bert": 0, "biobert": 1},
        }
        gold = {"t1": 1, "t2": 1, "t3": 1}
        ab = attribution(decisions_from(rows), gold)
        assert ab.tp_by_subset == {
            frozenset(["bert"]): 1,
            frozenset(["bert", "biobert"]): 1,
            frozenset(["biobert"]): 1,
        }
        assert ab.exclusive_fraction["bert"] == pytest.approx(1 / 3)
        assert ab.exclusive_fraction["biobert"] == pytest.approx(1 / 3)

    def test_unanimous_tps_have_zero_exclusive_fraction(self):
        rows = {f"t{i}": {"a": 1, "b": 1, "c": 1} for i in range(4)}
        gold = {f"t{i}": 1 for i in range(4)}
        ab = attribution(decisions_from(rows), gold)
        assert set(ab.exclusive_fraction.values()) == {0.0}

    def test_subset_counts_reconcile_on_random_instance(self):
        rng = random.Random(12)
        tweets = [f"t{i}" for i in range(200)]
        avg = {m: {t: rng.random() for t in tweets} for m in ("a", "b", "c")}
        gold = {t: int(rng.random() < 0.3) for t in tweets}
        decisions = decide(one_run_matrix(avg), EnsembleConfig())
        ab = attribution(decisions, gold)

        # brute-force recount by direct iteration
        tp = fp = 0
        missed = {m: 0 for m in ("a", "b", "c")}
        for d in decisions:
            if d.ensemble_verdict == 1:
                if gold[d.tweet_id] == 1:
                    tp += 1
                    for m, v in d.per_model_verdict.items():
                        if v == 0:
                            missed[m] += 1
                else:
                    fp += 1
        assert ab.tp_total == tp
        assert ab.fp_total == fp
        ens = confusion({d.tweet_id: d.ensemble_verdict for d in decisions}, gold)
        assert ab.tp_total == ens.tp and ab.fp_total == ens.fp
        for m in ("a", "b", "c"):
            assert ab.exclusive_fraction[m] == pytest.approx(missed[m] / tp)
        for subset in ab.tp_by_subset:
            assert subset  # never the empty set

    def test_ensemble_recall_bounds_members_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(20):
            tweets = [f"t{i}" for i in range(rng.randrange(20, 300))]
            avg = {m: {t: rng.random() for t in tweets} for m in ("a", "b", "c")}
            gold = {t: int(rng.random() < 0.25) for t in tweets}
            decisions = decide(one_run_matrix(avg), EnsembleConfig())
            ens = metrics(confusion({d.tweet_id: d.ensemble_verdict for d in decisions}, gold))
            gold_pos = {t for t, g in gold.items() if g == 1}
            member_fn_sets = []
            for m in ("a", "b", "c"):
                verdicts = {d.tweet_id: d.per_model_verdict[m] for d in decisions}
                assert ens.recall >= metrics(confusion(verdicts, gold)).recall
                member_fn_sets.append({t for t in gold_pos if verdicts[t] == 0})
            ens_fn = {
                d.tweet_id
                for d in decisions
                if gold[d.tweet_id] == 1 and d.ensemble_verdict == 0
            }
            assert ens_fn == set.intersection(*member_fn_sets)


class TestVariability:
    def test_run_f1_stdev(self):
        # sample (n-1) standard deviation of the five run F1 values, computed
        # independently: mean .618, squared deviations sum .00108, /4, sqrt
        values = [0.59, 0.63, 0.62, 0.63, 0.62]
        expected = (sum((v - 0.618) ** 2 for v in values) / 4) ** 0.5
        report = variability([Metrics(0.0, 0.0, v) for v in values], "original")
        assert report.f1_std == pytest.approx(expected)
        assert report.f1_std == pytest.approx(0.0164, abs=1e-4)

    def test_zero_variance(self):
        report = variability([Metrics(0.5, 0.5, 0.5)] * 3, "flat")
        assert report.f1_std == 0.0
        assert report.recall_std == 0.0

    def test_two_runs(self):
        report = variability(
            [Metrics(0.0, 0.1, 0.6), Metrics(0.0, 0.3, 0.8)], "pair"
        )
        assert report.f1_std == pytest.approx(0.1414, abs=5e-5)
        assert report.recall_std == pytest.approx(statistics.stdev([0.1, 0.3]))

    def test_single_run_rejected(self):
        with pytest.raises(ValueError, match="at least 2 runs"):
            variability([Metrics(0.5, 0.5, 0.5)], "solo")


class TestTables:
    def test_metrics_table_layout(self):
        table = metrics_table(
            {"bert": Metrics(0.6907, 0.6097, 0.6475), "ensemble": Metrics(0.59, 0.77, 0.6681)}
        )
        lines = table.splitlines()
        assert lines[0].split() == ["metric", "bert", "ensemble"]
        assert lines[1].startswith("F1-score")
        assert "0.6475" in lines[1] and "0.6681" in lines[1]

    def test_attribution_table_totals(self):
        ab = AttributionBreakdown(
            tp_by_subset={frozenset(["a"]): 2, frozenset(["a", "b"]): 3},
            fp_by_subset={frozenset(["b"]): 1},
            exclusive_fraction={"a": 0.0, "b": 0.4},
        )
        table = attribution_table(ab)
        assert table.splitlines()[-1].split() == ["total", "5", "1"]

    def test_variability_table_shape(self):
        reports = [
            variability([Metrics(0, 0.55, 0.59), Metrics(0, 0.61, 0.63)], "original"),
            variability([Metrics(0, 0.5, 0.6), Metrics(0, 0.5, 0.6)], "duplicated positives"),
        ]
        lines = variability_table(reports).splitlines()
        assert "F1 StDev" in lines[0] and "Recall StDev" in lines[0]
        assert lines[1].startswith("original")
        assert lines[2].startswith("duplicated positives")

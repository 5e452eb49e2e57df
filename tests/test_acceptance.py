"""Acceptance suite: one test per release criterion, each printing a PASS line
with the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``
to see them).

Criteria, in order: published-metric reconciliation, ensemble union laws,
threshold equivalence, preprocessor conformance, tokenizer conformance, the
end-to-end desk-scale protocol, the trainer gradient check, and the
variability harness.
"""

import random
import statistics
import time

import numpy as np
import pytest

from adrpipe.baseline import BaselineConfig, protocol_matrix
from adrpipe.corpus import Dataset, LabeledTweet, duplicate_positives, stratified_split
from adrpipe.ensemble import EnsembleConfig, decide
from adrpipe.evaluate import (
    Metrics,
    attribution,
    confusion,
    f1_from,
    metrics,
    variability,
    variability_table,
)
from adrpipe.predictions import load_predictions, run_scores, write_predictions
from adrpipe.preprocess import PipelineConfig, preprocess
from adrpipe.synthetic import make_synthetic_dataset
from adrpipe.tokenize import wordpiece_tokenize
from conftest import loss_and_grad, one_run_matrix


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


# -------------------------------------------------- 1. metric reconciliation

# Published (precision, recall, f1) triples this toolkit's metric arithmetic
# must reconcile with. Values published at 3-4 decimals are checked at the
# stated +/-0.002; the per-run values are published at 2 decimals, where
# rounding of P and R alone can move the recomputed F1 by up to 0.005, so
# they get the matching 2-decimal slack.
PUBLISHED_3DP = [
    ("baseline run average", 0.654, 0.587, 0.618),
    ("prior-work baseline", 0.646, 0.593, 0.618),
    ("bert", 0.6695, 0.6214, 0.6446),
    ("biobert", 0.6200, 0.5655, 0.5915),
    ("clinicalbert", 0.6180, 0.5479, 0.5809),
    ("max ensemble", 0.5663, 0.7300, 0.6378),
    ("bert preprocessed", 0.6907, 0.6097, 0.6475),
    ("biobert preprocessed", 0.6577, 0.5793, 0.6153),
    ("clinicalbert preprocessed", 0.6360, 0.6076, 0.6212),
    ("max ensemble preprocessed", 0.5900, 0.7700, 0.6681),
]
PUBLISHED_2DP = [
    ("baseline run 1", 0.64, 0.55, 0.59),
    ("baseline run 2", 0.66, 0.61, 0.63),
    ("baseline run 3", 0.64, 0.61, 0.62),
    ("baseline run 4", 0.66, 0.60, 0.63),
    ("baseline run 5", 0.67, 0.57, 0.62),
]


def test_criterion_1_metric_identity():
    t0 = time.monotonic()
    worst = 0.0
    for name, p, r, f1 in PUBLISHED_3DP:
        delta = abs(f1_from(p, r) - f1)
        worst = max(worst, delta)
        assert delta <= 0.002, (name, delta)
    worst2 = 0.0
    for name, p, r, f1 in PUBLISHED_2DP:
        delta = abs(f1_from(p, r) - f1)
        worst2 = max(worst2, delta)
        assert delta <= 0.005, (name, delta)
    report(1, f"{len(PUBLISHED_3DP)} triples within 0.002 (worst {worst:.4f}), "
              f"{len(PUBLISHED_2DP)} two-decimal triples within 0.005 (worst {worst2:.4f}), "
              f"{time.monotonic() - t0:.3f}s")


# ----------------------------------------------- 2+3. ensemble law instances


def random_instances(count=200, max_tweets=1000, n_models=3, seed=31):
    rng = random.Random(seed)
    for _ in range(count):
        tweets = [f"t{i}" for i in range(rng.randrange(1, max_tweets + 1))]
        avg = {f"m{j}": {t: rng.random() for t in tweets} for j in range(n_models)}
        gold = {t: int(rng.random() < 0.3) for t in tweets}
        theta = rng.uniform(0.2, 0.8)
        yield avg, gold, theta


def test_criterion_2_ensemble_union_laws():
    t0 = time.monotonic()
    n = 0
    for avg, gold, theta in random_instances():
        n += 1
        cfg = EnsembleConfig(default_threshold=theta)
        decisions = decide(one_run_matrix(avg), cfg)
        ens_pos = {d.tweet_id for d in decisions if d.ensemble_verdict == 1}

        member_pos = {}
        for m in avg:
            member_pos[m] = {t for t, p in avg[m].items() if p >= theta}
        assert ens_pos == set().union(*member_pos.values())

        gold_pos = {t for t, g in gold.items() if g == 1}
        ens_recall = metrics(
            confusion({d.tweet_id: d.ensemble_verdict for d in decisions}, gold)
        ).recall
        for m in avg:
            member_recall = metrics(
                confusion({t: int(t in member_pos[m]) for t in gold}, gold)
            ).recall
            assert ens_recall >= member_recall

        ens_fn = gold_pos - ens_pos
        member_fn = [gold_pos - member_pos[m] for m in avg]
        assert ens_fn == set.intersection(*member_fn)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"union/recall/FN-intersection laws on {n} instances in {elapsed:.1f}s")


def test_criterion_3_threshold_equivalence():
    t0 = time.monotonic()
    n = checked = 0
    for avg, _, theta in random_instances():
        n += 1
        decisions = decide(one_run_matrix(avg), EnsembleConfig(default_threshold=theta))
        for d in decisions:
            checked += 1
            assert d.ensemble_verdict == int(max(d.per_model_prob.values()) >= theta)
    report(3, f"OR-of-verdicts == max-prob rule on {n} instances "
              f"({checked} tweets) in {time.monotonic() - t0:.1f}s")


# ------------------------------------------------ 4. preprocessor conformance


def test_criterion_4_preprocessor_conformance(fixture_corpus, full_pipeline, tiny_lexicon):
    from adrpipe.preprocess import anonymize, drug_normalize, remove_hashtags, replace_handles

    assert anonymize("see https://t.co/abc now") == "see -URL- now"
    assert anonymize("mail john@gmail.com please") == "mail gmail.com please"
    assert replace_handles("@john thanks") == "-TH- thanks"
    assert remove_hashtags("#headache all day") == "headache all day"
    assert drug_normalize("took seroquel last night", tiny_lexicon) == "took quetiapine last night"
    assert drug_normalize("zyprexa zombie", tiny_lexicon) == "olanzapine zombie"
    cfg = PipelineConfig(lexicon=tiny_lexicon)
    assert (
        preprocess("@john check https://t.co/x #Seroquel ruined me", cfg)
        == "-th- check -url- quetiapine ruined me"
    )

    assert len(fixture_corpus) >= 200
    for r in fixture_corpus.records:
        once = preprocess(r.text, full_pipeline)
        assert preprocess(once, full_pipeline) == once
    report(4, f"stage examples exact; idempotent over {len(fixture_corpus)}-record corpus")


# --------------------------------------------------- 5. tokenizer conformance


def test_criterion_5_tokenizer_conformance(file_vocab):
    assert wordpiece_tokenize("quetiapine", file_vocab) == ["que", "##tia", "##pine"]
    assert wordpiece_tokenize("olanzapine", file_vocab) == ["o", "##lan", "##za", "##pine"]

    rng = random.Random(99)
    starts = sorted(t for t in file_vocab.tokens if not t.startswith("##") and t != "[UNK]")
    conts = sorted(t for t in file_vocab.tokens if t.startswith("##"))
    decomposed = 0
    for _ in range(1000):
        word = rng.choice(starts) + "".join(
            rng.choice(conts)[2:] for _ in range(rng.randrange(1, 4))
        )
        tokens = wordpiece_tokenize(word, file_vocab)
        if tokens == [file_vocab.unknown_token]:
            continue
        decomposed += 1
        assert tokens[0] + "".join(t[2:] for t in tokens[1:]) == word
    assert decomposed >= 950
    report(5, f"drug splits exact; {decomposed}/1000 random words decomposed, all round-trip")


# --------------------------------------------- 6. end-to-end protocol at scale


def test_criterion_6_protocol_demonstration(tmp_path, lexicon):
    t0 = time.monotonic()
    data = make_synthetic_dataset(5000, 0.08, seed=2024)
    assert len(data) == 5000
    assert data.positive_count == 400  # 8 percent

    pipe = PipelineConfig(lexicon=lexicon)
    cleaned = Dataset.from_records(
        LabeledTweet(r.tweet_id, preprocess(r.text, pipe), r.label) for r in data.records
    )
    train_set, dev_set = stratified_split(cleaned, 0.8, seed=11)
    specs = [
        ("char46", BaselineConfig(ngram_range=(4, 6), feature_mode="char", seed=500)),
        ("word12", BaselineConfig(ngram_range=(1, 2), feature_mode="word", seed=400)),
        ("char35w3", BaselineConfig(ngram_range=(3, 5), feature_mode="char", positive_weight=3, seed=700)),
    ]
    pred_path = tmp_path / "preds.tsv"
    write_predictions(protocol_matrix(train_set, dev_set, specs, runs=5), pred_path)
    matrix = load_predictions([pred_path])
    decisions = decide(matrix, EnsembleConfig())
    gold = dev_set.labels()

    member_recalls = {}
    for model_id in matrix.models:
        verdicts = {d.tweet_id: d.per_model_verdict[model_id] for d in decisions}
        member_recalls[model_id] = metrics(confusion(verdicts, gold)).recall
    ens_counts = confusion({d.tweet_id: d.ensemble_verdict for d in decisions}, gold)
    ens = metrics(ens_counts)
    best = max(member_recalls.values())
    assert ens.recall >= best
    # the frozen seeds give a strict improvement, which is the point of the demo
    assert ens.recall > best

    ab = attribution(decisions, gold)
    assert ab.tp_total == ens_counts.tp
    assert ab.fp_total == ens_counts.fp
    assert all(subset for subset in ab.tp_by_subset)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"ensemble recall {ens.recall:.4f} > best member {best:.4f}; "
              f"attribution reconciles ({ab.tp_total} TP / {ab.fp_total} FP); {elapsed:.1f}s")


# ------------------------------------------------------- 7. gradient checking


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        n, k = int(rng.integers(3, 12)), int(rng.integers(2, 9))
        X = rng.normal(size=(n, k))
        y = rng.integers(0, 2, size=n).astype(float)
        sw = np.where(y == 1, float(rng.uniform(1, 4)), 1.0)
        w = rng.normal(scale=0.5, size=k)
        b = float(rng.normal(scale=0.5))
        l2 = float(rng.choice([0.0, 0.01, 0.3]))
        _, grad_w, grad_b = loss_and_grad(w, b, X, y, sw, l2)

        h = 1e-6
        numeric = np.empty(k + 1)
        for j in range(k):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            numeric[j] = (
                loss_and_grad(wp, b, X, y, sw, l2)[0] - loss_and_grad(wm, b, X, y, sw, l2)[0]
            ) / (2 * h)
        numeric[k] = (
            loss_and_grad(w, b + h, X, y, sw, l2)[0] - loss_and_grad(w, b - h, X, y, sw, l2)[0]
        ) / (2 * h)
        analytic = np.append(grad_w, grad_b)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, rel)
        assert rel < 1e-5
    report(7, f"50 instances, worst relative gradient error {worst:.2e}")


# ----------------------------------------------------- 8. variability harness


def test_criterion_8_variability_harness(fixture_corpus):
    run_f1 = [0.59, 0.63, 0.62, 0.63, 0.62]
    run_recall = [0.55, 0.61, 0.61, 0.60, 0.57]
    per_run = [Metrics(0.0, r, f) for f, r in zip(run_f1, run_recall)]
    original = variability(per_run, "original")
    assert original.f1_std == pytest.approx(0.0164, abs=1e-4)
    assert original.f1_std == pytest.approx(statistics.stdev(run_f1))

    # drive the two classifier-side scenario knobs over repeated seeded runs (seeds 0, 1, 2)
    train_set, dev_set = stratified_split(fixture_corpus, 0.8, seed=3)

    def run_metrics(transform, **cfg_kwargs):
        spec = ("baseline", BaselineConfig(epochs=2, **cfg_kwargs))
        matrix = protocol_matrix(transform(train_set), dev_set, [spec], runs=3)
        return [metrics(c) for c in run_scores(matrix, dev_set.labels()).values()]

    reports = [
        original,
        variability(run_metrics(lambda d: d), "baseline runs"),
        variability(run_metrics(lambda d: duplicate_positives(d, 2)), "positive duplication"),
        variability(run_metrics(lambda d: d, positive_weight=3.0), "positive loss weighting"),
    ]
    table = variability_table(reports)
    lines = table.splitlines()
    assert "F1 StDev" in lines[0] and "Recall StDev" in lines[0]
    assert len(lines) == 1 + len(reports)
    for r in reports:
        assert r.f1_std >= 0.0 and r.recall_std >= 0.0
    report(8, f"five-run stdev {original.f1_std:.4f}; report rows: "
              + ", ".join(r.scenario for r in reports))

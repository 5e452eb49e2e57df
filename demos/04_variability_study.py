#!/usr/bin/env python3
"""Run-to-run variability, and two training-set/loss knobs aimed at it.

Seeded retraining of the same classifier gives visibly different dev scores
on an imbalanced corpus. This study retrains under three scenarios and
reports the sample (n-1) standard deviation of F1 and recall over the runs:

  original               the classifier as configured
  positive duplication   every positive example appears 3x in training
  positive loss weight   positive examples weigh 3x in the loss

Neither knob is a silver bullet; run averaging is what the protocol actually
relies on (demo 03).
"""

from pathlib import Path

from adrpipe import (
    BaselineConfig,
    PipelineConfig,
    confusion,
    duplicate_positives,
    load_lexicon,
    make_synthetic_dataset,
    metrics,
    preprocess,
    stratified_split,
    train,
    variability,
)
from adrpipe.baseline import predict_probs
from adrpipe.evaluate import variability_table

DATA = Path(__file__).resolve().parent.parent / "data"
RUNS = 5

data = make_synthetic_dataset(2000, 0.08, seed=77)
lexicon = load_lexicon(DATA / "drug_lexicon.tsv")
pipe = PipelineConfig(lexicon=lexicon)
cleaned = data.with_texts(preprocess(r.text, pipe) for r in data.records)
train_set, dev_set = stratified_split(cleaned, 0.8, seed=5)
gold = dev_set.labels()
print(f"train {len(train_set)} / dev {len(dev_set)}, {RUNS} seeded runs per scenario\n")


def run_scenario(transform, **cfg_kwargs):
    per_run = []
    for seed in range(RUNS):
        model = train(transform(train_set), BaselineConfig(seed=seed, **cfg_kwargs))
        probs = predict_probs(model, [r.text for r in dev_set.records])
        verdicts = {r.tweet_id: int(p >= 0.5) for r, p in zip(dev_set.records, probs)}
        per_run.append(metrics(confusion(verdicts, gold)))
    return per_run


reports = [
    variability(run_scenario(lambda d: d), "original"),
    variability(run_scenario(lambda d: duplicate_positives(d, 2)), "positive duplication (3x)"),
    variability(run_scenario(lambda d: d, positive_weight=3.0), "positive loss weight (3x)"),
]
print(variability_table(reports))

print("\nmean dev F1 per scenario, for context:")
for label, transform, kwargs in (
    ("original", lambda d: d, {}),
    ("positive duplication (3x)", lambda d: duplicate_positives(d, 2), {}),
    ("positive loss weight (3x)", lambda d: d, {"positive_weight": 3.0}),
):
    per_run = run_scenario(transform, **kwargs)
    mean_f1 = sum(m.f1 for m in per_run) / len(per_run)
    mean_recall = sum(m.recall for m in per_run) / len(per_run)
    print(f"  {label:26s} F1 {mean_f1:.4f}  recall {mean_recall:.4f}")

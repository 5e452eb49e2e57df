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
    duplicate_positives,
    load_lexicon,
    make_synthetic_dataset,
    metrics,
    preprocess,
    stratified_split,
    variability,
)
from adrpipe.baseline import protocol_matrix
from adrpipe.evaluate import variability_table
from adrpipe.predictions import run_scores

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
    """Dev metrics of RUNS seeded fits (seeds 0..RUNS-1) on the transformed training set."""
    spec = ("baseline", BaselineConfig(**cfg_kwargs))
    matrix = protocol_matrix(transform(train_set), dev_set, [spec], runs=RUNS)
    return [metrics(c) for c in run_scores(matrix, gold).values()]


scenarios = {
    "original": run_scenario(lambda d: d),
    "positive duplication (3x)": run_scenario(lambda d: duplicate_positives(d, 2)),
    "positive loss weight (3x)": run_scenario(lambda d: d, positive_weight=3.0),
}
print(variability_table([variability(per_run, label) for label, per_run in scenarios.items()]))

print("\nmean dev F1 per scenario, for context:")
for label, per_run in scenarios.items():
    mean_f1 = sum(m.f1 for m in per_run) / len(per_run)
    mean_recall = sum(m.recall for m in per_run) / len(per_run)
    print(f"  {label:26s} F1 {mean_f1:.4f}  recall {mean_recall:.4f}")

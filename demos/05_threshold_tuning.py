#!/usr/bin/env python3
"""Per-model threshold tuning, and why the uniform 0.5 is hard to beat.

The noisier members of a max-positive ensemble contribute false positives,
so raising only their thresholds looks tempting. This demo fits a threshold
choice on one split and checks it on another.

Two things to watch. First, run-averaged probabilities from a confident
linear model are bimodal, so moderate threshold moves change almost nothing;
only an aggressive cut bites. Second, raising member thresholds can only
shrink the ensemble-positive set, so recall never improves, and a gain that
shows up on the tuning split is no guarantee on held-out data. The protocol
keeps the uniform 0.5.
"""

from pathlib import Path

from adrpipe import (
    BaselineConfig,
    EnsembleConfig,
    PipelineConfig,
    average_runs,
    decide,
    load_lexicon,
    make_synthetic_dataset,
    metrics,
    preprocess,
    stratified_split,
)
from adrpipe.baseline import protocol_matrix
from adrpipe.evaluate import count_cells

DATA = Path(__file__).resolve().parent.parent / "data"

data = make_synthetic_dataset(4000, 0.08, seed=321)
lexicon = load_lexicon(DATA / "drug_lexicon.tsv")
pipe = PipelineConfig(lexicon=lexicon)
cleaned = data.with_texts(preprocess(r.text, pipe) for r in data.records)
train_set, rest = stratified_split(cleaned, 0.5, seed=1)
tune_set, test_set = stratified_split(rest, 0.5, seed=2)

specs = [
    ("char46", BaselineConfig(ngram_range=(4, 6), feature_mode="char", seed=500)),
    ("word12", BaselineConfig(ngram_range=(1, 2), feature_mode="word", seed=400)),
    ("char35w3", BaselineConfig(ngram_range=(3, 5), feature_mode="char", positive_weight=3, seed=700)),
]

print("training once, scoring the tuning and held-out splits ...\n")
splits = {}
for name, eval_set in (("tuning split", tune_set), ("held-out split", test_set)):
    splits[name] = (protocol_matrix(train_set, eval_set, specs, runs=5), eval_set.labels())

matrix_tune, _ = splits["tuning split"]
print("averaged probabilities are bimodal; tweets per model with prob in [0.5, 0.9):")
for model_id, probs in average_runs(matrix_tune).items():  # models in sorted order
    mid_band = sum(1 for p in probs if 0.5 <= p < 0.9)
    positive = sum(1 for p in probs if p >= 0.5)
    print(f"  {model_id:9s} {mid_band:3d} of {positive} positives")
print()

for theta in (0.5, 0.7, 0.9):
    cfg = EnsembleConfig(thresholds={"char46": theta, "char35w3": theta})
    print(f"== char-view thresholds at {theta} (word12 stays at 0.5) ==")
    for name in ("tuning split", "held-out split"):
        matrix, gold = splits[name]
        decisions = decide(matrix, cfg)
        m = metrics(count_cells(decisions.ensemble, [gold[t] for t in decisions.tweet_ids]))
        print(f"  {name:15s} P={m.precision:.4f} R={m.recall:.4f} F1={m.f1:.4f}")
    print()

print("the 0.9 cut buys precision on the split it was tuned on and nothing on")
print("the held-out split: tuned thresholds overfit, so 0.5 everywhere stays.")

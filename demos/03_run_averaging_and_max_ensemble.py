#!/usr/bin/env python3
"""The full protocol at desk scale, with the built-in classifier standing in
for heavyweight models.

5,000 synthetic tweets (8% report an adverse reaction) are cleaned, split
80/20, and three differently configured classifiers are each trained five
times with consecutive seeds. Per model, the five runs' probabilities are
averaged; each model then votes at threshold 0.5 and the ensemble predicts
positive if ANY member votes positive. That max-positive rule trades some
precision for recall, which is the metric that matters when missed adverse
reactions are expensive and false alarms can be filtered downstream.
"""

import statistics
from pathlib import Path

from adrpipe import (
    BaselineConfig,
    EnsembleConfig,
    PipelineConfig,
    attribution,
    decide,
    load_lexicon,
    make_synthetic_dataset,
    metrics,
    preprocess,
    stratified_split,
)
from adrpipe.baseline import protocol_matrix
from adrpipe.evaluate import attribution_table, count_cells, metrics_table
from adrpipe.predictions import run_scores

DATA = Path(__file__).resolve().parent.parent / "data"

print("generating 5,000 synthetic tweets (8% positive) ...")
data = make_synthetic_dataset(5000, 0.08, seed=2024)

lexicon = load_lexicon(DATA / "drug_lexicon.tsv")
pipe = PipelineConfig(lexicon=lexicon)
cleaned = data.with_texts(preprocess(r.text, pipe) for r in data.records)
train_set, dev_set = stratified_split(cleaned, 0.8, seed=11)
print(f"train {len(train_set)} / dev {len(dev_set)} "
      f"({dev_set.positive_count} dev positives)\n")

specs = [
    ("char46", BaselineConfig(ngram_range=(4, 6), feature_mode="char", seed=500)),
    ("word12", BaselineConfig(ngram_range=(1, 2), feature_mode="word", seed=400)),
    ("char35w3", BaselineConfig(ngram_range=(3, 5), feature_mode="char", positive_weight=3, seed=700)),
]
print("training 3 model specs x 5 seeded runs each ...")
matrix = protocol_matrix(train_set, dev_set, specs, runs=5)

gold = dev_set.labels()

print("\nper-run F1 before averaging (why averaging is worth it):")
run_f1s: dict[str, list[float]] = {}
for (model_id, _), counts in run_scores(matrix, gold).items():  # one entry per run, sorted
    run_f1s.setdefault(model_id, []).append(metrics(counts).f1)
for model_id, f1s in run_f1s.items():
    print(f"  {model_id:9s} {[f'{x:.3f}' for x in f1s]}  stdev {statistics.stdev(f1s):.4f}")

decisions = decide(matrix, EnsembleConfig())  # 0.5 everywhere
labels = [gold[t] for t in decisions.tweet_ids]

columns = {m: metrics(count_cells(verdicts, labels)) for m, verdicts in decisions.verdicts.items()}
columns["ensemble"] = metrics(count_cells(decisions.ensemble, labels))

print("\nrun-averaged members vs the max-positive ensemble:")
print(metrics_table(columns))

best = max(m.recall for name, m in columns.items() if name != "ensemble")
print(f"\nensemble recall {columns['ensemble'].recall:.4f} vs best member {best:.4f}")

print("\nwhich members caught the ensemble's positives:")
ab = attribution(decisions, gold)
print(attribution_table(ab))
print("\nshare of ensemble true positives each member MISSED (caught only by the others):")
for model_id, fraction in ab.exclusive_fraction.items():
    print(f"  {model_id:9s} {fraction:.1%}")

"""Recall-oriented evaluation: confusion counts, precision/recall/F1, run-to-run
variability, attribution of ensemble hits to member subsets, and the report.

Conventions: label 1 is the positive (ADR) class; precision and recall are 0
when their denominator is 0, so an all-negative predictor scores 0 across the
board; standard deviations use the sample (n-1) estimator.
"""

from __future__ import annotations

import operator
import time
from typing import Mapping, NamedTuple, Sequence

from . import __version__
from ._io import atomic_write, truncate_ids


class ConfusionCounts(NamedTuple):
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class Metrics(NamedTuple):
    precision: float
    recall: float
    f1: float


class AttributionBreakdown(NamedTuple):
    """Ensemble TPs and FPs partitioned by the exact set of members voting positive.

    exclusive_fraction[m] is the share of ensemble true positives that model m
    did NOT vote for, i.e. hits the rest of the ensemble contributed without it.
    """

    tp_by_subset: dict[frozenset[str], int]
    fp_by_subset: dict[frozenset[str], int]
    exclusive_fraction: dict[str, float]

    @property
    def tp_total(self) -> int:
        return sum(self.tp_by_subset.values())

    @property
    def fp_total(self) -> int:
        return sum(self.fp_by_subset.values())

    @property
    def subsets(self) -> list[frozenset[str]]:
        """Every voter subset with a TP or FP, smallest first, then by its sorted member ids.

        The printed table and the report both list subsets in this order."""
        return sorted(set(self.tp_by_subset) | set(self.fp_by_subset), key=lambda s: (len(s), sorted(s)))


class VariabilityReport(NamedTuple):
    scenario: str
    f1_std: float
    recall_std: float
    n_runs: int


def _check_coverage(tweet_ids: Sequence[str], gold: Mapping[str, int]) -> None:
    if set(tweet_ids) != set(gold):
        only_verdicts = sorted(set(tweet_ids) - set(gold))
        only_gold = sorted(set(gold) - set(tweet_ids))
        parts = []
        if only_verdicts:
            parts.append(f"only in verdicts: {truncate_ids(only_verdicts)}")
        if only_gold:
            parts.append(f"only in gold: {truncate_ids(only_gold)}")
        raise ValueError("verdict/gold coverage mismatch; " + "; ".join(parts))


def count_cells(verdicts: Sequence[int], labels: Sequence[int]) -> ConfusionCounts:
    """Count tp/fp/tn/fn over 0/1 (or bool) verdicts paired in order with 0/1 labels."""
    if len(verdicts) != len(labels):
        raise ValueError(f"{len(verdicts)} verdicts for {len(labels)} labels")
    tp = sum(map(operator.and_, verdicts, labels))
    fp = sum(verdicts) - tp
    fn = sum(labels) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=len(labels) - tp - fp - fn, fn=fn)


def confusion(verdicts: Mapping[str, int], gold: Mapping[str, int]) -> ConfusionCounts:
    """Count tp/fp/tn/fn over identical tweet sets (mismatch is an error)."""
    _check_coverage(verdicts, gold)
    return count_cells(list(verdicts.values()), [gold[t] for t in verdicts])


def metrics(c: ConfusionCounts) -> Metrics:
    """Precision, recall, and their harmonic mean (0 on empty denominators)."""
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1_from(precision, recall))


def f1_from(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def attribution(decisions, gold: Mapping[str, int]) -> AttributionBreakdown:
    """Break ensemble TPs/FPs down by which members voted positive.

    decisions is an `ensemble.Decisions`; only ensemble-positive tweets
    contribute, keyed by the frozenset of positive-voting member ids.
    """
    _check_coverage(decisions.tweet_ids, gold)
    tp_by_subset: dict[frozenset[str], int] = {}
    fp_by_subset: dict[frozenset[str], int] = {}
    tp_missed_by = dict.fromkeys(decisions.verdicts, 0)
    tp_total = 0
    for i, (tweet_id, ensemble_verdict) in enumerate(zip(decisions.tweet_ids, decisions.ensemble)):
        if ensemble_verdict != 1:
            continue
        voters = frozenset(m for m, column in decisions.verdicts.items() if column[i] == 1)
        if gold[tweet_id] == 1:
            tp_by_subset[voters] = tp_by_subset.get(voters, 0) + 1
            tp_total += 1
            for m in tp_missed_by:
                if m not in voters:
                    tp_missed_by[m] += 1
        else:
            fp_by_subset[voters] = fp_by_subset.get(voters, 0) + 1
    exclusive = {m: (n / tp_total if tp_total else 0.0) for m, n in tp_missed_by.items()}
    return AttributionBreakdown(
        tp_by_subset=tp_by_subset,
        fp_by_subset=fp_by_subset,
        exclusive_fraction=exclusive,
    )


def variability(per_run_metrics: Sequence[Metrics], scenario: str) -> VariabilityReport:
    """Sample standard deviation of F1 and recall across repeated runs."""
    import statistics  # here, so that the commands that never call this do not import it

    if len(per_run_metrics) < 2:
        raise ValueError(f"need at least 2 runs to measure variability, got {len(per_run_metrics)}")
    return VariabilityReport(
        scenario=scenario,
        f1_std=statistics.stdev(m.f1 for m in per_run_metrics),
        recall_std=statistics.stdev(m.recall for m in per_run_metrics),
        n_runs=len(per_run_metrics),
    )


def metrics_table(columns: Mapping[str, Metrics]) -> str:
    """Aligned text table: one column per model, rows F1/Precision/Recall."""
    names = list(columns)
    width = max([len(n) for n in names] + [9])
    header = " ".join(["metric   "] + [n.rjust(width) for n in names])
    rows = []
    for label, attr in (("F1-score", "f1"), ("Precision", "precision"), ("Recall", "recall")):
        cells = [f"{getattr(columns[n], attr):.4f}".rjust(width) for n in names]
        rows.append(" ".join([label.ljust(9)] + cells))
    return "\n".join([header] + rows)


def attribution_table(ab: AttributionBreakdown) -> str:
    """Aligned text table of TP/FP counts per positive-voter subset."""
    subsets = ab.subsets
    name_width = max([len(" + ".join(sorted(s))) for s in subsets] + [len("positive voters")])
    lines = [f"{'positive voters'.ljust(name_width)}  {'TP':>6} {'FP':>6}"]
    for s in subsets:
        name = " + ".join(sorted(s))
        lines.append(
            f"{name.ljust(name_width)}  {ab.tp_by_subset.get(s, 0):>6} {ab.fp_by_subset.get(s, 0):>6}"
        )
    lines.append(f"{'total'.ljust(name_width)}  {ab.tp_total:>6} {ab.fp_total:>6}")
    return "\n".join(lines)


def variability_table(reports: Sequence[VariabilityReport]) -> str:
    """Aligned text table: one row per scenario, F1 and recall StDev columns."""
    name_width = max([len(r.scenario) for r in reports] + [len("scenario")])
    lines = [f"{'scenario'.ljust(name_width)}  {'F1 StDev':>9} {'Recall StDev':>13} {'runs':>5}"]
    for r in reports:
        lines.append(
            f"{r.scenario.ljust(name_width)}  {r.f1_std:>9.4f} {r.recall_std:>13.4f} {r.n_runs:>5}"
        )
    return "\n".join(lines)


def manifest(command: str, inputs: dict, outputs: dict, config: dict, seeds: dict) -> dict:
    """Everything needed to rerun a command: echoed config, paths, seeds."""
    return {
        "tool": "adrpipe",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "config": config,
        "seeds": seeds,
    }


def _metric_row(c: ConfusionCounts) -> dict:
    m = metrics(c)
    return {
        "tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
        "precision": round(m.precision, 4),
        "recall": round(m.recall, 4),
        "f1": round(m.f1, 4),
    }


def _subset_key(s: frozenset[str]) -> str:
    return "+".join(sorted(s))


def _report_to_tsv(report: dict) -> str:
    import json

    lines = ["# manifest\t" + json.dumps(report["manifest"], sort_keys=True)]
    lines.append("row\tname\ttp\tfp\ttn\tfn\tprecision\trecall\tf1")
    for name, row in list(report["members"].items()) + [("ensemble", report["ensemble"])]:
        kind = "member" if name in report["members"] else "ensemble"
        lines.append(
            f"{kind}\t{name}\t{row['tp']}\t{row['fp']}\t{row['tn']}\t{row['fn']}"
            f"\t{row['precision']:.4f}\t{row['recall']:.4f}\t{row['f1']:.4f}"
        )
    att = report["attribution"]
    for subset in att["tp_by_subset"]:
        lines.append(
            f"attribution\t{subset}\t{att['tp_by_subset'][subset]}\t{att['fp_by_subset'][subset]}\t\t\t\t\t"
        )
    for model, frac in att["exclusive_fraction"].items():
        lines.append(f"exclusive_fraction\t{model}\t\t\t\t\t\t\t{frac:.4f}")
    return "\n".join(lines) + "\n"


def write_report(decisions, gold: Mapping[str, int], manifest: dict, thresholds: Mapping[str, float], path) -> None:
    """Score an `ensemble.Decisions` against gold, write the .json or .tsv report to `path`, print both tables."""
    import json

    ab = attribution(decisions, gold)  # checks that the decisions cover gold's tweets
    labels = [gold[t] for t in decisions.tweet_ids]
    ensemble_counts = count_cells(decisions.ensemble, labels)
    members = {m: count_cells(column, labels) for m, column in decisions.verdicts.items()}
    subsets = ab.subsets
    report = {
        "manifest": manifest,
        "thresholds": dict(thresholds),  # in full: the verdicts were cut at these, not at a rounding of them
        "members": {m: _metric_row(c) for m, c in members.items()},
        "ensemble": _metric_row(ensemble_counts),
        "attribution": {
            "tp_by_subset": {_subset_key(s): ab.tp_by_subset.get(s, 0) for s in subsets},
            "fp_by_subset": {_subset_key(s): ab.fp_by_subset.get(s, 0) for s in subsets},
            "exclusive_fraction": {m: round(v, 4) for m, v in ab.exclusive_fraction.items()},
        },
    }
    as_json = str(path).endswith(".json")
    atomic_write(path, [json.dumps(report, indent=2, sort_keys=True) + "\n" if as_json else _report_to_tsv(report)])
    columns = {m: metrics(c) for m, c in members.items()}
    columns["ensemble"] = metrics(ensemble_counts)
    print(metrics_table(columns))
    if ab.tp_by_subset or ab.fp_by_subset:
        print()
        print(attribution_table(ab))

"""Ingestion and validation of per-run positive-class probability files.

Files are tab-separated with a mandatory header:

    model_id<TAB>run_id<TAB>tweet_id<TAB>prob

Rows from any number of files are merged into a RunMatrix. Every (model, run)
pair must cover exactly the same tweet set; coverage gaps are a hard error
rather than something to impute, since silent gaps would corrupt recall.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._io import atomic_write_text, truncate_ids
from .evaluate import ConfusionCounts, metrics

HEADER = "model_id\trun_id\ttweet_id\tprob"

# (model_id, run_id) -> (tweet ids, probabilities), in the order they were produced.
_Columns = dict[tuple[str, str], tuple[list[str], list[float]]]


def _check_ids(*ids: str) -> None:
    """Reject ids a prediction file cannot hold: empty, not a string, or with a tab or newline."""
    if not all(ids):
        raise ValueError("model_id, run_id and tweet_id must be non-empty")
    for field in ids:
        if not isinstance(field, str) or "\t" in field or "\n" in field:
            raise ValueError(f"identifier {field!r} must be a string with no tab or newline")


@dataclass(frozen=True)
class PredictionRecord:
    model_id: str
    run_id: str
    tweet_id: str
    prob: float

    def __post_init__(self):
        _check_ids(self.model_id, self.run_id, self.tweet_id)
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"probability out of range: {self.prob}")


@dataclass(frozen=True, eq=False)
class RunMatrix:
    """Validated probabilities with rectangular coverage.

    probs[i, j] is the probability that run keys[i] = (model_id, run_id) gave
    tweet tweet_ids[j]; keys and tweet_ids are sorted, so a model's runs are
    adjacent rows in run_id order. One row per run rather than a models x
    runs x tweets tensor, because models may have different run counts.
    """

    keys: tuple[tuple[str, str], ...]
    tweet_ids: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (len(self.keys), len(self.tweet_ids)):
            raise ValueError(
                f"probs has shape {self.probs.shape}, expected "
                f"{(len(self.keys), len(self.tweet_ids))}"
            )
        self.probs.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, RunMatrix):
            return NotImplemented
        return (
            self.keys == other.keys
            and self.tweet_ids == other.tweet_ids
            and np.array_equal(self.probs, other.probs)
        )

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(m for m, _ in self.keys))

    @property
    def runs_per_model(self) -> dict[str, tuple[str, ...]]:
        runs: dict[str, list[str]] = {}
        for model_id, run_id in self.keys:
            runs.setdefault(model_id, []).append(run_id)
        return {m: tuple(r) for m, r in runs.items()}

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord]) -> "RunMatrix":
        columns: _Columns = {}
        for rec in records:
            ids, probs = columns.setdefault((rec.model_id, rec.run_id), ([], []))
            ids.append(rec.tweet_id)
            probs.append(rec.prob)
        return cls.from_columns(columns)

    @classmethod
    def from_columns(cls, columns: _Columns) -> "RunMatrix":
        """The one constructor every producer (loader, run_protocol, `baseline predict`) uses.

        Checks ids, duplicate tweets within a key, rectangular coverage and
        the [0, 1] range (NaN included), then lays the columns out as sorted rows.
        """
        if not columns:
            raise ValueError("no prediction records")
        keys = tuple(sorted(columns))
        covered = {key: set(columns[key][0]) for key in keys}
        for (model_id, run_id), tweets in covered.items():
            _check_ids(model_id, run_id)
            ids = columns[model_id, run_id][0]
            if len(tweets) == len(ids):
                continue
            seen: set[str] = set()
            for tweet_id in ids:
                if tweet_id in seen:
                    raise ValueError(
                        f"duplicate prediction for model {model_id}, run {run_id}, tweet {tweet_id}"
                    )
                seen.add(tweet_id)

        all_tweets = set().union(*covered.values())
        problems = []
        for (model_id, run_id), tweets in covered.items():
            if len(tweets) != len(all_tweets):
                missing = sorted(all_tweets - tweets)
                noun = "tweet" if len(missing) == 1 else "tweets"
                problems.append(f"run {run_id} of {model_id} missing {noun} {truncate_ids(missing)}")
        if problems:
            raise ValueError("ragged tweet coverage: " + "; ".join(problems))

        tweet_ids = tuple(sorted(all_tweets))
        _check_ids(*tweet_ids)
        column_of = {t: j for j, t in enumerate(tweet_ids)}
        probs = np.empty((len(keys), len(tweet_ids)))
        order: list[str] = []
        index: list[int] = []
        for i, key in enumerate(keys):
            ids, values = columns[key]
            if ids != order:  # runs written in the same tweet order share one index
                order, index = ids, [column_of[t] for t in ids]
            probs[i, index] = values
        outside = probs[~((probs >= 0.0) & (probs <= 1.0))]
        if outside.size:
            raise ValueError(f"probability out of range: {outside[0]}")
        return cls(keys=keys, tweet_ids=tweet_ids, probs=probs)


def _parse_file(path: str | Path, columns: _Columns) -> None:
    """Append each line's tweet id and probability to its (model, run) column."""
    with open(path, encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
        if first != HEADER:
            raise ValueError(f"{path}: missing or malformed header (expected {HEADER!r})")
        key = None
        for lineno, line in enumerate(f, start=2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                if fields == [""]:
                    continue
                raise ValueError(f"{path}: expected 4 fields at line {lineno}")
            model_id, run_id, tweet_id, prob_text = fields
            try:
                prob = float(prob_text)
            except ValueError:
                raise ValueError(f"{path}: bad probability {prob_text!r} at line {lineno}") from None
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{path}: probability out of range at line {lineno}: {prob_text}")
            if not (model_id and run_id and tweet_id):
                raise ValueError(
                    f"{path}: model_id, run_id and tweet_id must be non-empty at line {lineno}"
                )
            if (model_id, run_id) != key:
                key = (model_id, run_id)
                ids, probs = columns.setdefault(key, ([], []))
            ids.append(tweet_id)
            probs.append(prob)


def load_predictions(paths: Sequence[str | Path], expected_runs: int | None = 5) -> RunMatrix:
    """Parse and merge prediction files into a validated RunMatrix.

    Warns (without failing) when a model's run count differs from
    expected_runs; pass None to skip that check.
    """
    columns: _Columns = {}
    for path in paths:
        _parse_file(path, columns)
    matrix = RunMatrix.from_columns(columns)
    if expected_runs is not None:
        for model_id, runs in matrix.runs_per_model.items():
            if len(runs) != expected_runs:
                warnings.warn(
                    f"model {model_id} has {len(runs)} runs (expected {expected_runs})",
                    stacklevel=2,
                )
    return matrix


def write_predictions(m: RunMatrix, path: str | Path) -> None:
    """Write every cell of a RunMatrix in the standard format.

    The rows and tweet ids are sorted, so lines come out sorted by
    (model_id, run_id, tweet_id) and the file is byte-stable.
    """
    lines = [HEADER]
    for (model_id, run_id), probs in zip(m.keys, m.probs):
        prefix = f"{model_id}\t{run_id}\t"
        lines.extend(f"{prefix}{t}\t{p:.6f}" for t, p in zip(m.tweet_ids, probs.tolist()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def average_runs(m: RunMatrix) -> dict[str, dict[str, float]]:
    """Arithmetic mean of each model's runs, per tweet.

    Runs are added one row at a time in sorted run_id order, starting from
    +0.0 as sum() does, then divided once, so the result is bit-identical to
    summing in that order no matter how the files were loaded.
    """
    rows: dict[str, list[int]] = {}
    for i, (model_id, _) in enumerate(m.keys):
        rows.setdefault(model_id, []).append(i)
    out: dict[str, dict[str, float]] = {}
    for model_id, idx in rows.items():
        total = np.zeros(len(m.tweet_ids))
        for i in idx:
            total += m.probs[i]
        out[model_id] = dict(zip(m.tweet_ids, (total / len(idx)).tolist()))
    return out


def filter_runs(
    m: RunMatrix,
    gold: Mapping[str, int],
    min_f1: float,
    threshold: float = 0.5,
) -> RunMatrix:
    """Drop runs whose standalone F1 against gold falls below min_f1.

    This is the screen for runs that never converged (an all-negative run
    scores F1 = 0 and is excluded by any positive min_f1). Models losing all
    their runs are dropped with a warning; an empty result is an error.
    """
    missing = sorted(t for t in m.tweet_ids if t not in gold)
    if missing:
        raise ValueError(f"gold labels missing for tweets: {truncate_ids(missing)}")
    labels = np.array([gold[t] for t in m.tweet_ids])
    positive, negative = labels == 1, labels == 0
    voted = m.probs >= threshold
    tp = (voted & positive).sum(axis=1).tolist()
    fp = (voted & negative).sum(axis=1).tolist()
    tn = (~voted & negative).sum(axis=1).tolist()
    n = len(m.tweet_ids)
    keep = [
        metrics(ConfusionCounts(tp=a, fp=b, tn=c, fn=n - a - b - c)).f1 >= min_f1
        for a, b, c in zip(tp, fp, tn)
    ]
    kept_models = {model_id for (model_id, _), k in zip(m.keys, keep) if k}
    dropped_models = [model_id for model_id in m.models if model_id not in kept_models]
    if dropped_models:
        warnings.warn(
            f"all runs below min F1 {min_f1} for: {', '.join(dropped_models)}",
            stacklevel=2,
        )
    if not kept_models:
        raise ValueError(f"no runs left after filtering at min F1 {min_f1}")
    return RunMatrix(
        keys=tuple(key for key, k in zip(m.keys, keep) if k),
        tweet_ids=m.tweet_ids,
        probs=m.probs[np.array(keep)],
    )

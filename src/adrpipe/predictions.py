"""Ingestion and validation of per-run positive-class probability files.

Files are tab-separated with a mandatory header:

    model_id<TAB>run_id<TAB>tweet_id<TAB>prob

Rows from any number of files are merged into a RunMatrix. Every (model, run)
pair must cover exactly the same tweet set; coverage gaps are a hard error
rather than something to impute, since silent gaps would corrupt recall.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from array import array
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ._io import Frozen, as_cells, atomic_write, lines_of, require_blank, truncate_ids
from .evaluate import ConfusionCounts, count_cells, metrics

HEADER = "model_id\trun_id\ttweet_id\tprob"

# (model_id, run_id) -> (tweet ids, probabilities), in the order they were produced.
_Columns = dict[tuple[str, str], tuple[Sequence[str], Sequence[float]]]


def _check_ids(*ids: str) -> None:
    """Reject ids a prediction file cannot hold: empty, not a string, or with a tab or line break.

    The loader reads files in universal-newline mode, so a carriage return
    ends a line just as a newline does.
    """
    if not all(ids):
        raise ValueError("model_id, run_id and tweet_id must be non-empty")
    for field in ids:
        if not isinstance(field, str) or "\t" in field or "\n" in field or "\r" in field:
            raise ValueError(f"identifier {field!r} must be a string with no tab or newline")


class RunMatrix(Frozen):
    """Validated probabilities with rectangular coverage.

    probs[i][j] is the probability that run keys[i] = (model_id, run_id) gave
    tweet tweet_ids[j]; keys and tweet_ids are strictly increasing (checked),
    so a model's runs are adjacent rows in run_id order. One row per run
    rather than a models x runs x tweets tensor, because models may have
    different run counts. Rows are `array('d')`: 8 bytes a cell, against 32
    for a boxed float and its slot, and the same IEEE double. The arithmetic
    here is a few comparisons, sums and one division per cell, which plain
    Python does bit for bit as numpy would. Rows given as other sequences
    are copied into arrays; an array row is kept as it is, so it may be the
    very array its producer parsed, and must not be changed.
    """

    _fields = ("keys", "tweet_ids", "probs")

    def __init__(self, keys: tuple[tuple[str, str], ...], tweet_ids: tuple[str, ...], probs: Sequence[Sequence[float]]):
        self._set(keys=keys, tweet_ids=tweet_ids, probs=tuple(map(as_cells, probs)))
        width = len(self.tweet_ids)
        if len(self.probs) != len(self.keys) or any(len(row) != width for row in self.probs):
            raise ValueError(
                f"probs must be {len(self.keys)} rows of {width} probabilities, "
                f"got rows of {[len(row) for row in self.probs]}"
            )
        for name in ("keys", "tweet_ids"):  # neighbours compared in place: no copy, no set
            ids = getattr(self, name)
            if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))):
                raise ValueError(f"RunMatrix {name} must be strictly increasing")

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
    def from_columns(cls, columns: _Columns) -> "RunMatrix":
        """The one constructor every producer (loader, run_protocol, `baseline predict`) uses.

        Checks ids, duplicate tweets within a key, rectangular coverage and
        the [0, 1] range (NaN included), then lays the columns out as sorted
        rows. A column whose ids already come in sorted order, as in every
        file this package writes, is its row: an `array('d')` is used as it
        is, any other sequence is copied into one.
        """
        if not columns:
            raise ValueError("no prediction records")
        keys = tuple(sorted(columns))
        covered: dict[tuple[str, str], set[str]] = {}
        distinct: list[set[str]] = []
        order = None
        for key in keys:
            ids = columns[key][0]
            if ids != order:  # runs written in the same tweet order share one set
                order = ids
                distinct.append(set(ids))
            covered[key] = distinct[-1]
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

        all_tweets = distinct[0] if len(distinct) == 1 else set().union(*distinct)
        ragged = [key for key, tweets in covered.items() if len(tweets) != len(all_tweets)]
        if ragged:  # the first 10 runs are named, as truncate_ids names 10 ids, and the rest counted
            problems = []
            for model_id, run_id in ragged[:10]:
                missing = sorted(all_tweets - covered[model_id, run_id])
                noun = "tweet" if len(missing) == 1 else "tweets"
                problems.append(f"run {run_id} of {model_id} missing {noun} {truncate_ids(missing)}")
            if len(ragged) > 10:
                problems.append(f"... ({len(ragged) - 10} more runs)")
            raise ValueError("ragged tweet coverage: " + "; ".join(problems))

        tweet_ids = tuple(sorted(all_tweets))
        _check_ids(*tweet_ids)
        rows = []
        order = None
        for key in keys:
            ids, values = columns[key]
            if ids != order:  # runs written in the same tweet order share one layout
                order, layout = ids, _layout(ids, tweet_ids)
            row = layout(values)
            for p in row:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"probability out of range: {p}")
            rows.append(row)
        return cls(keys=keys, tweet_ids=tweet_ids, probs=tuple(rows))


def _layout(ids: Sequence[str], tweet_ids: tuple[str, ...]):
    """A function that takes a column in `ids` order to an `array('d')` in `tweet_ids` order.

    `ids` holds each of `tweet_ids` once. Where it is already in that order, as
    in every file this package writes and always for one or no tweets, the
    column is its own row; otherwise itemgetter gets the two or more indices
    it needs to return a tuple.
    """
    if all(map(operator.eq, ids, tweet_ids)):
        return as_cells
    position = {t: k for k, t in enumerate(ids)}
    get = operator.itemgetter(*map(position.__getitem__, tweet_ids))
    return lambda values: array("d", get(values))


def _parse_file(path: str | Path, tweet_ids: dict[str, str]) -> Iterator[tuple[tuple[str, str], list[str], array]]:
    """Each stretch of consecutive lines with one (model, run) key: the key, its tweet ids and probabilities.

    `tweet_ids` maps each tweet id seen so far to the one string kept for it,
    so an id that 30 runs repeat is stored once, not 30 times. A stretch's
    probabilities are gathered in a list and moved into an `array('d')` at
    its end: `array.append` costs more a call than `list.append`. Each line
    is split and unpacked here, with no tuple or generator step per line;
    the probability keeps the line's "\n", which float() ignores.
    """
    intern = tweet_ids.setdefault
    model = run = None
    ids: list[str] = []
    probs: list[float] = []
    with lines_of(path, HEADER, header_required=True) as (lines, start):
        for lineno, line in enumerate(lines, start):
            try:
                model_id, run_id, tweet_id, prob_text = line.split("\t")
            except ValueError:
                require_blank(path, 4, lineno, line)
                continue
            try:
                prob = float(prob_text)
            except ValueError:
                text = prob_text.rstrip("\n")
                raise ValueError(f"{path}: bad probability {text!r} at line {lineno}") from None
            if not 0.0 <= prob <= 1.0:
                text = prob_text.rstrip("\n")
                raise ValueError(f"{path}: probability out of range at line {lineno}: {text}")
            if not (model_id and run_id and tweet_id):
                raise ValueError(
                    f"{path}: model_id, run_id and tweet_id must be non-empty at line {lineno}"
                )
            if run_id != run or model_id != model:  # no key tuple per line
                if ids:
                    yield (model, run), ids, array("d", probs)
                model, run = model_id, run_id
                ids, probs = [], []
            ids.append(intern(tweet_id, tweet_id))
            probs.append(prob)
    if ids:
        yield (model, run), ids, array("d", probs)


def load_predictions(paths: Sequence[str | Path], expected_runs: int | None = 5) -> RunMatrix:
    """Parse and merge prediction files into a validated RunMatrix.

    Warns (without failing) when a model's run count differs from
    expected_runs; pass None to skip that check.
    """
    # A list is never changed once parsed, so a stretch whose ids equal the
    # previous stretch's can share its list: the runs of a file written in one
    # tweet order then hold one list of ids between them, not one each.
    stretches: dict[tuple[str, str], list[tuple[list[str], array]]] = {}
    tweet_ids: dict[str, str] = {}
    last: list[str] = []
    for path in paths:
        for key, ids, probs in _parse_file(path, tweet_ids):
            if ids == last:
                ids = last
            stretches.setdefault(key, []).append((ids, probs))
            last = ids
    matrix = RunMatrix.from_columns({key: _join(parts) for key, parts in stretches.items()})
    if expected_runs is not None:
        for model_id, runs in matrix.runs_per_model.items():
            if len(runs) != expected_runs:
                warnings.warn(
                    f"model {model_id} has {len(runs)} runs (expected {expected_runs})",
                    stacklevel=2,
                )
    return matrix


def _join(parts: list[tuple[list[str], array]]) -> tuple[list[str], array]:
    """One column from a run's stretches, in file order; a run met in one stretch is that stretch."""
    if len(parts) == 1:
        return parts[0]
    ids: list[str] = []
    probs = array("d")
    for part_ids, part_probs in parts:
        ids += part_ids
        probs += part_probs
    return ids, probs


def write_predictions(m: RunMatrix, path: str | Path) -> None:
    """Write every cell of a RunMatrix in the standard format.

    The rows and tweet ids are sorted, so lines come out sorted by
    (model_id, run_id, tweet_id) and the file is byte-stable. The file is
    streamed one (model, run) row at a time.
    """
    atomic_write(path, _prediction_chunks(m))


def _prediction_chunks(m: RunMatrix) -> Iterator[str]:
    yield HEADER + "\n"
    for (model_id, run_id), probs in zip(m.keys, m.probs):
        prefix = f"{model_id}\t{run_id}\t"
        yield "".join([f"{prefix}{t}\t{p:.6f}\n" for t, p in zip(m.tweet_ids, probs)])


def average_runs(m: RunMatrix) -> dict[str, array]:
    """Arithmetic mean of each model's runs: one `array('d')` per model, in `m.tweet_ids` order.

    Runs are added one row at a time in sorted run_id order, starting from
    +0.0 as sum() does, then divided once, so the result is bit-identical to
    summing in that order no matter how the files were loaded.
    """
    rows: dict[str, list[array]] = {}
    for (model_id, _), row in zip(m.keys, m.probs):
        rows.setdefault(model_id, []).append(row)
    out: dict[str, array] = {}
    for model_id, model_rows in rows.items():
        total = [0.0] * len(m.tweet_ids)
        for row in model_rows:
            total = list(map(operator.add, total, row))
        n = len(model_rows)
        out[model_id] = array("d", [t / n for t in total])
    return out


def run_scores(m: RunMatrix, gold: Mapping[str, int], threshold: float = 0.5) -> dict[tuple[str, str], ConfusionCounts]:
    """Each run's confusion counts against gold at `threshold`, keyed by (model_id, run_id) in `m.keys` order."""
    missing = sorted(t for t in m.tweet_ids if t not in gold)
    if missing:
        raise ValueError(f"gold labels missing for tweets: {truncate_ids(missing)}")
    labels = [gold[t] for t in m.tweet_ids]
    return {key: count_cells([p >= threshold for p in row], labels) for key, row in zip(m.keys, m.probs)}


def check_min_f1(min_f1: float) -> None:
    """Reject a min F1 outside [0, 1] or NaN, which would keep or drop every run."""
    if not 0.0 <= min_f1 <= 1.0:
        raise ValueError(f"min F1 must be in [0, 1], got {min_f1}")


def filter_runs(
    m: RunMatrix,
    gold: Mapping[str, int],
    min_f1: float,
    threshold: float = 0.5,
) -> RunMatrix:
    """Drop runs whose standalone F1 against gold (`run_scores`) falls below min_f1.

    This is the screen for runs that never converged (an all-negative run
    scores F1 = 0 and is excluded by any positive min_f1). Models losing all
    their runs are dropped with a warning; an empty result is an error. So is
    a min_f1 that `check_min_f1` rejects.
    """
    check_min_f1(min_f1)
    keep = [metrics(c).f1 >= min_f1 for c in run_scores(m, gold, threshold).values()]
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
        probs=tuple(row for row, k in zip(m.probs, keep) if k),
    )

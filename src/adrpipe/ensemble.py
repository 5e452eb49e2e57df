"""Max-positive ensembling of run-averaged probabilities.

Each model's averaged probability is thresholded into a 0/1 verdict
(prob >= threshold counts as positive; the boundary goes to the positive
side because recall is the metric that matters here), and the ensemble
predicts positive if any member does. With equal thresholds this is the
same as comparing the max of the averaged probabilities to the threshold.
"""

from __future__ import annotations

import re
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from ._io import Frozen, as_cells, atomic_write, chunked, lines_of, quote_field, require_blank

if TYPE_CHECKING:
    from .predictions import RunMatrix

DECISIONS_HEADER = "tweet_id\tmodel_probs\tmodel_verdicts\tensemble"
RESERVED_MODEL_ID = "ensemble"  # the report's name for the ensemble's own row


class EnsembleConfig(Frozen):
    """Per-model thresholds in (0,1); default_threshold fills in unlisted models.

    Set default_threshold=None to require an explicit threshold per model.
    """

    _fields = ("thresholds", "default_threshold")

    def __init__(self, thresholds: dict[str, float] | None = None, default_threshold: float | None = 0.5):
        self._set(thresholds={} if thresholds is None else thresholds, default_threshold=default_threshold)
        for model_id, t in self.thresholds.items():
            if not 0.0 < t < 1.0:
                raise ValueError(f"threshold for {model_id} must be in (0, 1), got {t}")
        if self.default_threshold is not None and not 0.0 < self.default_threshold < 1.0:
            raise ValueError(f"default threshold must be in (0, 1), got {self.default_threshold}")

    def thresholds_for(self, model_ids: Iterable[str]) -> dict[str, float]:
        """Each model's threshold, in sorted model order: the check to make before any work on the models.
        A threshold for a model not in model_ids (a misspelt id, which would leave its model on the
        default) is an error, and so is a model with none: the first, in that order, is named."""
        model_ids = sorted(model_ids)
        unknown = sorted(set(self.thresholds) - set(model_ids))
        if unknown:
            raise ValueError(
                f"threshold for unknown model {', '.join(map(repr, unknown))} (models: {', '.join(model_ids)})"
            )
        return {m: self.threshold_for(m) for m in model_ids}

    def threshold_for(self, model_id: str) -> float:
        if model_id in self.thresholds:
            return self.thresholds[model_id]
        if self.default_threshold is None:
            raise ValueError(f"no threshold configured for model {model_id}")
        return self.default_threshold


class EnsembleDecision(NamedTuple):
    tweet_id: str
    per_model_prob: dict[str, float]
    per_model_verdict: dict[str, int]
    ensemble_verdict: int


class RowError(ValueError):
    """A `Decisions` rule broken; `row` is the first row of the table that breaks one."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class Decisions(Frozen):
    """Every ensemble decision as columns: probs and verdicts map each model id,
    in sorted order, to one value per tweet, so every row names the same
    models. Each probability column is an `array('d')`, 8 bytes a cell; one
    given as another sequence is copied into one. Indexing or iterating builds
    `EnsembleDecision` rows on demand.

    A table is valid by construction: the constructor holds every rule of the
    decisions file and its report, so the rules hold for the table as built.
    The first row that breaks one raises `RowError`; a bad model id counts
    as row 0's fault."""

    _fields = ("tweet_ids", "probs", "verdicts", "ensemble")

    def __init__(
        self, tweet_ids: list[str], probs: dict[str, array], verdicts: dict[str, list[int]], ensemble: list[int]
    ):
        if not all(isinstance(column, array) and column.typecode == "d" for column in probs.values()):
            probs = {m: as_cells(column) for m, column in probs.items()}
        self._set(tweet_ids=tweet_ids, probs=probs, verdicts=verdicts, ensemble=ensemble)
        models, n = list(self.probs), len(self.tweet_ids)
        if models != sorted(models) or list(self.verdicts) != models:
            raise ValueError(f"probs and verdicts must name the same sorted models: {models}, {list(self.verdicts)}")
        if any(len(c) != n for c in (self.ensemble, *self.probs.values(), *self.verdicts.values())):
            raise ValueError(f"every decision column must hold one value for each of {n} tweets")
        if n and not models:
            raise ValueError(f"a decisions table with {n} tweets must name at least one model")
        try:
            check_model_ids(models)
        except ValueError as e:
            raise RowError(str(e), 0) from None
        seen: set[str] = set()
        rows = zip(self.tweet_ids, self.ensemble, zip(*self.verdicts.values()), zip(*self.probs.values()))
        for row, (tweet_id, ens, verdicts, probs) in enumerate(rows):
            if not tweet_id or "\t" in tweet_id or "\n" in tweet_id or "\r" in tweet_id:
                raise RowError(f"tweet_id {quote_field(tweet_id)} cannot be encoded in a decisions file", row)
            if tweet_id in seen:
                raise RowError(f"duplicate tweet_id {quote_field(tweet_id)}", row)
            seen.add(tweet_id)
            # True and 1.0 equal 1, but the file would hold "True" and "1.0".
            if not all(type(v) is int and 0 <= v <= 1 for v in (ens, *verdicts)):
                raise RowError("verdicts must be 0 or 1", row)
            for m, p in zip(models, probs):
                if not 0.0 <= p <= 1.0:
                    raise RowError(f"probability out of range for model {quote_field(m)}", row)
            if ens != any(verdicts):
                raise RowError(f"ensemble verdict {ens} is not the OR of the member verdicts", row)

    def __len__(self) -> int:
        return len(self.tweet_ids)

    def __getitem__(self, i: int) -> EnsembleDecision:
        probs = {m: column[i] for m, column in self.probs.items()}
        verdicts = {m: column[i] for m, column in self.verdicts.items()}
        return EnsembleDecision(self.tweet_ids[i], probs, verdicts, self.ensemble[i])

    def __iter__(self) -> Iterator[EnsembleDecision]:
        return map(self.__getitem__, range(len(self)))


def decide(m: RunMatrix, cfg: EnsembleConfig) -> Decisions:
    """Every tweet's decision, in the matrix's sorted tweet order.

    The probability columns are the run averages `average_runs` returns, as
    they are; the matrix's models are sorted, and each threshold is looked
    up once, in that order.
    """
    from .predictions import average_runs  # here, so that `evaluate`, which only reads decisions, never loads it

    probs = average_runs(m)
    thresholds = {model_id: cfg.threshold_for(model_id) for model_id in probs}
    verdicts = {model_id: [int(p >= t) for p in probs[model_id]] for model_id, t in thresholds.items()}
    return Decisions(list(m.tweet_ids), probs, verdicts, [int(any(row)) for row in zip(*verdicts.values())])


def check_model_ids(model_ids: Iterable[str]) -> None:
    """Reject model ids a decisions file and its report cannot hold: an empty id,
    any with a comma, tab or line break, any with a `+`, which joins a voter
    subset's ids into one report key, and `ensemble`, which names the
    ensemble's own row in the report."""
    for m in model_ids:
        if not m or any(c in m for c in ",\t\n\r"):
            raise ValueError(f"model id {quote_field(m)} cannot be encoded in a decisions file")
        if "+" in m:
            raise ValueError(f"model id {quote_field(m)} holds '+', which joins a voter subset's ids in the report")
        if m == RESERVED_MODEL_ID:
            raise ValueError(f"model id {quote_field(m)} is reserved for the ensemble's row in the report")


def write_decisions(decisions: Decisions, path: str | Path) -> None:
    """Write decisions as ``tweet_id<TAB>model:prob,...<TAB>model:verdict,...<TAB>ensemble``.

    Every table is valid by construction, so its file reads back. The file is
    streamed in chunks of at most 1,024 lines, each formatted as it is written.
    """
    atomic_write(path, chunked(_decision_lines(decisions)))


def _decision_lines(d: Decisions) -> Iterator[str]:
    yield DECISIONS_HEADER + "\n"
    for i, tweet_id in enumerate(d.tweet_ids):
        probs = ",".join([f"{m}:{column[i]:.6f}" for m, column in d.probs.items()])
        verdicts = ",".join([f"{m}:{column[i]}" for m, column in d.verdicts.items()])
        yield f"{tweet_id}\t{probs}\t{verdicts}\t{d.ensemble[i]}\n"


def read_decisions(path: str | Path) -> Decisions:
    """Parse a decisions file; the header line is optional.

    Each line names every model once in both model_probs and model_verdicts,
    and the same models as the first line; `Decisions` checks the rest.
    Errors name the file and the line: a malformed line or model list where
    it is met, otherwise the first row that breaks a rule.

    A line whose lists name the first line's models in the first line's
    order is read by one regular expression per list, which yields its
    values; any other line is split pair by pair and checked. Either way
    the values go, in the first line's order, into one flat array of
    probabilities and one flat list of verdicts, and each model's column is
    a stride slice of those.
    """
    tweet_ids, ensemble = [], []
    shifts = [(0, 0)]  # (row, line - row) from each row where a skipped header or blank line shifts the count
    flat_probs, flat_verdicts = array("d"), []
    first: tuple[int, list[str]] | None = None  # line number and sorted models of the first decision
    prob_order: list[str] = []  # the first decision's models, in the order its model_probs names them
    verdict_order: list[str] = []  # and in the order its model_verdicts names them
    same_probs = same_verdicts = None  # each list's pattern, from the first decision
    with lines_of(path, DECISIONS_HEADER) as (lines, start):
        for lineno, line in enumerate(lines, start):
            try:
                tweet_id, prob_text, verdict_text, ens_text = line.split("\t")
            except ValueError:
                require_blank(path, 4, lineno, line)
                continue
            fast = first is not None and (pm := same_probs(prob_text)) and (vm := same_verdicts(verdict_text))
            try:
                if fast:
                    flat_probs.extend(map(float, pm.groups()))
                    flat_verdicts.extend(map(int, vm.groups()))
                else:
                    prob_pairs = [(k, float(v)) for k, v in (kv.rsplit(":", 1) for kv in prob_text.split(","))]
                    verdict_pairs = [(k, int(v)) for k, v in (kv.rsplit(":", 1) for kv in verdict_text.split(","))]
                ens = int(ens_text)
            except ValueError:
                raise ValueError(f"{path}: malformed decision at line {lineno}") from None
            if not fast:
                probs, verdicts = dict(prob_pairs), dict(verdict_pairs)
                models = sorted(probs)
                if len(probs) != len(prob_pairs) or sorted(k for k, _ in verdict_pairs) != models:
                    raise ValueError(
                        f"{path}: model_probs and model_verdicts must name the same models, "
                        f"each once, at line {lineno}"
                    )
                if first is None:
                    first = (lineno, models)
                    prob_order, verdict_order = list(probs), list(verdicts)
                    same_probs, same_verdicts = _list_pattern(prob_order), _list_pattern(verdict_order)
                elif models != first[1]:
                    raise ValueError(f"{path}: models differ from those at line {first[0]} at line {lineno}")
                flat_probs.extend(map(probs.__getitem__, prob_order))
                flat_verdicts.extend(map(verdicts.__getitem__, verdict_order))
            if lineno - len(tweet_ids) != shifts[-1][1]:
                shifts.append((len(tweet_ids), lineno - len(tweet_ids)))
            tweet_ids.append(tweet_id)
            ensemble.append(ens)
    models, step = (first[1] if first else []), len(prob_order)
    prob_at = {m: j for j, m in enumerate(prob_order)}
    verdict_at = {m: j for j, m in enumerate(verdict_order)}
    prob_columns = {m: flat_probs[prob_at[m]::step] for m in models}
    verdict_columns = {m: flat_verdicts[verdict_at[m]::step] for m in models}
    del flat_probs, flat_verdicts  # the columns are copies; the table's check need not run beside both
    try:
        return Decisions(tweet_ids, prob_columns, verdict_columns, ensemble)
    except RowError as e:
        shift = max(s for row, s in shifts if row <= e.row)  # shifts only grow
        raise ValueError(f"{path}: {e} at line {e.row + shift}") from None


def _list_pattern(models: list[str]):
    """The `fullmatch` of a regular expression that matches a `model:value,...` list naming
    `models` in that order, each value free of `,` and `:`, and groups the values.

    A list it matches splits into exactly those pairs, as `rsplit(":", 1)` splits
    each, even where a model id holds a `:`."""
    return re.compile(",".join(re.escape(m) + ":([^,:]*)" for m in models)).fullmatch

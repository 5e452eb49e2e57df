"""Max-positive ensembling of run-averaged probabilities.

Each model's averaged probability is thresholded into a 0/1 verdict
(prob >= threshold counts as positive; the boundary goes to the positive
side because recall is the metric that matters here), and the ensemble
predicts positive if any member does. With equal thresholds this is the
same as comparing the max of the averaged probabilities to the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from ._io import atomic_write, chunked, read_rows
from .predictions import RunMatrix, average_runs

DECISIONS_HEADER = "tweet_id\tmodel_probs\tmodel_verdicts\tensemble"
RESERVED_MODEL_ID = "ensemble"  # the report's name for the ensemble's own row


@dataclass(frozen=True)
class EnsembleConfig:
    """Per-model thresholds in (0,1); default_threshold fills in unlisted models.

    Set default_threshold=None to require an explicit threshold per model.
    """

    thresholds: dict[str, float] = field(default_factory=dict)
    default_threshold: float | None = 0.5

    def __post_init__(self):
        for model_id, t in self.thresholds.items():
            if not 0.0 < t < 1.0:
                raise ValueError(f"threshold for {model_id} must be in (0, 1), got {t}")
        if self.default_threshold is not None and not 0.0 < self.default_threshold < 1.0:
            raise ValueError(f"default threshold must be in (0, 1), got {self.default_threshold}")

    def check_models(self, model_ids: Iterable[str]) -> None:
        """Reject a threshold for a model not in model_ids: a misspelt id would leave its model on the default."""
        model_ids = sorted(model_ids)
        unknown = sorted(set(self.thresholds) - set(model_ids))
        if unknown:
            raise ValueError(
                f"threshold for unknown model {', '.join(map(repr, unknown))} (models: {', '.join(model_ids)})"
            )

    def threshold_for(self, model_id: str) -> float:
        if model_id in self.thresholds:
            return self.thresholds[model_id]
        if self.default_threshold is None:
            raise ValueError(f"no threshold configured for model {model_id}")
        return self.default_threshold


@dataclass(frozen=True)
class EnsembleDecision:
    tweet_id: str
    per_model_prob: dict[str, float]
    per_model_verdict: dict[str, int]
    ensemble_verdict: int


@dataclass(frozen=True)
class Decisions:
    """Every ensemble decision as columns: probs and verdicts map each model id,
    in sorted order, to one value per tweet, so every row names the same
    models. Indexing or iterating builds `EnsembleDecision` rows on demand."""

    tweet_ids: list[str]
    probs: dict[str, list[float]]
    verdicts: dict[str, list[int]]
    ensemble: list[int]

    def __post_init__(self):
        models, n = list(self.probs), len(self.tweet_ids)
        if models != sorted(models) or list(self.verdicts) != models:
            raise ValueError(f"probs and verdicts must name the same sorted models: {models}, {list(self.verdicts)}")
        if any(len(c) != n for c in (self.ensemble, *self.probs.values(), *self.verdicts.values())):
            raise ValueError(f"every decision column must hold one value for each of {n} tweets")

    def __len__(self) -> int:
        return len(self.tweet_ids)

    def __getitem__(self, i: int) -> EnsembleDecision:
        probs = {m: column[i] for m, column in self.probs.items()}
        verdicts = {m: column[i] for m, column in self.verdicts.items()}
        return EnsembleDecision(self.tweet_ids[i], probs, verdicts, self.ensemble[i])

    def __iter__(self) -> Iterator[EnsembleDecision]:
        return map(self.__getitem__, range(len(self)))


def single_model_decide(probs: Mapping[str, float], threshold: float) -> dict[str, int]:
    """Threshold one model's averaged probabilities into 0/1 verdicts."""
    return {t: int(p >= threshold) for t, p in probs.items()}


def decide(m: RunMatrix, cfg: EnsembleConfig) -> Decisions:
    """Every tweet's decision, in the matrix's sorted tweet order.

    The probability columns are the run averages `average_runs` returns, as
    they are; the matrix's models are sorted, and each threshold is looked
    up once, in that order.
    """
    if not m.keys:
        raise ValueError("no models to ensemble")
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
            raise ValueError(f"model id {m!r} cannot be encoded in a decisions file")
        if "+" in m:
            raise ValueError(f"model id {m!r} holds '+', which joins a voter subset's ids in the report")
        if m == RESERVED_MODEL_ID:
            raise ValueError(f"model id {m!r} is reserved for the ensemble's row in the report")


def write_decisions(decisions: Decisions, path: str | Path) -> None:
    """Write decisions as ``tweet_id<TAB>model:prob,...<TAB>model:verdict,...<TAB>ensemble``.

    A table whose file `read_decisions` would reject is refused before any
    file is opened. The file is streamed in chunks of at most 4,096 lines,
    each formatted as it is written.
    """
    _check_table(decisions)
    atomic_write(path, chunked(_decision_lines(decisions)))


def _check_table(d: Decisions) -> None:
    """Refuse what `read_decisions` rejects: a table with tweets but no models, a
    tweet id that is empty, repeated or holds a tab or line break, a bad
    model id, a verdict or ensemble value other than the int 0 or 1, an
    ensemble value that is not the OR of the member verdicts, or a
    probability outside [0, 1] (NaN included)."""
    check_model_ids(d.probs)
    if d.tweet_ids and not d.probs:
        raise ValueError(f"a decisions table with {len(d)} tweets must name at least one model")
    seen: set[str] = set()
    for tweet_id in d.tweet_ids:
        if not tweet_id or "\t" in tweet_id or "\n" in tweet_id or "\r" in tweet_id:
            raise ValueError(f"tweet_id {tweet_id!r} cannot be encoded in a decisions file")
        if tweet_id in seen:
            raise ValueError(f"duplicate tweet_id {tweet_id!r}")
        seen.add(tweet_id)
    for column in (*d.verdicts.values(), d.ensemble):
        # True and 1.0 equal 1, but the file would hold "True" and "1.0".
        if not ({0, 1}.issuperset(column) and set(map(type, column)) <= {int}):
            raise ValueError("verdicts must be 0 or 1")
    if d.ensemble != [int(any(row)) for row in zip(*d.verdicts.values())]:
        raise ValueError("ensemble verdicts must be the OR of the member verdicts")
    for m, column in d.probs.items():
        if not all(0.0 <= p <= 1.0 for p in column):
            raise ValueError(f"probability out of range for model {m!r}")


def _decision_lines(d: Decisions) -> Iterator[str]:
    yield DECISIONS_HEADER + "\n"
    for i, tweet_id in enumerate(d.tweet_ids):
        probs = ",".join([f"{m}:{column[i]:.6f}" for m, column in d.probs.items()])
        verdicts = ",".join([f"{m}:{column[i]}" for m, column in d.verdicts.items()])
        yield f"{tweet_id}\t{probs}\t{verdicts}\t{d.ensemble[i]}\n"


def read_decisions(path: str | Path) -> Decisions:
    """Parse a decisions file; the header line is optional.

    Every line must be consistent with itself and with the first line: a
    non-empty tweet_id not seen before, each non-empty model id other than
    `ensemble` and free of `+` named once in both model_probs and
    model_verdicts, the same models as the first line, probabilities in
    [0, 1], 0/1 verdicts, and an ensemble verdict equal to the OR of the
    member verdicts. Each value goes straight to its column. Errors name the
    file and the line.
    """
    tweet_ids, ensemble = [], []
    prob_columns: dict[str, list[float]] = {}
    verdict_columns: dict[str, list[int]] = {}
    seen: set[str] = set()
    first: tuple[int, list[str]] | None = None  # line number and sorted models of the first decision
    for lineno, (tweet_id, prob_text, verdict_text, ens_text) in read_rows(path, 4, DECISIONS_HEADER):
        try:
            prob_pairs = [(k, float(v)) for k, v in (kv.rsplit(":", 1) for kv in prob_text.split(","))]
            verdict_pairs = [(k, int(v)) for k, v in (kv.rsplit(":", 1) for kv in verdict_text.split(","))]
            ens = int(ens_text)
        except ValueError:
            raise ValueError(f"{path}: malformed decision at line {lineno}") from None
        probs, verdicts = dict(prob_pairs), dict(verdict_pairs)
        if not tweet_id:
            raise ValueError(f"{path}: tweet_id must be non-empty at line {lineno}")
        if tweet_id in seen:
            raise ValueError(f"{path}: duplicate tweet_id {tweet_id!r} at line {lineno}")
        seen.add(tweet_id)
        if ens not in (0, 1) or any(v not in (0, 1) for v in verdicts.values()):
            raise ValueError(f"{path}: verdicts must be 0 or 1 at line {lineno}")
        if not all(0.0 <= p <= 1.0 for p in probs.values()):
            raise ValueError(f"{path}: probability out of range at line {lineno}")
        models = sorted(probs)
        if len(probs) != len(prob_pairs) or sorted(k for k, _ in verdict_pairs) != models:
            raise ValueError(
                f"{path}: model_probs and model_verdicts must name the same models, "
                f"each once, at line {lineno}"
            )
        if first is None:
            if "" in probs:
                raise ValueError(f"{path}: model id must be non-empty at line {lineno}")
            if RESERVED_MODEL_ID in probs:
                raise ValueError(f"{path}: model id {RESERVED_MODEL_ID!r} is reserved at line {lineno}")
            for m in models:
                if "+" in m:
                    raise ValueError(f"{path}: model id {m!r} holds '+' at line {lineno}")
            first = (lineno, models)
            prob_columns, verdict_columns = {m: [] for m in models}, {m: [] for m in models}
        elif models != first[1]:
            raise ValueError(f"{path}: models differ from those at line {first[0]} at line {lineno}")
        if ens != int(any(verdicts.values())):
            raise ValueError(
                f"{path}: ensemble verdict {ens} is not the OR of the member verdicts at line {lineno}"
            )
        tweet_ids.append(tweet_id)
        ensemble.append(ens)
        for m in models:
            prob_columns[m].append(probs[m])
            verdict_columns[m].append(verdicts[m])
    return Decisions(tweet_ids, prob_columns, verdict_columns, ensemble)

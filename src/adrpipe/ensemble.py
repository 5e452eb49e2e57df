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
from typing import Iterable, Mapping

from ._io import atomic_write_text, truncate_ids

DECISIONS_HEADER = "tweet_id\tmodel_probs\tmodel_verdicts\tensemble"


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


def single_model_decide(probs: Mapping[str, float], threshold: float) -> dict[str, int]:
    """Threshold one model's averaged probabilities into 0/1 verdicts."""
    return {t: int(p >= threshold) for t, p in probs.items()}


def decide(
    avg: Mapping[str, Mapping[str, float]], cfg: EnsembleConfig
) -> list[EnsembleDecision]:
    """One decision per tweet, ordered by tweet_id.

    avg maps model_id -> (tweet_id -> run-averaged probability); all models
    must cover the same tweet set.
    """
    if not avg:
        raise ValueError("no models to ensemble")
    models = sorted(avg)
    tweet_sets = {m: set(avg[m]) for m in models}
    reference = tweet_sets[models[0]]
    for m in models[1:]:
        if tweet_sets[m] != reference:
            diff = sorted(tweet_sets[m] ^ reference)
            raise ValueError(
                f"models {models[0]} and {m} cover different tweets: {truncate_ids(diff)}"
            )
    thresholds = {m: cfg.threshold_for(m) for m in models}

    decisions = []
    for tweet_id in sorted(reference):
        probs = {m: avg[m][tweet_id] for m in models}
        verdicts = {m: int(probs[m] >= thresholds[m]) for m in models}
        decisions.append(
            EnsembleDecision(
                tweet_id=tweet_id,
                per_model_prob=probs,
                per_model_verdict=verdicts,
                ensemble_verdict=int(any(verdicts.values())),
            )
        )
    return decisions


def check_model_ids(model_ids: Iterable[str]) -> None:
    """Reject model ids a decisions file cannot hold: any with a comma, tab or newline."""
    for m in model_ids:
        if any(c in m for c in ",\t\n"):
            raise ValueError(f"model id {m!r} cannot be encoded in a decisions file")


def write_decisions(decisions: list[EnsembleDecision], path: str | Path) -> None:
    """Write decisions as ``tweet_id<TAB>model:prob,...<TAB>model:verdict,...<TAB>ensemble``."""
    lines = [DECISIONS_HEADER]
    for d in decisions:
        models = sorted(d.per_model_prob)
        check_model_ids(models)
        probs = ",".join(f"{m}:{d.per_model_prob[m]:.6f}" for m in models)
        verdicts = ",".join(f"{m}:{d.per_model_verdict[m]}" for m in models)
        lines.append(f"{d.tweet_id}\t{probs}\t{verdicts}\t{d.ensemble_verdict}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_decisions(path: str | Path) -> list[EnsembleDecision]:
    """Parse a decisions file; the header line is optional.

    Every line must be consistent with itself and with the first line: each
    model named once in both model_probs and model_verdicts, the same models
    as the first line, probabilities in [0, 1], 0/1 verdicts, an ensemble
    verdict equal to the OR of the member verdicts, and an unseen tweet_id.
    Errors name the file and the line.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    start = 2 if lines and lines[0] == DECISIONS_HEADER else 1
    decisions = []
    seen: set[str] = set()
    first: tuple[int, list[str]] | None = None  # line number and sorted models of the first decision
    for lineno, line in enumerate(lines[start - 1 :], start=start):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}: expected 4 fields at line {lineno}")
        tweet_id, prob_text, verdict_text, ens_text = fields
        try:
            prob_pairs = [(k, float(v)) for k, v in (kv.rsplit(":", 1) for kv in prob_text.split(","))]
            verdict_pairs = [(k, int(v)) for k, v in (kv.rsplit(":", 1) for kv in verdict_text.split(","))]
            ens = int(ens_text)
        except ValueError:
            raise ValueError(f"{path}: malformed decision at line {lineno}") from None
        probs, verdicts = dict(prob_pairs), dict(verdict_pairs)
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
            first = (lineno, models)
        elif models != first[1]:
            raise ValueError(f"{path}: models differ from those at line {first[0]} at line {lineno}")
        if ens != int(any(verdicts.values())):
            raise ValueError(
                f"{path}: ensemble verdict {ens} is not the OR of the member verdicts at line {lineno}"
            )
        decisions.append(
            EnsembleDecision(
                tweet_id=tweet_id,
                per_model_prob=probs,
                per_model_verdict=verdicts,
                ensemble_verdict=ens,
            )
        )
    return decisions

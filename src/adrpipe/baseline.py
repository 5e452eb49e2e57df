"""Seeded hashed n-gram logistic classifier used to stand in for the heavyweight
models, so the whole protocol (R runs per model type, run averaging, ensembling,
evaluation) can be exercised end to end in seconds.

Features are character or word n-gram counts hashed with crc32 into a
power-of-two bucket space; training is plain per-example gradient descent on a
class-weighted logistic loss, with the example order reshuffled each epoch by
a seeded Fisher-Yates pass. Everything is deterministic given (data, config).

The protocol hashes each spec's train side and dev side once, each into a CSR
matrix (indptr/indices/data arrays) whose rows all R runs of the spec share.
l2 weight decay is applied through a lazy scale factor (weights = scale * v),
so an SGD step costs O(nonzeros of the example) rather than O(feature_buckets).
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._io import atomic_write_bytes
from .corpus import Dataset, seeded_shuffle
from .predictions import RunMatrix, _check_ids, write_predictions

MODEL_FORMAT_VERSION = 1

FEATURE_MODES = ("char", "word")


@dataclass(frozen=True)
class BaselineConfig:
    ngram_range: tuple[int, int] = (3, 5)
    feature_buckets: int = 2**18
    epochs: int = 8
    learning_rate: float = 0.1
    l2: float = 0.0
    positive_weight: float = 1.0
    seed: int = 0
    feature_mode: str = "char"

    def __post_init__(self):
        try:
            lo, hi = self.ngram_range
        except (TypeError, ValueError):
            raise ValueError(f"ngram_range must be a pair [lo, hi], got {self.ngram_range!r}") from None
        object.__setattr__(self, "ngram_range", (lo, hi))
        if lo < 1 or hi < lo:
            raise ValueError(f"ngram_range must satisfy 1 <= lo <= hi, got {self.ngram_range}")
        if self.feature_buckets < 1 or self.feature_buckets & (self.feature_buckets - 1):
            raise ValueError(f"feature_buckets must be a power of two, got {self.feature_buckets}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("learning_rate", "l2", "positive_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.learning_rate * self.l2 >= 1:
            raise ValueError(
                f"learning_rate * l2 must be < 1 (the per-step weight decay), "
                f"got {self.learning_rate * self.l2}"
            )
        if self.positive_weight < 1:
            raise ValueError(f"positive_weight must be >= 1, got {self.positive_weight}")
        if self.feature_mode not in FEATURE_MODES:
            raise ValueError(f"feature_mode must be one of {FEATURE_MODES}")


@dataclass(frozen=True, eq=False)
class BaselineModel:
    weights: np.ndarray
    bias: float
    config: BaselineConfig

    def __post_init__(self):
        if self.weights.shape != (self.config.feature_buckets,):
            raise ValueError(
                f"weight vector length {self.weights.shape} does not match "
                f"feature_buckets {self.config.feature_buckets}"
            )


def _ngrams(text: str, cfg: BaselineConfig):
    lo, hi = cfg.ngram_range
    if cfg.feature_mode == "char":
        for n in range(lo, hi + 1):
            for i in range(len(text) - n + 1):
                yield text[i : i + n]
    else:
        words = text.split()
        for n in range(lo, hi + 1):
            for i in range(len(words) - n + 1):
                yield " ".join(words[i : i + n])


def hashed_features(text: str, cfg: BaselineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Hashed n-gram counts as (sorted bucket indices, counts).

    crc32 keeps the hash stable across platforms and processes, unlike the
    salted builtin hash().
    """
    hashes = np.fromiter(map(zlib.crc32, map(str.encode, _ngrams(text, cfg))), dtype=np.int64)
    idx, counts = np.unique(hashes & (cfg.feature_buckets - 1), return_counts=True)
    return idx, counts.astype(np.float64)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def loss_and_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    sample_weights: np.ndarray,
    l2: float = 0.0,
) -> tuple[float, np.ndarray, float]:
    """Weighted logistic loss and its analytic gradient on a dense batch.

    loss = sum_i w_i * crossentropy(sigmoid(x_i . weights + bias), y_i)
           + l2/2 * ||weights||^2

    Returns (loss, d_loss/d_weights, d_loss/d_bias). The trainer's per-example
    updates descend this same objective; tests compare this gradient against
    central finite differences.
    """
    z = features @ weights + bias
    p = 1.0 / (1.0 + np.exp(-z))
    eps = 1e-12
    ce = -(labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
    loss = float(np.sum(sample_weights * ce) + 0.5 * l2 * np.dot(weights, weights))
    residual = sample_weights * (p - labels)
    grad_w = features.T @ residual + l2 * weights
    grad_b = float(np.sum(residual))
    return loss, grad_w, grad_b


def _csr(texts: Sequence[str], cfg: BaselineConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hash every text once into a CSR matrix (indptr, indices, data).

    Row i, indices[indptr[i]:indptr[i + 1]] with its data, is exactly
    hashed_features(texts[i], cfg).
    """
    rows = [hashed_features(t, cfg) for t in texts]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([idx.size for idx, _ in rows], out=indptr[1:])
    indices = np.concatenate([idx for idx, _ in rows] or [np.empty(0, dtype=np.int64)])
    data = np.concatenate([val for _, val in rows] or [np.empty(0, dtype=np.float64)])
    return indptr, indices, data


def _rows(csr: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (indices, data) view of each CSR row; views share the matrix's memory."""
    indptr, indices, data = csr
    bounds = indptr.tolist()
    return [(indices[a:b], data[a:b]) for a, b in zip(bounds, bounds[1:])]


def _prob(
    weights: np.ndarray, bias: float, idx: np.ndarray, val: np.ndarray, scale: float = 1.0
) -> float:
    """sigmoid(scale * (weights . x) + bias) for the sparse row x = (idx, val)."""
    return _sigmoid(scale * float(weights[idx] @ val) + bias)


def _require_both_labels(d: Dataset) -> None:
    if d.positive_count == 0 or d.negative_count == 0:
        raise ValueError("training data must contain both labels")


# Below this the lazy weight scale is folded back into the weights, long
# before the scaled-up stored weights could overflow.
_MIN_SCALE = 1e-9


def _fit(
    rows: Sequence[tuple[np.ndarray, np.ndarray]], labels: Sequence[int], cfg: BaselineConfig
) -> BaselineModel:
    """Per-example SGD over seeded-shuffled epochs on pre-hashed rows.

    The true weights are scale * weights. Decay multiplies only the scalar,
    and the update to the example's buckets is divided by it, so a step
    touches just those buckets. At l2 == 0 the scale stays exactly 1.0 and the
    arithmetic is the plain dense update.
    """
    targets = [float(y) for y in labels]
    sample_weights = [cfg.positive_weight if y == 1 else 1.0 for y in labels]
    weights = np.zeros(cfg.feature_buckets, dtype=np.float64)
    bias = 0.0
    scale = 1.0
    lr = cfg.learning_rate
    decay = 1.0 - lr * cfg.l2
    rng = random.Random(cfg.seed)
    order = list(range(len(rows)))
    for _ in range(cfg.epochs):
        seeded_shuffle(order, rng)
        for i in order:
            idx, val = rows[i]
            g = sample_weights[i] * (_prob(weights, bias, idx, val, scale) - targets[i])
            scale *= decay
            if scale < _MIN_SCALE:
                weights *= scale
                scale = 1.0
            weights[idx] -= (lr * g / scale) * val
            bias -= lr * g
    weights *= scale
    return BaselineModel(weights=weights, bias=bias, config=cfg)


def train(d: Dataset, cfg: BaselineConfig) -> BaselineModel:
    """Fit by per-example gradient descent over seeded-shuffled epochs.

    Positive examples carry cfg.positive_weight in the loss; training twice
    with the same inputs gives bit-identical weights.
    """
    _require_both_labels(d)
    rows = _rows(_csr([r.text for r in d.records], cfg))
    return _fit(rows, [r.label for r in d.records], cfg)


def predict_prob(m: BaselineModel, text: str) -> float:
    """Positive-class probability: sigmoid of the hashed-feature linear score."""
    return _prob(m.weights, m.bias, *hashed_features(text, m.config))


def save_model(m: BaselineModel, path: str | Path) -> None:
    """Dump weights, bias, and the config echo to a versioned .npz file."""
    cfg = dataclasses.asdict(m.config)
    buf = io.BytesIO()
    np.savez(
        buf,
        format_version=np.int64(MODEL_FORMAT_VERSION),
        weights=m.weights,
        bias=np.float64(m.bias),
        config_json=np.bytes_(json.dumps(cfg).encode("utf-8")),
    )
    atomic_write_bytes(path, buf.getvalue())


def load_model(path: str | Path) -> BaselineModel:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        cfg = BaselineConfig(**json.loads(bytes(data["config_json"]).decode("utf-8")))
        return BaselineModel(weights=data["weights"], bias=float(data["bias"]), config=cfg)


def _spec_predictions(train_set: Dataset, eval_set: Dataset, cfg: BaselineConfig, runs: int):
    """Yield the eval-set probabilities of `runs` seeded fits of one spec, a list per run.

    Each side is hashed once into a CSR matrix whose rows every run shares;
    both are freed once the spec's last run is yielded.
    """
    labels = [r.label for r in train_set.records]
    train_rows = _rows(_csr([r.text for r in train_set.records], cfg))
    eval_rows = _rows(_csr([r.text for r in eval_set.records], cfg))
    for k in range(runs):
        model = _fit(train_rows, labels, dataclasses.replace(cfg, seed=cfg.seed + k))
        yield [_prob(model.weights, model.bias, idx, val) for idx, val in eval_rows]


def run_protocol(
    train_set: Dataset,
    eval_set: Dataset,
    model_specs: Sequence[tuple[str, BaselineConfig]],
    runs: int,
    out_path: str | Path,
) -> Path:
    """Train `runs` seeded models per spec and write one merged prediction file.

    Run k of a spec uses seed cfg.seed + k; run ids are r1..rN. The written
    file feeds straight into prediction ingestion, run averaging, ensembling,
    and evaluation. Model ids are checked (non-empty, no tab or newline, each
    given once) before any hashing.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    model_ids = [model_id for model_id, _ in model_specs]
    _check_ids(*model_ids)
    repeated = sorted({m for m in model_ids if model_ids.count(m) > 1})
    if repeated:
        raise ValueError(f"duplicate model_id in specs: {', '.join(repeated)}")
    _require_both_labels(train_set)
    tweet_ids = [r.tweet_id for r in eval_set.records]
    columns = {
        (model_id, f"r{k + 1}"): (tweet_ids, probs)
        for model_id, cfg in model_specs
        for k, probs in enumerate(_spec_predictions(train_set, eval_set, cfg, runs))
    }
    write_predictions(RunMatrix.from_columns(columns), out_path)
    return Path(out_path)

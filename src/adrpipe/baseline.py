"""Seeded hashed n-gram logistic classifier used to stand in for the heavyweight
models, so the whole protocol (R runs per model type, run averaging, ensembling,
evaluation) can be exercised end to end in seconds.

Features are character or word n-gram counts hashed with crc32 (stable across
platforms and processes, unlike the salted builtin hash()) into a
power-of-two bucket space; training is plain per-example gradient descent on a
class-weighted logistic loss, with the example order reshuffled each epoch by
a seeded Fisher-Yates pass. Everything is deterministic given (data, config).

There is one featurizer, `_csr_blocks`. It cuts the texts into blocks of about
2^15 n-grams and turns each block into one int64 key per gram, row * stride +
bucket, which one sort turns into each row's sorted buckets and counts. Char
grams are hashed without a call per gram: the block is encoded to UTF-8 once,
every window start keeps its own crc32 register, and table-driven numpy steps
(Sarwate's byte table) advance all registers a character at a time. Each
character position of the longest n-gram costs a few numpy calls for the
first bytes, plus a few per further byte over just the windows whose
character is multi-byte there. Word grams, which can be any length, go
through zlib.crc32 one at a time. Each block is yielded as a CSR matrix
(indptr/indices/data arrays), and no side is ever concatenated: a fit
(`_fit_runs`) hashes its training texts once into a list of blocks, whose
rows all R runs of a spec share, so the blocks and a joined copy of them
are never held together; the protocol hashes each spec's dev side block by
block, as `predict_probs` scores its texts.

Training runs in a compact bucket space. A corpus of a few thousand tweets
uses a few thousand of the 2^16 or 2^18 buckets, so `_compact` builds an
int32 table that renumbers the k buckets a spec's train side uses to
0..k-1 in bucket order, maps every other bucket to k, and renumbers each
block's indices in place. Each run trains a (k+1)-long weight vector
instead of a feature_buckets one, and slot k, which training never
touches, stays 0.0. Renumbering keeps every row's order, so each gather,
dot product and update sees the same values in the same order as in the
full space, and every output keeps its bits. The
per-row training tuples (`_examples`) are built once per spec, not once per
run. Once all R runs are fitted, the train side is dropped, and each dev
block is renumbered through the same table, scored for every run and
dropped, so a spec never holds its whole dev side. `train` is the same fit
of one run, its weights gathered back to the full space through the table.

l2 weight decay is applied through a lazy scale factor (weights = scale * v),
so an SGD step costs O(nonzeros of the example) rather than O(feature_buckets):
it gathers the example's weights once, scores with them, updates them and
scatters them back. Rows are short (about 140 buckets), so a step's cost is
mostly numpy's per-call overhead. Dot products therefore use ndarray.dot:
it is the same BLAS ddot as `@`, with the same bits, but under numpy 2 `@`
dispatches through a ufunc and costs about twice as much per call.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import numbers
import random
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _fork
from ._io import atomic_write
from .corpus import Dataset, seeded_shuffle
from .predictions import RunMatrix, _check_ids

MODEL_FORMAT_VERSION = 1

FEATURE_MODES = ("char", "word")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        # Types first, so a config read from JSON fails naming the field, not inside a comparison.
        if not (_is_integer(lo) and _is_integer(hi)):
            raise ValueError(f"ngram_range must be a pair of integers, got {self.ngram_range!r}")
        for name in ("feature_buckets", "epochs", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if lo < 1 or hi < lo:
            raise ValueError(f"ngram_range must satisfy 1 <= lo <= hi, got {self.ngram_range}")
        if self.feature_buckets < 1 or self.feature_buckets & (self.feature_buckets - 1):
            raise ValueError(f"feature_buckets must be a power of two, got {self.feature_buckets}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("learning_rate", "l2", "positive_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
        if not isinstance(self.feature_mode, str):
            raise ValueError(f"feature_mode must be a string, got {self.feature_mode!r}")
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


def _word_grams(text: str, lo: int, hi: int):
    words = text.split()
    for n in range(lo, hi + 1):
        for i in range(len(words) - n + 1):
            yield " ".join(words[i : i + n])


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


# Grams hashed before a block's keys are sorted: large enough that a side
# takes a few sorts, small enough that the keys (256 KB) and np.unique's
# copies of them stay in cache and far below a spec's training rows. A
# text is counted as len(text) grams per n-gram size: a bound on its char
# grams, several times its word grams.
_BLOCK_GRAMS = 1 << 15
# Window starts whose crc32 registers advance together: bounds the per-window
# arrays to about 2 MB however long a text is.
_CHUNK_WINDOWS = 1 << 15


def _crc_table() -> np.ndarray:
    """Sarwate's byte table for zlib's CRC-32 (reflected polynomial 0xEDB88320)."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC_TABLE = _crc_table()
# Bytes in a UTF-8 character, by its first byte (continuation bytes are never looked up).
_UTF8_WIDTH = np.repeat(np.array([1, 2, 3, 4], dtype=np.uint8), [0xC0, 0x20, 0x10, 0x10])


def _char_keys(texts: list[str], lo: int, hi: int, stride: int) -> np.ndarray:
    """The key row * stride + (crc32 & (stride - 1)) of every char n-gram of texts, in no set order.

    zlib.crc32 of a gram runs the register 0xFFFFFFFF through a table step per
    UTF-8 byte and returns it inverted. Each window start has its own register.
    One vectorised step advances all of them by their next character's first
    byte; each further byte steps only the windows whose character has it. So
    after n characters the registers of the windows that still fit in their
    text are their n-grams' crc32s. Texts are encoded whole, so a text holding
    a lone surrogate raises UnicodeEncodeError even where no gram reaches it.
    """
    raw = "".join(texts).encode()
    data = np.frombuffer(raw, dtype=np.uint8)
    starts = np.flatnonzero((data & 0xC0) != 0x80)  # each character's first byte
    ends = np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)))
    lengths = np.diff(ends, prepend=0)
    grams = sum(int(np.maximum(lengths - n + 1, 0).sum()) for n in range(lo, hi + 1))
    keys = np.empty(grams, dtype=np.int64)
    filled = 0
    for first in range(0, starts.size, _CHUNK_WINDOWS):
        window = np.arange(first, min(first + _CHUNK_WINDOWS, starts.size))
        row = np.searchsorted(ends, window, side="right")
        left = ends[row] - window  # characters from the window start to its text's end
        fits = left >= lo
        base, left, pos = row[fits] * stride, left[fits], starts[window[fits]]
        crc = np.full(base.size, 0xFFFFFFFF, dtype=np.uint32)
        for n in range(1, hi + 1):
            if n > lo:
                fits = left >= n
                base, left, pos, crc = base[fits], left[fits], pos[fits], crc[fits]
            lead = data[pos]
            crc = _CRC_TABLE[(crc ^ lead) & 0xFF] ^ (crc >> 8)
            width = _UTF8_WIDTH[lead]
            more, b = np.flatnonzero(width > 1), 1  # windows whose character has bytes left
            while more.size:
                c = crc[more]
                crc[more] = _CRC_TABLE[(c ^ data[pos[more] + b]) & 0xFF] ^ (c >> 8)
                b += 1
                more = more[width[more] > b]
            pos += width
            if n >= lo:
                keys[filled : filled + crc.size] = base + (~crc & (stride - 1))
                filled += crc.size
    return keys


def _word_keys(texts: list[str], lo: int, hi: int, stride: int) -> np.ndarray:
    """The key row * stride + (crc32 & (stride - 1)) of every word n-gram of texts."""
    hashes, lengths = array("q"), array("q")
    for text in texts:
        before = len(hashes)
        hashes.extend(map(zlib.crc32, map(str.encode, _word_grams(text, lo, hi))))
        lengths.append(len(hashes) - before)
    keys = np.frombuffer(hashes, dtype=np.int64)
    keys &= stride - 1
    keys += np.repeat(np.arange(len(texts), dtype=np.int64) * stride, lengths)
    return keys


def _blocks(texts: Sequence[str], cfg: BaselineConfig, stride: int):
    """Yield (keys, number of texts) for runs of texts holding about _BLOCK_GRAMS grams."""
    lo, hi = cfg.ngram_range
    keys = _char_keys if cfg.feature_mode == "char" else _word_keys
    block, grams = [], 0
    for text in texts:
        block.append(text)
        grams += len(text) * (hi - lo + 1)
        if grams >= _BLOCK_GRAMS:
            yield keys(block, lo, hi, stride), len(block)
            block, grams = [], 0
    if block:
        yield keys(block, lo, hi, stride), len(block)


def _csr_blocks(texts: Sequence[str], cfg: BaselineConfig):
    """Yield the CSR matrix (indptr, indices, data) of each _blocks run of texts.

    Row i of a block, indices[indptr[i]:indptr[i + 1]] with its data, holds the
    sorted distinct buckets (crc32 & (feature_buckets - 1)) of its text's
    n-grams and their float64 counts. Each block's keys row * stride + bucket
    are sorted once; stride is a power of two above every bucket, capped so
    keys fit int64. Grams are hashed as UTF-8: in char mode a text holding a
    lone surrogate raises UnicodeEncodeError, in word mode only one inside a
    gram does.
    """
    stride = min(cfg.feature_buckets, 1 << 32)  # crc32 < 2**32
    for keys, count in _blocks(texts, cfg, stride):
        keys, counts = np.unique(keys, return_counts=True)
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // stride, minlength=count), out=indptr[1:])
        yield indptr, keys & (stride - 1), counts.astype(np.float64)


def _rows(csr: tuple[np.ndarray, np.ndarray, np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (indices, data) view of each CSR row; views share the matrix's memory."""
    indptr, indices, data = csr
    bounds = indptr.tolist()
    return [(indices[a:b], data[a:b]) for a, b in zip(bounds, bounds[1:])]


def _prob(weights: np.ndarray, bias: float, idx: np.ndarray, val: np.ndarray) -> float:
    """sigmoid(weights . x + bias) for the sparse row x = (idx, val)."""
    return _sigmoid(float(weights[idx].dot(val)) + bias)


def _require_both_labels(d: Dataset) -> None:
    if d.positive_count == 0 or d.negative_count == 0:
        raise ValueError("training data must contain both labels")


# Below this the lazy weight scale is folded back into the weights, long
# before the scaled-up stored weights could overflow.
_MIN_SCALE = 1e-9


def _compact(buckets: int, blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, int]:
    """Renumber in place the k buckets the CSR blocks use to 0..k-1; return the bucket -> id table and k.

    Ids keep bucket order, so CSR rows stay sorted. Every bucket the blocks do
    not use maps to k, a weight slot that training never touches, so it stays
    0.0. A gather through the table from a (k + 1)-long weight vector then
    yields the same values in the same order as a gather from the full one,
    for any buckets, so every dot product adds the same terms in the same
    order and keeps its bits. The table holds one int32 per bucket, half a
    full weight vector; the indices it renumbers stay int64, which numpy
    fancy-indexes several times faster.
    """
    table = np.zeros(buckets, dtype=np.int32)
    for _, idx, _ in blocks:
        table[idx] = 1
    used = np.flatnonzero(table)
    table.fill(used.size)
    table[used] = np.arange(used.size, dtype=np.int32)
    for _, idx, _ in blocks:
        idx[:] = table[idx]
    return table, used.size


def _examples(
    blocks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], labels: Sequence[int], cfg: BaselineConfig
) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
    """Each row of the CSR blocks, in order, as the tuple _fit steps on: (indices, counts, sample weight, target).

    Runs of a spec differ only in seed, so the protocol builds these once per
    spec and every run shares them.
    """
    return [
        (idx, val, cfg.positive_weight if y == 1 else 1.0, float(y))
        for (idx, val), y in zip(chain.from_iterable(map(_rows, blocks)), labels)
    ]


def _fit(
    examples: Sequence[tuple[np.ndarray, np.ndarray, float, float]], size: int, cfg: BaselineConfig
) -> tuple[np.ndarray, float]:
    """Per-example SGD over seeded-shuffled epochs on _examples rows; returns (weights, bias).

    weights is `size` long, and every example index lies below it. _fit_runs
    passes rows renumbered by _compact and one more than the number of
    buckets they use, rather than feature_buckets: each step does the same
    arithmetic on the same values as with full-space rows and
    feature_buckets, over a far smaller vector.

    The true weights are scale * weights. Decay multiplies only the scalar,
    and the update to the example's buckets is divided by it, so a step
    touches just those buckets. At l2 == 0 the scale stays exactly 1.0 and the
    arithmetic is the plain dense update.
    """
    weights = np.zeros(size, dtype=np.float64)
    bias = 0.0
    scale = 1.0
    lr = cfg.learning_rate
    decay = 1.0 - lr * cfg.l2
    # lr * g / scale as a reused 0-d array: numpy takes it faster than a Python float.
    step = np.zeros(())
    rng = random.Random(cfg.seed)
    order = list(range(len(examples)))
    for _ in range(cfg.epochs):
        seeded_shuffle(order, rng)
        for i in order:
            idx, val, sample_weight, target = examples[i]
            # Gather the example's weights once; its buckets are distinct, so
            # scattering the updated copy back equals weights[idx] -= ...
            w = weights[idx]
            g = sample_weight * (_sigmoid(scale * float(w.dot(val)) + bias) - target)
            scale *= decay
            if scale < _MIN_SCALE:
                weights *= scale
                w *= scale
                scale = 1.0
            step[()] = lr * g / scale
            w -= step * val
            weights[idx] = w
            bias -= lr * g
    weights *= scale
    return weights, bias


def _fit_runs(d: Dataset, cfg: BaselineConfig, offsets: list[int]) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
    """The bucket -> id table of d's texts and one seeded fit on them per run offset k, with seed cfg.seed + k.

    d is hashed once, as _csr_blocks' blocks, which are never concatenated:
    its k buckets are renumbered in every block (_compact), and the examples
    are built once: every run shares them and trains a (k + 1)-long weight
    vector, whose slot k, where every bucket d never uses maps, stays 0.0.
    """
    blocks = list(_csr_blocks([r.text for r in d.records], cfg))
    table, size = _compact(cfg.feature_buckets, blocks)
    examples = _examples(blocks, [r.label for r in d.records], cfg)
    return table, [_fit(examples, size + 1, dataclasses.replace(cfg, seed=cfg.seed + k)) for k in offsets]


def train(d: Dataset, cfg: BaselineConfig) -> BaselineModel:
    """Fit by per-example gradient descent over seeded-shuffled epochs.

    Positive examples carry cfg.positive_weight in the loss; training twice
    with the same inputs gives bit-identical weights. This is the protocol's
    fit (_fit_runs) of one run, gathered back to feature_buckets weights
    through its table: every bucket training never saw reads slot k, 0.0.
    """
    _require_both_labels(d)
    table, [(weights, bias)] = _fit_runs(d, cfg, [0])
    return BaselineModel(weights=weights[table], bias=bias, config=cfg)


def predict_probs(m: BaselineModel, texts: Sequence[str]) -> list[float]:
    """Each text's positive-class probability, the sigmoid of its hashed-feature linear score.

    Texts are hashed and scored one _csr_blocks block at a time, so one block is held."""
    probs: list[float] = []
    for block in _csr_blocks(texts, m.config):
        probs.extend([_prob(m.weights, m.bias, idx, val) for idx, val in _rows(block)])
    return probs


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
    atomic_write(path, [buf.getvalue()])


def load_model(path: str | Path) -> BaselineModel:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {version}")
        cfg = BaselineConfig(**json.loads(bytes(data["config_json"]).decode("utf-8")))
        return BaselineModel(weights=data["weights"], bias=float(data["bias"]), config=cfg)


def _spec_predictions(train_set: Dataset, eval_set: Dataset, cfg: BaselineConfig, offsets: list[int]) -> list[array]:
    """The eval-set probabilities of one spec's seeded fits at the run offsets (_fit_runs),
    rounded to 6 decimals as they are scored, an `array('d')` per run.

    Once all runs are fitted, the train side is gone. The dev side is then
    hashed block by block (_csr_blocks); each block is renumbered through
    the train side's table, every row is scored for every run, one row's
    gather at a time, and the block is dropped. So the spec never holds its
    whole dev side, and a dev text that cannot be hashed raises only after
    the runs are fitted.
    """
    table, fits = _fit_runs(train_set, cfg, offsets)
    probs = [array("d") for _ in fits]
    for indptr, indices, data in _csr_blocks([r.text for r in eval_set.records], cfg):
        indices[:] = table[indices]
        rows = _rows((indptr, indices, data))
        for (weights, bias), run_probs in zip(fits, probs):
            run_probs.extend([round(_prob(weights, bias, idx, val), 6) for idx, val in rows])
    return probs


def check_protocol(
    train_set: Dataset, eval_set: Dataset, model_specs: Sequence[tuple[str, BaselineConfig]], runs: int
) -> None:
    """What protocol_matrix needs before it hashes: runs >= 1, model ids that
    are non-empty, free of tab and newline and each given once, both labels
    in the training set, and an eval set with a tweet to predict."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    model_ids = [model_id for model_id, _ in model_specs]
    _check_ids(*model_ids)
    repeated = sorted(m for m, n in Counter(model_ids).items() if n > 1)  # one pass over the ids
    if repeated:
        raise ValueError(f"duplicate model_id in specs: {', '.join(repeated)}")
    _require_both_labels(train_set)
    if not eval_set.records:
        raise ValueError("no prediction records")


def _columns(train_set: Dataset, eval_set: Dataset, model_specs, jobs: list[tuple[int, int]]) -> list[array]:
    """The dev columns of `jobs`, spec-major (spec index, run offset) pairs, in order; the first failing spec raises."""
    columns = []
    for s in sorted({spec for spec, _ in jobs}):
        columns += _spec_predictions(train_set, eval_set, model_specs[s][1], [k for spec, k in jobs if spec == s])
    return columns


def protocol_matrix(
    train_set: Dataset,
    eval_set: Dataset,
    model_specs: Sequence[tuple[str, BaselineConfig]],
    runs: int,
) -> RunMatrix:
    """Train `runs` seeded models per spec and collect their eval-set probabilities.

    Run k of a spec uses seed cfg.seed + k; run ids are r1..rN.
    `check_protocol` runs before any hashing.
    Each probability is held as round(p, 6), the float that write_predictions'
    6-decimal text parses back to, so the matrix equals what load_predictions
    reads back from the file write_predictions makes of it. _spec_predictions
    rounds each probability as it is scored, into one `array('d')` per run,
    which is passed on as the run's column: no run is held unrounded, and no
    second rounding pass copies the columns.

    Where `_fork` can fork, a child forked after the checks fits the second half of the spec-major (spec, run) jobs
    and sends their columns back as bytes, which keep every cell's bits. This process fits the first half, whose specs
    all come first, and raises its own error at once. If the fork fails, or the child fails or dies, this process fits
    the second half too: one process or two give this matrix, or the lowest failing spec's error.
    """
    check_protocol(train_set, eval_set, model_specs, runs)
    jobs = [(s, k) for s in range(len(model_specs)) for k in range(runs)]
    half = len(jobs) // 2 if _fork._can_fork() else 0  # one process fits all its jobs in one pass
    mine, theirs = (jobs[:half], jobs[half:]) if half else (jobs, [])

    def columns(share):
        return [c.tobytes() for c in _columns(train_set, eval_set, model_specs, share)]

    with _fork.worker(columns) as submit:
        sent = submit(theirs) if theirs else list  # list() is the empty result
        cells = _columns(train_set, eval_set, model_specs, mine) + [array("d", b) for b in sent()]
    tweet_ids = [r.tweet_id for r in eval_set.records]
    return RunMatrix({(model_specs[s][0], f"r{k + 1}"): (tweet_ids, c) for (s, k), c in zip(jobs, cells)})

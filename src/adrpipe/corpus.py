"""Labeled tweet datasets: load/save, stratified splitting, positive duplication.

File format is one record per line, UTF-8, LF line endings:

    tweet_id<TAB>label<TAB>text

An optional header line ``tweet_id\\tlabel\\ttext`` is accepted and skipped.
Tabs and newlines inside fields are not representable; the loader rejects
lines that do not have exactly three fields.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import chain, count
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from ._io import Frozen, atomic_write, chunked, lines_of, quote_field, require_blank

HEADER = "tweet_id\tlabel\ttext"


class _TweetFields(NamedTuple):
    tweet_id: str
    text: str
    label: int


class LabeledTweet(_TweetFields):
    """One tweet with a binary label (1 = adverse drug reaction mentioned).

    An immutable (tweet_id, text, label) tuple: it unpacks, and it compares
    equal to a plain tuple of its fields. The constructor, `_make` and
    `_replace` all check the fields.
    """

    __slots__ = ()

    def __new__(cls, tweet_id: str, text: str, label: int):
        if not tweet_id:
            raise ValueError("tweet_id must be non-empty")
        # The loader reads in universal-newline mode, where \r also ends a line.
        if "\t" in tweet_id or "\n" in tweet_id or "\r" in tweet_id:
            raise ValueError(f"tweet_id {tweet_id!r} contains tab or newline")
        if "\t" in text or "\n" in text or "\r" in text:
            raise ValueError(f"text of {tweet_id} contains tab or newline")
        if type(label) is not int or label not in (0, 1):  # True or 0.0 would be saved as written
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        return tuple.__new__(cls, (tweet_id, text, label))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LabeledTweet":
        # namedtuple's own _make, which _replace calls, would skip the checks.
        return cls(*iterable)


# Builds a record from fields that the caller has already checked in bulk.
_checked_record = partial(tuple.__new__, LabeledTweet)
_tweet_id = itemgetter(0)
_LABELS = {"0": 0, "1": 1}


class Dataset(Frozen):
    """An ordered, immutable collection of LabeledTweet with unique ids; its class counts are read from the records."""

    _fields = ("records",)

    def __init__(self, records: tuple[LabeledTweet, ...]):
        self._set(records=records)
        # A dict holds 20k ids in a quarter of the memory of a set.
        if len(dict.fromkeys(map(_tweet_id, self.records))) < len(self.records):
            seen: set[str] = set()
            for tweet_id in map(_tweet_id, self.records):
                if tweet_id in seen:
                    raise ValueError(f"duplicate tweet_id {tweet_id!r}")
                seen.add(tweet_id)

    @classmethod
    def from_records(cls, records: Iterable[LabeledTweet]) -> "Dataset":
        return cls(tuple(records))

    @property
    def positive_count(self) -> int:
        return sum(r.label == 1 for r in self.records)

    @property
    def negative_count(self) -> int:
        return len(self.records) - self.positive_count

    def with_texts(self, texts: Iterable[str]) -> "Dataset":
        """A copy with record i's text replaced by texts[i], each record rebuilt through LabeledTweet.

        `texts` is read to its end first; a faulty text raises before zip reports a count mismatch."""
        texts = list(texts)
        return Dataset(tuple(
            LabeledTweet(r.tweet_id, text, r.label) for r, text in zip(self.records, texts, strict=True)
        ))

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> dict[str, int]:
        """tweet_id -> label mapping, e.g. for use as gold labels in evaluation."""
        return {r.tweet_id: r.label for r in self.records}


def read_records(path: str | Path) -> Iterator[LabeledTweet]:
    """Yield a dataset file's records one at a time, validating each line as it is read.

    Raises ValueError naming the offending line number for malformed lines (wrong
    field count, label outside {0,1}, empty id, an id seen on an earlier line).
    A line's fields hold no tab, nor a line break once the text loses its "\\n",
    so with these checks a record needs none of LabeledTweet's own. Only the ids
    read so far are held, in a dict: 20k ids take a quarter of the memory of a set.
    """
    seen: dict[str, None] = {}
    with lines_of(path, HEADER) as (lines, start):
        for lineno, line in enumerate(lines, start):
            try:
                tweet_id, label_text, text = line.split("\t")
            except ValueError:
                require_blank(path, 3, lineno, line)
                continue
            label = _LABELS.get(label_text)
            if label is None:
                raise ValueError(f"{path}: label out of range at line {lineno}: {quote_field(label_text)}")
            if not tweet_id:
                raise ValueError(f"{path}: tweet_id must be non-empty at line {lineno}")
            if tweet_id in seen:
                raise ValueError(f"{path}: duplicate tweet_id {quote_field(tweet_id)} at line {lineno}")
            seen[tweet_id] = None
            yield _checked_record((tweet_id, text.rstrip("\n"), label))


def read_labels(path: str | Path) -> dict[str, int]:
    """A dataset file's tweet_id -> label mapping, read and checked as read_records reads it, without the texts."""
    return {r.tweet_id: r.label for r in read_records(path)}


def load_dataset(path: str | Path) -> Dataset:
    """Read a whole dataset file, validating every line as read_records does."""
    return Dataset(tuple(read_records(path)))


def write_records(records: Iterable[tuple[str, str, int]], path: str | Path, header: bool = True) -> int:
    """Write (tweet_id, text, label) records, each a LabeledTweet or a tuple that passes its checks, as
    tab-separated UTF-8 lines with LF endings. `records` is read once, 1,024 at a time, so it may be
    a stream. Returns how many records were written."""
    written = count()  # zip draws each number after its record, so the next number is the record count
    lines = (f"{tweet_id}\t{label}\t{text}\n" for (tweet_id, text, label), _ in zip(records, written))
    atomic_write(path, chunked(chain([HEADER + "\n"], lines) if header else lines))
    return next(written)


def save_dataset(d: Dataset, path: str | Path, header: bool = True) -> None:
    """Write a dataset in the tab-separated format, as write_records does."""
    write_records(d.records, path, header)


def seeded_shuffle(items: list, rng: random.Random) -> None:
    """In-place Fisher-Yates shuffle driven by the given Mersenne Twister RNG.

    For i from len(items) - 1 down to 1, swap items[i] with items[j], j drawn
    by rng.randrange(i + 1). randrange(n) draws getrandbits(n.bit_length())
    until the draw is below n; this loop makes exactly those draws, as
    rng.shuffle does, without its Python-level call per item. Tests pin the
    permutation and the RNG state afterwards against randrange and shuffle.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


def stratified_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split per label: train gets floor(train_fraction * count) of each class.

    Membership is chosen by a seeded Fisher-Yates shuffle of each label's
    record indices; record order within each output follows the input order.
    The two outputs partition the input exactly, and the same seed always
    produces the same split.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = random.Random(seed)
    train_idx: set[int] = set()
    for label in (0, 1):
        idx = [i for i, r in enumerate(d.records) if r.label == label]
        seeded_shuffle(idx, rng)
        take = math.floor(train_fraction * len(idx))
        train_idx.update(idx[:take])
    train = [r for i, r in enumerate(d.records) if i in train_idx]
    dev = [r for i, r in enumerate(d.records) if i not in train_idx]
    return Dataset(tuple(train)), Dataset(tuple(dev))


def duplicate_positives(d: Dataset, extra_copies: int) -> Dataset:
    """Append extra_copies duplicates after each positive record.

    Duplicates get suffixed ids (``<tweet_id>#dup1``, ``#dup2``, ...) so
    tweet_id stays unique; negatives and record order are untouched.
    """
    if extra_copies < 0:
        raise ValueError(f"extra_copies must be >= 0, got {extra_copies}")
    records = []
    for r in d.records:
        records.append(r)
        if r.label == 1:
            for k in range(1, extra_copies + 1):
                records.append(LabeledTweet(f"{r.tweet_id}#dup{k}", r.text, r.label))
    return Dataset.from_records(records)

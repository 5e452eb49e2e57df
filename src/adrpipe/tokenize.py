"""Greedy longest-match-first subword tokenization over a plain vocabulary file,
plus a token-overlap report for comparing how two words decompose.

The tokenizer mirrors the usual WordPiece convention: the first piece of a
word is looked up as-is, later pieces with a "##" continuation prefix, and a
word with no full decomposition, or longer than 100 characters, comes back
as ``["[UNK]"]``. The prefix, the unknown token and the length bound are
fixed; the vocabulary is the only setting.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple

from ._io import Frozen, lines_of

CONTINUATION_PREFIX = "##"
UNKNOWN_TOKEN = "[UNK]"
MAX_WORD_CHARS = 100
# Texts joined per Counter.update in corpus_token_stats. Their words set the peak memory of
# `tokens --stats`: on 20k tweets 20.1 MB at 4,096 texts, 17.5 MB at 256, in the same wall time.
COUNT_CHUNK = 256


class SubwordVocab(Frozen):
    """A token inventory; continuation tokens are stored with their '##' prefix."""

    _fields = ("tokens",)
    continuation_prefix = CONTINUATION_PREFIX
    unknown_token = UNKNOWN_TOKEN
    max_word_chars = MAX_WORD_CHARS

    def __init__(self, tokens: frozenset[str]):
        self._set(tokens=frozenset(tokens))
        if UNKNOWN_TOKEN not in self.tokens:
            raise ValueError(f"vocabulary must contain the unknown token {UNKNOWN_TOKEN!r}")

    def __len__(self) -> int:
        return len(self.tokens)


class TokenizationReport(NamedTuple):
    word_a: str
    word_b: str
    tokens_a: tuple[str, ...]
    tokens_b: tuple[str, ...]
    shared_tokens: frozenset[str]


class TokenStats(NamedTuple):
    total_words: int
    unk_words: int
    unk_rate: float


def load_vocab(path: str | Path) -> SubwordVocab:
    """Read a one-token-per-line vocabulary file (UTF-8, blank lines skipped)."""
    with lines_of(path) as (lines, _):
        tokens = {token for line in lines if (token := line.strip())}
    return SubwordVocab(tokens=frozenset(tokens))


def wordpiece_tokenize(word: str, vocab: SubwordVocab) -> list[str]:
    """Decompose one word greedily, longest vocabulary match first.

    The first piece is matched bare, subsequent pieces with the continuation
    prefix. Any position with no match, or a word longer than MAX_WORD_CHARS,
    yields ``[UNKNOWN_TOKEN]``.
    """
    if not word:
        raise ValueError("word must be non-empty")
    if any(c.isspace() for c in word):
        raise ValueError(f"word must be whitespace-free: {word!r}")
    if len(word) > MAX_WORD_CHARS:
        return [UNKNOWN_TOKEN]
    pieces = []
    pos = 0
    while pos < len(word):
        end = len(word)
        match = None
        while end > pos:
            candidate = word[pos:end]
            if pos > 0:
                candidate = CONTINUATION_PREFIX + candidate
            if candidate in vocab.tokens:
                match = candidate
                break
            end -= 1
        if match is None:
            return [UNKNOWN_TOKEN]
        pieces.append(match)
        pos = end
    return pieces


def overlap_report(word_a: str, word_b: str, vocab: SubwordVocab) -> TokenizationReport:
    """Tokenize both words and report the tokens they have in common."""
    tokens_a = tuple(wordpiece_tokenize(word_a, vocab))
    tokens_b = tuple(wordpiece_tokenize(word_b, vocab))
    return TokenizationReport(
        word_a=word_a,
        word_b=word_b,
        tokens_a=tokens_a,
        tokens_b=tokens_b,
        shared_tokens=frozenset(tokens_a) & frozenset(tokens_b),
    )


def corpus_token_stats(texts: Iterable[str], vocab: SubwordVocab) -> TokenStats:
    """Whitespace-split each text and count words that fail to decompose.

    Each distinct word is tokenized once and weighted by its count. Words are
    counted COUNT_CHUNK texts at a time, from the texts joined by spaces, which
    splits into the same words as the texts one by one.
    """
    counts = Counter()
    texts = iter(texts)
    while chunk := list(islice(texts, COUNT_CHUNK)):
        counts.update(" ".join(chunk).split())
    total = sum(counts.values())
    unk = sum(
        n for word, n in counts.items()
        if wordpiece_tokenize(word, vocab) == [UNKNOWN_TOKEN]
    )
    return TokenStats(total, unk, unk / max(total, 1))

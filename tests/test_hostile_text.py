"""Text stages stay linear on adversarial input: 100k-character lines of the
shapes that make a backtracking pattern rescan, each under a loose bound. The
featurizer also stays linear, and within a memory bound, on one long line and
on one long line of 4-byte characters."""

import time
import tracemalloc

import pytest

from adrpipe.baseline import BaselineConfig, _csr_blocks
from adrpipe.preprocess import preprocess
from adrpipe.tokenize import corpus_token_stats

N = 100_000
BOUND_S = 0.5  # linear code takes a few hundredths of a second per input

HOSTILE = {
    "local_part_run_without_at": ("ab9._%+-" * N)[:N],
    "a_at_repeated": "a@" * (N // 2),
    "a_dot_run_then_at": "a." * (N // 2) + "@",
    "at_signs": "@" * N,
    "hash_signs": "#" * N,
    "broken_urls": "http:/" * (N // 6),
    "one_long_word": ("quetiapine" * N)[:N],
}


def fastest(fn, tries=2):
    """Best of up to `tries` timed calls, stopping once one is under the bound."""
    best = float("inf")
    for _ in range(tries):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        if best < BOUND_S:
            break
    return best


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_preprocess_is_linear(text, full_pipeline):
    assert fastest(lambda: preprocess(text, full_pipeline)) < BOUND_S


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
def test_corpus_token_stats_is_linear(text, file_vocab):
    assert fastest(lambda: corpus_token_stats([text], file_vocab)) < BOUND_S


# Featurizing one 200k-character line with the default char 3-5 grams (600k
# grams) peaked at 15,600,877 bytes under tracemalloc when each text was hashed
# and sorted on its own; block hashing must not need more.
LONG_LINE = ("quetiapine made me dizzy \u00e9\u4e2d\U0001f600 " * 10_000)[:200_000]
PER_TEXT_PEAK_BYTES = 15_600_877


def test_csr_on_one_long_line_is_linear_and_bounded():
    cfg = BaselineConfig()
    assert fastest(lambda: list(_csr_blocks([LONG_LINE], cfg))) < BOUND_S
    tracemalloc.start()
    try:
        list(_csr_blocks([LONG_LINE], cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_TEXT_PEAK_BYTES


# The multi-byte worst case: every character takes all four of the hasher's byte steps.
ASTRAL_LINE = "".join(chr(0x1F600 + i % 80) for i in range(200_000))


def test_csr_on_one_long_astral_line_is_linear_and_bounded():
    cfg = BaselineConfig()
    assert fastest(lambda: list(_csr_blocks([ASTRAL_LINE], cfg))) < BOUND_S
    tracemalloc.start()
    try:
        list(_csr_blocks([ASTRAL_LINE], cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_TEXT_PEAK_BYTES

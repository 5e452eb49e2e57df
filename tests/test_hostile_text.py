"""Text stages stay linear on adversarial input: 100k-character lines of the
shapes that make a backtracking pattern rescan, each under a loose bound."""

import time

import pytest

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

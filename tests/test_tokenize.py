import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe.preprocess import preprocess
from adrpipe.tokenize import (
    COUNT_CHUNK,
    SubwordVocab,
    corpus_token_stats,
    load_vocab,
    overlap_report,
    wordpiece_tokenize,
)


class TestWordpiece:
    def test_quetiapine_split(self, tiny_vocab):
        assert wordpiece_tokenize("quetiapine", tiny_vocab) == ["que", "##tia", "##pine"]

    def test_olanzapine_split(self, tiny_vocab):
        assert wordpiece_tokenize("olanzapine", tiny_vocab) == ["o", "##lan", "##za", "##pine"]

    def test_undecomposable_word(self, tiny_vocab):
        assert wordpiece_tokenize("xyzzy", tiny_vocab) == ["[UNK]"]

    def test_file_vocab_agrees_on_drug_splits(self, file_vocab):
        assert wordpiece_tokenize("quetiapine", file_vocab) == ["que", "##tia", "##pine"]
        assert wordpiece_tokenize("olanzapine", file_vocab) == ["o", "##lan", "##za", "##pine"]

    def test_whole_word_match(self, file_vocab):
        assert wordpiece_tokenize("headache", file_vocab) == ["headache"]

    def test_too_long_word_is_unk(self, tiny_vocab):
        assert wordpiece_tokenize("o" * 101, tiny_vocab) == ["[UNK]"]

    def test_empty_word_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            wordpiece_tokenize("", tiny_vocab)

    def test_whitespace_rejected(self, tiny_vocab):
        with pytest.raises(ValueError):
            wordpiece_tokenize("two words", tiny_vocab)

    def test_deterministic(self, file_vocab):
        a = wordpiece_tokenize("quetiapine", file_vocab)
        b = wordpiece_tokenize("quetiapine", file_vocab)
        assert a == b

    def test_greedy_no_extendable_token(self, file_vocab):
        # no output token can be extended to a longer vocab match at its position
        for word in ("quetiapine", "olanzapine", "seroquel", "zyprexa"):
            tokens = wordpiece_tokenize(word, file_vocab)
            pos = 0
            for tok in tokens:
                bare = tok[2:] if tok.startswith("##") and pos > 0 else tok
                for longer_end in range(pos + len(bare) + 1, len(word) + 1):
                    candidate = word[pos:longer_end]
                    if pos > 0:
                        candidate = "##" + candidate
                    assert candidate not in file_vocab.tokens
                pos += len(bare)

    def test_prefix_discipline(self, file_vocab):
        tokens = wordpiece_tokenize("olanzapine", file_vocab)
        assert not tokens[0].startswith("##")
        assert all(t.startswith("##") for t in tokens[1:])


class TestVocab:
    def test_unknown_token_required(self):
        with pytest.raises(ValueError, match="unknown token"):
            SubwordVocab(frozenset(["a", "##b"]))

    def test_load_vocab_file(self, tmp_path):
        p = tmp_path / "vocab.txt"
        p.write_text("[UNK]\nfoo\n##bar\n\n", encoding="utf-8")
        v = load_vocab(p)
        assert v.tokens == frozenset(["[UNK]", "foo", "##bar"])
        assert wordpiece_tokenize("foobar", v) == ["foo", "##bar"]


    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.frozensets(
            st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"), min_size=1).filter(
                lambda s: s == s.strip()
            ),
            max_size=8,
        )
    )
    def test_load_vocab_round_trip(self, tmp_path, tokens):
        vocab = SubwordVocab(tokens | {"[UNK]"})
        p = tmp_path / "vocab.txt"
        p.write_text("".join(f"{t}\n" for t in sorted(vocab.tokens)), encoding="utf-8")
        assert load_vocab(p) == vocab


class TestOverlapReport:
    def test_shared_suffix_token(self, tiny_vocab):
        report = overlap_report("quetiapine", "olanzapine", tiny_vocab)
        assert report.shared_tokens == frozenset(["##pine"])

    def test_brands_share_nothing_but_unk_on_tiny_vocab(self, tiny_vocab):
        report = overlap_report("seroquel", "zyprexa", tiny_vocab)
        assert report.tokens_a == ("[UNK]",)
        assert report.tokens_b == ("[UNK]",)
        assert report.shared_tokens == frozenset(["[UNK]"])

    def test_brands_share_nothing_on_file_vocab(self, file_vocab):
        report = overlap_report("seroquel", "zyprexa", file_vocab)
        assert report.shared_tokens == frozenset()

    def test_word_with_itself(self, file_vocab):
        report = overlap_report("quetiapine", "quetiapine", file_vocab)
        assert report.shared_tokens == frozenset(report.tokens_a)


class TestRoundTrip:
    def test_random_decomposable_words_round_trip(self, file_vocab):
        rng = random.Random(99)
        starts = sorted(t for t in file_vocab.tokens if not t.startswith("##") and t != "[UNK]")
        conts = sorted(t for t in file_vocab.tokens if t.startswith("##"))
        decomposed = 0
        for _ in range(1000):
            word = rng.choice(starts) + "".join(
                rng.choice(conts)[2:] for _ in range(rng.randrange(1, 4))
            )
            tokens = wordpiece_tokenize(word, file_vocab)
            if tokens == ["[UNK]"]:
                continue
            decomposed += 1
            rebuilt = tokens[0] + "".join(t[2:] for t in tokens[1:])
            assert rebuilt == word
        # greedy can dead-end on adversarial concatenations, but only rarely
        assert decomposed >= 950

    def test_fixture_corpus_round_trips(self, fixture_corpus, file_vocab, full_pipeline):
        for r in fixture_corpus.records:
            for word in preprocess(r.text, full_pipeline).split():
                tokens = wordpiece_tokenize(word, file_vocab)
                if tokens == ["[UNK]"]:
                    continue
                assert tokens[0] + "".join(t[2:] for t in tokens[1:]) == word


# Words built from pieces that decompose, pieces that do not, the unknown
# token itself and a piece longer than MAX_WORD_CHARS.
_pieces = st.sampled_from(["que", "##tia", "tia", "pine", "o", "lan", "xyz", "[UNK]", "q" * 101])
_words = st.lists(_pieces, min_size=1, max_size=3).map("".join)


class TestCorpusStats:
    def test_two_words_one_unk(self, tiny_vocab):
        stats = corpus_token_stats(["quetiapine xyzzy"], tiny_vocab)
        assert stats == (2, 1, 0.5)

    def test_empty_corpus(self, tiny_vocab):
        assert corpus_token_stats([], tiny_vocab) == (0, 0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(_words, max_size=4).map(" ".join), max_size=8))
    def test_equals_word_by_word_count(self, tiny_vocab, texts):
        words = [w for text in texts for w in text.split()]
        unk = sum(wordpiece_tokenize(w, tiny_vocab) == ["[UNK]"] for w in words)
        assert corpus_token_stats(texts, tiny_vocab) == (len(words), unk, unk / max(len(words), 1))

    # Edges of one chunk, and of a run of whole chunks (4,096 texts is 16 chunks of 256).
    @pytest.mark.parametrize(
        "n", sorted({0, 1, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK + 1, 4095, 4096, 4097})
    )
    def test_chunked_counts_equal_per_text_counts(self, tiny_vocab, n):
        # Texts that start or end in a word, in ASCII or Unicode whitespace, or are
        # empty: joining must neither fuse words across texts nor add any.
        pool = ["que", "tia", "", " ", "  quetiapine  ", "\u3000o\u2003xyz", "lan\x1cza", "\x85que\t", "\npine"]
        texts = [pool[i % len(pool)] for i in range(n)]
        counts = Counter()
        for text in texts:
            counts.update(text.split())
        total = sum(counts.values())
        unk = sum(k for word, k in counts.items() if wordpiece_tokenize(word, tiny_vocab) == ["[UNK]"])
        assert corpus_token_stats(texts, tiny_vocab) == (total, unk, unk / max(total, 1))
        assert corpus_token_stats(iter(texts), tiny_vocab) == (total, unk, unk / max(total, 1))

    def test_preprocessing_reduces_unk_rate(self, fixture_corpus, file_vocab, full_pipeline):
        raw = corpus_token_stats([r.text for r in fixture_corpus.records], file_vocab)
        cleaned = corpus_token_stats(
            [preprocess(r.text, full_pipeline) for r in fixture_corpus.records], file_vocab
        )
        assert cleaned.unk_rate <= raw.unk_rate
        # the fixture corpus is built to show a real gap, not a tie
        assert cleaned.unk_rate < raw.unk_rate

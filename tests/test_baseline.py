import dataclasses
import math
import random
import struct
import tracemalloc
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adrpipe import baseline
from adrpipe.baseline import (
    BaselineConfig,
    load_model,
    predict_probs,
    protocol_matrix,
    save_model,
    train,
)
from adrpipe.corpus import Dataset, LabeledTweet, seeded_shuffle
from adrpipe.predictions import average_runs, load_predictions, write_predictions
from adrpipe.synthetic import make_synthetic_dataset
from conftest import csr, loss_and_grad


def toy_separable(n_per_class=10):
    records = [
        LabeledTweet(f"p{i}", f"feeling dizzy and shaky after dose {i}", 1)
        for i in range(n_per_class)
    ]
    records += [
        LabeledTweet(f"n{i}", f"nice walk in the sunny park today {i}", 0)
        for i in range(n_per_class)
    ]
    return Dataset.from_records(records)


def one_row(text, cfg):
    """The featurizer on one text: (sorted bucket indices, counts), the single row of its CSR matrix."""
    _, indices, data = csr([text], cfg)
    return indices, data


def dense_reference_fit(d, cfg):
    """The textbook trainer: re-hash every text, decay all weights on every step."""

    def sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    feats = [one_row(r.text, cfg) for r in d.records]
    labels = [float(r.label) for r in d.records]
    sample_weights = [cfg.positive_weight if r.label == 1 else 1.0 for r in d.records]
    weights = np.zeros(cfg.feature_buckets, dtype=np.float64)
    bias = 0.0
    lr = cfg.learning_rate
    decay = 1.0 - lr * cfg.l2
    rng = random.Random(cfg.seed)
    order = list(range(len(d.records)))
    for _ in range(cfg.epochs):
        seeded_shuffle(order, rng)
        for i in order:
            idx, val = feats[i]
            z = float(weights[idx] @ val) + bias
            g = sample_weights[i] * (sigmoid(z) - labels[i])
            if cfg.l2 > 0.0:
                weights *= decay
            if idx.size:
                weights[idx] -= lr * g * val
            bias -= lr * g
    return weights, bias


def matmul_reference_fit(rows, labels, cfg):
    """_fit's lazy-scale SGD loop, scoring with `w @ val` and shuffling with rng.shuffle."""
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
        rng.shuffle(order)
        for i in order:
            idx, val = rows[i]
            w = weights[idx]
            g = sample_weights[i] * (baseline._sigmoid(scale * float(w @ val) + bias) - targets[i])
            scale *= decay
            if scale < baseline._MIN_SCALE:
                weights *= scale
                w *= scale
                scale = 1.0
            w -= (lr * g / scale) * val
            weights[idx] = w
            bias -= lr * g
    weights *= scale
    return weights, bias


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


class TestConfig:
    def test_defaults(self):
        cfg = BaselineConfig()
        assert cfg.ngram_range == (3, 5)
        assert cfg.feature_buckets == 2**18
        assert cfg.epochs == 8
        assert cfg.positive_weight == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ngram_range": (0, 3)},
            {"ngram_range": (4, 2)},
            {"feature_buckets": 1000},
            {"positive_weight": 0.5},
            {"feature_mode": "bytes"},
            {"epochs": 0},
            {"l2": -1.0},
            {"l2": 10.0},  # learning_rate * l2 == 1 zeroes every weight each step
            {"learning_rate": 0.5, "l2": 4.0},  # decay -1 flips every weight's sign
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("l2", float("nan")),
            ("l2", float("inf")),
            ("positive_weight", float("nan")),
            ("positive_weight", float("inf")),
        ],
    )
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            BaselineConfig(**{name: value})


class TestFeatures:
    def test_char_ngram_counts(self):
        cfg = BaselineConfig(ngram_range=(2, 2), feature_buckets=2**16)
        idx, val = one_row("abab", cfg)
        # "ab" occurs twice, "ba" once
        assert val.sum() == 3
        assert len(idx) == 2

    def test_word_mode(self):
        cfg = BaselineConfig(ngram_range=(1, 2), feature_mode="word", feature_buckets=2**16)
        idx, val = one_row("a b c", cfg)
        # unigrams a b c + bigrams "a b" "b c"
        assert val.sum() == 5

    def test_empty_text(self):
        idx, val = one_row("", BaselineConfig())
        assert idx.size == 0 and val.size == 0

    def test_matches_plain_bucket_counting(self):
        texts = ["", "ab", "abab", "Quetiapine → dizzy  again\tand again", "a b c a b c a b"]
        cfgs = [
            BaselineConfig(ngram_range=(2, 4), feature_buckets=2**6),
            BaselineConfig(ngram_range=(1, 3), feature_mode="word", feature_buckets=2**4),
        ]
        for cfg in cfgs:
            for text in texts:
                assert_rows_equal_reference([text], cfg)

    def test_hashing_is_stable(self):
        cfg = BaselineConfig()
        a = one_row("quetiapine makes me dizzy", cfg)
        b = one_row("quetiapine makes me dizzy", cfg)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestCSR:
    TEXTS = ["abab", "", "ab", "seroquel made me dizzy", "a", "dizzy  again\tand again"]

    @pytest.mark.parametrize(
        "cfg",
        [
            BaselineConfig(ngram_range=(3, 5), feature_buckets=2**10),
            BaselineConfig(ngram_range=(2, 2), feature_buckets=2**4),
            BaselineConfig(ngram_range=(2, 3), feature_mode="word", feature_buckets=2**10),
            BaselineConfig(ngram_range=(1, 1), feature_mode="word"),
        ],
    )
    def test_rows_equal_hashed_features(self, cfg):
        assert csr(self.TEXTS, cfg)[0][0] == 0
        assert_rows_equal_reference(self.TEXTS, cfg)

    def test_no_texts(self):
        indptr, indices, data = csr([], BaselineConfig())
        assert indptr.tolist() == [0] and indices.size == 0 and data.size == 0


def reference_row(text, cfg):
    """The spelled-out featurizer: count each n-gram's crc32 bucket, sort by bucket."""
    lo, hi = cfg.ngram_range
    units = list(text) if cfg.feature_mode == "char" else text.split()
    sep = "" if cfg.feature_mode == "char" else " "
    grams = [sep.join(units[i : i + n]) for n in range(lo, hi + 1) for i in range(len(units) - n + 1)]
    counts = Counter(zlib.crc32(g.encode()) & (cfg.feature_buckets - 1) for g in grams)
    return sorted(counts.items())


# All of Unicode (surrogates cannot be encoded, and no text in a dataset holds one),
# with whitespace over-represented so word mode sees empty and whitespace-only texts.
_text = st.text(
    st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from(" \t\n\x0b\u3000a")), max_size=30
)


def assert_rows_equal_reference(texts, cfg, block=baseline._BLOCK_GRAMS, chunk=baseline._CHUNK_WINDOWS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baseline, "_BLOCK_GRAMS", block)
        mp.setattr(baseline, "_CHUNK_WINDOWS", chunk)
        indptr, indices, data = csr(texts, cfg)
    assert indptr.dtype == indices.dtype == np.int64 and data.dtype == np.float64
    assert indptr.shape == (len(texts) + 1,) and indptr[-1] == indices.size == data.size
    for i, text in enumerate(texts):
        a, b = indptr[i], indptr[i + 1]
        row = list(zip(indices[a:b].tolist(), data[a:b].tolist()))
        assert row == [(bucket, float(n)) for bucket, n in reference_row(text, cfg)]


# Characters of 1 to 4 UTF-8 bytes, each width's first and last code point among them.
WIDE = "a\x7f\x80\u00e9\u07ff\u0800\u4e2d\uffff\U00010000\U0001f600\U0010ffff"


class TestCSRLaws:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(_text, max_size=12),
        mode=st.sampled_from(("char", "word")),
        lo=st.integers(1, 3),
        width=st.integers(0, 2),
        buckets=st.sampled_from((1, 2**4, 2**18)),
        block=st.sampled_from((1, 7, baseline._BLOCK_GRAMS)),
        chunk=st.sampled_from((1, 3, baseline._CHUNK_WINDOWS)),
    )
    def test_rows_equal_the_reference_counter(self, texts, mode, lo, width, buckets, block, chunk):
        # Small blocks put block edges inside and between texts, small chunks put
        # chunk edges inside them; the defaults keep most texts in one of each.
        cfg = BaselineConfig(ngram_range=(lo, lo + width), feature_buckets=buckets, feature_mode=mode)
        assert_rows_equal_reference(texts, cfg, block, chunk)

    @pytest.mark.parametrize("block", (1, 7, baseline._BLOCK_GRAMS))
    @pytest.mark.parametrize("chunk", (1, 2, 3, 5, baseline._CHUNK_WINDOWS))
    @pytest.mark.parametrize("lo, hi", ((1, 1), (2, 4), (3, 5)))
    def test_multibyte_characters_across_chunk_and_block_edges(self, block, chunk, lo, hi):
        texts = [WIDE, "", "\U0001f600" * 7, "x" + WIDE[::-1] + "y", "\u00e9\u4e2d", WIDE[5:] + WIDE[:5]]
        assert_rows_equal_reference(texts, BaselineConfig(ngram_range=(lo, hi)), block, chunk)

    @pytest.mark.parametrize("chunk", (1, 3, baseline._CHUNK_WINDOWS))
    def test_empty_and_short_texts_get_empty_rows(self, chunk):
        texts = ["", "ab", "", "\U0001f600\u4e2d", "abcd", "", "a", ""]
        cfg = BaselineConfig(ngram_range=(3, 5))
        assert_rows_equal_reference(texts, cfg, chunk=chunk)
        indptr, _, _ = csr(texts, cfg)
        assert np.diff(indptr).tolist() == [0, 0, 0, 0, 3, 0, 0, 0]

    @pytest.mark.parametrize("text", ["\ud800", "ab\udfff", "\udfffabcdef"])
    def test_a_lone_surrogate_raises_in_char_mode_wherever_it_falls(self, text):
        # The text is encoded whole, so even a surrogate that no 5-gram reaches raises.
        with pytest.raises(UnicodeEncodeError):
            csr(["fine text", text], BaselineConfig(ngram_range=(5, 5)))


class TestTrain:
    def test_separable_set_reaches_perfect_train_accuracy(self):
        d = toy_separable()
        model = train(d, BaselineConfig(seed=1))
        probs = predict_probs(model, [r.text for r in d.records])
        correct = sum((p >= 0.5) == (r.label == 1) for r, p in zip(d.records, probs))
        assert correct == len(d)

    def test_bit_identical_under_same_seed(self):
        d = toy_separable()
        cfg = BaselineConfig(seed=77)
        m1, m2 = train(d, cfg), train(d, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_different_seeds_differ(self):
        d = toy_separable()
        m1 = train(d, BaselineConfig(seed=1))
        m2 = train(d, BaselineConfig(seed=2))
        assert not np.array_equal(m1.weights, m2.weights)

    def test_single_label_rejected(self):
        d = Dataset.from_records([LabeledTweet("t1", "x", 0), LabeledTweet("t2", "y", 0)])
        with pytest.raises(ValueError, match="both labels"):
            train(d, BaselineConfig())

    def test_l2_zero_is_bit_identical_to_dense_reference(self, fixture_corpus):
        cfgs = (
            BaselineConfig(seed=3, epochs=3),
            BaselineConfig(seed=4, epochs=2, positive_weight=2.5, feature_mode="word", ngram_range=(1, 2)),
        )
        for cfg in cfgs:
            model = train(fixture_corpus, cfg)
            weights, bias = dense_reference_fit(fixture_corpus, cfg)
            assert np.array_equal(model.weights, weights)
            assert model.bias == bias

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l2": 1e-4},
            {"l2": 1e-2, "positive_weight": 3.0, "feature_buckets": 2**12},
            # decay 0.7 per step: 160 steps take the scale below 1e-9 twice,
            # so it is folded back into the weights mid-training
            {"l2": 3.0, "learning_rate": 0.1},
        ],
    )
    def test_lazy_l2_matches_dense_reference(self, kwargs):
        d = toy_separable()
        cfg = BaselineConfig(seed=11, **kwargs)
        model = train(d, cfg)
        weights, bias = dense_reference_fit(d, cfg)
        assert rel_err(model.weights, weights) < 1e-12
        assert abs(model.bias - bias) <= 1e-12 * abs(bias)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ngram_range": (4, 6)},
            {"ngram_range": (1, 2), "feature_mode": "word"},
            {"positive_weight": 3.0, "feature_buckets": 2**12},
            # decay 0.05 per step: the scale is folded back every 7 steps
            {"learning_rate": 0.5, "l2": 1.9, "feature_buckets": 2**10},
        ],
    )
    def test_fit_is_bit_identical_to_the_matmul_loop(self, fixture_corpus, kwargs):
        # _fit scores with ndarray.dot and shuffles with an inlined Fisher-Yates
        # loop; the oracle is the same loop with `@` and rng.shuffle. Both
        # dot products are the same BLAS ddot, which this pins on the numpy
        # installed, as it pins predict_probs against `@`.
        records = (*fixture_corpus.records[:60], LabeledTweet("empty", "", 1))
        cfg = BaselineConfig(seed=13, epochs=3, **kwargs)
        matrix = csr([r.text for r in records], cfg)
        rows = baseline._rows(matrix)
        examples = baseline._examples([matrix], [r.label for r in records], cfg)
        model = baseline.BaselineModel(*baseline._fit(examples, cfg.feature_buckets, cfg), cfg)
        weights, bias = matmul_reference_fit(rows, [r.label for r in records], cfg)
        assert model.weights.tobytes() == weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
        probs = predict_probs(model, [r.text for r in records])
        assert probs == [baseline._sigmoid(float(weights[idx] @ val) + bias) for idx, val in rows]

    @settings(max_examples=60, deadline=None)
    @given(
        start=st.integers(0, 150),
        extra=st.lists(
            st.tuples(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                              max_size=30), st.integers(0, 1)),
            max_size=4,
        ),
        mode=st.sampled_from(("char", "word")),
        log_buckets=st.integers(4, 14),
        positive_weight=st.sampled_from((1.0, 2.5)),
        # learning_rate 0.5 with l2 1.9 decays 0.05 a step: the scale is folded back every 7 steps
        rates=st.sampled_from(((0.1, 0.0), (0.1, 1e-3), (0.5, 0.5), (0.5, 1.9))),
        seed=st.integers(0, 2**16),
    )
    def test_train_is_the_full_space_fit_gathered_back(
        self, fixture_corpus, start, extra, mode, log_buckets, positive_weight, rates, seed
    ):
        # train fits in the compact space; the oracle is _fit on rows that were never renumbered.
        records = (
            *fixture_corpus.records[start : start + 40],
            *(LabeledTweet(f"x{i}", text, label) for i, (text, label) in enumerate(extra)),
        )
        cfg = BaselineConfig(
            ngram_range=(2, 4) if mode == "char" else (1, 2), feature_mode=mode, feature_buckets=2**log_buckets,
            epochs=2, learning_rate=rates[0], l2=rates[1], positive_weight=positive_weight, seed=seed,
        )
        d = Dataset.from_records(records)
        assume(d.positive_count and d.negative_count)
        examples = baseline._examples([csr([r.text for r in records], cfg)], [r.label for r in records], cfg)
        weights, bias = baseline._fit(examples, cfg.feature_buckets, cfg)
        model = train(d, cfg)
        assert model.weights.tobytes() == weights.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()

    def test_positive_weight_lifts_training_recall(self, fixture_corpus):
        base = BaselineConfig(seed=5, epochs=4)
        weighted = dataclasses.replace(base, positive_weight=3.0)

        def train_recall(cfg):
            model = train(fixture_corpus, cfg)
            probs = predict_probs(model, [r.text for r in fixture_corpus.records])
            hits = sum(r.label == 1 and p >= 0.5 for r, p in zip(fixture_corpus.records, probs))
            return hits / fixture_corpus.positive_count

        assert train_recall(weighted) >= train_recall(base)

    def test_positive_weight_never_shrinks_predicted_positives(self, fixture_corpus):
        counts = []
        for w in (1.0, 2.0, 3.0):
            cfg = BaselineConfig(seed=9, epochs=4, positive_weight=w)
            model = train(fixture_corpus, cfg)
            probs = predict_probs(model, [r.text for r in fixture_corpus.records])
            counts.append(sum(r.label == 1 and p >= 0.5 for r, p in zip(fixture_corpus.records, probs)))
        assert counts == sorted(counts)


@st.composite
def csr_indices(draw, buckets):
    """(indices, indptr) of a CSR matrix: each row strictly increasing buckets below `buckets`."""
    rows = draw(st.lists(st.lists(st.integers(0, buckets - 1), max_size=12, unique=True), max_size=8))
    indices = np.array([b for row in rows for b in sorted(row)], dtype=np.int64)
    return indices, np.cumsum([0, *map(len, rows)])


class TestCompactSpace:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), log_buckets=st.integers(0, 12))
    def test_train_only_table_renumbers_used_buckets_and_maps_the_rest_to_a_zero_slot(self, data, log_buckets):
        buckets = 1 << log_buckets
        indices, indptr = data.draw(csr_indices(buckets))
        # The matrix cut into blocks of whole rows at drawn edges, as _csr_blocks yields it.
        rows = len(indptr) - 1
        edges = [0, *sorted(data.draw(st.lists(st.integers(0, rows), max_size=3))), rows]
        blocks = [
            (indptr[a : b + 1] - indptr[a], indices[indptr[a] : indptr[b]].copy(), np.ones(indptr[b] - indptr[a]))
            for a, b in zip(edges, edges[1:])
        ]
        before = indices
        table, k = baseline._compact(buckets, blocks)
        indices = np.concatenate([idx for _, idx, _ in blocks])
        used = sorted(set(before.tolist()))
        unused = sorted(set(range(buckets)) - set(used))
        assert table.dtype == np.int32 and table.shape == (buckets,) and k == len(used)
        assert table[used].tolist() == list(range(k))  # ids in bucket order
        assert (table[unused] == k).all()
        assert indices.dtype == np.int64 and np.array_equal(indices, table[before])
        for a, b in zip(indptr, indptr[1:]):
            assert (np.diff(indices[a:b]) > 0).all()
        # A full-space weight vector is 0.0 wherever training never stepped; the
        # compact one holds the used buckets' weights and 0.0 in slot k.
        full = np.zeros(buckets)
        full[used] = data.draw(st.lists(st.floats(width=64), min_size=k, max_size=k))
        compact = np.append(full[used], 0.0)
        probe = np.array(
            data.draw(st.lists(st.integers(0, buckets - 1), max_size=20)) + unused[:1], dtype=np.int64
        )
        assert compact[table[probe]].tobytes() == full[probe].tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            BaselineConfig(ngram_range=(2, 4), feature_buckets=2**16, epochs=2, seed=1),
            BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=2, seed=2),
            # decay 0.05 per step: the scale is folded back every 7 steps
            BaselineConfig(
                learning_rate=0.5, l2=1.9, positive_weight=3.0, feature_buckets=2**14, epochs=2, seed=3
            ),
        ],
    )
    # The default block holds the whole eval side; a block of 16 grams ends at every
    # text of 8 or more characters, so the unseen and the empty tweet fall in different ones.
    @pytest.mark.parametrize("block", (None, 16))
    def test_protocol_matrix_equals_the_full_space_oracle(self, fixture_corpus, monkeypatch, cfg, block):
        if block:
            monkeypatch.setattr(baseline, "_BLOCK_GRAMS", block)
        train_set = Dataset.from_records(fixture_corpus.records[:60])
        eval_set = Dataset.from_records(
            [*fixture_corpus.records[60:90], LabeledTweet("unseen", "zqxj vkwq qqqzz", 0),
             LabeledTweet("empty", "", 1)]
        )
        if block:
            counts = [n for _, n in baseline._blocks([r.text for r in eval_set.records], cfg, cfg.feature_buckets)]
            last_two = [len(eval_set) - 2, len(eval_set) - 1]
            unseen_block, empty_block = np.searchsorted(np.cumsum(counts), last_two, "right")
            assert len(counts) >= 3 and unseen_block < empty_block
        train_rows = baseline._rows(csr([r.text for r in train_set.records], cfg))
        eval_rows = baseline._rows(csr([r.text for r in eval_set.records], cfg))
        seen = set(np.concatenate([idx for idx, _ in train_rows]).tolist())
        assert set(eval_rows[-2][0].tolist()) - seen  # buckets that only the eval side uses
        runs = 2
        spec_probs = list(baseline._spec_predictions(train_set, eval_set, cfg, list(range(runs))))
        matrix = baseline.protocol_matrix(train_set, eval_set, [("m", cfg)], runs)
        labels = [r.label for r in train_set.records]
        for k in range(runs):
            run_cfg = dataclasses.replace(cfg, seed=cfg.seed + k)
            weights, bias = matmul_reference_fit(train_rows, labels, run_cfg)
            probs = [baseline._sigmoid(float(weights[idx] @ val) + bias) for idx, val in eval_rows]
            # Each probability is rounded as it is scored: the 6-decimal value its prediction file holds.
            assert spec_probs[k].tolist() == [round(p, 6) for p in probs]
            expected = dict(zip((r.tweet_id for r in eval_set.records), (round(p, 6) for p in probs)))
            assert dict(zip(matrix.tweet_ids, matrix.probs[k])) == expected
            model = train(train_set, run_cfg)  # the same fit, gathered back to the full space
            assert model.weights.tobytes() == weights.tobytes()
            assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()


class TestTrainBlocks:
    """_fit_runs hashes its training texts as _csr_blocks blocks and never concatenates them."""

    def test_fit_runs_peak_stays_below_one_and_a_half_training_matrices(self, monkeypatch):
        # Concatenating the blocks held them and the joined copy at once: a peak of
        # about twice the matrix. Renumbered in place, the blocks are the matrix.
        monkeypatch.setattr(baseline, "_BLOCK_GRAMS", 2_000)
        cfg = BaselineConfig(feature_buckets=2**12, epochs=1)
        d = make_synthetic_dataset(1_000, 0.1, seed=4)
        texts = [r.text for r in d.records]
        assert sum(1 for _ in baseline._blocks(texts, cfg, cfg.feature_buckets)) >= 20
        csr_bytes = sum(a.nbytes for a in csr(texts, cfg))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table, fits = baseline._fit_runs(d, cfg, [0])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert table.shape == (cfg.feature_buckets,) and len(fits) == 1
        assert peak < 1.5 * csr_bytes


class TestDevBlocks:
    """_spec_predictions scores the dev side one _csr_blocks block at a time, after every run is fitted."""

    def test_never_holds_the_whole_dev_side(self, monkeypatch):
        monkeypatch.setattr(baseline, "_BLOCK_GRAMS", 2_000)
        cfg = BaselineConfig(feature_buckets=2**12, epochs=1)
        train_set = toy_separable()
        eval_texts = [r.text for r in make_synthetic_dataset(1_000, 0.1, seed=4).records]
        eval_set = Dataset.from_records(LabeledTweet(f"d{i}", t, 0) for i, t in enumerate(eval_texts))
        assert sum(1 for _ in baseline._blocks(eval_texts, cfg, cfg.feature_buckets)) >= 20
        dev_csr_bytes = sum(a.nbytes for a in csr(eval_texts, cfg))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = list(baseline._spec_predictions(train_set, eval_set, cfg, [0, 1]))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert [len(p) for p in probs] == [len(eval_texts)] * 2
        assert peak < dev_csr_bytes

    def test_unhashable_dev_text_raises_after_the_runs_are_fitted(self, monkeypatch):
        fits = []
        fit = baseline._fit
        monkeypatch.setattr(baseline, "_fit", lambda *a: fits.append(a) or fit(*a))
        monkeypatch.setattr(baseline, "_shares", lambda jobs: 1)  # one process, which records every fit
        cfg = BaselineConfig(epochs=1)
        train_set = toy_separable()
        eval_set = Dataset.from_records([*train_set.records[:3], LabeledTweet("bad", "lone \ud800 surrogate", 1)])
        with pytest.raises(UnicodeEncodeError) as expected:
            csr([r.text for r in eval_set.records], cfg)
        with pytest.raises(UnicodeEncodeError) as raised:
            baseline.protocol_matrix(train_set, eval_set, [("m", cfg)], runs=2)
        assert str(raised.value) == str(expected.value)
        assert len(fits) == 2


class TestPredict:
    def test_predict_probs_never_holds_the_whole_input(self, monkeypatch):
        # Scored one _csr_blocks block at a time, with the bits of scoring the whole CSR matrix.
        monkeypatch.setattr(baseline, "_BLOCK_GRAMS", 2_000)
        cfg = BaselineConfig(feature_buckets=2**12, epochs=1)
        model = train(toy_separable(), cfg)
        texts = [r.text for r in make_synthetic_dataset(1_000, 0.1, seed=4).records]
        assert sum(1 for _ in baseline._blocks(texts, cfg, cfg.feature_buckets)) >= 20
        matrix = csr(texts, cfg)
        expected = [baseline._prob(model.weights, model.bias, idx, val) for idx, val in baseline._rows(matrix)]
        csr_bytes = sum(a.nbytes for a in matrix)
        del matrix
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            probs = predict_probs(model, texts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert [struct.pack("<d", p) for p in probs] == [struct.pack("<d", p) for p in expected]
        assert peak < csr_bytes

    def test_empty_text_gives_sigmoid_bias(self):
        model = train(toy_separable(), BaselineConfig(seed=3))
        expected = 1.0 / (1.0 + math.exp(-model.bias))
        assert predict_probs(model, [""])[0] == pytest.approx(expected, rel=1e-12)

    def test_strictly_inside_unit_interval(self):
        model = train(toy_separable(), BaselineConfig(seed=3))
        for p in predict_probs(model, ["", "dizzy", "sunny park", "completely new words here"]):
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("mode, ngrams", [("char", (3, 5)), ("word", (1, 2))])
    def test_one_text_is_bit_equal_to_the_batch_of_one(self, mode, ngrams):
        model = train(toy_separable(), BaselineConfig(ngram_range=ngrams, feature_mode=mode, seed=3))
        texts = ["", "feeling dizzy after dose 3", "Quetiapine → 眩暈 \U0001f600 again"]
        for text, batch in zip(texts, predict_probs(model, texts)):
            one = predict_probs(model, [text])[0]  # the text scored alone
            assert struct.pack("<d", one) == struct.pack("<d", batch)

    def test_save_load_round_trip(self, tmp_path):
        model = train(toy_separable(), BaselineConfig(seed=3, l2=1e-4))
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        assert again.config == model.config
        assert np.array_equal(again.weights, model.weights)
        texts = ["feeling dizzy", "sunny park", ""]
        assert predict_probs(again, texts) == predict_probs(model, texts)


class TestGradient:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, k = int(rng.integers(3, 12)), int(rng.integers(2, 9))
            X = rng.normal(size=(n, k))
            y = rng.integers(0, 2, size=n).astype(float)
            sw = np.where(y == 1, float(rng.uniform(1, 4)), 1.0)
            w = rng.normal(scale=0.5, size=k)
            b = float(rng.normal(scale=0.5))
            l2 = float(rng.choice([0.0, 0.01, 0.3]))
            _, grad_w, grad_b = loss_and_grad(w, b, X, y, sw, l2)

            h = 1e-6
            fd_w = np.empty(k)
            for j in range(k):
                wp, wm = w.copy(), w.copy()
                wp[j] += h
                wm[j] -= h
                fd_w[j] = (
                    loss_and_grad(wp, b, X, y, sw, l2)[0]
                    - loss_and_grad(wm, b, X, y, sw, l2)[0]
                ) / (2 * h)
            fd_b = (
                loss_and_grad(w, b + h, X, y, sw, l2)[0]
                - loss_and_grad(w, b - h, X, y, sw, l2)[0]
            ) / (2 * h)

            analytic = np.append(grad_w, grad_b)
            numeric = np.append(fd_w, fd_b)
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-5


class TestProtocol:
    def test_row_count(self, tmp_path):
        train_set = make_synthetic_dataset(300, 0.2, seed=1)
        eval_set = make_synthetic_dataset(100, 0.2, seed=2)
        specs = [
            ("char", BaselineConfig(epochs=2, seed=10)),
            ("word", BaselineConfig(ngram_range=(1, 1), feature_mode="word", epochs=2, seed=20)),
            ("char2", BaselineConfig(ngram_range=(2, 3), epochs=2, seed=30)),
        ]
        out = tmp_path / "p.tsv"
        write_predictions(protocol_matrix(train_set, eval_set, specs, runs=5), out)
        rows = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 1 + 3 * 5 * 100

    def test_single_run_average_is_identity(self, tmp_path):
        train_set = make_synthetic_dataset(200, 0.25, seed=3)
        eval_set = make_synthetic_dataset(50, 0.25, seed=4)
        out = tmp_path / "p.tsv"
        specs = [("m", BaselineConfig(epochs=2, seed=5))]
        write_predictions(protocol_matrix(train_set, eval_set, specs, runs=1), out)
        matrix = load_predictions([out], expected_runs=1)
        avg = average_runs(matrix)["m"]
        assert matrix.keys == (("m", "r1"),)
        assert avg == matrix.probs[0]

    def test_char_and_word_members_diverge(self, tmp_path):
        data = make_synthetic_dataset(1200, 0.15, seed=6)
        train_set = Dataset.from_records(data.records[:900])
        eval_set = Dataset.from_records(data.records[900:])
        specs = [
            ("charview", BaselineConfig(epochs=4, seed=40)),
            ("wordview", BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=4, seed=41)),
        ]
        out = tmp_path / "p.tsv"
        write_predictions(protocol_matrix(train_set, eval_set, specs, runs=3), out)
        matrix = load_predictions([out], expected_runs=3)
        avg = average_runs(matrix)
        pos = {
            m: {t for t, p in zip(matrix.tweet_ids, avg[m]) if p >= 0.5} for m in ("charview", "wordview")
        }
        assert pos["charview"] != pos["wordview"]

    def test_rows_equal_single_model_predictions(self, tmp_path):
        data = make_synthetic_dataset(160, 0.25, seed=8)
        train_set = Dataset.from_records(data.records[:100])
        eval_set = Dataset.from_records([*data.records[100:], LabeledTweet("empty", "", 0)])
        specs = [
            ("char", BaselineConfig(ngram_range=(2, 4), feature_buckets=2**12, epochs=2, seed=1)),
            ("word", BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=2, seed=2)),
            ("l2", BaselineConfig(feature_buckets=2**12, epochs=2, l2=1e-3, positive_weight=2.0, seed=3)),
        ]
        runs = 3
        out = tmp_path / "p.tsv"
        write_predictions(protocol_matrix(train_set, eval_set, specs, runs=runs), out)
        rows = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            model_id, run_id, tweet_id, prob = line.split("\t")
            rows[(model_id, run_id, tweet_id)] = prob
        expected = {}
        for model_id, cfg in specs:
            for k in range(runs):
                model = train(train_set, dataclasses.replace(cfg, seed=cfg.seed + k))
                for r in eval_set.records:
                    expected[(model_id, f"r{k + 1}", r.tweet_id)] = f"{predict_probs(model, [r.text])[0]:.6f}"
        assert rows == expected

    def test_matrix_is_what_its_file_reads_back(self, tmp_path):
        data = make_synthetic_dataset(160, 0.25, seed=9)
        train_set = Dataset.from_records(data.records[:100])
        eval_set = Dataset.from_records([*data.records[100:], LabeledTweet("empty", "", 0)])
        specs = [
            ("char", BaselineConfig(ngram_range=(2, 4), feature_buckets=2**12, epochs=2, seed=1)),
            ("word", BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=2, seed=2)),
            ("l2", BaselineConfig(feature_buckets=2**12, epochs=2, l2=1e-3, positive_weight=2.0, seed=3)),
        ]
        matrix = protocol_matrix(train_set, eval_set, specs, runs=2)
        out = tmp_path / "p.tsv"
        write_predictions(matrix, out)
        again = load_predictions([out], expected_runs=None)
        assert matrix == again
        assert [struct.pack("<d", p) for row in matrix.probs for p in row] == [
            struct.pack("<d", p) for row in again.probs for p in row
        ]

    def test_single_label_rejected_before_hashing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        d = Dataset.from_records([LabeledTweet("t1", "x", 0), LabeledTweet("t2", "y", 0)])
        with pytest.raises(ValueError, match="^training data must contain both labels$"):
            write_predictions(protocol_matrix(d, toy_separable(), [("m", BaselineConfig())], 2), tmp_path / "p.tsv")
        assert calls == [] and not (tmp_path / "p.tsv").exists()

    def test_empty_eval_set_rejected_before_hashing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="^no prediction records$"):
            protocol_matrix(toy_separable(), Dataset.from_records([]), [("m", BaselineConfig())], 2)
        assert calls == []

    def test_valid_protocol_goes_through_the_hashing_hook(self, tmp_path, monkeypatch):
        # The positive control for the *_rejected_before_hashing tests: a valid call
        # hashes each spec's train side through the function they patch, fits every
        # run, and only then hashes the dev side through it.
        calls = []
        blocks, fit = baseline._csr_blocks, baseline._fit
        monkeypatch.setattr(
            baseline, "_csr_blocks", lambda texts, cfg: calls.append(("blocks", cfg)) or blocks(texts, cfg)
        )
        monkeypatch.setattr(baseline, "_fit", lambda examples, size, cfg: calls.append(("fit", cfg)) or fit(examples, size, cfg))
        monkeypatch.setattr(baseline, "_shares", lambda jobs: 1)  # one process, which records every call
        d = toy_separable()
        specs = [("a", BaselineConfig(epochs=1)), ("b", BaselineConfig(epochs=1, feature_mode="word"))]
        protocol_matrix(d, d, specs, runs=2)
        assert calls == [
            call
            for _, cfg in specs
            for call in (("blocks", cfg), ("fit", cfg), ("fit", dataclasses.replace(cfg, seed=1)), ("blocks", cfg))
        ]

    def test_zero_runs_rejected(self, tmp_path):
        d = toy_separable()
        with pytest.raises(ValueError, match="runs"):
            protocol_matrix(d, d, [("m", BaselineConfig())], runs=0)

    def test_repeated_model_id_rejected_before_hashing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        d = toy_separable()
        specs = [("b", BaselineConfig()), ("a", BaselineConfig()), ("b", BaselineConfig(seed=1))]
        with pytest.raises(ValueError, match="^duplicate model_id in specs: b$"):
            write_predictions(protocol_matrix(d, d, specs, runs=2), tmp_path / "p.tsv")
        assert calls == [] and not (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize(
        "model_id, message",
        [
            ("", "model_id, run_id and tweet_id must be non-empty"),
            ("m\tx", "identifier 'm\\tx' must be a string with no tab or newline"),
            ("m\nx", "identifier 'm\\nx' must be a string with no tab or newline"),
        ],
    )
    def test_unwritable_model_id_rejected_before_hashing(self, tmp_path, monkeypatch, model_id, message):
        calls = []
        monkeypatch.setattr(baseline, "_csr_blocks", lambda *a: calls.append(a))
        d = toy_separable()
        with pytest.raises(ValueError) as e:
            write_predictions(
                protocol_matrix(d, d, [("ok", BaselineConfig()), (model_id, BaselineConfig())], runs=2),
                tmp_path / "p.tsv",
            )
        assert str(e.value) == message
        assert calls == [] and not (tmp_path / "p.tsv").exists()

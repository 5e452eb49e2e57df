import dataclasses
import math
import random
import zlib

import numpy as np
import pytest

from adrpipe import baseline
from adrpipe.baseline import (
    BaselineConfig,
    _csr,
    hashed_features,
    load_model,
    loss_and_grad,
    predict_prob,
    run_protocol,
    save_model,
    train,
)
from adrpipe.corpus import Dataset, LabeledTweet, seeded_shuffle
from adrpipe.predictions import average_runs, load_predictions
from adrpipe.synthetic import make_synthetic_dataset


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


def dense_reference_fit(d, cfg):
    """The textbook trainer: re-hash every text, decay all weights on every step."""

    def sigmoid(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    feats = [hashed_features(r.text, cfg) for r in d.records]
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
        idx, val = hashed_features("abab", cfg)
        # "ab" occurs twice, "ba" once
        assert val.sum() == 3
        assert len(idx) == 2

    def test_word_mode(self):
        cfg = BaselineConfig(ngram_range=(1, 2), feature_mode="word", feature_buckets=2**16)
        idx, val = hashed_features("a b c", cfg)
        # unigrams a b c + bigrams "a b" "b c"
        assert val.sum() == 5

    def test_empty_text(self):
        idx, val = hashed_features("", BaselineConfig())
        assert idx.size == 0 and val.size == 0

    def test_matches_plain_bucket_counting(self):
        texts = ["", "ab", "abab", "Quetiapine → dizzy  again\tand again", "a b c a b c a b"]
        cfgs = [
            BaselineConfig(ngram_range=(2, 4), feature_buckets=2**6),
            BaselineConfig(ngram_range=(1, 3), feature_mode="word", feature_buckets=2**4),
        ]
        for cfg in cfgs:
            lo, hi = cfg.ngram_range
            for text in texts:
                units = list(text) if cfg.feature_mode == "char" else text.split()
                joiner = "" if cfg.feature_mode == "char" else " "
                counts = {}
                for n in range(lo, hi + 1):
                    for i in range(len(units) - n + 1):
                        gram = joiner.join(units[i : i + n])
                        b = zlib.crc32(gram.encode("utf-8")) % cfg.feature_buckets
                        counts[b] = counts.get(b, 0) + 1
                idx, val = hashed_features(text, cfg)
                assert idx.dtype == np.int64 and val.dtype == np.float64
                assert idx.tolist() == sorted(counts)
                assert val.tolist() == [counts[b] for b in sorted(counts)]

    def test_hashing_is_stable(self):
        cfg = BaselineConfig()
        a = hashed_features("quetiapine makes me dizzy", cfg)
        b = hashed_features("quetiapine makes me dizzy", cfg)
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
        indptr, indices, data = _csr(self.TEXTS, cfg)
        assert indptr.shape == (len(self.TEXTS) + 1,) and indptr[0] == 0
        assert indptr[-1] == indices.size == data.size
        for i, text in enumerate(self.TEXTS):
            idx, val = hashed_features(text, cfg)
            row_idx, row_val = indices[indptr[i] : indptr[i + 1]], data[indptr[i] : indptr[i + 1]]
            assert row_idx.dtype == idx.dtype and row_val.dtype == val.dtype
            assert np.array_equal(row_idx, idx) and np.array_equal(row_val, val)

    def test_no_texts(self):
        indptr, indices, data = _csr([], BaselineConfig())
        assert indptr.tolist() == [0] and indices.size == 0 and data.size == 0


class TestTrain:
    def test_separable_set_reaches_perfect_train_accuracy(self):
        d = toy_separable()
        model = train(d, BaselineConfig(seed=1))
        correct = sum(
            (predict_prob(model, r.text) >= 0.5) == (r.label == 1) for r in d.records
        )
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

    def test_positive_weight_lifts_training_recall(self, fixture_corpus):
        base = BaselineConfig(seed=5, epochs=4)
        weighted = dataclasses.replace(base, positive_weight=3.0)

        def train_recall(cfg):
            model = train(fixture_corpus, cfg)
            hits = sum(
                1
                for r in fixture_corpus.records
                if r.label == 1 and predict_prob(model, r.text) >= 0.5
            )
            return hits / fixture_corpus.positive_count

        assert train_recall(weighted) >= train_recall(base)

    def test_positive_weight_never_shrinks_predicted_positives(self, fixture_corpus):
        counts = []
        for w in (1.0, 2.0, 3.0):
            cfg = BaselineConfig(seed=9, epochs=4, positive_weight=w)
            model = train(fixture_corpus, cfg)
            counts.append(
                sum(
                    1
                    for r in fixture_corpus.records
                    if r.label == 1 and predict_prob(model, r.text) >= 0.5
                )
            )
        assert counts == sorted(counts)


class TestPredict:
    def test_empty_text_gives_sigmoid_bias(self):
        model = train(toy_separable(), BaselineConfig(seed=3))
        expected = 1.0 / (1.0 + math.exp(-model.bias))
        assert predict_prob(model, "") == pytest.approx(expected, rel=1e-12)

    def test_strictly_inside_unit_interval(self):
        model = train(toy_separable(), BaselineConfig(seed=3))
        for text in ("", "dizzy", "sunny park", "completely new words here"):
            assert 0.0 < predict_prob(model, text) < 1.0

    def test_save_load_round_trip(self, tmp_path):
        model = train(toy_separable(), BaselineConfig(seed=3, l2=1e-4))
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        assert again.config == model.config
        assert np.array_equal(again.weights, model.weights)
        texts = ["feeling dizzy", "sunny park", ""]
        for t in texts:
            assert predict_prob(again, t) == predict_prob(model, t)


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
        out = run_protocol(train_set, eval_set, specs, runs=5, out_path=tmp_path / "p.tsv")
        rows = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(rows) == 1 + 3 * 5 * 100

    def test_single_run_average_is_identity(self, tmp_path):
        train_set = make_synthetic_dataset(200, 0.25, seed=3)
        eval_set = make_synthetic_dataset(50, 0.25, seed=4)
        out = run_protocol(
            train_set, eval_set, [("m", BaselineConfig(epochs=2, seed=5))], runs=1,
            out_path=tmp_path / "p.tsv",
        )
        matrix = load_predictions([out], expected_runs=1)
        avg = average_runs(matrix)["m"]
        assert matrix.keys == (("m", "r1"),)
        for j, t in enumerate(matrix.tweet_ids):
            assert avg[t] == matrix.probs[0, j]

    def test_char_and_word_members_diverge(self, tmp_path):
        data = make_synthetic_dataset(1200, 0.15, seed=6)
        train_set = Dataset.from_records(data.records[:900])
        eval_set = Dataset.from_records(data.records[900:])
        specs = [
            ("charview", BaselineConfig(epochs=4, seed=40)),
            ("wordview", BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=4, seed=41)),
        ]
        out = run_protocol(train_set, eval_set, specs, runs=3, out_path=tmp_path / "p.tsv")
        matrix = load_predictions([out], expected_runs=3)
        avg = average_runs(matrix)
        pos = {
            m: {t for t, p in avg[m].items() if p >= 0.5} for m in ("charview", "wordview")
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
        out = run_protocol(train_set, eval_set, specs, runs=runs, out_path=tmp_path / "p.tsv")
        rows = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            model_id, run_id, tweet_id, prob = line.split("\t")
            rows[(model_id, run_id, tweet_id)] = prob
        expected = {}
        for model_id, cfg in specs:
            for k in range(runs):
                model = train(train_set, dataclasses.replace(cfg, seed=cfg.seed + k))
                for r in eval_set.records:
                    expected[(model_id, f"r{k + 1}", r.tweet_id)] = f"{predict_prob(model, r.text):.6f}"
        assert rows == expected

    def test_single_label_rejected_before_hashing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(baseline, "hashed_features", lambda *a: calls.append(a))
        d = Dataset.from_records([LabeledTweet("t1", "x", 0), LabeledTweet("t2", "y", 0)])
        with pytest.raises(ValueError, match="^training data must contain both labels$"):
            run_protocol(d, toy_separable(), [("m", BaselineConfig())], runs=2, out_path=tmp_path / "p.tsv")
        assert calls == [] and not (tmp_path / "p.tsv").exists()

    def test_zero_runs_rejected(self, tmp_path):
        d = toy_separable()
        with pytest.raises(ValueError, match="runs"):
            run_protocol(d, d, [("m", BaselineConfig())], runs=0, out_path=tmp_path / "p.tsv")

    def test_repeated_model_id_rejected_before_hashing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(baseline, "hashed_features", lambda *a: calls.append(a))
        d = toy_separable()
        specs = [("b", BaselineConfig()), ("a", BaselineConfig()), ("b", BaselineConfig(seed=1))]
        with pytest.raises(ValueError, match="^duplicate model_id in specs: b$"):
            run_protocol(d, d, specs, runs=2, out_path=tmp_path / "p.tsv")
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
        monkeypatch.setattr(baseline, "hashed_features", lambda *a: calls.append(a))
        d = toy_separable()
        with pytest.raises(ValueError) as e:
            run_protocol(d, d, [("ok", BaselineConfig()), (model_id, BaselineConfig())], runs=2,
                         out_path=tmp_path / "p.tsv")
        assert str(e.value) == message
        assert calls == [] and not (tmp_path / "p.tsv").exists()

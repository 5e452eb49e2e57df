import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe.corpus import (
    HEADER,
    Dataset,
    LabeledTweet,
    duplicate_positives,
    load_dataset,
    save_dataset,
    seeded_shuffle,
    stratified_split,
)
from test_line_loops import oracle_read_records


# Any character a field can hold: all of Unicode but tab and the two line breaks.
FIELD_CHARS = st.characters(codec="utf-8", exclude_characters="\t\n\r")
# Short strings, empty ones included, of the characters a record rejects (tab,
# \n, \r) and of those str.splitlines() breaks at but the file format keeps.
HOSTILE = st.lists(st.sampled_from(["a", "b", "\t", "\n", "\r", "\x1c", "\x85", " ", "é"]), max_size=4).map("".join)
# Ids a record accepts, few enough that duplicates are common.
IDS = st.lists(st.sampled_from(["a", "b", "\x1c", "\x85", " "]), min_size=1, max_size=2).map("".join)
# Labels, with the ones a record rejects: save_dataset would write True or 0.0 as is.
LABELS = st.sampled_from([0, 1, True, False, 0.0, 1.0, 2])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadDataset:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["t1\t1\tI feel dizzy on quetiapine", "t2\t0\tlovely day"])
        d = load_dataset(p)
        assert d.positive_count == 1
        assert d.negative_count == 1
        assert [r.tweet_id for r in d.records] == ["t1", "t2"]
        assert d.records[0].text == "I feel dizzy on quetiapine"

    def test_header_is_skipped(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["tweet_id\tlabel\ttext", "t1\t0\thello"])
        assert len(load_dataset(p)) == 1

    def test_header_only_gives_empty_dataset(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["tweet_id\tlabel\ttext"])
        d = load_dataset(p)
        assert len(d) == 0
        assert d.positive_count == 0 and d.negative_count == 0

    def test_label_out_of_range_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["t1\t0\tok", "t3\t2\ttext"])
        with pytest.raises(ValueError, match="label out of range at line 2"):
            load_dataset(p)
        with pytest.raises(ValueError) as e:
            load_dataset(p)
        assert str(e.value) == f"{p}: label out of range at line 2: '2'"

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["t1\t0\ta\textra"])
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(p)

    def test_duplicate_id_is_named(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["t1\t0\ta", "t1\t1\tb"])
        with pytest.raises(ValueError, match="duplicate tweet_id 't1' at line 2"):
            load_dataset(p)
        with pytest.raises(ValueError) as e:
            load_dataset(p)
        assert str(e.value) == f"{p}: duplicate tweet_id 't1' at line 2"

    def test_empty_id_names_file_and_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_lines(p, ["t1\t0\tok", "\t0\thello"])
        with pytest.raises(ValueError) as e:
            load_dataset(p)
        assert str(e.value) == f"{p}: tweet_id must be non-empty at line 2"

    def test_round_trip(self, tmp_path, fixture_corpus):
        out = tmp_path / "copy.tsv"
        save_dataset(fixture_corpus, out)
        again = load_dataset(out)
        assert again == fixture_corpus

    def test_round_trip_without_header(self, tmp_path, fixture_corpus):
        out = tmp_path / "copy.tsv"
        save_dataset(fixture_corpus, out, header=False)
        assert load_dataset(out) == fixture_corpus

    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("header", [True, False])
    def test_streamed_chunks_write_every_line_once(self, tmp_path, n, header):
        d = Dataset.from_records(LabeledTweet(f"t{i}", f"text {i}", i % 2) for i in range(n))
        save_dataset(d, tmp_path / "d.tsv", header=header)
        lines = [f"t{i}\t{i % 2}\ttext {i}" for i in range(n)]
        expected = "\n".join(["tweet_id\tlabel\ttext"] * header + lines) + "\n"
        assert (tmp_path / "d.tsv").read_bytes() == expected.encode("utf-8")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        records=st.lists(
            st.tuples(st.text(FIELD_CHARS, min_size=1), st.text(FIELD_CHARS), st.integers(0, 1)),
            max_size=8,
            unique_by=lambda r: r[0],
        ),
        header=st.booleans(),
    )
    def test_round_trip_over_unicode(self, tmp_path, records, header):
        d = Dataset.from_records(LabeledTweet(*r) for r in records)
        save_dataset(d, tmp_path / "d.tsv", header=header)
        assert load_dataset(tmp_path / "d.tsv") == d


class TestLabeledTweet:
    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            LabeledTweet("t1", "x", 2)

    @pytest.mark.parametrize("label", [True, False, 1.0, 0.0])
    def test_rejects_a_label_that_is_not_an_int(self, label):
        # save_dataset would write True or 0.0, which load_dataset rejects.
        with pytest.raises(ValueError, match=f"^label must be 0 or 1, got {label!r}$"):
            LabeledTweet("t1", "x", label)

    def test_int_labels_round_trip(self, tmp_path):
        d = Dataset.from_records([LabeledTweet("t1", "x", 1), LabeledTweet("t2", "y", 0)])
        save_dataset(d, tmp_path / "d.tsv")
        assert (tmp_path / "d.tsv").read_text(encoding="utf-8").splitlines()[1:] == ["t1\t1\tx", "t2\t0\ty"]
        again = load_dataset(tmp_path / "d.tsv")
        assert again == d and [type(r.label) for r in again.records] == [int, int]

    def test_rejects_tab_in_id(self):
        with pytest.raises(ValueError):
            LabeledTweet("t\t1", "x", 0)

    def test_rejects_newline_in_text(self):
        with pytest.raises(ValueError):
            LabeledTweet("t1", "a\nb", 0)

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            LabeledTweet("", "x", 0)

    def test_rejects_carriage_return(self):
        # The loader reads in universal-newline mode, where \r ends a line.
        with pytest.raises(ValueError) as e:
            LabeledTweet("t\r1", "x", 0)
        assert str(e.value) == "tweet_id 't\\r1' contains tab or newline"
        with pytest.raises(ValueError, match="^text of t1 contains tab or newline$"):
            LabeledTweet("t1", "a\rb", 0)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"])
    def test_other_line_separators_reload_unchanged(self, tmp_path, char):
        # str.splitlines() breaks at these; the file format does not.
        d = Dataset.from_records(
            [LabeledTweet(f"t{char}1", f"a{char}b", 1), LabeledTweet("t2", "c", 0)]
        )
        save_dataset(d, tmp_path / "d.tsv")
        assert load_dataset(tmp_path / "d.tsv") == d


    def test_a_record_is_a_tuple_of_its_fields(self):
        r = LabeledTweet("t1", "x", 1)
        assert r == ("t1", "x", 1) and hash(r) == hash(("t1", "x", 1))
        tweet_id, text, label = r
        assert (tweet_id, text, label) == (r.tweet_id, r.text, r.label) == ("t1", "x", 1)
        assert repr(r) == "LabeledTweet(tweet_id='t1', text='x', label=1)"
        with pytest.raises(AttributeError):
            r.text = "y"
        with pytest.raises(TypeError):
            dataclasses.replace(r, text="y")


def outcome(build):
    """What build() returns, or the type and message of the ValueError or TypeError it raises."""
    try:
        return build()
    except (ValueError, TypeError) as e:
        return type(e), str(e)


def load_one_at_a_time(path):
    """The loader that builds each record through LabeledTweet, the reference for load_dataset."""
    return Dataset(tuple(LabeledTweet(*fields) for fields in oracle_read_records(path)))


class TestBulkRecordsAreChecked:
    """load_dataset builds records in bulk, with_texts one at a time: each gives and rejects what LabeledTweet does."""

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(IDS, max_size=5, unique=True), texts=st.lists(st.one_of(HOSTILE, st.none()), max_size=6),
           as_iterator=st.booleans())
    def test_with_texts_equals_one_record_at_a_time(self, ids, texts, as_iterator):
        d = Dataset(tuple(LabeledTweet(tweet_id, "x", i % 2) for i, tweet_id in enumerate(ids)))
        expected = outcome(lambda: Dataset(tuple(
            LabeledTweet(r.tweet_id, text, r.label) for r, text in zip(d.records, texts, strict=True)
        )))
        got = outcome(lambda: d.with_texts(iter(texts) if as_iterator else texts))
        assert got == expected
        if isinstance(got, Dataset):
            assert {type(r) for r in got.records} <= {LabeledTweet}

    def test_with_texts_reports_an_earlier_faulty_text_before_a_count_mismatch(self):
        d = make_dataset(2, 2)
        for texts in (["ok", "a\tb"], ["ok", "a\rb", "c", "d", "e"]):
            with pytest.raises(ValueError, match="^text of p1 contains tab or newline$"):
                d.with_texts(texts)
        with pytest.raises(ValueError, match="shorter"):
            d.with_texts(["ok", "fine"])
        with pytest.raises(ValueError, match="longer"):
            d.with_texts(["a", "b", "c", "d", "e\tf"])

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(HOSTILE, LABELS, HOSTILE), max_size=5), header=st.booleans())
    def test_load_dataset_equals_one_record_at_a_time(self, tmp_path, rows, header):
        lines = [HEADER] * header + [f"{tweet_id}\t{label}\t{text}" for tweet_id, label, text in rows]
        path = tmp_path / "d.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        got = outcome(lambda: load_dataset(path))
        assert got == outcome(lambda: load_one_at_a_time(path))
        if isinstance(got, Dataset):
            assert {type(r) for r in got.records} <= {LabeledTweet}

    @settings(max_examples=300, deadline=None)
    @given(fields=st.tuples(HOSTILE, HOSTILE, LABELS))
    def test_no_inherited_helper_builds_an_unchecked_record(self, fields):
        expected = outcome(lambda: LabeledTweet(*fields))
        tweet_id, text, label = fields
        record = LabeledTweet("t1", "x", 0)
        for build in (
            lambda: LabeledTweet(tweet_id=tweet_id, text=text, label=label),
            lambda: LabeledTweet._make(fields),
            lambda: LabeledTweet._make(iter(fields)),
            lambda: record._replace(tweet_id=tweet_id, text=text, label=label),
        ):
            got = outcome(build)
            assert got == expected
            assert type(got) is type(expected)
        if isinstance(expected, LabeledTweet):
            for again in (pickle.loads(pickle.dumps(expected)), copy.copy(expected), copy.deepcopy(expected)):
                assert again == expected and type(again) is LabeledTweet


class TestDatasetIds:
    def test_duplicate_ids_are_rejected_by_the_constructor(self):
        records = (LabeledTweet("a", "x", 0), LabeledTweet("a", "y", 1), LabeledTweet("b", "z", 1))
        for build in (Dataset, Dataset.from_records):
            with pytest.raises(ValueError, match="^duplicate tweet_id 'a'$"):
                build(records)

    def test_the_first_repeated_id_is_named(self):
        records = [LabeledTweet(tweet_id, "x", 0) for tweet_id in ("a", "b", "b", "a")]
        with pytest.raises(ValueError, match="^duplicate tweet_id 'b'$"):
            Dataset(tuple(records))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.tuples(IDS, st.text(FIELD_CHARS), st.integers(0, 1)), max_size=6),
           header=st.booleans())
    def test_every_dataset_that_constructs_round_trips(self, tmp_path, records, header):
        ids = [tweet_id for tweet_id, _, _ in records]
        try:
            d = Dataset(tuple(LabeledTweet(*r) for r in records))
        except ValueError:
            assert len(set(ids)) < len(ids)
            return
        save_dataset(d, tmp_path / "d.tsv", header=header)
        assert load_dataset(tmp_path / "d.tsv") == d


class TestDatasetCounts:
    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), max_size=30))
    def test_counts_are_the_label_sums(self, labels):
        d = Dataset(tuple(LabeledTweet(f"t{i}", "x", label) for i, label in enumerate(labels)))
        assert d.positive_count == sum(labels)
        assert d.negative_count == len(labels) - sum(labels)

    def test_counts_cannot_be_given(self):
        # Counts given beside the records could disagree with them.
        records = (LabeledTweet("t1", "x", 1), LabeledTweet("t2", "y", 1))
        with pytest.raises(TypeError):
            Dataset(records, 1, 1)
        with pytest.raises(TypeError):
            Dataset(records=records, positive_count=1, negative_count=1)


class TestWithTexts:
    def test_equals_rebuilding_from_records(self):
        d = make_dataset(2, 3)
        texts = [f"clean {r.tweet_id}" for r in d.records]
        expected = Dataset.from_records(LabeledTweet(r.tweet_id, t, r.label) for r, t in zip(d.records, texts))
        assert d.with_texts(iter(texts)) == expected

    def test_texts_are_still_checked(self):
        d = make_dataset(1, 1)
        with pytest.raises(ValueError, match="^text of n0 contains tab or newline$"):
            d.with_texts(["fine", "a\tb"])
        with pytest.raises(ValueError):
            d.with_texts(["one text for two records"])


def make_dataset(n_pos, n_neg):
    records = [LabeledTweet(f"p{i}", f"pos {i}", 1) for i in range(n_pos)]
    records += [LabeledTweet(f"n{i}", f"neg {i}", 0) for i in range(n_neg)]
    return Dataset.from_records(records)


class TestStratifiedSplit:
    def test_80_20_counts(self):
        d = make_dataset(10, 90)
        train, dev = stratified_split(d, 0.8, seed=1)
        assert len(train) == 80 and train.positive_count == 8
        assert len(dev) == 20 and dev.positive_count == 2

    def test_five_five(self):
        # floor(0.8 * 5) = 4 per label
        d = make_dataset(5, 5)
        train, dev = stratified_split(d, 0.8, seed=123)
        assert (train.positive_count, train.negative_count) == (4, 4)
        assert (dev.positive_count, dev.negative_count) == (1, 1)

    def test_same_seed_same_split(self):
        d = make_dataset(7, 23)
        a = stratified_split(d, 0.6, seed=42)
        b = stratified_split(d, 0.6, seed=42)
        assert a == b

    def test_different_seeds_differ_somewhere(self):
        d = make_dataset(20, 80)
        ids = set()
        for seed in range(5):
            train, _ = stratified_split(d, 0.5, seed=seed)
            ids.add(tuple(r.tweet_id for r in train.records))
        assert len(ids) > 1

    def test_outputs_partition_input(self):
        rng = random.Random(0)
        for trial in range(25):
            n_pos = rng.randrange(1, 30)
            n_neg = rng.randrange(1, 60)
            fraction = rng.uniform(0.05, 0.95)
            d = make_dataset(n_pos, n_neg)
            train, dev = stratified_split(d, fraction, seed=trial)
            train_ids = {r.tweet_id for r in train.records}
            dev_ids = {r.tweet_id for r in dev.records}
            assert train_ids.isdisjoint(dev_ids)
            assert sorted(train.records + dev.records, key=lambda r: r.tweet_id) == sorted(
                d.records, key=lambda r: r.tweet_id
            )

    def test_per_label_floor_for_many_seeds(self):
        import math

        d = make_dataset(13, 37)
        for seed in range(20):
            train, _ = stratified_split(d, 0.7, seed=seed)
            assert train.positive_count == math.floor(0.7 * 13)
            assert train.negative_count == math.floor(0.7 * 37)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            stratified_split(make_dataset(2, 2), fraction, seed=0)


class TestSeededShuffle:
    @staticmethod
    def spelled_out(items, rng):
        for i in range(len(items) - 1, 0, -1):
            j = rng.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    # Around powers of two, where i + 1 gains a bit and a draw is rejected most often.
    SIZES = sorted({0, 1, 2, 3, 10, 100, 1000, 4097, *(2**k + d for k in (2, 5, 8, 12) for d in (-1, 0, 1))})

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_spelled_out_fisher_yates(self, n):
        # Splits and epoch orders depend on this exact permutation and on the
        # draws it leaves for the next caller, so both are pinned, against the
        # randrange loop and against random.Random.shuffle.
        for seed in range(50):
            got, loop, library = list(range(n)), list(range(n)), list(range(n))
            got_rng, loop_rng, library_rng = random.Random(seed), random.Random(seed), random.Random(seed)
            seeded_shuffle(got, got_rng)
            self.spelled_out(loop, loop_rng)
            library_rng.shuffle(library)
            assert got == loop == library
            assert got_rng.getstate() == loop_rng.getstate() == library_rng.getstate()

    @pytest.mark.parametrize(
        "shuffle",
        [seeded_shuffle, spelled_out, lambda items, rng: rng.shuffle(items)],
        ids=["seeded_shuffle", "randrange_loop", "random_shuffle"],
    )
    def test_a_draw_of_i_plus_one_is_rejected_and_i_kept(self, shuffle):
        class Scripted(random.Random):
            """Answers slot i's draws with i + 1, the smallest rejected value, then i, the largest kept."""

            def __init__(self, n):
                super().__init__(0)
                self.script = [j for i in range(n - 1, 0, -1) for j in (i + 1, i)]
                self.bits = []

            def getrandbits(self, k):
                self.bits.append(k)
                return self.script.pop(0)

        items, rng = list(range(9)), Scripted(9)
        shuffle(items, rng)
        assert items == list(range(9))
        assert rng.script == []
        assert rng.bits == [(i + 1).bit_length() for i in range(8, 0, -1) for _ in range(2)]


class TestDuplicatePositives:
    def test_counts(self):
        d = make_dataset(3, 10)
        out = duplicate_positives(d, extra_copies=2)
        assert out.positive_count == 9
        assert out.negative_count == 10
        assert len(out) == 19

    def test_zero_copies_is_identity(self):
        d = make_dataset(4, 6)
        assert duplicate_positives(d, 0) == d

    def test_suffix_ids_follow_source(self):
        d = Dataset.from_records(
            [LabeledTweet("t9", "bad reaction", 1), LabeledTweet("t10", "fine", 0)]
        )
        out = duplicate_positives(d, 2)
        assert [r.tweet_id for r in out.records] == ["t9", "t9#dup1", "t9#dup2", "t10"]
        assert {r.text for r in out.records[:3]} == {"bad reaction"}

    def test_negatives_never_change(self):
        rng = random.Random(3)
        for trial in range(10):
            d = make_dataset(rng.randrange(1, 10), rng.randrange(1, 10))
            k = rng.randrange(0, 4)
            out = duplicate_positives(d, k)
            assert out.negative_count == d.negative_count
            assert out.positive_count == d.positive_count * (1 + k)

    def test_negative_copies_rejected(self):
        with pytest.raises(ValueError):
            duplicate_positives(make_dataset(1, 1), -1)

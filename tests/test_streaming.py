"""`preprocess` and `tokens --stats` stream their input: each record is read,
checked, and cleaned and written or counted before the next one is read.
Pinned here: a fault on the last of ~10k lines fails as a whole-file load
does and leaves the output as it was; a file cleaned in place; which error
wins when both paths are bad; and the commands' allocation peaks against a
whole-file load."""

import tracemalloc
from pathlib import Path

import pytest

from adrpipe.cli import _cleaned, main
from adrpipe.corpus import HEADER, Dataset, LabeledTweet, load_dataset, read_records, save_dataset, write_records
from adrpipe.preprocess import DrugLexicon, PipelineConfig
from adrpipe.synthetic import make_synthetic_dataset

DATA = Path(__file__).resolve().parent.parent / "data"
N = 10_000


def run(*argv):
    return main([str(a) for a in argv])


def command(name, inp, out):
    if name == "preprocess":
        return ["preprocess", "--input", inp, "--lexicon", DATA / "drug_lexicon.tsv", "--output", out]
    return ["tokens", "--vocab", DATA / "fixture_vocab.txt", "--stats", "--input", inp]


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def body():
    """N record lines (ids t0 ... t9999), each ending in a newline, after the header."""
    d = make_synthetic_dataset(N, 0.1, 3)
    return HEADER + "\n" + "".join(f"t{i}\t{r.label}\t{r.text}\n" for i, r in enumerate(d.records))


# The last line, N + 2 (the header is line 1), and the error it raises.
LATE_FAULTS = {
    "bad_label": (f"t{N}\t7\tlate\n", f"label out of range at line {N + 2}: '7'"),
    "duplicate_id": ("t0\t0\tlate\n", f"duplicate tweet_id 't0' at line {N + 2}"),
}


class TestLateFaults:
    @pytest.mark.parametrize("fault", LATE_FAULTS)
    @pytest.mark.parametrize("name", ["preprocess", "tokens"])
    def test_fails_as_a_whole_file_load_does(self, tmp_path, capsys, body, name, fault):
        line, message = LATE_FAULTS[fault]
        inp = tmp_path / "in.tsv"
        inp.write_text(body + line, encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "clean.tsv"
        out.write_bytes(b"an earlier output\n")
        assert run(*command(name, inp, out)) == 1
        assert capsys.readouterr() == ("", f"{name}: {inp}: {message}\n")
        with pytest.raises(ValueError) as whole_file:
            load_dataset(inp)
        assert str(whole_file.value) == f"{inp}: {message}"
        assert out.read_bytes() == b"an earlier output\n"
        assert [p.name for p in out_dir.iterdir()] == ["clean.tsv"]  # no temp file left

    @pytest.mark.parametrize("fault", LATE_FAULTS)
    def test_an_input_cleaned_in_place_is_left_as_it_was(self, tmp_path, capsys, body, fault):
        inp = tmp_path / "in.tsv"
        inp.write_text(body + LATE_FAULTS[fault][0], encoding="utf-8")
        before = inp.read_bytes()
        assert run(*command("preprocess", inp, inp)) == 1
        assert inp.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["in.tsv"]


def test_cleaning_in_place_writes_what_another_path_gets(tmp_path, capsys, body):
    inp = tmp_path / "in.tsv"
    inp.write_text(body, encoding="utf-8")
    assert run(*command("preprocess", inp, tmp_path / "other.tsv")) == 0
    assert run(*command("preprocess", inp, inp)) == 0
    assert capsys.readouterr().out == (
        f"wrote {N} records to {tmp_path / 'other.tsv'}\nwrote {N} records to {inp}\n"
    )
    assert inp.read_bytes() == (tmp_path / "other.tsv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.tsv", "other.tsv"]


def test_a_missing_input_is_named_before_a_missing_output_directory(tmp_path, capsys):
    absent = tmp_path / "absent.tsv"
    assert run(*command("preprocess", absent, tmp_path / "no_dir" / "clean.tsv")) == 2
    assert capsys.readouterr() == ("", f"preprocess: [Errno 2] No such file or directory: '{absent}'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_a_cleaned_text_holding_a_tab_or_line_break_raises_the_record_error(char):
    cfg = PipelineConfig(lexicon=DrugLexicon({"seroquel": f"quetia{char}pine"}))
    records = [LabeledTweet("t1", "Fine", 0), LabeledTweet("t2", "took Seroquel", 1)]
    stream = _cleaned(iter(records), cfg)
    assert next(stream) == ("t1", "fine", 0)
    with pytest.raises(ValueError) as streamed:
        next(stream)
    with pytest.raises(ValueError) as whole:
        Dataset(tuple(records)).with_texts(["fine", f"took quetia{char}pine"])
    assert str(streamed.value) == str(whole.value) == "text of t2 contains tab or newline"


def test_records_are_yielded_before_a_later_line_is_read(tmp_path):
    p = tmp_path / "d.tsv"
    p.write_text(f"{HEADER}\nt1\t0\ta\nt2\t9\tb\n", encoding="utf-8")
    stream = read_records(p)
    assert next(stream) == ("t1", "a", 0)
    with pytest.raises(ValueError, match="at line 3"):
        next(stream)


@pytest.mark.parametrize("header", [True, False])
def test_write_records_streams_what_save_dataset_writes_and_counts_it(tmp_path, body, header):
    (tmp_path / "in.tsv").write_text(body, encoding="utf-8")
    d = load_dataset(tmp_path / "in.tsv")
    save_dataset(d, tmp_path / "saved.tsv", header)
    assert write_records(iter(d.records), tmp_path / "streamed.tsv", header) == N
    assert (tmp_path / "streamed.tsv").read_bytes() == (tmp_path / "saved.tsv").read_bytes()
    assert write_records(iter([]), tmp_path / "empty.tsv", header) == 0


def test_streaming_commands_peak_below_half_of_a_whole_file_load(tmp_path, capsys):
    inp, out = tmp_path / "in.tsv", tmp_path / "clean.tsv"
    save_dataset(make_synthetic_dataset(8000, 0.1, 5), inp)
    argvs = {"preprocess": command("preprocess", inp, out), "tokens": command("tokens", out, None)}
    for argv in argvs.values():  # imports and the regex cache fill outside the traced calls
        assert run(*argv) == 0
    whole_file = traced_peak(lambda: load_dataset(inp))
    peaks = {name: traced_peak(lambda: run(*argv)) for name, argv in argvs.items()}
    assert all(peak < whole_file / 2 for peak in peaks.values()), (peaks, whole_file)

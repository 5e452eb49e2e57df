"""The line rules every tab-separated format shares, checked through each loader, and the
one streaming atomic writer every output goes through."""

import argparse
import contextlib
import errno
import io
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adrpipe import _fork
from adrpipe._io import _TEMP_NAMES, atomic_write, chunked, quote_field
from adrpipe.cli import cmd_variability, main
from adrpipe.corpus import load_dataset
from adrpipe.ensemble import read_decisions
from adrpipe.predictions import load_predictions
from adrpipe.preprocess import load_lexicon


def load_metrics(path):
    """The table `adrpipe variability` prints for a run-metrics file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cmd_variability(argparse.Namespace(metrics=str(path), scenario=None))
    return out.getvalue()


# loader, fields per line, a well-formed file with LF line endings and one blank line
FORMATS = [
    pytest.param(
        load_dataset, 3, "tweet_id\tlabel\ttext\nt1\t0\thello there\n\nt2\t1\tfelt dizzy\n", id="dataset"
    ),
    pytest.param(
        lambda p: load_predictions([p], expected_runs=None),
        4,
        "model_id\trun_id\ttweet_id\tprob\nm\tr1\tt1\t0.25\n\nm\tr1\tt2\t0.5\n",
        id="predictions",
    ),
    pytest.param(
        read_decisions,
        4,
        "tweet_id\tmodel_probs\tmodel_verdicts\tensemble\n"
        "t1\ta:0.250000,b:0.750000\ta:0,b:1\t1\n\nt2\ta:0.100000,b:0.200000\ta:0,b:0\t0\n",
        id="decisions",
    ),
    pytest.param(load_lexicon, 2, "# brand, generic\nSeroquel\tquetiapine\n\nzyprexa\tolanzapine\n", id="lexicon"),
    pytest.param(
        load_metrics, 4, "scenario\trun_id\tf1\trecall\na\tr1\t0.5\t0.4\n\na\tr2\t0.6\t0.7\n", id="metrics"
    ),
]


@pytest.mark.parametrize("load, width, text", FORMATS)
class TestEveryFormat:
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_field_count_is_one_message(self, tmp_path, load, width, text, extra):
        p = tmp_path / "f.tsv"
        p.write_text(text + "\t".join(["x"] * (width + extra)) + "\n", encoding="utf-8")
        lineno = text.count("\n") + 1
        with pytest.raises(ValueError) as e:
            load(p)
        assert str(e.value) == f"{p}: expected {width} fields at line {lineno}, got {width + extra}"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_copies_load_equal(self, tmp_path, load, width, text, newline):
        lf, other = tmp_path / "lf.tsv", tmp_path / "other.tsv"
        lf.write_bytes(text.encode("utf-8"))
        other.write_bytes(text.replace("\n", newline).encode("utf-8"))
        expected = load(lf)
        assert expected
        assert load(other) == expected


@pytest.mark.parametrize(
    "load, header",
    [
        (lambda p: load_predictions([p]), "model_id\trun_id\ttweet_id\tprob"),
        (load_metrics, "scenario\trun_id\tf1\trecall"),
    ],
    ids=["predictions", "metrics"],
)
@pytest.mark.parametrize("first", ["", "model\trun\ttweet\tp\n", "\n"])
def test_missing_mandatory_header_is_one_message(tmp_path, load, header, first):
    p = tmp_path / "f.tsv"
    p.write_text(first, encoding="utf-8")
    with pytest.raises(ValueError) as e:
        load(p)
    assert str(e.value) == f"{p}: missing or malformed header (expected {header!r})"


class TestAtomicWrite:
    def test_str_and_bytes_chunks_are_written_in_order(self, tmp_path):
        p = tmp_path / "out.tsv"
        atomic_write(p, ["a\tb\n", "é\r\n".encode("utf-8"), " c\n"])
        assert p.read_bytes() == "a\tb\né\r\n c\n".encode("utf-8")

    def test_chunk_iterator_failing_mid_stream_leaves_the_old_file(self, tmp_path):
        p = tmp_path / "out.tsv"
        p.write_bytes(b"old contents\n")

        def chunks():
            yield "new line 1\n"
            yield "new line 2\n" * 10_000
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            atomic_write(p, chunks())
        assert p.read_bytes() == b"old contents\n"
        assert sorted(x.name for x in tmp_path.iterdir()) == ["out.tsv"]
        assert list(tmp_path.glob(".out.tsv.*.tmp")) == []

    def test_failed_rename_exits_2_through_the_cli_and_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        pred = tmp_path / "pred.tsv"
        pred.write_text("model_id\trun_id\ttweet_id\tprob\nm\tr1\tt1\t0.25\nm\tr1\tt2\t0.5\n", encoding="utf-8")
        out = tmp_path / "merged.tsv"

        def failing_replace(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr("adrpipe._io.os.replace", failing_replace)
        assert main(["ingest", "--pred", str(pred), "--expect-runs", "0", "--output", str(out)]) == 2
        assert "ingest: cannot rename" in capsys.readouterr().err
        assert sorted(x.name for x in tmp_path.iterdir()) == ["pred.tsv"]

    @pytest.mark.parametrize("mask", [0o002, 0o022, 0o077])
    def test_output_mode_is_0666_less_the_umask(self, tmp_path, mask):
        p = tmp_path / "out.tsv"
        old = os.umask(mask)
        try:
            atomic_write(p, ["x\n"])
        finally:
            os.umask(old)
        assert p.stat().st_mode & 0o777 == 0o666 & ~mask

    def test_a_taken_temp_name_moves_on_to_the_next(self, tmp_path):
        p = tmp_path / "out.tsv"
        taken = tmp_path / f".out.tsv.{os.getpid()}.0.tmp"
        taken.write_bytes(b"someone else's\n")
        atomic_write(p, ["new\n"])
        assert p.read_bytes() == b"new\n" and taken.read_bytes() == b"someone else's\n"
        assert sorted(x.name for x in tmp_path.iterdir()) == [taken.name, "out.tsv"]

    def test_every_temp_name_taken_is_an_error_naming_the_output(self, tmp_path):
        p = tmp_path / "out.tsv"
        p.write_bytes(b"old contents\n")
        for n in range(_TEMP_NAMES):
            (tmp_path / f".out.tsv.{os.getpid()}.{n}.tmp").touch()
        with pytest.raises(FileExistsError) as e:
            atomic_write(p, ["new\n"])
        assert e.value.errno == errno.EEXIST and e.value.filename == str(p)
        assert p.read_bytes() == b"old contents\n" and len(list(tmp_path.iterdir())) == _TEMP_NAMES + 1

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097, 10_000])
    def test_chunked_keeps_every_line_in_order(self, n):
        lines = [f"line {i}\n" for i in range(n)]
        chunks = list(chunked(lines))
        assert "".join(chunks) == "".join(lines)
        assert [c.count("\n") for c in chunks] == [1024] * (n // 1024) + [n % 1024] * (n % 1024 > 0)


class TestQuoteField:
    def test_a_short_field_is_its_repr(self):
        assert quote_field("") == "''"
        assert quote_field("x" * 50) == repr("x" * 50)
        assert quote_field("a\tb") == "'a\\tb'"

    def test_a_long_field_is_cut_with_a_count_of_the_rest(self):
        assert quote_field("x" * 51) == repr("x" * 50) + "... (1 more characters)"
        assert quote_field("y" * 2_000_000, limit=3) == "'yyy'... (1999997 more characters)"


HUGE = "9" * 2_000_000  # 2 MB of one field
GOLD = "tweet_id\tlabel\ttext\nt1\t1\thello\n"
DECISION = "t1\tm:0.5\tm:1\t1\n"


# command, the files it reads with the one holding the huge field last, and the start of its message
@pytest.mark.parametrize(
    "command, files, message",
    [
        ("ingest --check --expect-runs 0 --pred",
         {"p.tsv": f"model_id\trun_id\ttweet_id\tprob\nm\tr1\tt1\t0.5\nm\tr1\tt2\tx{HUGE}\n"},
         "bad probability 'x9999"),
        ("ingest --check --expect-runs 0 --pred",
         {"p.tsv": f"model_id\trun_id\ttweet_id\tprob\nm\tr1\tt1\t2{'0' * 3_000}\n"},
         "probability out of range at line 2: '2000"),
        ("evaluate --report r.json --decisions dec.tsv --gold",
         {"dec.tsv": DECISION, "gold.tsv": f"tweet_id\tlabel\ttext\nt1\t{HUGE}\thello\n"},
         "label out of range at line 2: '9999"),
        ("evaluate --report r.json --gold gold.tsv --decisions",
         {"gold.tsv": GOLD, "dec.tsv": f"t{HUGE}\tm:0.5\tm:1\t1\n" * 2},
         "duplicate tweet_id 't9999"),
        ("preprocess --input gold.tsv --output o.tsv --lexicon",
         {"gold.tsv": GOLD, "lex.tsv": f"{HUGE}\t{HUGE}\n"},
         "self-mapping rejected: '9999"),
    ],
    ids=["probability", "out_of_range_probability", "label", "decision_tweet_id", "lexicon_brand"],
)
def test_a_2mb_field_gives_a_line_error_under_1kb(tmp_path, capsys, monkeypatch, command, files, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([*command.split(), name]) == 1
    err = capsys.readouterr().err
    assert len(err.encode("utf-8")) < 1024
    assert err.count("\n") == 1 and f"{name}: {message}" in err and "more characters)" in err


# Each reader's file as lines (no line breaks), valid and past the decoder's 8 KB buffer; and each reader's command,
# with the file under test last, after the valid files it reads first.
ROWS = range(1500)
VALID = {
    "p.tsv": ["model_id\trun_id\ttweet_id\tprob", *(f"m\tr1\tt{i}\t0.5" for i in ROWS)],
    "dec.tsv": ["tweet_id\tmodel_probs\tmodel_verdicts\tensemble", *(f"t{i}\tm:0.500000\tm:1\t1" for i in ROWS)],
    "d.tsv": ["tweet_id\tlabel\ttext", *(f"t{i}\t{i % 2}\tfelt dizzy after dose {i}" for i in ROWS)],
    "lex.tsv": ["# brand, generic", *(f"brand{i}\tgeneric{i}" for i in ROWS)],
    "vocab.txt": ["[UNK]", *(f"token{i}" for i in ROWS)],
    "m.tsv": ["scenario\trun_id\tf1\trecall", *(f"s\tr{i}\t0.5\t0.4" for i in ROWS)],
    "c.json": ["{", *(f'  "key{i}": {i},' for i in ROWS), '  "last": 0', "}"],
}
READERS = {
    "predictions": "ingest --check --expect-runs 0 --pred p.tsv",
    "decisions": "evaluate --report r.json --gold d.tsv --decisions dec.tsv",
    "gold": "evaluate --report r.json --decisions dec.tsv --gold d.tsv",
    "dataset": "preprocess --lexicon lex.tsv --output o.tsv --input d.tsv",
    "lexicon": "preprocess --input d.tsv --output o.tsv --lexicon lex.tsv",
    "vocab": "tokens --compare a b --vocab vocab.txt",
    "metrics": "variability --metrics m.tsv",
    "config": "reproduce --config c.json",
}


@pytest.mark.parametrize("command", READERS.values(), ids=READERS.keys())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at_line=st.floats(0, 1), at_byte=st.floats(0, 1),
       endings=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=3))
@example(at_line=0.0, at_byte=0.0, endings=[b"\n"])  # the first byte of line 1
@example(at_line=1.0, at_byte=1.0, endings=[b"\r", b"\n"])  # the end of the last line, past the first 8 KB
def test_a_byte_that_is_not_utf8_is_one_message_naming_its_line(tmp_path, monkeypatch, command, at_line, at_byte,
                                                                 endings):
    """Line i ends in endings[i % len(endings)], so a file may mix the three line breaks."""
    *args, name = command.split()
    monkeypatch.chdir(tmp_path)

    def write(name, lines):
        (tmp_path / name).write_bytes(b"".join(line + endings[i % len(endings)] for i, line in enumerate(lines)))

    for file, lines in VALID.items():
        write(file, [line.encode("utf-8") for line in lines])
    lines = [line.encode("utf-8") for line in VALID[name]]
    assert len(b"\n".join(lines)) > 8192
    lineno = 1 + round(at_line * (len(lines) - 1))
    line = lines[lineno - 1]
    cut = round(at_byte * len(line))
    lines[lineno - 1] = line[:cut] + b"\xff" + line[cut:]
    write(name, lines)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*args, name]) == 1
    assert err.getvalue() == f"{args[0]}: {name}: not UTF-8 at line {lineno}: byte 0xff\n"


BOM_READERS = {name: command for name, command in READERS.items() if name != "config"}  # json.load rejects one


@pytest.mark.parametrize("command", BOM_READERS.values(), ids=BOM_READERS.keys())
def test_a_byte_order_mark_is_one_message_naming_the_file(tmp_path, monkeypatch, command):
    """A UTF-8 byte-order mark would join the first field: a lexicon's first brand would never match, a dataset's
    header would be read as a record. Every reader, headerless or not, rejects it before `preprocess` forks."""
    *args, name = command.split()
    monkeypatch.chdir(tmp_path)
    for file, lines in VALID.items():
        (tmp_path / file).write_text("\ufeff" * (file == name) + "\n".join(lines) + "\n", encoding="utf-8")
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(_fork, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", fork)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*args, name]) == 1
    assert err.getvalue() == f"{args[0]}: {name}: starts with a byte-order mark (U+FEFF) at line 1\n"
    assert len(err.getvalue().encode("utf-8")) < 1024 and forks == []

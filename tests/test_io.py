"""The line rules every tab-separated format shares, checked through each loader, and the
one streaming atomic writer every output goes through."""

import argparse
import contextlib
import io

import pytest

from adrpipe._io import atomic_write, chunked
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

    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097, 10_000])
    def test_chunked_keeps_every_line_in_order(self, n):
        lines = [f"line {i}\n" for i in range(n)]
        chunks = list(chunked(lines))
        assert "".join(chunks) == "".join(lines)
        assert [c.count("\n") for c in chunks] == [1024] * (n // 1024) + [n % 1024] * (n % 1024 > 0)

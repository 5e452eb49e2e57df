"""Every tab-separated reader loops over a file's lines itself: the prediction, decisions,
dataset, lexicon and metrics readers. Each must accept exactly the files the generator-based
readers they replaced accepted, build the same value, and fail with the same message. Those
readers are kept here, as the oracles."""

import io
from array import array
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, count, repeat
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adrpipe import corpus, evaluate, predictions
from adrpipe.cli import main
from adrpipe.ensemble import DECISIONS_HEADER, Decisions, RowError, read_decisions
from adrpipe.predictions import HEADER, load_predictions
from adrpipe.preprocess import DrugLexicon, load_lexicon

METRICS_HEADER = "scenario\trun_id\tf1\trecall"


def oracle_read_rows(path, width, header=None, *, header_required=False, comments=False):
    """The line reader every reader was built on: one (line number, fields) tuple per line,
    '#' lines skipped with `comments`."""
    with open(path, encoding="utf-8") as f:
        lines, start = f, 1
        if header is not None:
            first = f.readline()
            if first.rstrip("\n") == header:
                start = 2
            elif header_required:
                raise ValueError(f"{path}: missing or malformed header (expected {header!r})")
            else:
                lines = chain([first], f)
        rows = zip(count(start), map(str.split, map(str.rstrip, lines, repeat("\n")), repeat("\t")))
        if comments:
            rows = (row for row in rows if not row[1][0].startswith("#"))
        for row in rows:
            if len(row[1]) != width:
                if row[1] == [""]:
                    continue
                raise ValueError(f"{path}: expected {width} fields at line {row[0]}, got {len(row[1])}")
            yield row


def oracle_parse_file(path, tweet_ids):
    """The prediction parser over `oracle_read_rows`."""
    intern = tweet_ids.setdefault
    model = run = None
    ids, probs = [], []
    for lineno, (model_id, run_id, tweet_id, prob_text) in oracle_read_rows(path, 4, HEADER, header_required=True):
        try:
            prob = float(prob_text)
        except ValueError:
            raise ValueError(f"{path}: bad probability {prob_text!r} at line {lineno}") from None
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"{path}: probability out of range at line {lineno}: {prob_text!r}")
        if not (model_id and run_id and tweet_id):
            raise ValueError(f"{path}: model_id, run_id and tweet_id must be non-empty at line {lineno}")
        if run_id != run or model_id != model:
            if ids:
                yield (model, run), ids, array("d", probs)
            model, run = model_id, run_id
            ids, probs = [], []
        ids.append(intern(tweet_id, tweet_id))
        probs.append(prob)
    if ids:
        yield (model, run), ids, array("d", probs)


def oracle_read_decisions(path):
    """The decisions reader over `oracle_read_rows`: every pair split, parsed and put in a dict."""
    tweet_ids, ensemble = [], []
    shifts = [(0, 0)]
    prob_columns, verdict_columns = {}, {}
    first = None
    for lineno, (tweet_id, prob_text, verdict_text, ens_text) in oracle_read_rows(path, 4, DECISIONS_HEADER):
        try:
            prob_pairs = [(k, float(v)) for k, v in (kv.rsplit(":", 1) for kv in prob_text.split(","))]
            verdict_pairs = [(k, int(v)) for k, v in (kv.rsplit(":", 1) for kv in verdict_text.split(","))]
            ens = int(ens_text)
        except ValueError:
            raise ValueError(f"{path}: malformed decision at line {lineno}") from None
        probs, verdicts = dict(prob_pairs), dict(verdict_pairs)
        models = sorted(probs)
        if len(probs) != len(prob_pairs) or sorted(k for k, _ in verdict_pairs) != models:
            raise ValueError(
                f"{path}: model_probs and model_verdicts must name the same models, each once, at line {lineno}"
            )
        if first is None:
            first = (lineno, models)
            prob_columns, verdict_columns = {m: array("d") for m in models}, {m: [] for m in models}
        elif models != first[1]:
            raise ValueError(f"{path}: models differ from those at line {first[0]} at line {lineno}")
        if lineno - len(tweet_ids) != shifts[-1][1]:
            shifts.append((len(tweet_ids), lineno - len(tweet_ids)))
        tweet_ids.append(tweet_id)
        ensemble.append(ens)
        for m in models:
            prob_columns[m].append(probs[m])
            verdict_columns[m].append(verdicts[m])
    try:
        return Decisions(tweet_ids, prob_columns, verdict_columns, ensemble)
    except RowError as e:
        shift = max(s for row, s in shifts if row <= e.row)
        raise ValueError(f"{path}: {e} at line {e.row + shift}") from None


def oracle_read_records(path):
    """The dataset reader over `oracle_read_rows`."""
    seen = set()
    for lineno, (tweet_id, label_text, text) in oracle_read_rows(path, 3, corpus.HEADER):
        if label_text not in ("0", "1"):
            raise ValueError(f"{path}: label out of range at line {lineno}: {label_text!r}")
        if not tweet_id:
            raise ValueError(f"{path}: tweet_id must be non-empty at line {lineno}")
        if tweet_id in seen:
            raise ValueError(f"{path}: duplicate tweet_id {tweet_id!r} at line {lineno}")
        seen.add(tweet_id)
        yield tweet_id, text, int(label_text)


def oracle_load_lexicon(path):
    """The lexicon reader over `oracle_read_rows`, '#' lines skipped."""
    entries = {}
    for lineno, fields in oracle_read_rows(path, 2, comments=True):
        brand, generic = fields[0].strip().lower(), fields[1].strip().lower()
        if not brand or not generic:
            raise ValueError(f"{path}: lexicon entries must be non-empty at line {lineno}")
        if brand == generic:
            raise ValueError(f"{path}: self-mapping rejected: {brand!r} at line {lineno}")
        if brand in entries and entries[brand] != generic:
            raise ValueError(
                f"{path}: conflicting duplicate key {brand!r} at line {lineno}: {entries[brand]!r} vs {generic!r}"
            )
        entries[brand] = generic
    return DrugLexicon(entries)


def oracle_variability(path):
    """The table `variability` prints for a metrics file, its rows read over `oracle_read_rows`."""
    runs_by_scenario = {}
    for lineno, (scenario, run_id, f1_text, recall_text) in oracle_read_rows(
        path, 4, METRICS_HEADER, header_required=True
    ):
        try:
            f1, recall = float(f1_text), float(recall_text)
        except ValueError:
            raise ValueError(f"{path}: bad metric value at line {lineno}") from None
        if not (0.0 <= f1 <= 1.0 and 0.0 <= recall <= 1.0):
            raise ValueError(f"{path}: bad metric value at line {lineno}")
        runs = runs_by_scenario.setdefault(scenario, {})
        if run_id in runs:
            raise ValueError(f"{path}: duplicate run {run_id} for scenario {scenario} at line {lineno}")
        runs[run_id] = evaluate.Metrics(precision=0.0, recall=recall, f1=f1)
    if not runs_by_scenario:
        raise ValueError(f"{path}: no metric rows")
    reports = [evaluate.variability(list(runs.values()), s) for s, runs in runs_by_scenario.items()]
    return evaluate.variability_table(reports) + "\n"


def variability_outcome(path):
    """("ok", stdout) or ("error", message) of `adrpipe variability --metrics path`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["variability", "--metrics", str(path)])
    if code == 0:
        return "ok", out.getvalue()
    return "error", err.getvalue().removeprefix("variability: ").removesuffix("\n")


def outcome(load):
    """("ok", value) or ("error", message) for a load that may raise ValueError."""
    try:
        return "ok", load()
    except ValueError as e:
        return "error", str(e)


def cells(value):
    """A matrix's or table's probabilities as bytes, so that -0.0 and 0.0 differ."""
    rows = value.probs if isinstance(value, predictions.RunMatrix) else value.probs.values()
    return [row.tobytes() for row in rows]


NEWLINES = st.sampled_from(["\n", "\n", "\r\n", "\r"])
# Ids that a line break other than \n, \r\n or \r must not split.
ODD_IDS = ["", "x\x1cy", "x\x85y", "x\u2028y"]


def join_lines(draw, lines):
    """The lines, each ended by \\n, \\r\\n or a lone \\r, the last one maybe by nothing."""
    ends = [draw(NEWLINES) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


def mutate(draw, lines, width):
    """Zero to three faults or oddities: a blank line, a line of width -1 or +1 fields,
    a line dropped or repeated."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["blank", "fewer", "more", "drop", "repeat"]))
        if kind == "blank":
            lines.insert(i, "")
        elif kind == "fewer":
            lines.insert(i, "\t".join(["x"] * (width - 1)))
        elif kind == "more":
            lines.insert(i, "\t".join(["0.5"] * (width + 1)))
        elif lines and i < len(lines):
            if kind == "drop":
                del lines[i]
            else:
                lines.insert(i, lines[i])
    return lines


PROBS = ["0.5", "0.25", "1", "0", " 0.125 ", "1e-7", "-0.0", "nan", "inf", "1.5", "x", ""]


@st.composite
def prediction_files(draw):
    """A prediction file's text: a grid of models x runs x tweets in some order, mostly
    well-formed, with odd ids, odd probabilities, mixed line breaks and a few faults."""
    models = draw(st.lists(st.sampled_from(["m", "n", *ODD_IDS]), min_size=1, max_size=2, unique=True))
    runs = draw(st.lists(st.sampled_from(["r1", "r2", *ODD_IDS]), min_size=1, max_size=2, unique=True))
    tweets = draw(st.lists(st.sampled_from(["t1", "t2", "t3", *ODD_IDS]), min_size=1, max_size=3, unique=True))
    valid = draw(st.booleans())  # half the files hold only probabilities in [0, 1]
    prob = st.sampled_from(PROBS[:7] if valid else PROBS)
    rows = [f"{m}\t{r}\t{t}\t{draw(prob)}" for m in models for r in runs for t in tweets]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    header = draw(st.sampled_from([HEADER, HEADER, HEADER, "model_id\trun_id\ttweet_id", ""]))
    return join_lines(draw, [header, *mutate(draw, list(rows), 4)])


class TestPredictionLoop:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=prediction_files())
    def test_loader_agrees_with_the_read_rows_parser(self, tmp_path, text):
        p = tmp_path / "p.tsv"
        p.write_bytes(text.encode("utf-8"))
        got = outcome(lambda: load_predictions([p], expected_runs=None))
        with mock.patch.object(predictions, "_parse_file", oracle_parse_file):
            expected = outcome(lambda: load_predictions([p], expected_runs=None))
        assert got == expected
        if got[0] == "ok":
            assert cells(got[1]) == cells(expected[1])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("m\tr1\tt1\t", "bad probability '' at line 2"),
            ("m\tr1\tt1\t0.5x", "bad probability '0.5x' at line 2"),
            ("m\tr1\tt1\t 1.5 ", "probability out of range at line 2: ' 1.5 '"),
        ],
        ids=["empty", "not-a-number", "out-of-range"],
    )
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""], ids=["lf", "crlf", "cr", "none"])
    def test_message_quotes_the_field_without_its_line_break(self, tmp_path, line, message, end):
        p = tmp_path / "p.tsv"
        p.write_bytes(f"{HEADER}\n{line}{end}".encode("utf-8"))
        with pytest.raises(ValueError) as e:
            load_predictions([p], expected_runs=None)
        assert str(e.value) == f"{p}: {message}"


MODELS = ["a", "b", "a:b", "x:1", "ensemble", ""]
VALUES = ["0.5", "0.25", "1", "0", " 0.125 ", "1e-7", "-0.0", "nan", "1.5", "x", "", "0:1"]


@st.composite
def decision_files(draw):
    """A decisions file's text: rows over one model list, each listing the models in the first
    row's order or another, with model ids that hold ':', odd values, rows whose lists lose or
    gain a separator, an optional header, mixed line breaks and a few faults."""
    models = draw(st.lists(st.sampled_from(MODELS[:4]), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 9)) == 0:  # rarely, a model id the table refuses
        models.append(draw(st.sampled_from(MODELS[4:])))
    valid = draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(1, 5))):
        order = draw(st.permutations(models)) if draw(st.integers(0, 3)) == 0 else models
        probs = {m: draw(st.sampled_from(VALUES[:7] if valid else VALUES)) for m in order}
        verdicts = {m: draw(st.sampled_from(["0", "1"] if valid else ["0", "1", "2", "x"])) for m in order}
        ens = str(int("1" in verdicts.values())) if valid or draw(st.booleans()) else draw(st.sampled_from("01x"))
        prob_text = ",".join(f"{m}:{probs[m]}" for m in order)
        verdict_text = ",".join(f"{m}:{verdicts[m]}" for m in order)
        if draw(st.integers(0, 5)) == 0:  # one separator turned into the other: "a:0.1,b:0.2" -> "a,0.1,b:0.2"
            old, new = draw(st.sampled_from([(":", ","), (",", ":")]))
            prob_text = prob_text.replace(old, new, 1)
        tweet_id = draw(st.sampled_from([f"t{i}", "t0", *ODD_IDS]))
        lines.append(f"{tweet_id}\t{prob_text}\t{verdict_text}\t{ens}")
    header = draw(st.sampled_from([[DECISIONS_HEADER], [DECISIONS_HEADER], []]))
    return join_lines(draw, header + mutate(draw, lines, 4))


class TestDecisionsLoop:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=decision_files())
    def test_reader_agrees_with_the_read_rows_reader(self, tmp_path, text):
        p = tmp_path / "d.tsv"
        p.write_bytes(text.encode("utf-8"))
        got, expected = outcome(lambda: read_decisions(p)), outcome(lambda: oracle_read_decisions(p))
        assert got == expected
        if got[0] == "ok":
            assert cells(got[1]) == cells(expected[1])

    @pytest.mark.parametrize(
        "lines, expected",
        [
            (["t1\ta:0.1,b:0.9\ta:0,b:1\t1", "t2\tb:0.2,a:0.3\tb:0,a:0\t0"], "ok"),
            (["t1\ta:b:0.1\ta:b:0\t0", "t2\ta:b:0.7\ta:b:1\t1"], "ok"),
            (["t1\tx:1:0.1\tx:1:0\t0", "t2\tx:1:0.7\tx:1:1\t1"], "ok"),
            (["t1\ta:0.1,c:0.2\ta:0,c:0\t0", "t2\ta,1:c:0.5\ta:0,c:0\t0"], "malformed decision at line 3"),
            (["t1\ta:0.1,b:0.2\ta:0,b:0\t0", "t2\ta:0.5,b:high\ta:0,b:0\t0"], "malformed decision at line 3"),
            (["t1\ta:0.1,b:0.2\ta:0,b:0\t0", "t2\ta:0.5,b:0.5\ta:0,b:one\t0"], "malformed decision at line 3"),
            (["t1\ta:0.1,b:0.2\ta:0,b:0\t0", "t2\ta:0.5,b:0.5\ta:0,b:0\tno"], "malformed decision at line 3"),
            (["t1\ta:0.1,b:0.2\ta:0,b:0\t0", "", "", "t1\ta:0.5,b:0.5\ta:0,b:0\t0"],
             "duplicate tweet_id 't1' at line 5"),
        ],
        ids=["models-in-another-order", "model-id-with-colon", "model-id-with-colon-and-digit",
             "lost-colon", "bad-prob-on-the-fast-path", "bad-verdict-on-the-fast-path",
             "bad-ensemble-on-the-fast-path", "blank-lines-before-a-faulty-row"],
    )
    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_named_cases(self, tmp_path, lines, expected, header):
        p = tmp_path / "d.tsv"
        p.write_text("".join(f"{line}\n" for line in [DECISIONS_HEADER] * header + lines), encoding="utf-8")
        got = outcome(lambda: read_decisions(p))
        assert got == outcome(lambda: oracle_read_decisions(p))
        if expected == "ok":
            assert got[0] == "ok"
        else:  # the line number given is the one with a header
            message, lineno = expected.rsplit(" ", 1)
            assert got == ("error", f"{p}: {message} {int(lineno) - (not header)}")

    def test_columns_follow_each_line_whatever_its_order(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(
            "t1\tb:0.9,a:0.1\ta:0,b:1\t1\nt2\ta:0.3,b:0.2\tb:0,a:0\t0\nt3\tb:0.6,a:0.7\tb:1,a:1\t1\n",
            encoding="utf-8",
        )
        d = read_decisions(p)
        assert d.probs == {"a": array("d", [0.1, 0.3, 0.7]), "b": array("d", [0.9, 0.2, 0.6])}
        assert d.verdicts == {"a": [0, 0, 1], "b": [1, 0, 1]}


LABEL_TEXTS = ["0", "1", "1", "2", " 1", "x", ""]
TEXTS = ["text", "", " a b ", "#tag", "x\x1cy", "é"]


@st.composite
def dataset_files(draw):
    """A dataset file's text: rows with odd ids, labels and texts, an optional header,
    mixed line breaks and a few faults."""
    rows = [
        f"{draw(st.sampled_from(['t1', 't2', 't3', *ODD_IDS]))}\t{draw(st.sampled_from(LABEL_TEXTS))}"
        f"\t{draw(st.sampled_from(TEXTS))}"
        for _ in range(draw(st.integers(0, 4)))
    ]
    header = draw(st.sampled_from([[corpus.HEADER], [corpus.HEADER], []]))
    return join_lines(draw, header + mutate(draw, rows, 3))


TERMS = ["tylenol", "Tylenol PM", " advil ", "ibuprofen", "x\x1cy", "", "#note", "a#b"]


@st.composite
def lexicon_files(draw):
    """A lexicon file's text: brand and generic pairs, mixed case and spaces among them,
    '#' comment lines of any width, mixed line breaks and a few faults."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["# comment", "#", "#a\tb", "#a\tb\tc"])))
        else:
            lines.append(f"{draw(st.sampled_from(TERMS))}\t{draw(st.sampled_from(TERMS))}")
    return join_lines(draw, mutate(draw, lines, 2))


METRIC_VALUES = ["0.5", "0.25", "1", "0", " 0.125 ", "-0.0", "nan", "1.5", "x", ""]


@st.composite
def metrics_files(draw):
    """A metrics file's text: a grid of scenarios x runs in some order, two metric values a row,
    with odd ids and values, a header that may be wrong or missing, mixed line breaks and a few faults."""
    scenarios = draw(st.lists(st.sampled_from(["a", "b", *ODD_IDS]), min_size=1, max_size=2, unique=True))
    runs = draw(st.lists(st.sampled_from(["r1", "r2", "r3", *ODD_IDS]), min_size=2, max_size=3, unique=True))
    valid = draw(st.booleans())
    value = st.sampled_from(METRIC_VALUES[:6] if valid else METRIC_VALUES)
    rows = [f"{s}\t{r}\t{draw(value)}\t{draw(value)}" for s in scenarios for r in runs]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    header = draw(st.sampled_from([METRICS_HEADER, METRICS_HEADER, METRICS_HEADER, "scenario\trun_id\tf1", ""]))
    return join_lines(draw, [header, *mutate(draw, list(rows), 4)])


class TestTextFileLoops:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=dataset_files())
    def test_records_agree_with_the_read_rows_reader(self, tmp_path, text):
        p = tmp_path / "d.tsv"
        p.write_bytes(text.encode("utf-8"))
        got = outcome(lambda: list(corpus.read_records(p)))
        expected = outcome(lambda: list(oracle_read_records(p)))
        assert got == expected
        labels = outcome(lambda: {tweet_id: label for tweet_id, _, label in oracle_read_records(p)})
        assert outcome(lambda: corpus.read_labels(p)) == labels

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=lexicon_files())
    def test_lexicon_agrees_with_the_read_rows_reader(self, tmp_path, text):
        p = tmp_path / "lexicon.tsv"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: load_lexicon(p)) == outcome(lambda: oracle_load_lexicon(p))

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=metrics_files())
    def test_variability_agrees_with_the_read_rows_reader(self, tmp_path, text):
        p = tmp_path / "metrics.tsv"
        p.write_bytes(text.encode("utf-8"))
        assert variability_outcome(p) == outcome(lambda: oracle_variability(p))

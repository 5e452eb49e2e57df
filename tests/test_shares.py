"""The fork worker (`adrpipe._fork.worker`) and its two users. protocol_matrix's (spec, run) jobs split between
this process and one child give the one-process matrix, its errors and nothing else: no output twice, no process or
temp file left behind, and a child that fails or dies leaves its jobs to this process. `preprocess`'s blocks dealt
to a child give the one-process output, messages and exit code.

A test that forks runs in a fresh interpreter whose BLAS is single-threaded, as the CLI makes it,
so the interpreter has one OS thread and may fork. Python 3.12+ warns at a fork in a process with
threads; the interpreter prints every DeprecationWarning, and its stderr must not hold that one
(`-W error` would not show it: CPython drops the error the warning raises there).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrpipe import _fork, baseline, cli
from adrpipe.baseline import BaselineConfig, protocol_matrix
from adrpipe.corpus import Dataset, load_dataset, read_records, save_dataset
from adrpipe.synthetic import make_synthetic_dataset

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "data" / "fixture_corpus.tsv"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(one_thread: bool = True) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", *BLAS_THREADS)}
    env["PYTHONPATH"] = str(ROOT / "src")
    return {**env, **dict.fromkeys(BLAS_THREADS, "1")} if one_thread else env


FORK_WARNING = "use of fork() may lead to deadlocks"


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-c", code, *map(str, args)],
        env=child_env(), capture_output=True, encoding="utf-8", timeout=120,
    )
    assert FORK_WARNING not in proc.stderr
    return proc


# Fits the fixture corpus's halves in one process and in two, counting forks; prints what each matrix holds.
MATRICES = """
import hashlib, json, os, struct, sys
from adrpipe import _fork, baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset, stratified_split
train, dev = stratified_split(load_dataset(sys.argv[1]), 0.5, 0)
specs = [
    ("char", BaselineConfig(feature_buckets=2**12, epochs=2, seed=3)),
    ("word", BaselineConfig(ngram_range=(1, 2), feature_mode="word", epochs=2, seed=2)),
    ("l2", BaselineConfig(feature_buckets=2**12, epochs=2, l2=1e-3, positive_weight=2.0, seed=9)),
]
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
out = {}
for n in (1, 2):
    _fork._can_fork = lambda: n == 2
    m = baseline.protocol_matrix(train, dev, specs, 3)
    cells = b"".join(struct.pack("<d", p) for row in m.probs for p in row)
    out[n] = [m.keys, m.tweet_ids, hashlib.sha256(cells).hexdigest(), len(forks)]
print(json.dumps(out))
"""


def test_one_and_two_processes_give_the_same_matrix():
    proc = python(MATRICES, CORPUS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["2"][:3] == out["1"][:3]
    assert [out[n][3] for n in "12"] == [0, 1]
    assert len(out["1"][0]) == 9


# A lone surrogate as a text of its own, which word mode hashes only where a gram holds it: it is
# one 1-gram and no 2-gram. Char mode encodes each block whole, so it fails at the text's offset, 31.
WORD_ONE = BaselineConfig(ngram_range=(1, 1), feature_mode="word", epochs=1)
WORD_TWO = BaselineConfig(ngram_range=(2, 2), feature_mode="word", epochs=1)
CHAR = BaselineConfig(ngram_range=(3, 3), epochs=1)

FAILING = """
import os, sys
from adrpipe import _fork, baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import Dataset, LabeledTweet
n = int(sys.argv[1])
_fork._can_fork = lambda: n == 2
specs = [(f"s{i}", BaselineConfig(**spec)) for i, spec in enumerate(eval(sys.argv[2]))]
texts = ["feeling dizzy today", "a sunny walk", chr(0xD800)]
d = Dataset.from_records(LabeledTweet(f"t{i}", t, i % 2) for i, t in enumerate(texts))
pid = os.getpid()
try:
    baseline.protocol_matrix(d, d, specs, 1)
except Exception as e:
    assert os.getpid() == pid
    print(type(e).__name__, e)
"""


@pytest.mark.parametrize(
    "specs",
    [
        [WORD_TWO, WORD_ONE],  # the parent's spec passes; the child's fails
        [WORD_TWO, WORD_ONE, CHAR],  # the parent's spec passes; both of the child's fail, and its first wins
        [CHAR, WORD_ONE],  # both halves fail; the parent's spec is the lower
        [CHAR, WORD_TWO],  # the parent's spec fails; the child's passes
    ],
    ids=["child-only", "child-first", "parent-lower", "parent-only"],
)
def test_a_failing_share_raises_what_one_process_raises(specs):
    spec_text = repr([{"ngram_range": c.ngram_range, "feature_mode": c.feature_mode, "epochs": 1} for c in specs])
    one, two = (python(FAILING, n, spec_text) for n in (1, 2))
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout
    assert one.stdout.startswith("UnicodeEncodeError 'utf-8' codec can't encode character '\\ud800' in position ")
    first = next(i for i, c in enumerate(specs) if c is not WORD_TWO)
    assert one.stdout.endswith(("in position 0: surrogates not allowed\n" if specs[first] is WORD_ONE else
                                "in position 31: surrogates not allowed\n"))


UNFLUSHED = """
import atexit, os, sys
from adrpipe import _fork, baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset
_fork._can_fork = lambda: True
atexit.register(print, "atexit ran")
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
print("printed before the fork", end=" ")  # stdout is a pipe: this waits in the buffer
d = load_dataset(sys.argv[1])
baseline.protocol_matrix(d, d, [("m", BaselineConfig(feature_buckets=2**12, epochs=1))], 3)
print(len(forks), "forks")
"""


def test_a_child_never_flushes_what_the_parent_printed_nor_runs_its_exit_handlers():
    proc = python(UNFLUSHED, CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "printed before the fork 1 forks\natexit ran\n"


def test_a_share_whose_fork_fails_runs_in_this_process(monkeypatch):
    d = load_dataset(CORPUS)
    specs = [("c", BaselineConfig(feature_buckets=2**12, epochs=1)), ("w", WORD_ONE)]
    monkeypatch.setattr(_fork, "_can_fork", lambda: False)
    expected = protocol_matrix(d, d, specs, 2)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_fork, "_can_fork", lambda: True)
    assert protocol_matrix(d, d, specs, 2) == expected
    assert len(forks) == 1
    protocol_matrix(d, d, specs[:1], 1)  # one job: no fork is tried
    assert len(forks) == 1


def test_the_checks_come_before_any_fork(monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    monkeypatch.setattr(_fork, "_can_fork", lambda: True)
    d = load_dataset(CORPUS)
    with pytest.raises(ValueError, match="^duplicate model_id in specs: m$"):
        protocol_matrix(d, d, [("m", BaselineConfig()), ("m", BaselineConfig(seed=1))], 2)
    with pytest.raises(ValueError, match="^no prediction records$"):
        protocol_matrix(d, Dataset.from_records([]), [("m", BaselineConfig())], 2)
    assert forks == []


# The child SIGKILLs itself before it sends its columns; this process fits its jobs too and gets the same matrix.
KILLED_CHILD = """
import os, signal, sys
from adrpipe import _fork, baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset
pid, columns = os.getpid(), baseline._columns
def dies_in_a_child(*args):
    if os.getpid() != pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return columns(*args)
baseline._columns = dies_in_a_child
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
d = load_dataset(sys.argv[1])
specs = [("m", BaselineConfig(feature_buckets=2**12, epochs=1)), ("w", BaselineConfig(feature_mode="word", epochs=1))]
matrices = []
for n in (1, 2):
    _fork._can_fork = lambda: n == 2
    matrices.append(baseline.protocol_matrix(d, d, specs, 2))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(matrices[0] == matrices[1], len(forks), "no child left")
"""


def test_a_child_that_dies_without_its_columns_leaves_its_jobs_to_this_process():
    proc = python(KILLED_CHILD, CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True 1 no child left\n"


# Two specs, one a half: the parent's fails at once, the child's would take 20 s.
PARENT_FAILS = """
import os, sys, time
from adrpipe import _fork, baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset
_fork._can_fork = lambda: True
parent = os.getpid()
def spec_predictions(*args):
    if os.getpid() != parent:
        time.sleep(20)
    raise ValueError("a half failed")
baseline._spec_predictions = spec_predictions
d = load_dataset(sys.argv[1])
start = time.monotonic()
try:
    baseline.protocol_matrix(d, d, [("a", BaselineConfig()), ("b", BaselineConfig())], 1)
except ValueError as e:
    print(e, "after", "under 10 s" if time.monotonic() - start < 10 else "10 s or more")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_a_failure_in_the_parents_half_does_not_wait_for_the_childs():
    proc = python(PARENT_FAILS, CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "a half failed after under 10 s\nno child left\n"


def reproduce_config(tmp_path: Path, specs: list[dict], tweets: int = 300, runs: int = 1) -> Path:
    dataset = tmp_path / "d.tsv"
    save_dataset(make_synthetic_dataset(tweets, 0.3, seed=5), dataset)
    config = {"dataset": str(dataset), "lexicon": str(ROOT / "data" / "drug_lexicon.tsv"),
              "protocol": {"runs": runs, "specs": specs}, "output_dir": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def session_is_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


# `adrpipe reproduce`, its argv after the code, with the second spec, the child's, failing in any process: the
# child exits, and this process, fitting the child's jobs itself, raises the error.
CHILD_FAILS = """
import sys
from adrpipe import baseline, cli
spec_predictions = baseline._spec_predictions
def second_spec_fails(train, dev, cfg, offsets):
    if cfg.seed == 1:
        raise ValueError("a share failed")
    return spec_predictions(train, dev, cfg, offsets)
baseline._spec_predictions = second_spec_fails
sys.exit(cli.main(sys.argv[1:]))
"""


def start_reproduce(config: Path, code: str | None = None) -> subprocess.Popen:
    """`adrpipe reproduce` in a session of its own. Run as `-m adrpipe.cli`, it gets the BLAS
    settings the user has, here none, and the CLI's defaults; run through `code`, single-threaded."""
    start = ["-m", "adrpipe.cli"] if code is None else ["-c", code]
    return subprocess.Popen(
        [sys.executable, "-W", "always::DeprecationWarning", *start, "reproduce", "--config",
         str(config)],
        env=child_env(one_thread=code is not None), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        encoding="utf-8", start_new_session=True,
    )


def leftovers(tmp_path: Path) -> list[str]:
    return sorted(p.name for p in tmp_path.rglob("*") if p.name.endswith(".tmp"))


def first_child(proc: subprocess.Popen) -> int:
    """The pid of proc's first child, which it forks only once the checks have passed."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    deadline = time.monotonic() + 60
    while not (pids := children.read_text(encoding="ascii").split()):
        assert proc.poll() is None and time.monotonic() < deadline
    return int(pids[0])


def has_ended(pid: int) -> bool:
    """pid is gone or a zombie: an orphan waits for a reaper that some containers' init never is."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2 or not Path("/proc/self/task").is_dir(),
    reason="the protocol forks only on Linux with at least 2 usable CPUs",
)


@needs_two_cpus
class TestSessionEndings:
    """However `reproduce` ends, its session has no process left and its output directory no temp file."""

    CHAR = {"model_id": "char", "feature_buckets": 4096, "epochs": 1}
    SPECS = [CHAR, {**CHAR, "model_id": "char2", "seed": 1}]

    def test_success(self, tmp_path):
        proc = start_reproduce(reproduce_config(tmp_path, self.SPECS))
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and FORK_WARNING not in err, err
        assert session_is_gone(proc.pid)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "decisions.tsv", "predictions.tsv", "report.json"]

    def test_a_child_failure(self, tmp_path):
        proc = start_reproduce(reproduce_config(tmp_path, self.SPECS), CHILD_FAILS)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, "reproduce: baseline: a share failed\n")
        assert session_is_gone(proc.pid)
        assert leftovers(tmp_path) == [] and list((tmp_path / "out").iterdir()) == []

    def test_sigint(self, tmp_path):
        specs = [self.CHAR, {**self.CHAR, "model_id": "char2", "epochs": 40}]
        proc = start_reproduce(reproduce_config(tmp_path, specs, tweets=3_000))
        first_child(proc)
        proc.send_signal(signal.SIGINT)  # at once, while the parent may still be between the fork and its books
        _, err = proc.communicate(timeout=60)
        assert "KeyboardInterrupt" in err
        assert session_is_gone(proc.pid)
        assert leftovers(tmp_path) == [] and list((tmp_path / "out").iterdir()) == []

    def test_sigkill_to_the_parent(self, tmp_path):
        # No `finally` runs in the parent. The child's 15 columns of 1,000 dev tweets pass the 64 KiB a
        # pipe buffers, so a child that still held its pipe's read end would block in its write for good.
        proc = start_reproduce(reproduce_config(tmp_path, self.SPECS, tweets=5_000, runs=15))
        child = first_child(proc)
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 60
        try:
            while not has_ended(child):
                assert time.monotonic() < deadline, "the child outlived its parent"
                time.sleep(0.05)
        finally:
            if not has_ended(child):
                os.kill(child, signal.SIGKILL)
        assert leftovers(tmp_path) == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or not Path("/proc/self/task").is_dir(), reason="Linux only")
def test_a_child_is_forked_with_two_cpus_in_a_one_thread_process(monkeypatch):
    tasks, listdir = ["1"], os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: tasks if path == "/proc/self/task" else listdir(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert _fork._can_fork()
    tasks.append("2")  # a second OS thread, which a child would lack
    assert not _fork._can_fork()
    tasks.pop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not _fork._can_fork()


# `adrpipe reproduce` in a process with no BLAS setting: its one-thread default reaches numpy's load
# and leaves the environment with the call.
BLAS_DEFAULT = """
import os, sys
from adrpipe import cli
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
assert cli.main(["reproduce", "--config", sys.argv[1]]) == 0
blas = [n for n in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if n in os.environ]
print(blas, len(os.listdir("/proc/self/task")), len(forks))
"""


@needs_two_cpus
def test_the_blas_default_lasts_for_the_command_only(tmp_path):
    config = reproduce_config(tmp_path, TestSessionEndings.SPECS)
    proc = subprocess.run([sys.executable, "-W", "always::DeprecationWarning", "-c", BLAS_DEFAULT, config],
                          env=child_env(one_thread=False), capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0 and FORK_WARNING not in proc.stderr, proc.stderr
    assert proc.stdout.endswith("[] 1 1\n")


def test_the_blas_default_keeps_what_the_user_set(monkeypatch, tmp_path):
    for name in BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert cli.main(["reproduce", "--config", str(tmp_path / "missing.json")]) != 0
    assert {n: os.environ.get(n) for n in BLAS_THREADS} == {
        "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}


# ---------------------------------------------------------------- preprocess: the same worker, dealt blocks

LEXICON = ROOT / "data" / "drug_lexicon.tsv"
BLOCK = cli._BLOCK

# `adrpipe preprocess`, its argv after the name of a file that gets the number of forks.
PREPROCESS = """
import os, sys
from adrpipe import cli
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write(str(len(forks)))
sys.exit(code)
"""


def preprocess_in(cwd: Path, inp: Path, pinned: bool = False, code: str = PREPROCESS) -> tuple:
    """`preprocess` run in `cwd`, writing out.tsv there: (exit code, stdout, stderr, output bytes or None, forks).
    Pinned to CPU 0 it runs in one process, as `python -m adrpipe.cli`, and counts no forks."""
    argv = ["preprocess", "--input", str(inp), "--lexicon", str(LEXICON), "--output", "out.tsv"]
    python = [sys.executable, "-W", "always::DeprecationWarning"]
    start = ["taskset", "-c", "0", *python, "-m", "adrpipe.cli"] if pinned else [*python, "-c", code, "forks"]
    proc = subprocess.run([*start, *argv], cwd=cwd, env=child_env(), capture_output=True, encoding="utf-8",
                          timeout=120)
    assert FORK_WARNING not in proc.stderr
    out, forks = cwd / "out.tsv", cwd / "forks"
    return (proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None,
            int(forks.read_text(encoding="utf-8")) if forks.exists() else 0)


def records_read(path: Path) -> int:
    """How many records the reader yields before its first error, if any."""
    n = 0
    try:
        for _ in read_records(path):
            n += 1
    except ValueError:
        pass
    return n


TEXTS = ["Seroquel made me so dizzy @doc #sideeffects", "took Tylenol PM, mail me: a.b+c@gmail.com http://t.co/x ©",
         "fine day #sun", "  Lots   of\x0bspace\x1cand separators  ", "", "#one ##two @x@y www.example.com/a"]
ALPHABET = "abcdefghij0123456789._-@#"

needs_taskset = pytest.mark.skipif(shutil.which("taskset") is None, reason="pins a run to one CPU with taskset")


@st.composite
def dataset_files(draw) -> str:
    """A dataset file of 0 to 3 blocks and a bit of records, with blank lines, LF or CRLF line ends, multi-kilobyte
    hostile texts, and at most one faulty line (a bad label, a missing field or a repeated id) at a drawn place."""
    n = draw(st.integers(0, 3 * BLOCK + 10))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    hostile = set(draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)))
    fault, at = draw(st.sampled_from([None, "label", "fields", "duplicate"])), draw(st.integers(0, n))
    faulty = {"label": "x\t7\tbad", "fields": "x\tno text", "duplicate": f"t{max(at - 1, 0)}\t0\tagain", None: None}
    lines = ["tweet_id\tlabel\ttext"] if draw(st.booleans()) else []
    for i in range(n + 1):
        if i == at and fault:
            lines.append(faulty[fault])
        if i == n:
            break
        text = rng.choice(TEXTS)
        if i in hostile:
            text += " " + "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(2_000, 8_000)))
        lines += [f"t{i}\t{i % 2}\t{text}"] + [""] * (rng.random() < 0.02)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines)


@needs_two_cpus
@needs_taskset
@settings(max_examples=12, deadline=None)
@given(body=dataset_files())
def test_the_forked_preprocess_is_the_one_process_preprocess(body):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.tsv").write_bytes(body.encode("utf-8"))
        (tmp / "two").mkdir()
        (tmp / "one").mkdir()
        two = preprocess_in(tmp / "two", Path("../in.tsv"))
        one = preprocess_in(tmp / "one", Path("../in.tsv"), pinned=True)
        assert two[:4] == one[:4]
        assert two[4] == (records_read(tmp / "in.tsv") > BLOCK)  # a second block is dealt to a child


# _cleaned over 700 records (a block here, one for the child, part of one here) that a reader fault may cut short,
# where the lexicon puts a tab into one record's cleaned text. Prints what one process and two meet.
CLEANED_ERRORS = """
import sys
from adrpipe import _fork, cli
from adrpipe.corpus import LabeledTweet
from adrpipe.preprocess import DrugLexicon, PipelineConfig
tab_at, read_fault_at = map(int, sys.argv[1:])
cfg = PipelineConfig(lexicon=DrugLexicon({"seroquel": "quetia\\tpine"}))
def records():
    for i in range(700):
        if i == read_fault_at:
            raise ValueError(f"read fault at {i}")
        yield LabeledTweet(f"t{i}", "took Seroquel" if i == tab_at else f"fine {i}", 0)
for n in (1, 2):
    _fork._can_fork = lambda: n == 2
    try:
        print(sum(1 for _ in cli._cleaned(records(), cfg)))
    except ValueError as e:
        print(e)
"""


@pytest.mark.parametrize("tab_at, read_fault_at, error", [
    (300, 650, "text of t300 contains tab or newline"),  # in the child's block, before a fault in the next block
    (300, 400, "text of t300 contains tab or newline"),  # in the child's block, before a fault in it
    (300, 280, "read fault at 280"),  # the fault comes first, in the child's block
    (100, 200, "text of t100 contains tab or newline"),  # in this process's block, before a fault in it
    (600, 300, "read fault at 300"),
    (600, 700, "text of t600 contains tab or newline"),
    (-1, 700, "700"),
])
def test_a_cleaned_text_error_and_a_read_error_come_in_one_process_order(tab_at, read_fault_at, error):
    proc = python(CLEANED_ERRORS, tab_at, read_fault_at)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{error}\n{error}\n"


def tweets_file(path: Path, n: int) -> Path:
    path.write_text("tweet_id\tlabel\ttext\n" + "".join(
        f"t{i}\t{i % 2}\tSeroquel made me dizzy @doc #pain http://x.co/{i} mail a.b@c.com\n" for i in range(n)),
        encoding="utf-8")
    return path


# `adrpipe preprocess` whose child SIGKILLs itself in the middle of its first block.
KILLED_CLEANER = """
import os, signal, sys
from adrpipe import cli
pid, clean, calls = os.getpid(), cli.apply_pipeline, []
def dies_in_a_child(text, cfg):
    calls.append(1)
    if os.getpid() != pid and len(calls) > 100:
        os.kill(os.getpid(), signal.SIGKILL)
    return clean(text, cfg)
cli.apply_pipeline = dies_in_a_child
""" + PREPROCESS


@needs_two_cpus
@needs_taskset
def test_a_preprocess_child_killed_mid_run_leaves_the_same_output(tmp_path):
    inp = tweets_file(tmp_path / "in.tsv", 3_000)
    (tmp_path / "two").mkdir()
    (tmp_path / "one").mkdir()
    two = preprocess_in(tmp_path / "two", inp, code=KILLED_CLEANER)
    one = preprocess_in(tmp_path / "one", inp, pinned=True)
    assert two[4] == 1 and two[:4] == one[:4] and one[0] == 0


@needs_two_cpus
def test_sigint_to_preprocess_leaves_no_process_and_no_temp_file(tmp_path):
    inp = tweets_file(tmp_path / "in.tsv", 100_000)
    out = tmp_path / "out"
    out.mkdir()
    proc = subprocess.Popen(
        [sys.executable, "-W", "always::DeprecationWarning", "-m", "adrpipe.cli", "preprocess", "--input", str(inp),
         "--lexicon", str(LEXICON), "--output", str(out / "clean.tsv")],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", start_new_session=True,
    )
    first_child(proc)
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert "KeyboardInterrupt" in err and FORK_WARNING not in err
    assert session_is_gone(proc.pid)
    assert list(out.iterdir()) == []


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="lists this process's open files in /proc")
def test_a_preprocess_whose_fork_fails_cleans_every_block_here(tmp_path, monkeypatch, capsys):
    inp = tweets_file(tmp_path / "in.tsv", 3 * BLOCK)
    argv = ["preprocess", "--input", str(inp), "--lexicon", str(LEXICON), "--output"]
    monkeypatch.setattr(_fork, "_can_fork", lambda: False)
    assert cli.main([*argv, str(tmp_path / "one.tsv")]) == 0
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(_fork, "_can_fork", lambda: True)
    fds, mask = sorted(os.listdir("/proc/self/fd")), signal.pthread_sigmask(signal.SIG_BLOCK, [])
    assert cli.main([*argv, str(tmp_path / "two.tsv")]) == 0
    assert forks == [1] and (tmp_path / "two.tsv").read_bytes() == (tmp_path / "one.tsv").read_bytes()
    assert sorted(os.listdir("/proc/self/fd")) == fds and signal.pthread_sigmask(signal.SIG_BLOCK, []) == mask

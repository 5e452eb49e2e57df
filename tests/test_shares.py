"""protocol_matrix's shares: the (spec, run) jobs dealt over forked children give the one-process matrix,
its errors and nothing else: no output twice, no process or temp file left behind.

A test that forks runs in a fresh interpreter whose BLAS is single-threaded, as the CLI makes it,
so the interpreter has one OS thread and may fork. Python 3.12+ warns at a fork in a process with
threads; the interpreter prints every DeprecationWarning, and its stderr must not hold that one
(`-W error` would not show it: CPython drops the error the warning raises there).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adrpipe import baseline, cli
from adrpipe.baseline import BaselineConfig, protocol_matrix
from adrpipe.corpus import Dataset, load_dataset, save_dataset
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


# Fits the fixture corpus's halves at shares 1, 2 and 3, counting forks; prints what each matrix holds.
MATRICES = """
import hashlib, json, os, struct, sys
from adrpipe import baseline
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
for n in (1, 2, 3):
    baseline._shares = lambda jobs: min(n, jobs)
    m = baseline.protocol_matrix(train, dev, specs, 3)
    cells = b"".join(struct.pack("<d", p) for row in m.probs for p in row)
    out[n] = [m.keys, m.tweet_ids, hashlib.sha256(cells).hexdigest(), len(forks)]
print(json.dumps(out))
"""


def test_one_two_and_three_shares_give_the_same_matrix():
    proc = python(MATRICES, CORPUS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [out[n][:3] for n in "23"] == [out["1"][:3]] * 2
    assert [out[n][3] for n in "123"] == [0, 1, 3]  # shares 2 and 3 fork 1 and 2 children
    assert len(out["1"][0]) == 9


# A lone surrogate as a text of its own, which word mode hashes only where a gram holds it: it is
# one 1-gram and no 2-gram. Char mode encodes each block whole, so it fails at the text's offset, 31.
WORD_ONE = BaselineConfig(ngram_range=(1, 1), feature_mode="word", epochs=1)
WORD_TWO = BaselineConfig(ngram_range=(2, 2), feature_mode="word", epochs=1)
CHAR = BaselineConfig(ngram_range=(3, 3), epochs=1)

FAILING = """
import os, sys
from adrpipe import baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import Dataset, LabeledTweet
n = int(sys.argv[1])
baseline._shares = lambda jobs: min(n, jobs)
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
        [WORD_TWO, WORD_ONE],  # share 0 passes; the child's spec fails
        [WORD_TWO, WORD_ONE, CHAR],  # share 0 passes; both of the child's specs fail, and its first wins
        [CHAR, WORD_ONE],  # both shares fail; share 0's spec is the lower
    ],
    ids=["child-only", "child-first", "parent-lower"],
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
from adrpipe import baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset
baseline._shares = lambda jobs: min(3, jobs)
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
    assert proc.stdout == "printed before the fork 2 forks\natexit ran\n"


def test_a_share_whose_fork_fails_runs_in_this_process(monkeypatch):
    d = load_dataset(CORPUS)
    specs = [("c", BaselineConfig(feature_buckets=2**12, epochs=1)), ("w", WORD_ONE)]
    monkeypatch.setattr(baseline, "_shares", lambda jobs: 1)
    expected = protocol_matrix(d, d, specs, 2)
    forks = []

    def fork():
        forks.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(baseline, "_shares", lambda jobs: min(3, jobs))
    assert protocol_matrix(d, d, specs, 2) == expected
    assert len(forks) == 2


def test_the_checks_come_before_any_fork(monkeypatch):
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    monkeypatch.setattr(baseline, "_shares", lambda jobs: jobs)
    d = load_dataset(CORPUS)
    with pytest.raises(ValueError, match="^duplicate model_id in specs: m$"):
        protocol_matrix(d, d, [("m", BaselineConfig()), ("m", BaselineConfig(seed=1))], 2)
    with pytest.raises(ValueError, match="^no prediction records$"):
        protocol_matrix(d, Dataset.from_records([]), [("m", BaselineConfig())], 2)
    assert forks == []


KILLED_CHILD = """
import os, signal, sys
from adrpipe import baseline
from adrpipe.baseline import BaselineConfig
from adrpipe.corpus import load_dataset
baseline._shares = lambda jobs: min(2, jobs)
pid, share = os.getpid(), baseline._share
def dies_in_a_child(*args):
    if os.getpid() != pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return share(*args)
baseline._share = dies_in_a_child
d = load_dataset(sys.argv[1])
try:
    baseline.protocol_matrix(d, d, [("m", BaselineConfig(feature_buckets=2**12, epochs=1))], 2)
except ChildProcessError as e:
    print(e)
"""


def test_a_child_that_dies_without_its_columns_is_an_error():
    proc = python(KILLED_CHILD, CORPUS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"protocol worker exited with status {-int(signal.SIGKILL)}\n"


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


# `adrpipe reproduce`, its argv after the code, with every spec failing in a child.
CHILD_FAILS = """
import os, sys
from adrpipe import baseline, cli
parent, spec_predictions = os.getpid(), baseline._spec_predictions
def fails_in_a_child(*args):
    if os.getpid() != parent:
        raise ValueError("a share failed")
    return spec_predictions(*args)
baseline._spec_predictions = fails_in_a_child
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
def test_one_share_per_usable_cpu_up_to_the_cap_in_a_one_thread_process(monkeypatch):
    tasks, listdir = ["1"], os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: tasks if path == "/proc/self/task" else listdir(path))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert [baseline._shares(jobs) for jobs in (1, 2, 15)] == [1, 2, baseline._MAX_SHARES] == [1, 2, 2]
    tasks.append("2")  # a second OS thread, which a child would lack
    assert baseline._shares(15) == 1
    tasks.pop()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert baseline._shares(15) == 1


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

"""adrpipe benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every workload, one table

With --trace 0 each pass runs the workload's commands as `python -m
adrpipe.cli` subprocesses of this checkout's `src`, started by launcher.py,
and reports end-to-end metrics, with times scaled to a fixed machine speed
(see REFERENCE_S). With --trace 1 each pass calls `adrpipe.cli.main` in this process,
alternating untraced and traced passes, and reports per-layer metrics from
the spans. Every pass's outputs are checked. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT_DIR = ROOT / ".perfbench"
# One process, no threads: keep numpy's BLAS single-threaded here and in children.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
# The host's speed swings by up to 2x for seconds or minutes at a time, so
# raw wall times of runs made minutes apart spread by 15-40%. Every
# timed interval is therefore divided by the mean time of the reference
# program (reference.py) run just before and just after it: a reported
# second is a second on a machine where reference.py takes REFERENCE_S,
# about its median on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_S = 0.4
CHILD_TIMEOUT_S = 120
QUALITY_PLACEHOLDER = 1.0  # ensemble metrics on a workload that has no ensemble


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "adrpipe" / "cli.py").is_file() or not (DATA / "drug_lexicon.tsv").is_file():
    _fail(f"no adrpipe source tree under {ROOT}")
os.environ.update(THREAD_ENV)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import adrpipe  # noqa: E402
import numpy as np  # noqa: E402
from adrpipe import cli  # noqa: E402

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

if Path(adrpipe.__file__).resolve().parent != SRC / "adrpipe":
    _fail(f"imported adrpipe from {adrpipe.__file__}, not from {SRC}")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs `python -m adrpipe.cli` commands through launcher.py, a small process of its own.

    Children forked from this process would count its resident memory in
    their peak RSS; the launcher keeps that floor at a few MB.
    """

    def __init__(self):
        # Its own process group, so one killpg also ends a command it is running.
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=_child_env(),
                                     start_new_session=True)

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run one adrpipe command; return (exit code, wall s, peak RSS MB)."""
        return self._run_program([sys.executable, "-m", "adrpipe.cli", *argv], log)

    def reference(self, log: Path) -> float:
        """Wall time of one run of reference.py."""
        code, wall, _ = self._run_program([sys.executable, str(HERE / "reference.py")], log)
        if code != 0:
            _fail(f"the reference program exited {code}")
        return wall

    def _run_program(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        request = {"argv": argv, "log": str(log), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            _fail("the command launcher exited")
        r = json.loads(reply)
        return r["code"], r["wall"], r["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def subprocess_pass(wl, work: Path, launcher: Launcher) -> dict:
    wl.reset_outputs()
    codes, stdouts, wall, rss = [], [], 0.0, 0.0
    for i, argv in enumerate(wl.commands()):
        log = work / f"cmd{i}.log"
        code, seconds, peak = launcher.run(argv, log)
        codes.append(code)
        stdouts.append(log.read_text(encoding="utf-8", errors="replace"))
        wall += seconds
        rss = max(rss, peak)
        if code != 0:
            break
    return {"codes": codes, "stdouts": stdouts, "wall": wall, "rss": rss}


class Reference:
    """Scales timed intervals to REFERENCE_S machine speed.

    Each interval is divided by the mean of the reference runs just before
    and just after it; the run after one interval is the run before the next.
    """

    def __init__(self, launcher: Launcher, log: Path):
        self.launcher, self.log = launcher, log
        self.launcher.reference(log)  # warm-up, not counted
        self.walls = [launcher.reference(log)]

    def scale(self, seconds: float) -> float:
        self.walls.append(self.launcher.reference(self.log))
        return seconds * REFERENCE_S * 2 / (self.walls[-2] + self.walls[-1])


def inprocess_pass(wl, tracer=None) -> dict:
    wl.reset_outputs()
    codes, stdouts = [], []
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with installed:
        for argv in wl.commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = cli.main(argv)
                except Exception as e:  # a crash is a failed pass, reported with the rest
                    code = f"{type(e).__name__}: {e}"
            codes.append(code)
            stdouts.append(out.getvalue())
            if code != 0:
                break
    return {"codes": codes, "stdouts": stdouts, "wall": time.perf_counter() - start}


def checked(wl, result: dict) -> list[str]:
    """Problems with one pass: non-zero exits first, else the workload's output checks."""
    if len(result["codes"]) != len(wl.commands()) or any(result["codes"]):
        tail = result["stdouts"][-1].strip().splitlines()[-1:] if result["stdouts"] else []
        return [f"command {len(result['codes'])} exited {result['codes'][-1]}: {' '.join(tail)}"]
    try:
        return wl.check(result["stdouts"])
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"output check raised {type(e).__name__}: {e}"]


def digest(paths) -> str:
    """sha256 over the files' names and contents, with any report timestamp removed."""
    h = hashlib.sha256()
    for path in paths:
        if not path.exists():
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.get("manifest", {}).pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()[:16]


def _git_rev() -> str:
    """HEAD's commit, read from ROOT/.git directly so nothing outside the checkout is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"git_rev": _git_rev(), "src_digest": digest(sorted((SRC / "adrpipe").glob("*.py"))),
            "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def run_setup(wl, seed: int, size: dict, tracing: bool, ref) -> tuple[list[float], dict, dict]:
    """Generate the inputs SETUP_REPEATS times; each repeat must give identical files.

    Returns the set-up times (scaled by `ref`, a Reference, when it is given),
    the workload's facts about its inputs, and the median synthetic.* span
    metrics of the repeats.
    """
    times, summaries, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        tracer = spans.Tracer()
        installed = tracer.installed() if tracing else contextlib.nullcontext()
        start = time.perf_counter()
        with installed:
            info = wl.setup(seed, size)
        seconds = time.perf_counter() - start
        times.append(ref.scale(seconds) if ref else seconds)
        summaries.append(spans.summarize(tracer.spans))
        digests.add(digest(sorted(wl.inp.iterdir())))
    if len(digests) != 1:
        _fail("input generation is not deterministic for a fixed seed")
    synth = {k: v for k, v in spans.median_of(summaries).items() if k.startswith("synthetic.")}
    return times, info, synth


def run_workload(name: str, seed: int, seconds: float, tracing: bool, size_name: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with Launcher() as launcher:
            return _run_workload(name, seed, seconds, tracing, size_name, work, launcher)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(name: str, seed: int, seconds: float, tracing: bool, size_name: str, work: Path,
                  launcher: Launcher) -> dict:
    """Set up, run and check passes until the deadline, then collect the metrics."""
    wl = WORKLOADS[name](work, DATA)
    ref = None if tracing else Reference(launcher, work / "ref.log")
    setup_times, info, synth = run_setup(wl, seed, SIZES[size_name][name], tracing, ref)
    passes, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not passes:
        if tracing:
            plain = inprocess_pass(wl)
            plain["problems"] = checked(wl, plain)
            tracer = spans.Tracer()
            result = inprocess_pass(wl, tracer)
            traced.append({"wall": result["wall"], "plain_wall": plain["wall"],
                           "summary": spans.summarize(tracer.spans)})
            passes.append(plain)
        else:
            result = subprocess_pass(wl, work, launcher)
            result["scaled"] = ref.scale(result["wall"])
        result["problems"] = checked(wl, result)
        passes.append(result)
    quality = wl.quality() if not passes[-1]["problems"] else {}
    info.update(environment(), seed=seed, workload=name, size=size_name,
                outputs_digest=digest(wl.outputs()), ensemble_defined=wl.has_quality)
    if tracing:
        alloc_tracer = spans.Tracer(alloc=True)
        result = inprocess_pass(wl, alloc_tracer)
        result["problems"] = checked(wl, result)
        passes.append(result)
        metrics = per_layer_metrics(traced, synth, alloc_tracer, work, launcher)
        trace_file = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_file)
        info.update(trace_file=str(trace_file.relative_to(ROOT)),
                    count_errors=sorted(tracer.count_errors | alloc_tracer.count_errors))
    else:
        missing = 0.0 if wl.has_quality else QUALITY_PLACEHOLDER
        metrics = {
            "wall_s": (median(p["scaled"] for p in passes), "s"),
            "peak_rss_mb": (median(p["rss"] for p in passes), "MB"),
            "setup_s": (median(setup_times), "s"),
            "ensemble_recall": (quality.get("ensemble_recall", missing), "frac"),
            "ensemble_f1": (quality.get("ensemble_f1", missing), "frac"),
        }
        info.update(unscaled_wall_s=median(p["wall"] for p in passes),
                    scaled_walls=[round(p["scaled"], 4) for p in passes],
                    reference_walls=[round(r, 4) for r in ref.walls])
    failed = sum(bool(p["problems"]) for p in passes)
    info.update(pass_walls=[round(p["wall"], 4) for p in passes],
                setup_times=[round(t, 4) for t in setup_times], failed_frac=failed / len(passes),
                problems=sorted({x for p in passes for x in p["problems"]})[:10])
    return {"info": info, "correct": failed == 0, "attempted": len(passes), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def per_layer_metrics(traced: list[dict], synth: dict, alloc_tracer, work: Path, launcher: Launcher) -> dict:
    """Medians over the traced passes of every span total, count and layer self time.

    The synthetic layer runs only in set-up, so its figures come from there.
    """
    summary = spans.median_of([t["summary"] for t in traced]) | synth
    units = {"_s": "s", "_calls": "count", "_errors": "count", "_ms": "ms"}
    metrics = {}
    for key, value in summary.items():
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
        metrics[key] = (value, unit)
    metrics["tokenize.unk_rate"] = (summary["tokenize.unk_rate"], "frac")
    metrics["preprocess.chars"] = (summary["preprocess.chars"], "chars")
    traced_s = median(t["wall"] for t in traced)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - median(t["plain_wall"] for t in traced), "s")
    metrics["cli.startup_s"] = (median(
        launcher.run(["--version"], work / "version.log")[1] for _ in range(STARTUP_REPEATS)), "s")
    metrics["predictions.alloc_peak_mb"] = (spans.alloc_peak_mb(alloc_tracer.spans), "MB")
    return metrics


def run_all(args) -> int:
    """Run every workload as its own benchmark process and print one table."""
    rows, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-3]), json.loads(lines[-1])
        rows[name] = (info, result)
        ok = ok and result["correct"]
    for name, (info, result) in rows.items():
        print(f"== {name}: {result['attempted']} passes attempted, failed_frac {info['failed_frac']:.4f}")
        for key, m in result["metrics"].items():
            shown = "n/a" if key.startswith("ensemble_") and not info["ensemble_defined"] else f"{m['value']:.6g}"
            print(f"   {key:42s} {shown:>12s} {m['unit']}")
    combined = {f"{n}.{k}": m for n, (_, r) in rows.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for _, r in rows.values()),
                      "failed": sum(r["failed"] for _, r in rows.values()), "metrics": combined}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    info = result.pop("info")
    print(json.dumps(info, sort_keys=True))
    print(f"{args.workload}: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {info['failed_frac']:.4f}); "
          + ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
                      if not k.endswith(("_calls", "_errors"))))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around calls into adrpipe's public functions, recorded from outside the package.

`Tracer.installed()` replaces each listed function, in every adrpipe module
that binds it (so `from .x import f` bindings are caught too), with a wrapper
that records one span per call: name, start, end, parent span, whether it
raised, and optional counts taken from the call's arguments and result.
Leaving the block restores the originals, so untraced code runs unwrapped.
Spans stay in memory; `write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

# Span name -> function that derives counts from (args, kwargs, result).
_COUNTS = {
    "preprocess.preprocess": lambda a, kw, r: {"chars": len(a[0])},
    "tokenize.corpus_token_stats": lambda a, kw, r: {"words": r.total_words, "unk_words": r.unk_words},
    "baseline.train": lambda a, kw, r: {"l2": int((a[1] if len(a) > 1 else kw["cfg"]).l2 > 0)},
    "predictions.load_predictions": lambda a, kw, r: {"records": _records(r)},
    "predictions.filter_runs": lambda a, kw, r: {"runs_in": _runs(a[0]), "runs_out": _runs(r)},
    "ensemble.decide": lambda a, kw, r: {"positives": sum(d.ensemble_verdict for d in r)},
}

# Every listed "<module>.<function>" is wrapped; the string is also the span's name.
TRACED = (
    "corpus.load_dataset", "corpus.save_dataset", "corpus.stratified_split",
    "preprocess.preprocess",
    "tokenize.corpus_token_stats",
    "baseline.hashed_features", "baseline.train", "baseline.predict_prob", "baseline.run_protocol",
    "predictions.load_predictions", "predictions.filter_runs", "predictions.average_runs",
    "predictions.write_predictions",
    "ensemble.decide", "ensemble.write_decisions", "ensemble.read_decisions",
    "evaluate.confusion", "evaluate.attribution",
    "synthetic.make_synthetic_dataset",
    "cli.main",
)

LAYERS = ("corpus", "preprocess", "tokenize", "baseline", "predictions", "ensemble",
          "evaluate", "synthetic", "cli")


def _runs(matrix) -> int:
    return sum(len(matrix.runs_per_model[m]) for m in matrix.models)


def _records(matrix) -> int:
    return _runs(matrix) * len(matrix.tweet_ids)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for the calls made while `installed()` is active."""

    def __init__(self, alloc: bool = False):
        self.spans: list[Span] = []
        self.alloc = alloc  # trace allocations during each predictions.* call, for its peak
        self.count_errors: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counts_of = _COUNTS.get(name)
        measure_alloc = self.alloc and name.startswith("predictions.")

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            own_alloc = measure_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if own_alloc:
                    span.counts["alloc_peak_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counts_of is not None:
                try:
                    span.counts.update(counts_of(args, kwargs, result))
                except Exception as e:  # an API change must not fail the timed call
                    self.count_errors.add(f"{name}: {type(e).__name__}: {e}")
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every TRACED function in every loaded adrpipe module; restore on exit."""
        modules = [m for n, m in sys.modules.items() if n == "adrpipe" or n.startswith("adrpipe.")]
        patched = []
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules.get(f"adrpipe.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "error": s.error, "counts": s.counts}) + "\n")


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-span-name totals and counts, plus each layer's self time, for one operation.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because everything runs on one thread.
    """
    out: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for name in TRACED:
        out[f"{name}_s"] = 0.0
        out[f"{name}_calls"] = 0
        out[f"{name}_errors"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, s in enumerate(spans):
        duration = s.end - s.start
        out[f"{s.name}_s"] += duration
        out[f"{s.name}_calls"] += 1
        out[f"{s.name}_errors"] += int(s.error)
        out[f"{s.name.split('.')[0]}.self_s"] += duration - child_time[i]
    pre = [s for s in spans if s.name == "preprocess.preprocess"]
    out["preprocess.max_tweet_ms"] = 1000 * max((s.end - s.start for s in pre), default=0.0)
    out["preprocess.chars"] = sum(s.counts.get("chars", 0) for s in pre)
    stats = [s.counts for s in spans if s.name == "tokenize.corpus_token_stats"]
    words = sum(c.get("words", 0) for c in stats)
    out["tokenize.words"] = words
    out["tokenize.unk_rate"] = sum(c.get("unk_words", 0) for c in stats) / words if words else 0.0
    out["baseline.train_l2_s"] = sum(
        s.end - s.start for s in spans if s.name == "baseline.train" and s.counts.get("l2"))
    out["predictions.records"] = sum(
        s.counts.get("records", 0) for s in spans if s.name == "predictions.load_predictions")
    filtered = [s.counts for s in spans if s.name == "predictions.filter_runs"]
    out["predictions.runs_kept"] = sum(c.get("runs_out", 0) for c in filtered)
    out["predictions.runs_dropped"] = sum(c.get("runs_in", 0) - c.get("runs_out", 0) for c in filtered)
    out["ensemble.positives"] = sum(
        s.counts.get("positives", 0) for s in spans if s.name == "ensemble.decide")
    out["trace.spans"] = len(spans)
    return out


def alloc_peak_mb(spans: list[Span]) -> float:
    """Largest peak of memory allocated during any one predictions.* call."""
    peaks = [s.counts.get("alloc_peak_b", 0) for s in spans if s.name.startswith("predictions.")]
    return max(peaks, default=0) / 2**20


def median_of(summaries: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(s[k] for s in summaries) for k in summaries[0]}

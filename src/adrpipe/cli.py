"""adrpipe command line: one subcommand per pipeline stage plus `reproduce`,
which chains the whole workflow (preprocess -> seeded baseline runs -> ingest
-> run averaging -> max-positive ensemble -> evaluation report) from a single
JSON config.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error. Output files
are written atomically (temp + rename), so a failing command never leaves a
partial file behind. Every report embeds a run manifest (inputs, outputs,
config echo, seeds, tool version, timestamp) sufficient to rerun it.

The numpy-backed modules (baseline, predictions) are imported inside the
commands that use them, so preprocess, tokens, split, evaluate and
variability run without loading numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus, ensemble, evaluate, tokenize
from ._io import atomic_write_text, truncate_ids
from .preprocess import STAGES, PipelineConfig, load_lexicon
from .preprocess import preprocess as apply_pipeline

if TYPE_CHECKING:
    from . import baseline, predictions

PROG = "adrpipe"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}".rstrip())


@dataclass
class RunManifest:
    """Everything needed to rerun a command: echoed config, paths, seeds."""

    tool: str
    version: str
    command: str
    timestamp: str
    inputs: dict
    outputs: dict
    config: dict
    seeds: dict


def _manifest(command: str, inputs: dict, outputs: dict, config: dict, seeds: dict) -> RunManifest:
    return RunManifest(
        tool=PROG,
        version=__version__,
        command=command,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        inputs={k: str(v) for k, v in inputs.items()},
        outputs={k: str(v) for k, v in outputs.items()},
        config=config,
        seeds=seeds,
    )


def _parse_stages(text: str) -> tuple[str, ...]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [s for s in names if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stages: {', '.join(unknown)} (choose from {', '.join(STAGES)})")
    return tuple(names)


def _pipeline_config(stage_names: tuple[str, ...], lexicon_path: str | None) -> PipelineConfig:
    lexicon = load_lexicon(lexicon_path) if lexicon_path else None
    return PipelineConfig(enabled_stages=stage_names, lexicon=lexicon)


def _load_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


def _object(doc: dict, key: str) -> dict:
    """doc[key], {} when absent; anything but a JSON object is an error naming the key."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config: {key!r} must be an object")
    return value


def _baseline_config(d: dict) -> baseline.BaselineConfig:
    from . import baseline

    d = dict(d)
    d.pop("model_id", None)
    try:
        return baseline.BaselineConfig(**d)
    except TypeError as e:
        raise ValueError(f"bad baseline config: {e}") from None


def _specs_from_config(doc: dict) -> list[tuple[str, baseline.BaselineConfig]]:
    entries = doc.get("specs", [])
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("model_id"), str) for e in entries
    ):
        raise ValueError("config: 'specs' must be a list of objects, each with a string model_id")
    specs = [(e["model_id"], _baseline_config(e)) for e in entries]
    if not specs:
        raise ValueError("config must define at least one model spec")
    return specs


def _threshold_config(pairs: list[str], default: float | None) -> ensemble.EnsembleConfig:
    thresholds = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--threshold takes model=value, got {pair!r}")
        model_id, value = pair.split("=", 1)
        try:
            thresholds[model_id] = float(value)
        except ValueError:
            raise ValueError(f"bad threshold value in {pair!r}") from None
    return ensemble.EnsembleConfig(thresholds=thresholds, default_threshold=default)


@dataclass(frozen=True)
class _Scores:
    """Confusion counts per member and for the ensemble, and the attribution."""

    members: dict[str, evaluate.ConfusionCounts]
    ensemble: evaluate.ConfusionCounts
    attribution: evaluate.AttributionBreakdown


def _score(decisions, gold) -> _Scores:
    ensemble_counts = evaluate.confusion({d.tweet_id: d.ensemble_verdict for d in decisions}, gold)
    ab = evaluate.attribution(decisions, gold)
    models = sorted(decisions[0].per_model_verdict) if decisions else []
    members = {
        m: evaluate.confusion({d.tweet_id: d.per_model_verdict[m] for d in decisions}, gold)
        for m in models
    }
    return _Scores(members=members, ensemble=ensemble_counts, attribution=ab)


def _metric_row(c: evaluate.ConfusionCounts) -> dict:
    m = evaluate.metrics(c)
    return {
        "tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
        "precision": round(m.precision, 4),
        "recall": round(m.recall, 4),
        "f1": round(m.f1, 4),
    }


def _subset_key(s: frozenset[str]) -> str:
    return "+".join(sorted(s))


def _build_report(scores: _Scores, manifest: RunManifest, thresholds: dict[str, float]) -> dict:
    ab = scores.attribution
    subsets = sorted(set(ab.tp_by_subset) | set(ab.fp_by_subset), key=lambda s: (len(s), _subset_key(s)))
    return {
        "manifest": dataclasses.asdict(manifest),
        "thresholds": {m: round(t, 4) for m, t in thresholds.items()},
        "members": {m: _metric_row(c) for m, c in scores.members.items()},
        "ensemble": _metric_row(scores.ensemble),
        "attribution": {
            "tp_by_subset": {_subset_key(s): ab.tp_by_subset.get(s, 0) for s in subsets},
            "fp_by_subset": {_subset_key(s): ab.fp_by_subset.get(s, 0) for s in subsets},
            "exclusive_fraction": {m: round(v, 4) for m, v in ab.exclusive_fraction.items()},
        },
    }


def _report_to_tsv(report: dict) -> str:
    lines = ["# manifest\t" + json.dumps(report["manifest"], sort_keys=True)]
    lines.append("row\tname\ttp\tfp\ttn\tfn\tprecision\trecall\tf1")
    for name, row in list(report["members"].items()) + [("ensemble", report["ensemble"])]:
        kind = "member" if name in report["members"] else "ensemble"
        lines.append(
            f"{kind}\t{name}\t{row['tp']}\t{row['fp']}\t{row['tn']}\t{row['fn']}"
            f"\t{row['precision']:.4f}\t{row['recall']:.4f}\t{row['f1']:.4f}"
        )
    att = report["attribution"]
    for subset in att["tp_by_subset"]:
        lines.append(
            f"attribution\t{subset}\t{att['tp_by_subset'][subset]}\t{att['fp_by_subset'][subset]}\t\t\t\t\t"
        )
    for model, frac in att["exclusive_fraction"].items():
        lines.append(f"exclusive_fraction\t{model}\t\t\t\t\t\t\t{frac:.4f}")
    return "\n".join(lines) + "\n"


def _write_report(report: dict, path: str | Path) -> None:
    if str(path).endswith(".json"):
        atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        atomic_write_text(path, _report_to_tsv(report))


def _print_report(scores: _Scores) -> None:
    columns = {m: evaluate.metrics(c) for m, c in scores.members.items()}
    columns["ensemble"] = evaluate.metrics(scores.ensemble)
    print(evaluate.metrics_table(columns))
    ab = scores.attribution
    if ab.tp_by_subset or ab.fp_by_subset:
        print()
        print(evaluate.attribution_table(ab))


# ---------------------------------------------------------------- subcommands


def cmd_preprocess(args) -> int:
    stages = _parse_stages(args.stages)
    cfg = _pipeline_config(stages, args.lexicon)
    data = corpus.load_dataset(args.input)
    cleaned = [
        corpus.LabeledTweet(r.tweet_id, apply_pipeline(r.text, cfg), r.label)
        for r in data.records
    ]
    corpus.save_dataset(corpus.Dataset.from_records(cleaned), args.output)
    print(f"wrote {len(cleaned)} records to {args.output}")
    return 0


def cmd_tokens(args) -> int:
    vocab = tokenize.load_vocab(args.vocab)
    if args.compare:
        word_a, word_b = args.compare
        report = tokenize.overlap_report(word_a, word_b, vocab)
        print(f"{report.word_a} -> {' '.join(report.tokens_a)}")
        print(f"{report.word_b} -> {' '.join(report.tokens_b)}")
        shared = ", ".join(sorted(report.shared_tokens)) or "(none)"
        print(f"shared tokens: {shared}")
        return 0
    if args.stats:
        if not args.input:
            raise ValueError("--stats requires --input")
        data = corpus.load_dataset(args.input)
        stats = tokenize.corpus_token_stats([r.text for r in data.records], vocab)
        print(f"total words: {stats.total_words}")
        print(f"unk words:   {stats.unk_words}")
        print(f"unk rate:    {stats.unk_rate:.4f}")
        return 0
    raise ValueError("nothing to do: pass --compare A B or --stats --input FILE")


def _load_matrix(args) -> predictions.RunMatrix:
    from . import predictions

    expected = None if args.expect_runs == 0 else args.expect_runs
    matrix = predictions.load_predictions(args.pred, expected_runs=expected)
    if args.min_dev_f1 is not None:
        if not args.gold:
            raise ValueError("--min-dev-f1 requires --gold")
        gold = corpus.load_dataset(args.gold).labels()
        matrix = predictions.filter_runs(matrix, gold, args.min_dev_f1)
    return matrix


def cmd_ingest(args) -> int:
    from . import predictions

    matrix = _load_matrix(args)
    print(f"models: {len(matrix.models)}, tweets: {len(matrix.tweet_ids)}")
    for model_id in matrix.models:
        runs = matrix.runs_per_model[model_id]
        print(f"  {model_id}: {len(runs)} runs ({', '.join(runs)})")
    if args.output:
        predictions.write_predictions(matrix, args.output)
        print(f"wrote merged predictions to {args.output}")
    return 0


def cmd_ensemble(args) -> int:
    from . import predictions

    matrix = _load_matrix(args)
    cfg = _threshold_config(args.threshold, None if args.no_default else args.default_threshold)
    decisions = ensemble.decide(predictions.average_runs(matrix), cfg)
    ensemble.write_decisions(decisions, args.output)
    positive = sum(d.ensemble_verdict for d in decisions)
    print(f"wrote {len(decisions)} decisions to {args.output} ({positive} ensemble-positive)")
    return 0


def cmd_evaluate(args) -> int:
    decisions = ensemble.read_decisions(args.decisions)
    gold = corpus.load_dataset(args.gold).labels()
    manifest = _manifest(
        command="evaluate",
        inputs={"decisions": args.decisions, "gold": args.gold},
        outputs={"report": args.report},
        config={},
        seeds={},
    )
    scores = _score(decisions, gold)
    _write_report(_build_report(scores, manifest, thresholds={}), args.report)
    _print_report(scores)
    print(f"\nwrote report to {args.report}")
    return 0


def cmd_variability(args) -> int:
    rows = []
    with open(args.metrics, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        if header != "scenario\trun_id\tf1\trecall":
            raise ValueError(
                f"{args.metrics}: expected header 'scenario<TAB>run_id<TAB>f1<TAB>recall'"
            )
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{args.metrics}: expected 4 fields at line {lineno}")
            scenario, run_id, f1, recall = fields
            try:
                rows.append((scenario, run_id, float(f1), float(recall)))
            except ValueError:
                raise ValueError(f"{args.metrics}: bad metric value at line {lineno}") from None
    if args.scenario is not None:
        rows = [r for r in rows if r[0] == args.scenario]
        if not rows:
            raise ValueError(f"no rows for scenario {args.scenario!r}")
    scenarios = list(dict.fromkeys(r[0] for r in rows))
    reports = []
    for scenario in scenarios:
        per_run = [
            evaluate.Metrics(precision=0.0, recall=rec, f1=f1)
            for s, _, f1, rec in rows
            if s == scenario
        ]
        reports.append(evaluate.variability(per_run, scenario))
    print(evaluate.variability_table(reports))
    return 0


def cmd_split(args) -> int:
    data = corpus.load_dataset(args.input)
    train, dev = corpus.stratified_split(data, args.fraction, args.seed)
    stem = str(args.input)
    stem = stem[: -len(".tsv")] if stem.endswith(".tsv") else stem
    train_out = args.train_out or f"{stem}.train.tsv"
    dev_out = args.dev_out or f"{stem}.dev.tsv"
    corpus.save_dataset(train, train_out)
    corpus.save_dataset(dev, dev_out)
    print(
        f"train: {len(train)} records ({train.positive_count} positive) -> {train_out}\n"
        f"dev:   {len(dev)} records ({dev.positive_count} positive) -> {dev_out}"
    )
    return 0


def cmd_baseline(args) -> int:
    from . import baseline, predictions

    doc = _load_json(args.config)
    if args.action == "train":
        for key in ("train", "model_out"):
            if key not in doc:
                raise ValueError(f"baseline train config needs {key!r}")
        data = corpus.load_dataset(doc["train"])
        cfg = _baseline_config(_object(doc, "config"))
        model = baseline.train(data, cfg)
        baseline.save_model(model, doc["model_out"])
        print(f"trained on {len(data)} records, saved model to {doc['model_out']}")
        return 0
    if args.action == "predict":
        for key in ("model", "input", "output", "model_id", "run_id"):
            if key not in doc:
                raise ValueError(f"baseline predict config needs {key!r}")
        model = baseline.load_model(doc["model"])
        data = corpus.load_dataset(doc["input"])
        ids = [r.tweet_id for r in data.records]
        probs = [baseline.predict_prob(model, r.text) for r in data.records]
        matrix = predictions.RunMatrix.from_columns({(doc["model_id"], doc["run_id"]): (ids, probs)})
        predictions.write_predictions(matrix, doc["output"])
        print(f"wrote {len(data)} predictions to {doc['output']}")
        return 0
    # protocol
    for key in ("train", "eval", "output"):
        if key not in doc:
            raise ValueError(f"baseline protocol config needs {key!r}")
    train_set = corpus.load_dataset(doc["train"])
    eval_set = corpus.load_dataset(doc["eval"])
    specs = _specs_from_config(doc)
    runs = int(doc.get("runs", 5))
    out = baseline.run_protocol(train_set, eval_set, specs, runs, doc["output"])
    print(f"wrote {len(specs)} specs x {runs} runs x {len(eval_set)} tweets to {out}")
    return 0


def cmd_reproduce(args) -> int:
    from . import baseline, predictions

    doc = _load_json(args.config)
    for key in ("dataset", "output_dir"):
        if key not in doc:
            raise ValueError(f"config: {key!r} is required")
    if ("protocol" in doc) == ("predictions" in doc):
        raise ValueError("config: exactly one of 'protocol' or 'predictions' is required")
    out_dir = Path(doc["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        data = corpus.load_dataset(doc["dataset"])
    except ValueError as e:
        raise ValueError(f"corpus: {e}") from None
    thresholds_doc = dict(_object(doc, "thresholds"))
    default = thresholds_doc.pop("default", 0.5)
    try:
        ens_cfg = ensemble.EnsembleConfig(
            thresholds={m: float(t) for m, t in thresholds_doc.items()},
            default_threshold=None if default is None else float(default),
        )
    except ValueError as e:
        raise ValueError(f"ensemble: {e}") from None
    try:
        min_dev_f1 = None if doc.get("min_dev_f1") is None else float(doc["min_dev_f1"])
    except (TypeError, ValueError):
        raise ValueError(f"config: 'min_dev_f1' must be a number, got {doc['min_dev_f1']!r}") from None

    seeds: dict = {}
    inputs = {"dataset": doc["dataset"]}
    outputs: dict = {}

    if "protocol" in doc:
        proto = _object(doc, "protocol")
        stage_names = _parse_stages(",".join(doc.get("stages", STAGES)))
        try:
            pipe_cfg = _pipeline_config(stage_names, doc.get("lexicon"))
        except ValueError as e:
            raise ValueError(f"preprocess: {e}") from None
        if doc.get("lexicon"):
            inputs["lexicon"] = doc["lexicon"]
        cleaned = corpus.Dataset.from_records(
            corpus.LabeledTweet(r.tweet_id, apply_pipeline(r.text, pipe_cfg), r.label)
            for r in data.records
        )
        split_cfg = _object(doc, "split")
        fraction = float(split_cfg.get("train_fraction", 0.8))
        split_seed = int(split_cfg.get("seed", 0))
        seeds["split"] = split_seed
        try:
            train_set, dev_set = corpus.stratified_split(cleaned, fraction, split_seed)
        except ValueError as e:
            raise ValueError(f"split: {e}") from None
        specs = _specs_from_config(proto)
        ensemble.check_model_ids(m for m, _ in specs)
        seeds["specs"] = {m: cfg.seed for m, cfg in specs}
        runs = int(proto.get("runs", 5))
        pred_path = out_dir / "predictions.tsv"
        try:
            baseline.run_protocol(train_set, dev_set, specs, runs, pred_path)
        except ValueError as e:
            raise ValueError(f"baseline: {e}") from None
        outputs["predictions"] = pred_path
        pred_paths = [pred_path]
        gold = dev_set.labels()
        expected_runs = runs
    else:
        pred_paths = [Path(p) for p in doc["predictions"]]
        inputs["predictions"] = ", ".join(map(str, pred_paths))
        expected_runs = None
        gold = None  # filled in after loading the matrix

    try:
        matrix = predictions.load_predictions(pred_paths, expected_runs=expected_runs)
    except ValueError as e:
        raise ValueError(f"ingest: {e}") from None

    if gold is None:
        all_labels = data.labels()
        missing = [t for t in matrix.tweet_ids if t not in all_labels]
        if missing:
            raise ValueError(f"ingest: dataset lacks labels for: {truncate_ids(sorted(missing))}")
        gold = {t: all_labels[t] for t in matrix.tweet_ids}

    if min_dev_f1 is not None:
        try:
            matrix = predictions.filter_runs(matrix, gold, min_dev_f1)
        except ValueError as e:
            raise ValueError(f"ingest: {e}") from None

    try:
        decisions = ensemble.decide(predictions.average_runs(matrix), ens_cfg)
    except ValueError as e:
        raise ValueError(f"ensemble: {e}") from None

    decisions_path = out_dir / "decisions.tsv"
    ensemble.write_decisions(decisions, decisions_path)
    outputs["decisions"] = decisions_path

    report_path = out_dir / "report.json"
    outputs["report"] = report_path
    manifest = _manifest(
        command="reproduce",
        inputs=inputs,
        outputs=outputs,
        config=doc,
        seeds=seeds,
    )
    try:
        scores = _score(decisions, gold)
    except ValueError as e:
        raise ValueError(f"evaluate: {e}") from None
    report = _build_report(
        scores, manifest, thresholds={m: ens_cfg.threshold_for(m) for m in matrix.models}
    )
    _write_report(report, report_path)
    _print_report(scores)
    print(f"\nwrote {decisions_path} and {report_path}")
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", parents=[], help="clean tweet text in a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--output", required=True)
    p.add_argument("--stages", default=",".join(STAGES))
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tokens", help="subword tokenization reports")
    p.add_argument("--vocab", required=True)
    p.add_argument("--compare", nargs=2, metavar=("WORD_A", "WORD_B"))
    p.add_argument("--stats", action="store_true")
    p.add_argument("--input")
    p.set_defaults(func=cmd_tokens)

    def add_pred_args(p):
        p.add_argument("--pred", nargs="+", required=True, metavar="FILE")
        p.add_argument("--expect-runs", type=int, default=5, help="warn if run counts differ (0 disables)")
        p.add_argument("--min-dev-f1", type=float, default=None)
        p.add_argument("--gold", help="dataset file with labels, for --min-dev-f1")

    p = sub.add_parser("ingest", help="validate prediction files")
    add_pred_args(p)
    p.add_argument("--check", action="store_true", help="validate only (default behavior)")
    p.add_argument("--output", help="write the merged, validated predictions here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ensemble", help="average runs, threshold, max-positive combine")
    add_pred_args(p)
    p.add_argument("--threshold", action="append", metavar="MODEL=VALUE", default=[])
    p.add_argument("--default-threshold", type=float, default=0.5)
    p.add_argument("--no-default", action="store_true", help="require an explicit threshold per model")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("evaluate", help="score decisions against gold labels")
    p.add_argument("--decisions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--report", required=True, help=".json or .tsv output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("variability", help="per-scenario F1/recall standard deviations")
    p.add_argument("--metrics", required=True, help="TSV: scenario, run_id, f1, recall")
    p.add_argument("--scenario", help="restrict to one scenario label")
    p.set_defaults(func=cmd_variability)

    p = sub.add_parser("split", help="stratified train/dev split of a dataset file")
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-out")
    p.add_argument("--dev-out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("baseline", help="train/predict/protocol for the built-in classifier")
    p.add_argument("action", choices=("train", "predict", "protocol"))
    p.add_argument("--config", required=True, help="JSON config file")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("reproduce", help="run the full workflow from one JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # --help / --version
        return 0 if e.code in (0, None) else 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"{args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""adrpipe command line: one subcommand per pipeline stage plus `reproduce`,
which chains the whole workflow (preprocess -> seeded baseline runs -> ingest
-> run averaging -> max-positive ensemble -> evaluation report) from a single
JSON config.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error. Output files
are written atomically (temp + rename), so a failing command never leaves a
partial file behind. Every report embeds a run manifest (inputs, outputs,
config echo, seeds, tool version, timestamp) sufficient to rerun it.

Each command imports only the modules it runs: the stage modules are
imported inside the commands that use them, and only `corpus` and
`preprocess`, which the parser and most commands need, load with this module.
So `preprocess` and `tokens` never load the prediction, ensemble or
evaluation code, and only the commands that train or score with the baseline
classifier (`baseline`, and `reproduce` in protocol mode) load numpy. No
numpy-free command loads `dataclasses`, and `json` and `datetime` load only
where a config is read or a report written.
"""

from __future__ import annotations

import argparse
import numbers
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus
from ._io import atomic_write, lines_of, require_blank, truncate_ids
from .preprocess import STAGES, PipelineConfig, load_lexicon
from .preprocess import preprocess as apply_pipeline

if TYPE_CHECKING:
    from . import baseline, ensemble, evaluate, predictions

PROG = "adrpipe"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}".rstrip())


def _manifest(command: str, inputs: dict, outputs: dict, config: dict, seeds: dict) -> dict:
    """Everything needed to rerun a command: echoed config, paths, seeds."""
    from datetime import datetime, timezone

    return {
        "tool": PROG,
        "version": __version__,
        "command": command,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "config": config,
        "seeds": seeds,
    }


@contextmanager
def _stage(name: str):
    """Prefix a ValueError raised in the block with the reproduce stage it came from."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _pipeline_config(stage_names: list[str], lexicon_path: str | None) -> PipelineConfig:
    lexicon = load_lexicon(lexicon_path) if lexicon_path else None
    return PipelineConfig(enabled_stages=stage_names, lexicon=lexicon)


def _load_json(path: str | Path) -> dict:
    import json

    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


_REQUIRED = object()
_KINDS = {dict: "an object", str: "a string", list: "a list of strings", int: "an integer", float: "a number"}


def _config(section: dict, name: str, kind: type, default=_REQUIRED):
    """The field `name` ("dataset", "split.seed", "thresholds.<model>") of a config section, as `kind`.

    Its key in the section is `name` after the first dot, if any. `kind` is
    dict (a JSON object), str, list (of strings), int, float (any number) or
    object (any value). Absent, the field is `default`, or an error when there
    is none; with a default of None, a JSON null is absent too. Anything else
    of the wrong kind is an error naming the field: a JSON true would reach
    open() as 1, the stdout descriptor, a string where a list belongs would be
    read one character at a time, and int() would silently truncate 2.7.
    """
    key = name.split(".", 1)[-1]
    if key not in section:
        if default is _REQUIRED:
            raise ValueError(f"config: {name!r} is required")
        return default
    value = section[key]
    if value is None and default is None:
        return None
    if kind is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif kind in (int, float):
        ok = not isinstance(value, bool) and isinstance(value, numbers.Integral if kind is int else numbers.Real)
    else:
        ok = isinstance(value, kind)
    if not ok:
        got = "" if kind is dict else f", got {value!r}"
        raise ValueError(f"config: {name!r} must be {_KINDS[kind]}{got}")
    return kind(value) if kind in (int, float) else value


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
    from . import ensemble

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


def _metric_row(c: evaluate.ConfusionCounts) -> dict:
    from . import evaluate

    m = evaluate.metrics(c)
    return {
        "tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
        "precision": round(m.precision, 4),
        "recall": round(m.recall, 4),
        "f1": round(m.f1, 4),
    }


def _subset_key(s: frozenset[str]) -> str:
    return "+".join(sorted(s))


def _report_to_tsv(report: dict) -> str:
    import json

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


def _report(decisions: ensemble.Decisions, gold, manifest: dict, thresholds: dict[str, float], path: str | Path) -> None:
    """Score the decisions against gold, write the .json or .tsv report to `path`, print both tables."""
    import json

    from . import evaluate

    ab = evaluate.attribution(decisions, gold)  # checks that the decisions cover gold's tweets
    labels = [gold[t] for t in decisions.tweet_ids]
    ensemble_counts = evaluate.count_cells(decisions.ensemble, labels)
    members = {m: evaluate.count_cells(column, labels) for m, column in decisions.verdicts.items()}
    subsets = ab.subsets
    report = {
        "manifest": manifest,
        "thresholds": {m: round(t, 4) for m, t in thresholds.items()},
        "members": {m: _metric_row(c) for m, c in members.items()},
        "ensemble": _metric_row(ensemble_counts),
        "attribution": {
            "tp_by_subset": {_subset_key(s): ab.tp_by_subset.get(s, 0) for s in subsets},
            "fp_by_subset": {_subset_key(s): ab.fp_by_subset.get(s, 0) for s in subsets},
            "exclusive_fraction": {m: round(v, 4) for m, v in ab.exclusive_fraction.items()},
        },
    }
    as_json = str(path).endswith(".json")
    atomic_write(path, [json.dumps(report, indent=2, sort_keys=True) + "\n" if as_json else _report_to_tsv(report)])
    columns = {m: evaluate.metrics(c) for m, c in members.items()}
    columns["ensemble"] = evaluate.metrics(ensemble_counts)
    print(evaluate.metrics_table(columns))
    if ab.tp_by_subset or ab.fp_by_subset:
        print()
        print(evaluate.attribution_table(ab))


# ---------------------------------------------------------------- subcommands


def _cleaned(records, cfg: PipelineConfig):
    """Each record with its text cleaned; a text holding a tab or line break raises LabeledTweet's error."""
    for tweet_id, text, label in records:
        text = apply_pipeline(text, cfg)
        if "\t" in text or "\n" in text or "\r" in text:
            corpus.LabeledTweet(tweet_id, text, label)
        yield tweet_id, text, label


def cmd_preprocess(args) -> int:
    cfg = _pipeline_config([s.strip() for s in args.stages.split(",") if s.strip()], args.lexicon)
    open(args.input, "rb").close()  # a missing input is named before a missing output directory
    written = corpus.write_records(_cleaned(corpus.read_records(args.input), cfg), args.output)
    print(f"wrote {written} records to {args.output}")
    return 0


def cmd_tokens(args) -> int:
    from . import tokenize

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
        stats = tokenize.corpus_token_stats((r.text for r in corpus.read_records(args.input)), vocab)
        print(f"total words: {stats.total_words}")
        print(f"unk words:   {stats.unk_words}")
        print(f"unk rate:    {stats.unk_rate:.4f}")
        return 0
    raise ValueError("nothing to do: pass --compare A B or --stats --input FILE")


def _load_matrix(args, ens_cfg: ensemble.EnsembleConfig | None = None) -> predictions.RunMatrix:
    """The --pred files' matrix, after --min-dev-f1's screen; ens_cfg's thresholds are checked before it.

    --min-dev-f1's own rules are checked before any file is opened, and a
    missing or unreadable --gold fails before any --pred file is parsed. Its
    labels are read after the parse, so that they do not add to its peak memory.
    """
    from . import predictions

    if args.min_dev_f1 is not None:
        if not args.gold:
            raise ValueError("--min-dev-f1 requires --gold")
        predictions.check_min_f1(args.min_dev_f1)
        open(args.gold, "rb").close()
    expected = None if args.expect_runs == 0 else args.expect_runs
    matrix = predictions.load_predictions(args.pred, expected_runs=expected)
    if ens_cfg is not None:
        ens_cfg.thresholds_for(matrix.models)
    if args.min_dev_f1 is not None:
        gold = corpus.read_labels(args.gold)
        matrix = predictions.filter_runs(matrix, gold, args.min_dev_f1)
    return matrix


def cmd_ingest(args) -> int:
    from . import predictions

    matrix = _load_matrix(args)
    print(f"models: {len(matrix.models)}, tweets: {len(matrix.tweet_ids)}")
    for model_id, runs in matrix.runs_per_model.items():
        print(f"  {model_id}: {len(runs)} runs ({', '.join(runs)})")
    if args.output:
        predictions.write_predictions(matrix, args.output)
        print(f"wrote merged predictions to {args.output}")
    return 0


def cmd_ensemble(args) -> int:
    from . import ensemble

    cfg = _threshold_config(args.threshold, None if args.no_default else args.default_threshold)
    matrix = _load_matrix(args, cfg)
    decisions = ensemble.decide(matrix, cfg)
    ensemble.write_decisions(decisions, args.output)
    print(f"wrote {len(decisions)} decisions to {args.output} ({sum(decisions.ensemble)} ensemble-positive)")
    return 0


def cmd_evaluate(args) -> int:
    from . import ensemble

    if not args.report.endswith((".json", ".tsv")):
        raise ValueError(f"--report must end in .json or .tsv, got {args.report!r}")
    decisions = ensemble.read_decisions(args.decisions)
    gold = corpus.read_labels(args.gold)
    manifest = _manifest(
        command="evaluate",
        inputs={"decisions": args.decisions, "gold": args.gold},
        outputs={"report": args.report},
        config={},
        seeds={},
    )
    _report(decisions, gold, manifest, {}, args.report)
    print(f"\nwrote report to {args.report}")
    return 0


def cmd_variability(args) -> int:
    from . import evaluate

    runs_by_scenario: dict[str, dict[str, evaluate.Metrics]] = {}  # in first-seen order
    with lines_of(args.metrics, "scenario\trun_id\tf1\trecall", header_required=True) as (lines, start):
        for lineno, line in enumerate(lines, start):
            try:
                scenario, run_id, f1_text, recall_text = line.split("\t")  # float() ignores recall's "\n"
            except ValueError:
                require_blank(args.metrics, 4, lineno, line)
                continue
            try:
                f1, recall = float(f1_text), float(recall_text)
            except ValueError:
                raise ValueError(f"{args.metrics}: bad metric value at line {lineno}") from None
            if not (0.0 <= f1 <= 1.0 and 0.0 <= recall <= 1.0):  # NaN fails too
                raise ValueError(f"{args.metrics}: bad metric value at line {lineno}")
            runs = runs_by_scenario.setdefault(scenario, {})
            if run_id in runs:  # counted twice, one run would weigh double in the standard deviation
                raise ValueError(f"{args.metrics}: duplicate run {run_id} for scenario {scenario} at line {lineno}")
            runs[run_id] = evaluate.Metrics(precision=0.0, recall=recall, f1=f1)
    if not runs_by_scenario:
        raise ValueError(f"{args.metrics}: no metric rows")
    if args.scenario is not None:
        if args.scenario not in runs_by_scenario:
            raise ValueError(f"no rows for scenario {args.scenario!r}")
        runs_by_scenario = {args.scenario: runs_by_scenario[args.scenario]}
    reports = [evaluate.variability(list(runs.values()), s) for s, runs in runs_by_scenario.items()]
    print(evaluate.variability_table(reports))
    return 0


def cmd_split(args) -> int:
    stem = str(args.input)
    stem = stem[: -len(".tsv")] if stem.endswith(".tsv") else stem
    train_out = args.train_out or f"{stem}.train.tsv"
    dev_out = args.dev_out or f"{stem}.dev.tsv"
    if Path(train_out).resolve() == Path(dev_out).resolve():  # the dev side would overwrite the train side
        raise ValueError(f"train and dev outputs are the same file: {dev_out}")
    data = corpus.load_dataset(args.input)
    train, dev = corpus.stratified_split(data, args.fraction, args.seed)
    corpus.save_dataset(train, train_out)
    corpus.save_dataset(dev, dev_out)
    print(
        f"train: {len(train)} records ({train.positive_count} positive) -> {train_out}\n"
        f"dev:   {len(dev)} records ({dev.positive_count} positive) -> {dev_out}"
    )
    return 0


# The keys each `baseline` action's config reads, as (required, optional).
# Every required key but the two ids is a path.
_BASELINE_KEYS = {
    "train": (("train", "model_out"), ("config",)),
    "predict": (("model", "input", "output", "model_id", "run_id"), ()),
    "protocol": (("train", "eval", "output"), ("specs", "runs")),
}


def cmd_baseline(args) -> int:
    from . import baseline, predictions

    doc = _load_json(args.config)
    required, optional = _BASELINE_KEYS[args.action]
    for key in required:
        _config(doc, key, object if key.endswith("_id") else str)  # the ids are checked where they are written
    unknown = [key for key in doc if key not in required + optional]
    if unknown:
        raise ValueError(f"config: unknown key {unknown[0]!r}")
    if args.action == "train":
        data = corpus.load_dataset(doc["train"])
        cfg = _baseline_config(_config(doc, "config", dict, {}))
        model = baseline.train(data, cfg)
        baseline.save_model(model, doc["model_out"])
        print(f"trained on {len(data)} records, saved model to {doc['model_out']}")
        return 0
    if args.action == "predict":
        model = baseline.load_model(doc["model"])
        data = corpus.load_dataset(doc["input"])
        ids = [r.tweet_id for r in data.records]
        probs = baseline.predict_probs(model, [r.text for r in data.records])
        matrix = predictions.RunMatrix({(doc["model_id"], doc["run_id"]): (ids, probs)})
        predictions.write_predictions(matrix, doc["output"])
        print(f"wrote {len(data)} predictions to {doc['output']}")
        return 0
    # protocol
    train_set = corpus.load_dataset(doc["train"])
    eval_set = corpus.load_dataset(doc["eval"])
    specs = _specs_from_config(doc)
    runs = _config(doc, "runs", int, 5)
    out = baseline.run_protocol(train_set, eval_set, specs, runs, doc["output"])
    print(f"wrote {len(specs)} specs x {runs} runs x {len(eval_set)} tweets to {out}")
    return 0


# The keys `reproduce` reads, at the top level and in its two sections. Either
# mode accepts the other's keys, so `protocol` can be swapped for `predictions`.
_REPRODUCE_KEYS = {
    "": ("dataset", "output_dir", "protocol", "predictions", "lexicon", "stages", "split", "thresholds",
         "min_dev_f1"),
    "split.": ("train_fraction", "seed"),
    "protocol.": ("runs", "specs"),
}


def _protocol_inputs(doc: dict, data: corpus.Dataset, ens_cfg: ensemble.EnsembleConfig, out_dir: Path):
    """Protocol mode's (matrix, gold, thresholds, inputs, seeds): every spec's runs, trained on the cleaned
    dataset's train side and scored on its dev side, the gold. output_dir is made after every check."""
    from . import baseline, ensemble

    stage_names = _config(doc, "stages", list, list(STAGES))
    lexicon = _config(doc, "lexicon", str, None)
    with _stage("preprocess"):
        pipe_cfg = _pipeline_config(stage_names, lexicon)
    inputs = {"dataset": doc["dataset"], **({"lexicon": lexicon} if lexicon else {})}
    cleaned = data.with_texts(apply_pipeline(r.text, pipe_cfg) for r in data.records)
    fraction = _config(doc.get("split", {}), "split.train_fraction", float, 0.8)
    split_seed = _config(doc.get("split", {}), "split.seed", int, 0)
    with _stage("split"):
        train_set, dev_set = corpus.stratified_split(cleaned, fraction, split_seed)
    specs = _specs_from_config(doc["protocol"])
    ensemble.check_model_ids(m for m, _ in specs)
    with _stage("ensemble"):
        thresholds = ens_cfg.thresholds_for(m for m, _ in specs)
    runs = _config(doc["protocol"], "runs", int, 5)
    with _stage("baseline"):
        baseline.check_protocol(train_set, specs, runs)
        out_dir.mkdir(parents=True, exist_ok=True)  # every check has passed; nothing is hashed yet
        matrix = baseline.protocol_matrix(train_set, dev_set, specs, runs)
    seeds = {"split": split_seed, "specs": {m: cfg.seed for m, cfg in specs}}
    return matrix, dev_set.labels(), thresholds, inputs, seeds


def _predictions_inputs(doc: dict, labels: dict[str, int], ens_cfg: ensemble.EnsembleConfig, out_dir: Path):
    """Predictions mode's (matrix, gold, thresholds, inputs, seeds): the prediction files' matrix,
    and the dataset's labels for its tweets as the gold. output_dir is made after every check."""
    from . import ensemble, predictions

    pred_paths = [Path(p) for p in _config(doc, "predictions", list)]
    with _stage("ingest"):
        matrix = predictions.load_predictions(pred_paths, expected_runs=None)
    ensemble.check_model_ids(matrix.models)
    with _stage("ensemble"):
        thresholds = ens_cfg.thresholds_for(matrix.models)
    missing = [t for t in matrix.tweet_ids if t not in labels]
    if missing:
        raise ValueError(f"ingest: dataset lacks labels for: {truncate_ids(sorted(missing))}")
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = {"dataset": doc["dataset"], "predictions": ", ".join(map(str, pred_paths))}
    return matrix, {t: labels[t] for t in matrix.tweet_ids}, thresholds, inputs, {}


def cmd_reproduce(args) -> int:
    from . import ensemble, predictions

    doc = _load_json(args.config)
    dataset_path = _config(doc, "dataset", str)
    out_dir = Path(_config(doc, "output_dir", str))
    protocol = "protocol" in doc
    if protocol == ("predictions" in doc):
        raise ValueError("config: exactly one of 'protocol' or 'predictions' is required")
    split_cfg = _config(doc, "split", dict, {})
    proto = _config(doc, "protocol", dict, {})
    for prefix, section in (("", doc), ("split.", split_cfg), ("protocol.", proto)):
        unknown = [key for key in section if key not in _REPRODUCE_KEYS[prefix]]
        if unknown:
            raise ValueError(f"config: unknown key {prefix + unknown[0]!r}")

    with _stage("corpus"):  # predictions mode needs only the labels, not the texts
        data = corpus.load_dataset(dataset_path) if protocol else corpus.read_labels(dataset_path)
    thresholds_doc = _config(doc, "thresholds", dict, {})
    # "default": null leaves no default, so every model needs a threshold of its own.
    default = _config(thresholds_doc, "thresholds.default", float, None) if "default" in thresholds_doc else 0.5
    listed = {m: _config(thresholds_doc, f"thresholds.{m}", float) for m in thresholds_doc if m != "default"}
    with _stage("ensemble"):
        ens_cfg = ensemble.EnsembleConfig(thresholds=listed, default_threshold=default)
    min_dev_f1 = _config(doc, "min_dev_f1", float, None)
    if min_dev_f1 is not None:
        with _stage("config"):
            predictions.check_min_f1(min_dev_f1)

    inputs_of = _protocol_inputs if protocol else _predictions_inputs
    matrix, gold, thresholds, inputs, seeds = inputs_of(doc, data, ens_cfg, out_dir)
    written = matrix if protocol else None  # protocol mode's unscreened matrix, for predictions.tsv
    if min_dev_f1 is not None:
        with _stage("ingest"):
            matrix = predictions.filter_runs(matrix, gold, min_dev_f1)
    with _stage("ensemble"):
        decisions = ensemble.decide(matrix, ens_cfg)

    outputs = {"decisions": out_dir / "decisions.tsv", "report": out_dir / "report.json"}
    if written is not None:  # only now, so a screen or decision that fails leaves no predictions.tsv
        outputs["predictions"] = out_dir / "predictions.tsv"
        predictions.write_predictions(written, outputs["predictions"])
    ensemble.write_decisions(decisions, outputs["decisions"])
    manifest = _manifest(command="reproduce", inputs=inputs, outputs=outputs, config=doc, seeds=seeds)
    with _stage("evaluate"):
        _report(decisions, gold, manifest, {m: thresholds[m] for m in matrix.models}, outputs["report"])
    print(f"\nwrote {outputs['decisions']} and {outputs['report']}")
    return 0


# ------------------------------------------------------------------- parser


def _run_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


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
        p.add_argument("--expect-runs", type=_run_count, default=5, help="warn if run counts differ (0 disables)")
        p.add_argument("--min-dev-f1", type=float, default=None)
        p.add_argument("--gold", help="dataset file with labels, for --min-dev-f1")

    p = sub.add_parser("ingest", help="validate prediction files")
    add_pred_args(p)
    p.add_argument("--check", action="store_true",
                   help="changes nothing: ingest always validates, and writes only with --output")
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
    # Warnings print as one line naming the command, not the source line that raised them.
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"{args.command}: warning: {message}\n"
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
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    raise SystemExit(main())

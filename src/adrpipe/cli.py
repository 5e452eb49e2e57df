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
numpy-free command loads `dataclasses`, and `json` loads only where a config
is read or a report written.

The same holds for the CLI's own code: `baseline` and `reproduce` live in
`adrpipe._workflow`, the report and its manifest in `evaluate`; without `.pyc`
files, the largest module a command compiles sets a floor under its peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from contextlib import closing
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, corpus
from ._io import lines_of, require_blank
from .preprocess import STAGES, PipelineConfig, pipeline_config
from .preprocess import preprocess as apply_pipeline

if TYPE_CHECKING:
    from . import ensemble, predictions

PROG = "adrpipe"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}".rstrip())


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


# ---------------------------------------------------------------- subcommands


# Records in a block the preprocess worker cleans: 1,024 raised the command's peak by 0.4 MB over 256, for no speed.
_BLOCK = 256


def _cleaned(records, cfg: PipelineConfig):
    """Each record with its text cleaned; a text holding a tab or line break raises LabeledTweet's error.

    Records are read two blocks at a time, and a forked worker (`_fork.worker`) cleans the second block's texts while
    this process cleans the first. This process checks and yields every record in order, and holds a read error until
    the records read before it are yielded, so the errors come as one process meets them.
    """
    from . import _fork

    def block():
        nonlocal error
        taken = []
        try:
            for record in islice(records, 0 if error else _BLOCK):
                taken.append(record)
        except Exception as e:  # the reader's, which has stopped
            error = e
        return taken

    def clean(texts):
        return [apply_pipeline(text, cfg) for text in texts]

    def checked(taken, texts):
        for (tweet_id, _, label), text in zip(taken, texts):
            if "\t" in text or "\n" in text or "\r" in text:
                corpus.LabeledTweet(tweet_id, text, label)
            yield tweet_id, text, label

    records, error = iter(records), None
    with _fork.worker(clean) as submit:
        while mine := block():
            theirs = block()
            sent = submit([text for _, text, _ in theirs]) if theirs else list  # list() is the empty result
            yield from checked(mine, clean([text for _, text, _ in mine]))
            yield from checked(theirs, sent())
    if error:
        raise error


def cmd_preprocess(args) -> int:
    cfg = pipeline_config([s.strip() for s in args.stages.split(",") if s.strip()], args.lexicon)
    open(args.input, "rb").close()  # a missing input is named before a missing output directory
    with closing(_cleaned(corpus.read_records(args.input), cfg)) as records:  # its worker ends with the command
        written = corpus.write_records(records, args.output)
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
    from . import ensemble, evaluate

    if not args.report.endswith((".json", ".tsv")):
        raise ValueError(f"--report must end in .json or .tsv, got {args.report!r}")
    decisions = ensemble.read_decisions(args.decisions)
    gold = corpus.read_labels(args.gold)
    manifest = evaluate.manifest(
        command="evaluate",
        inputs={"decisions": args.decisions, "gold": args.gold},
        outputs={"report": args.report},
        config={},
        seeds={},
    )
    evaluate.write_report(decisions, gold, manifest, {}, args.report)
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


def _config_command(args) -> int:
    """`baseline` or `reproduce`: the JSON-config commands, compiled only when one of them runs."""
    # One BLAS thread while the command runs, unless the user set one: a pool keeps the protocol in one process.
    added = [n for n in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if n not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))  # read when numpy loads
    try:
        from . import _workflow

        return getattr(_workflow, f"cmd_{args.command}")(args)
    finally:
        for name in added:
            os.environ.pop(name, None)


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
    p.set_defaults(func=_config_command)

    p = sub.add_parser("reproduce", help="run the full workflow from one JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_config_command)

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

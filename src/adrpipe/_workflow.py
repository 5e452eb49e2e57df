"""The JSON-config commands `baseline` and `reproduce`, which `adrpipe.cli` imports only to run them."""

from __future__ import annotations

import json
import numbers
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus
from ._io import not_utf8, truncate_ids
from .preprocess import STAGES, pipeline_config, preprocess as apply_pipeline

if TYPE_CHECKING:
    from . import baseline, ensemble


@contextmanager
def _stage(name: str):
    """Prefix a ValueError raised in the block with the reproduce stage it came from."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{name}: {e}") from None


def _load_json(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: invalid JSON: {e}") from None
        except UnicodeDecodeError as e:
            raise not_utf8(path, e) from None
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
    predictions.write_predictions(baseline.protocol_matrix(train_set, eval_set, specs, runs), doc["output"])
    print(f"wrote {len(specs)} specs x {runs} runs x {len(eval_set)} tweets to {Path(doc['output'])}")
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
        pipe_cfg = pipeline_config(stage_names, lexicon)
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
        baseline.check_protocol(train_set, dev_set, specs, runs)
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
    from . import evaluate  # not before training: its compile there raised protocol mode's peak RSS
    manifest = evaluate.manifest(command="reproduce", inputs=inputs, outputs=outputs, config=doc, seeds=seeds)
    with _stage("evaluate"):
        evaluate.write_report(decisions, gold, manifest, {m: thresholds[m] for m in matrix.models}, outputs["report"])
    print(f"\nwrote {outputs['decisions']} and {outputs['report']}")
    return 0

"""The benchmark's three workloads: input generators, adrpipe command chains, output checks.

Each workload is one client in a closed loop: its commands run one after
another and the next pass starts only when the previous one has finished.
Inputs are generated from the workload seed alone; adrpipe sees only the
generated files. Output checks test that the outputs agree with each other
and with the inputs, not that they match stored digests, so a change that
only moves float rounding still passes.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from pathlib import Path

import numpy as np

from adrpipe import corpus, ensemble, evaluate, synthetic

# Input sizes per workload; "smoke" is for the benchmark's own tests.
SIZES = {
    "full": {
        "protocol": {"tweets": 2500, "train_fraction": 0.4, "runs": 5},
        "ingest": {"tweets": 2500, "models": 6, "runs": 5},
        "clean": {"tweets": 20000, "hostile_fraction": 0.001},
    },
    "smoke": {
        "protocol": {"tweets": 300, "train_fraction": 0.5, "runs": 2},
        "ingest": {"tweets": 300, "models": 3, "runs": 3},
        "clean": {"tweets": 400, "hostile_fraction": 0.01},
    },
}

SPLIT_SEED = 7
POSITIVE_FRACTION = 0.1


def _write_dataset(d: corpus.Dataset, path: Path) -> None:
    lines = [corpus.HEADER] + [f"{r.tweet_id}\t{r.label}\t{r.text}" for r in d.records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_tsv(path: Path) -> list[list[str]]:
    """Rows of a tab-separated file with a header line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line]


def check_decisions(decisions_path: Path, report_path: Path, gold: dict[str, int]) -> list[str]:
    """Decisions cover gold, each ensemble verdict is the OR of its members',
    and the report's confusion counts and attribution match a recomputation."""
    problems = []
    decisions = ensemble.read_decisions(decisions_path)
    if sorted(d.tweet_id for d in decisions) != sorted(gold):
        return [f"{decisions_path.name}: tweet ids differ from the gold set"]
    bad = [d.tweet_id for d in decisions if d.ensemble_verdict != int(any(d.per_model_verdict.values()))]
    if bad:
        problems.append(f"{len(bad)} ensemble verdicts differ from any(member verdicts)")
    report = json.loads(report_path.read_text(encoding="utf-8"))

    def counts(verdicts):
        c = evaluate.confusion(verdicts, gold)
        return {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn}

    def reported(row):
        return {k: row[k] for k in ("tp", "fp", "tn", "fn")}

    if reported(report["ensemble"]) != counts({d.tweet_id: d.ensemble_verdict for d in decisions}):
        problems.append("report ensemble confusion counts do not match the decisions")
    models = sorted(decisions[0].per_model_verdict) if decisions else []
    if sorted(report["members"]) != models:
        problems.append("report members differ from the decision models")
    else:
        for m in models:
            if reported(report["members"][m]) != counts({d.tweet_id: d.per_model_verdict[m] for d in decisions}):
                problems.append(f"report confusion counts for {m} do not match the decisions")
    ab = evaluate.attribution(decisions, gold)
    att = report["attribution"]
    for key, by_subset in (("tp_by_subset", ab.tp_by_subset), ("fp_by_subset", ab.fp_by_subset)):
        expected = {"+".join(sorted(s)): n for s, n in by_subset.items()}
        if {k: n for k, n in att[key].items() if n} != expected:
            problems.append(f"report attribution {key} does not match the decisions")
    if att["exclusive_fraction"] != {m: round(v, 4) for m, v in ab.exclusive_fraction.items()}:
        problems.append("report exclusive_fraction does not match the decisions")
    return problems


def _quality(report_path: Path) -> dict[str, float]:
    row = json.loads(report_path.read_text(encoding="utf-8"))["ensemble"]
    return {"ensemble_recall": row["recall"], "ensemble_f1": row["f1"]}


class Workload:
    """Inputs under <dir>/in, outputs under <dir>/out (emptied before each pass)."""

    name = ""
    has_quality = False

    def __init__(self, work_dir: Path, data_dir: Path):
        self.inp = work_dir / "in"
        self.out = work_dir / "out"
        self.data_dir = data_dir
        self.inp.mkdir(parents=True, exist_ok=True)

    def reset_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def setup(self, seed: int, size: dict) -> dict:
        """Write the inputs; return facts about them worth recording."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        """adrpipe argument lists, run in order."""
        raise NotImplementedError

    def check(self, stdouts: list[str]) -> list[str]:
        """Problems found in the outputs of one pass; empty when correct."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}

    def outputs(self) -> list[Path]:
        raise NotImplementedError


class Protocol(Workload):
    """`adrpipe reproduce` in protocol mode: preprocess, split, 3 specs x R baseline runs."""

    name = "protocol"
    has_quality = True
    SPECS = [
        {"model_id": "char46", "ngram_range": [4, 6], "feature_mode": "char", "seed": 500},
        {"model_id": "word12", "ngram_range": [1, 2], "feature_mode": "word", "seed": 400},
        {"model_id": "char35w3l2", "ngram_range": [3, 5], "feature_mode": "char", "positive_weight": 3,
         "l2": 1e-4, "feature_buckets": 2**16, "seed": 700},
    ]

    def setup(self, seed, size):
        data = synthetic.make_synthetic_dataset(size["tweets"], POSITIVE_FRACTION, seed)
        _write_dataset(data, self.inp / "corpus.tsv")
        self.runs = size["runs"]
        config = {
            "dataset": str(self.inp / "corpus.tsv"),
            "lexicon": str(self.data_dir / "drug_lexicon.tsv"),
            "split": {"train_fraction": size["train_fraction"], "seed": SPLIT_SEED},
            "protocol": {"runs": self.runs, "specs": self.SPECS},
            "thresholds": {"default": 0.5},
            "output_dir": str(self.out),
        }
        (self.inp / "reproduce.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        # Preprocessing never changes labels, so the dev side follows from the raw corpus.
        _, dev = corpus.stratified_split(data, size["train_fraction"], SPLIT_SEED)
        self.gold = dev.labels()
        return {"tweets": len(data), "dev_tweets": len(dev), "dev_positives": dev.positive_count}

    def commands(self):
        return [["reproduce", "--config", str(self.inp / "reproduce.json")]]

    def check(self, stdouts):
        rows = _read_tsv(self.out / "predictions.tsv")
        expected = {
            (s["model_id"], f"r{k + 1}", t) for s in self.SPECS for k in range(self.runs) for t in self.gold
        }
        problems = []
        if len(rows) != len(expected) or {tuple(r[:3]) for r in rows} != expected:
            problems.append("predictions.tsv does not hold exactly every spec x run x dev tweet")
        return problems + check_decisions(self.out / "decisions.tsv", self.out / "report.json", self.gold)

    def quality(self):
        return _quality(self.out / "report.json")

    def outputs(self):
        return [self.out / n for n in ("predictions.tsv", "decisions.tsv", "report.json")]


class Ingest(Workload):
    """Stage by stage: `ingest --check --min-dev-f1` -> `ensemble` -> `evaluate` over external files."""

    name = "ingest"
    has_quality = True
    MODELS = ("bert", "biobert", "bertweet", "roberta", "electra", "xlnet")
    SKILLS = (2.0, 2.6, 2.2, 2.5, 2.3, 2.4)  # label separation per model, in MODELS order
    MIN_DEV_F1 = 0.05

    def setup(self, seed, size):
        data = synthetic.make_synthetic_dataset(size["tweets"], POSITIVE_FRACTION, seed)
        _write_dataset(data, self.inp / "gold.tsv")
        self.gold = data.labels()
        ids = [r.tweet_id for r in data.records]
        y = np.array([r.label for r in data.records], dtype=np.float64)
        sign = 2 * y - 1
        rng = np.random.default_rng(seed)
        models = self.MODELS[: size["models"]]
        runs = [f"r{k + 1}" for k in range(size["runs"])]
        # Shared per-tweet difficulty makes members err together; per-model and
        # per-run noise makes their verdicts differ, so the OR has work to do.
        difficulty = rng.normal(0.0, 0.8, len(ids)) * sign
        zero = (models[int(rng.integers(len(models)))], runs[int(rng.integers(len(runs)))])
        self.files, self.kept = [], set()
        for m, skill in zip(models, self.SKILLS):
            model_noise = rng.normal(0.0, 0.9, len(ids))
            lines = ["model_id\trun_id\ttweet_id\tprob"]
            for r in runs:
                z = skill * sign - 1.5 + difficulty + model_noise + rng.normal(0.0, 0.5, len(ids))
                probs = np.zeros(len(ids)) if (m, r) == zero else 1.0 / (1.0 + np.exp(-z))
                lines.extend(f"{m}\t{r}\t{t}\t{p:.6f}" for t, p in zip(ids, probs.tolist()))
                if (m, r) != zero:
                    self.kept.add((m, r))
            path = self.inp / f"preds_{m}.tsv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.files.append(path)
        return {"tweets": len(ids), "records": len(ids) * len(models) * len(runs),
                "all_zero_run": "/".join(zero)}

    def commands(self):
        pred = [str(p) for p in self.files]
        gold = str(self.inp / "gold.tsv")
        return [
            ["ingest", "--pred", *pred, "--check", "--gold", gold,
             "--min-dev-f1", str(self.MIN_DEV_F1), "--output", str(self.out / "merged.tsv")],
            ["ensemble", "--pred", str(self.out / "merged.tsv"), "--output", str(self.out / "decisions.tsv")],
            ["evaluate", "--decisions", str(self.out / "decisions.tsv"), "--gold", gold,
             "--report", str(self.out / "report.json")],
        ]

    def check(self, stdouts):
        rows = _read_tsv(self.out / "merged.tsv")
        expected = {(m, r, t) for m, r in self.kept for t in self.gold}
        problems = []
        if len(rows) != len(expected) or {tuple(r[:3]) for r in rows} != expected:
            problems.append("merged.tsv does not hold exactly every kept run x tweet")
        return problems + check_decisions(self.out / "decisions.tsv", self.out / "report.json", self.gold)

    def quality(self):
        return _quality(self.out / "report.json")

    def outputs(self):
        return [self.out / n for n in ("merged.tsv", "decisions.tsv", "report.json")]


class Clean(Workload):
    """`adrpipe preprocess` (all stages, fixture lexicon) then `adrpipe tokens --stats` (fixture vocab)."""

    name = "clean"
    RUN_CHARS = (1000, 2000, 4000, 8000)  # no-whitespace, no-@ runs, cycled
    RUN_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789._-"

    def setup(self, seed, size):
        data = synthetic.make_synthetic_dataset(size["tweets"], POSITIVE_FRACTION, seed)
        rng = random.Random(seed)
        records = list(data.records)
        n_hostile = max(1, round(size["hostile_fraction"] * len(records)))
        hostile = sorted(rng.sample(range(len(records)), n_hostile))
        for k, i in enumerate(hostile):
            r = records[i]
            # The seed picks which lines are hostile; their payloads are the same
            # for every seed, because anonymize's cost on a run depends on its
            # characters and would otherwise swing the pass time from seed to seed.
            payload = random.Random(k)
            if k % 2 == 0:
                length = self.RUN_CHARS[(k // 2) % len(self.RUN_CHARS)]
                blob = "".join(payload.choice(self.RUN_ALPHABET) for _ in range(length))
                text = f"{r.text} {blob} #end"
            else:
                words = ["".join(payload.choice("abcdefghijklmnopqrstuvwxyz")
                                 for _ in range(payload.randrange(120, 400))) for _ in range(3)]
                text = " ".join([r.text, *words])
            records[i] = corpus.LabeledTweet(r.tweet_id, text, r.label)
        self.ids = [r.tweet_id for r in records]
        _write_dataset(corpus.Dataset.from_records(records), self.inp / "tweets.tsv")
        return {"tweets": len(records), "hostile_lines": n_hostile,
                "hostile_fraction": n_hostile / len(records),
                "hostile_char_fraction": sum(len(records[i].text) for i in hostile)
                / sum(len(r.text) for r in records)}

    def commands(self):
        return [
            ["preprocess", "--input", str(self.inp / "tweets.tsv"),
             "--lexicon", str(self.data_dir / "drug_lexicon.tsv"), "--output", str(self.out / "clean.tsv")],
            ["tokens", "--vocab", str(self.data_dir / "fixture_vocab.txt"), "--stats",
             "--input", str(self.out / "clean.tsv")],
        ]

    def check(self, stdouts):
        problems = []
        if [r[0] for r in _read_tsv(self.out / "clean.tsv")] != self.ids:
            problems.append("clean.tsv does not hold every input record, in order")
        stats = dict(re.findall(r"^(total words|unk words):\s+(\d+)$", stdouts[-1], re.M))
        total, unk = int(stats.get("total words", 0)), int(stats.get("unk words", -1))
        if total == 0 or not 0 <= unk <= total:
            problems.append("tokens --stats printed no consistent word counts")
        return problems

    def outputs(self):
        return [self.out / "clean.tsv"]


WORKLOADS = {w.name: w for w in (Protocol, Ingest, Clean)}

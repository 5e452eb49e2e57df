from pathlib import Path

import pytest

from adrpipe import DrugLexicon, PipelineConfig, RunMatrix, SubwordVocab, load_dataset, load_lexicon, load_vocab

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def fixture_corpus():
    return load_dataset(DATA_DIR / "fixture_corpus.tsv")


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(DATA_DIR / "drug_lexicon.tsv")


@pytest.fixture(scope="session")
def file_vocab():
    return load_vocab(DATA_DIR / "fixture_vocab.txt")


@pytest.fixture(scope="session")
def tiny_vocab():
    # the minimal inventory the drug-pair examples are specified against
    return SubwordVocab(frozenset(["que", "##tia", "##pine", "o", "##lan", "##za", "[UNK]"]))


@pytest.fixture(scope="session")
def tiny_lexicon():
    return DrugLexicon({"seroquel": "quetiapine", "zyprexa": "olanzapine"})


@pytest.fixture(scope="session")
def full_pipeline(lexicon):
    return PipelineConfig(lexicon=lexicon)


def one_run_matrix(avg):
    """The RunMatrix with one run, r1, per model whose averages are avg: model_id -> (tweet_id -> probability)."""
    return RunMatrix({(m, "r1"): (list(probs), list(probs.values())) for m, probs in avg.items()})

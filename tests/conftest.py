from pathlib import Path

import numpy as np
import pytest

from adrpipe import DrugLexicon, PipelineConfig, RunMatrix, SubwordVocab, load_dataset, load_lexicon, load_vocab
from adrpipe.baseline import _csr_blocks

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


def loss_and_grad(weights, bias, features, labels, sample_weights, l2=0.0):
    """Weighted logistic loss and its analytic gradient on a dense batch: the SGD objective's oracle.

    loss = sum_i w_i * crossentropy(sigmoid(x_i . weights + bias), y_i)
           + l2/2 * ||weights||^2

    Returns (loss, d_loss/d_weights, d_loss/d_bias). The trainer's per-example
    updates descend this same objective; tests compare this gradient against
    central finite differences.
    """
    z = features @ weights + bias
    p = 1.0 / (1.0 + np.exp(-z))
    eps = 1e-12
    ce = -(labels * np.log(p + eps) + (1 - labels) * np.log(1 - p + eps))
    loss = float(np.sum(sample_weights * ce) + 0.5 * l2 * np.dot(weights, weights))
    residual = sample_weights * (p - labels)
    grad_w = features.T @ residual + l2 * weights
    grad_b = float(np.sum(residual))
    return loss, grad_w, grad_b


def csr(texts, cfg):
    """One CSR matrix (indptr, indices, data) of the texts: baseline._csr_blocks' blocks, concatenated."""
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for ptr, idx, val in _csr_blocks(texts, cfg):
        indptr.append(ptr[1:] + indptr[-1][-1])
        indices.append(idx)
        data.append(val)
    return np.concatenate(indptr), np.concatenate(indices), np.concatenate(data)

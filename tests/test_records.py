"""Value semantics of the package's classes: the ones whose constructor checks
its fields are immutable and equal by value; the plain records are tuples."""

import pytest

from adrpipe.corpus import Dataset, LabeledTweet
from adrpipe.ensemble import Decisions, EnsembleConfig, EnsembleDecision
from adrpipe.evaluate import AttributionBreakdown, ConfusionCounts, Metrics, VariabilityReport
from adrpipe.predictions import RunMatrix
from adrpipe.preprocess import DrugLexicon, PipelineConfig
from adrpipe.tokenize import SubwordVocab

# Each class whose constructor checks its fields: a function that builds a
# fresh instance, and one of its fields.
VALIDATED = {
    "RunMatrix": (lambda: RunMatrix(keys=(("a", "r1"),), tweet_ids=("t1", "t2"), probs=([0.2, 0.9],)), "probs"),
    "Decisions": (lambda: Decisions(["t1"], {"a": [0.7]}, {"a": [1]}, [1]), "ensemble"),
    "Dataset": (lambda: Dataset((LabeledTweet("t1", "x", 1),)), "records"),
    "EnsembleConfig": (lambda: EnsembleConfig({"a": 0.3}), "thresholds"),
    "DrugLexicon": (lambda: DrugLexicon({"advil": "ibuprofen"}), "entries"),
    "PipelineConfig": (lambda: PipelineConfig(["anonymize", "lowercase"]), "enabled_stages"),
    "SubwordVocab": (lambda: SubwordVocab({"[UNK]", "dizzy"}), "tokens"),
}

RECORDS = [
    ConfusionCounts(tp=3, fp=1, tn=5, fn=2),
    Metrics(precision=0.75, recall=0.6, f1=2 / 3),
    AttributionBreakdown(tp_by_subset={frozenset({"a"}): 3}, fp_by_subset={}, exclusive_fraction={"a": 0.0}),
    VariabilityReport(scenario="s", f1_std=0.1, recall_std=0.2, n_runs=5),
    EnsembleDecision("t1", {"a": 0.7}, {"a": 1}, 1),
]


@pytest.mark.parametrize("name", VALIDATED)
def test_validated_class_refuses_assignment_and_is_equal_by_value(name):
    build, field = VALIDATED[name]
    a, b = build(), build()
    assert a == b and not a != b and a is not b
    assert a != object()
    value = getattr(a, field)
    for change in (lambda: setattr(a, field, None), lambda: delattr(a, field), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(a, field) is value and a == b


def test_equal_values_hash_alike_and_an_unhashable_field_refuses_a_hash():
    for name in ("Dataset", "SubwordVocab", "PipelineConfig"):
        build, _ = VALIDATED[name]
        assert hash(build()) == hash(build())
    with pytest.raises(TypeError):
        hash(EnsembleConfig({"a": 0.3}))


def test_repr_names_the_class_and_each_field():
    assert repr(EnsembleConfig({"a": 0.3})) == "EnsembleConfig(thresholds={'a': 0.3}, default_threshold=0.5)"
    assert repr(DrugLexicon({"advil": "ibuprofen"})) == "DrugLexicon(entries={'advil': 'ibuprofen'})"


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_unpacks_and_replace_keeps_its_other_fields(record):
    values = tuple(getattr(record, f) for f in record._fields)
    *head, last = record
    assert (*head, last) == values and record == values
    first = record._fields[0]
    changed = record._replace(**{first: "x"})
    assert type(changed) is type(record) and getattr(changed, first) == "x" and changed[1:] == values[1:]
    with pytest.raises(AttributeError):
        setattr(record, first, "x")

"""The package's export list, the names it no longer has, and the shape of
its per-row records."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dived
from dived import assembly, curation, evaluation, llm_client


def test_every_exported_name_resolves():
    assert len(dived.__all__) == len(set(dived.__all__))
    for name in dived.__all__:
        assert getattr(dived, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dived import *", namespace)
    assert set(dived.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["curate_definitions", "curate_samples", "expand_definitions"])
def test_single_unit_wrappers_are_gone(name):
    assert name not in dived.__all__
    assert not hasattr(dived, name) and not hasattr(curation, name)


def test_removed_request_and_result_fields_are_gone():
    assert [f.name for f in dataclasses.fields(llm_client.GenRequest)] == ["template_id", "variables"]
    assert not hasattr(llm_client.GenRequest, "resolved_decoding")
    assert [f.name for f in dataclasses.fields(llm_client.GenResponse)] == ["text", "attempts"]
    assert [f.name for f in dataclasses.fields(llm_client.GenFailure)] == ["error", "attempts"]
    assert not hasattr(llm_client.Backend, "name") and not hasattr(llm_client.MockBackend(seed=1), "name")


PER_ROW_RECORDS = [
    (evaluation.GoldRecord, ["sentence_id", "event_type", "triggers", "spans"], ("s1", "T", ("hit",))),
    (evaluation.PredictionRecord, ["sentence_id", "event_type", "triggers", "spans"], ("s1", "T", ("hit",))),
    (assembly.TrainingInstance,
     ["instance_id", "event_name", "definition", "ontology_context", "sentence", "target", "kind"],
     ("i", "E", "d", None, "a hit", "hit", "positive")),
    (curation.GeneratedSample, ["event_name", "sentence", "trigger"], ("E", "a hit", "hit")),
]


@pytest.mark.parametrize("cls, fields, args", PER_ROW_RECORDS, ids=[cls.__name__ for cls, _, _ in PER_ROW_RECORDS])
def test_per_row_records_are_slotted_with_the_same_fields(cls, fields, args):
    assert [f.name for f in dataclasses.fields(cls)] == fields
    record = cls(*args)
    assert not hasattr(record, "__dict__") and not cls.__dataclass_params__.frozen
    assert dataclasses.replace(record) == record and dataclasses.replace(record) is not record
    assert cls.__hash__ is None


def test_prediction_record_is_a_gold_record_with_its_own_constructor():
    assert evaluation.PredictionRecord.__mro__[1] is evaluation.GoldRecord
    assert "from_raw" in vars(evaluation.PredictionRecord) and not hasattr(evaluation.GoldRecord, "from_raw")
    assert evaluation.PredictionRecord.from_raw("s1", "T", ["hit", " none "]).triggers == ("hit",)


@pytest.mark.parametrize("make", [
    lambda: assembly.TrainingInstance("i", "E", "d", None, "a hit", "miss", "positive"),
    lambda: assembly.TrainingInstance("i", "E", "d", None, "a hit", "hit", "negative"),
    lambda: dataclasses.replace(assembly.TrainingInstance("i", "E", "d", None, "a hit", "hit", "positive"),
                                kind="other"),
    lambda: curation.GeneratedSample("E", "a hit", "miss"),
    lambda: dataclasses.replace(curation.GeneratedSample("E", "a hit", "hit"), sentence="two\nlines hit"),
], ids=["positive_target_not_in_sentence", "negative_with_target", "replace_to_bad_kind",
        "trigger_not_in_sentence", "replace_to_two_lines"])
def test_slotted_records_still_check_their_invariants(make):
    with pytest.raises((ValueError, curation.InvalidSampleError)):
        make()


def test_ontology_context_stays_frozen_and_hashable():
    ctx = assembly.OntologyContext(parent="P", children=("C",))
    assert hash(ctx) == hash(assembly.OntologyContext(parent="P", children=("C",)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.parent = "Q"


def test_import_loads_no_third_party_http_stack():
    """The CLI's start-up cost and memory stay free of an HTTP client library."""
    code = ("import sys, dived, dived.cli; "
            "print(sorted(m for m in ('requests', 'urllib3', 'charset_normalizer', 'idna') if m in sys.modules))")
    src = str(Path(dived.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"

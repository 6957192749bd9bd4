from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dived.jsonl import JsonlError
from dived.ontology import (
    DuplicateEventNameError,
    OntologyCycleError,
    OntologyFormatError,
    UnknownEventError,
    build_ontology,
    filter_heldout,
    load_ontology,
    normalize_name,
    save_ontology,
    siblings,
)

from conftest import FIXTURES

TOY_NAMES = [
    "conflict", "attack", "bombing", "ambush", "protest",
    "transaction", "purchase", "donation", "refund",
    "movement", "departure", "arrival",
]


def write_jsonl_file(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_minimal_tree(tmp_path):
    path = tmp_path / "ont.jsonl"
    write_jsonl_file(path, [
        {"name": "conflict", "parent": None, "external_id": None},
        {"name": "attack", "parent": "conflict", "external_id": None},
        {"name": "protest", "parent": "conflict", "external_id": None},
    ])
    ont = load_ontology(path)
    assert len(ont.trees) == 1
    assert len(ont) == 3
    assert [n.name for n in siblings(ont, "attack")] == ["protest"]


def test_toy_fixture_counts_and_preorder(toy_ontology):
    assert len(toy_ontology) == 12
    assert len(toy_ontology.trees) == 3
    assert toy_ontology.names() == TOY_NAMES
    # stable across a second load
    assert load_ontology(FIXTURES / "ontology_toy.jsonl").names() == TOY_NAMES


def test_duplicate_name_error_names_both_occurrences(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_jsonl_file(path, [
        {"name": "attack", "parent": None, "external_id": None},
        {"name": "movement", "parent": None, "external_id": None},
        {"name": "Attack", "parent": "movement", "external_id": None},
    ])
    with pytest.raises(DuplicateEventNameError) as err:
        load_ontology(path)
    message = str(err.value)
    assert ":1" in message and ":3" in message
    assert "attack" in message and "Attack" in message


def test_names_that_differ_only_in_spacing_hyphens_or_underscores_are_duplicates(tmp_path):
    path = tmp_path / "onto.jsonl"
    write_jsonl_file(path, [
        {"name": "attack-target", "parent": None, "external_id": None},
        {"name": "x1", "parent": "attack target", "external_id": None},
        {"name": "Attack Target", "parent": None, "external_id": None},
    ])
    with pytest.raises(DuplicateEventNameError) as err:
        load_ontology(path)
    assert str(err.value).startswith(
        f"{path}:3: duplicate event name 'Attack Target', already defined as 'attack-target' at {path}:1")


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "a", "parent": null}\n{"name": broken\n', encoding="utf-8")
    with pytest.raises(JsonlError) as err:
        load_ontology(path)
    assert err.value.line == 2


def test_unknown_parent_error(tmp_path):
    path = tmp_path / "orphan.jsonl"
    write_jsonl_file(path, [{"name": "a", "parent": "ghost", "external_id": None}])
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert "ghost" in str(err.value)


def test_cycle_error_names_offending_node():
    rows = [("a", "b", None), ("b", "a", None)]
    with pytest.raises(OntologyCycleError) as err:
        build_ontology(rows)
    assert "'a'" in str(err.value) or "'b'" in str(err.value)


def test_empty_name_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_jsonl_file(path, [{"name": "  ", "parent": None, "external_id": None}])
    with pytest.raises(OntologyFormatError):
        load_ontology(path)


def test_siblings_of_only_child(toy_ontology):
    # root nodes have no parent, hence no siblings
    assert siblings(toy_ontology, "conflict") == []
    with pytest.raises(UnknownEventError):
        siblings(toy_ontology, "no-such-event")


def test_sibling_sets_match_brute_force(toy_ontology):
    nodes = list(toy_ontology.iter_nodes())
    for node in nodes:
        brute = {
            other.name
            for other in nodes
            if other is not node and other.parent is not None and other.parent is node.parent
        }
        assert {s.name for s in siblings(toy_ontology, node.name)} == brute


def test_sibling_symmetry(toy_ontology):
    for node in toy_ontology.iter_nodes():
        for sib in siblings(toy_ontology, node.name):
            assert node.name in {s.name for s in siblings(toy_ontology, sib.name)}


def test_filter_heldout_removes_whole_tree(toy_ontology):
    filtered = filter_heldout(toy_ontology, ["attack"])
    assert "attack" not in filtered
    assert "conflict" not in filtered  # whole tree removed, not just the node
    assert "protest" not in filtered
    assert len(filtered) == 7
    assert len(filtered.trees) == 2
    # input unchanged
    assert len(toy_ontology) == 12


def test_filter_heldout_empty_is_identity(toy_ontology):
    filtered = filter_heldout(toy_ontology, [])
    assert filtered.names() == toy_ontology.names()
    assert [n.external_id for n in filtered.iter_nodes()] == [n.external_id for n in toy_ontology.iter_nodes()]


@pytest.mark.parametrize("variant", ["ATTACK ", " attack", "aTTack", "attack  "])
def test_filter_heldout_normalizes_names(toy_ontology, variant):
    assert filter_heldout(toy_ontology, [variant]).names() == filter_heldout(toy_ontology, ["attack"]).names()


def test_filter_heldout_hyphen_underscore_unified():
    ont = build_ontology([("fire-drill", None, None), ("water drill", None, None)])
    assert filter_heldout(ont, ["fire_drill"]).names() == ["water drill"]


def test_filter_heldout_unknown_names_ignored(toy_ontology, caplog):
    with caplog.at_level("WARNING"):
        filtered = filter_heldout(toy_ontology, ["does-not-exist"])
    assert filtered.names() == toy_ontology.names()
    assert any("does not exist" in rec.message or "does not exist" in str(rec.args) for rec in caplog.records) or any(
        "matches no event type" in rec.message for rec in caplog.records
    )


def test_filter_heldout_skips_blank_names_and_warns_with_the_name_as_given(toy_ontology, caplog):
    with caplog.at_level("WARNING"):
        filtered = filter_heldout(toy_ontology, ["", "  ", " _ ", "Does-Not_Exist"])
    assert filtered.names() == toy_ontology.names()
    assert [rec.args for rec in caplog.records] == [("Does-Not_Exist",), ("_",)]


@given(st.lists(st.sampled_from(TOY_NAMES + ["bogus", "ATTACK "]), max_size=5))
def test_filter_heldout_idempotent(heldout):
    ont = load_ontology(FIXTURES / "ontology_toy.jsonl")
    once = filter_heldout(ont, heldout)
    twice = filter_heldout(once, heldout)
    assert once.names() == twice.names()


def test_round_trip_structure_and_bytes(toy_ontology, tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    save_ontology(toy_ontology, first)
    reloaded = load_ontology(first)
    assert reloaded.names() == toy_ontology.names()
    assert [n.parent.name if n.parent else None for n in reloaded.iter_nodes()] == [
        n.parent.name if n.parent else None for n in toy_ontology.iter_nodes()
    ]
    save_ontology(reloaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_normalize_name():
    assert normalize_name("  Fire_Drill ") == "fire drill"
    assert normalize_name("fire-drill") == "fire drill"
    assert normalize_name("fire   drill") == "fire drill"


def reference_normalize_name(name):
    """The key as a regex once computed it."""
    return re.sub(r"\s+", " ", name.replace("-", " ").replace("_", " ")).strip().casefold()


@given(st.text(st.sampled_from("aZß-_ \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000İ")) | st.text())
def test_normalize_name_matches_the_regex_key_and_is_idempotent(name):
    key = normalize_name(name)
    assert key == reference_normalize_name(name)
    assert normalize_name(key) == key

from __future__ import annotations

import json
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dived import ontology
from dived.curation import read_dataset, write_dataset
from dived.jsonl import JsonlError
from dived.ontology import (
    DuplicateEventNameError,
    EventTypeNode,
    Ontology,
    OntologyCycleError,
    OntologyFormatError,
    UnknownEventError,
    filter_heldout,
    load_ontology,
    normalize_name,
    save_ontology,
)

from conftest import FIXTURES, names, ontology_of, siblings

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
    assert names(toy_ontology) == TOY_NAMES
    # stable across a second load
    assert names(load_ontology(FIXTURES / "ontology_toy.jsonl")) == TOY_NAMES


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


@pytest.mark.parametrize("rows, line, name", [
    ([("a", "b", None), ("b", "a", None)], 1, "a"),
    ([("root", None, None), ("x", "b", None), ("a", "b", None), ("b", "c", None), ("c", "b", None)], 4, "b"),
], ids=["two_node_cycle", "first_repeat_above_the_first_row_no_root_reaches"])
def test_cycle_error_names_offending_node(rows, line, name):
    with pytest.raises(OntologyCycleError) as err:
        ontology_of(rows, "onto.jsonl")
    assert str(err.value) == f"onto.jsonl:{line}: cycle detected at node {name!r}: it is its own ancestor"


@pytest.mark.parametrize("name", ["  ", "", "-", "_ _", " -\t_ "])
def test_empty_name_rejected(tmp_path, name):
    """A name whose key is empty is blank, and fails at its line."""
    path = tmp_path / "blank.jsonl"
    write_jsonl_file(path, [{"name": "a", "parent": None}, {"name": name, "parent": None}])
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}:2: event name {name!r} is blank: it is all whitespace, '-' and '_'"


def test_a_blank_name_and_a_child_that_names_it_fail_at_the_first_line(tmp_path):
    path = tmp_path / "blank.jsonl"
    write_jsonl_file(path, [{"name": "-"}, {"name": "a", "parent": "_"}])
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert err.value.line == 1 and "'-' is blank" in str(err.value)


def test_a_parent_whose_key_is_empty_is_unknown():
    with pytest.raises(OntologyFormatError, match="unknown parent '_' for node 'a'"):
        ontology_of([("a", "_", None)])


@pytest.mark.parametrize("row, message", [
    ({"name": 7}, "event name 7 is not a string"),
    ({"name": ["b"]}, "event name ['b'] is not a string"),
    ({"name": "b", "parent": 1}, "field 'parent' must be a string or null"),
    ({"name": "b", "parent": None, "external_id": 3}, "field 'external_id' must be a string or null"),
], ids=["number_name", "list_name", "number_parent", "number_external_id"])
def test_a_field_of_the_wrong_type_fails_at_its_line(tmp_path, row, message):
    path = tmp_path / "typed.jsonl"
    write_jsonl_file(path, [{"name": "a"}, row])
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}:2: {message}"


def test_a_blank_name_fails_before_a_later_line_that_does_not_decode(tmp_path):
    """The name is checked as its row is read, as ``read_dataset`` does."""
    path = tmp_path / "blank.jsonl"
    path.write_text('{"name": "-"}\n{not json\n', encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}:1: event name '-' is blank: it is all whitespace, '-' and '_'"


DUPLICATE = ("duplicate event name 'A', already defined as 'a' at {path}:1 (names that differ only in case, spacing,"
             " '-' or '_' are one event)")


@pytest.mark.parametrize("text, line, message", [
    ('{"name": "a"}\n{"name": "A"}\n{not json\n', 2, DUPLICATE),
    ('{"name": "b", "parent": 1}\n{not json\n', 1, "field 'parent' must be a string or null"),
    ('{"name": "b", "external_id": 3}\n{not json\n', 1, "field 'external_id' must be a string or null"),
    ('{"name": "a"}\n{"name": "b", "parent": "a"}\n{"name": "A", "parent": "ghost"}\n', 3, DUPLICATE),
], ids=["duplicate", "parent_type", "external_id_type", "duplicate_before_unknown_parent"])
def test_a_row_fails_at_its_own_line_before_a_later_line_is_read(tmp_path, text, line, message):
    path = tmp_path / "onto.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(OntologyFormatError) as err:
        load_ontology(path)
    assert str(err.value) == f"{path}:{line}: {message.format(path=path)}"


def test_the_builder_is_given_one_keyed_row_per_node(toy_ontology, tmp_path, monkeypatch):
    """The bench tracer counts ``ontology.nodes`` as the ``len`` of
    ``_build_ontology``'s first argument; for every entry point that builds an
    ontology it is the node count of the ontology built."""
    sizes = []
    build = ontology._build_ontology

    def recorded(seen, origin):
        built = build(seen, origin)
        sizes.append((len(seen), sum(1 for _ in built.iter_nodes())))
        return built

    monkeypatch.setattr(ontology, "_build_ontology", recorded)
    path = tmp_path / "dataset.jsonl"
    write_dataset(load_ontology(FIXTURES / "ontology_toy.jsonl"), path)
    read_dataset(path)
    toy_ontology.subset({node for node in toy_ontology.iter_nodes() if node.name != "attack"})
    assert sizes == [(12, 12), (12, 12), (11, 11)]


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
    assert names(filtered) == names(toy_ontology)
    assert [n.external_id for n in filtered.iter_nodes()] == [n.external_id for n in toy_ontology.iter_nodes()]


@pytest.mark.parametrize("variant", ["ATTACK ", " attack", "aTTack", "attack  "])
def test_filter_heldout_normalizes_names(toy_ontology, variant):
    assert names(filter_heldout(toy_ontology, [variant])) == names(filter_heldout(toy_ontology, ["attack"]))


def test_filter_heldout_hyphen_underscore_unified():
    ont = ontology_of([("fire-drill", None, None), ("water drill", None, None)])
    assert names(filter_heldout(ont, ["fire_drill"])) == ["water drill"]


def test_filter_heldout_unknown_names_ignored(toy_ontology, caplog):
    with caplog.at_level("WARNING"):
        filtered = filter_heldout(toy_ontology, ["does-not-exist"])
    assert names(filtered) == names(toy_ontology)
    assert any("does not exist" in rec.message or "does not exist" in str(rec.args) for rec in caplog.records) or any(
        "matches no event type" in rec.message for rec in caplog.records
    )


def test_filter_heldout_skips_blank_names_and_warns_with_the_name_as_given(toy_ontology, caplog):
    with caplog.at_level("WARNING"):
        filtered = filter_heldout(toy_ontology, ["", "  ", " _ ", "Does-Not_Exist"])
    assert names(filtered) == names(toy_ontology)
    assert [rec.args for rec in caplog.records] == [("Does-Not_Exist",), ("_",)]


@given(st.lists(st.sampled_from(TOY_NAMES + ["bogus", "ATTACK "]), max_size=5))
def test_filter_heldout_idempotent(heldout):
    ont = load_ontology(FIXTURES / "ontology_toy.jsonl")
    once = filter_heldout(ont, heldout)
    twice = filter_heldout(once, heldout)
    assert names(once) == names(twice)


def test_round_trip_structure_and_bytes(toy_ontology, tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    save_ontology(toy_ontology, first)
    reloaded = load_ontology(first)
    assert names(reloaded) == names(toy_ontology)
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


# The builder as it stood before it found cycles through the index walk: a
# second walk up from every node, with a per-node chain and a set of nodes
# known to reach a root. It is the oracle for the outcome of every build.


def reference_build_ontology(rows, origin):
    nodes = {}
    first_seen = {}
    ordered = []

    for lineno, name, parent_name, fields in rows:
        if not isinstance(name, str) or not name.strip():
            raise OntologyFormatError(origin, lineno, "field 'name' must be a non-empty string")
        if parent_name is not None and not isinstance(parent_name, str):
            raise OntologyFormatError(origin, lineno, "field 'parent' must be a string or null")
        if fields.get("external_id") is not None and not isinstance(fields["external_id"], str):
            raise OntologyFormatError(origin, lineno, "field 'external_id' must be a string or null")
        if "\t" in name.strip() or len(name.strip().splitlines()) > 1:
            raise OntologyFormatError(origin, lineno, f"event name {name!r} holds a tab or line break")
        key = normalize_name(name)
        if key in first_seen:
            prev_line, prev_name = first_seen[key]
            raise DuplicateEventNameError(
                origin,
                lineno,
                f"duplicate event name {name!r}, already defined as {prev_name!r} at {origin}:{prev_line}"
                " (names that differ only in case, spacing, '-' or '_' are one event)",
            )
        first_seen[key] = (lineno, name)
        node = EventTypeNode(name=name.strip(), **fields)
        nodes[key] = node
        ordered.append((lineno, node, parent_name))

    for lineno, node, parent_name in ordered:
        if parent_name is None:
            continue
        parent = nodes.get(normalize_name(parent_name))
        if parent is None:
            raise OntologyFormatError(origin, lineno, f"unknown parent {parent_name!r} for node {node.name!r}")
        node._parent = weakref.ref(parent)
        parent.children.append(node)

    reference_check_acyclic(ordered, origin)
    trees = [node for _, node, parent_name in ordered if parent_name is None]
    return Ontology(trees=trees)


def reference_check_acyclic(ordered, origin):
    safe = set()
    for _, start, _ in ordered:
        chain = {}  # insertion-ordered set
        node = start
        while node is not None and node not in safe:
            if node in chain:
                lineno = next(line for line, n, _ in ordered if n is node)
                raise OntologyCycleError(
                    origin, lineno, f"cycle detected at node {node.name!r}: it is its own ancestor"
                )
            chain[node] = None
            node = node.parent
        safe.update(chain)


BASE_NAMES = ["attack", "fire drill", "b", "c", "d", "e", "f", "g", "h", "i"]
SPELLINGS = st.sampled_from(BASE_NAMES).flatmap(lambda base: st.sampled_from([
    base, base.upper(), f" {base} ", base.replace(" ", "-"), base.replace(" ", "_"), base.replace(" ", " \t ")]))
BROKEN = st.sampled_from(["a\tb", "a\nb", "\tc", "e\n", "d\r\ne", "f\u2028g"])  # a tab or line break inside


def build_outcome(build, rows):
    """The error class, line and message of a build, or else every node with
    its parent and external id in pre-order, and the tree roots."""
    try:
        built = build([(line, name, parent, dict(fields)) for line, name, parent, fields in rows], "onto.jsonl")
    except OntologyFormatError as exc:
        return type(exc), exc.line, str(exc)
    nodes = [(n.name, n.parent.name if n.parent else None, n.external_id) for n in built.iter_nodes()]
    return nodes, [tree.name for tree in built.trees], len(built)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_the_builder_gives_the_outcome_of_the_reference_builder(data):
    """Names are spellings of a few events, some holding a tab or line break;
    a parent is none, an earlier or later name, the row itself, ``ghost`` or
    any spelling. Half the examples keep to well-formed names and parents
    among them, so that builds which succeed or meet a cycle are common."""
    wild = data.draw(st.booleans())
    names = data.draw(st.lists(SPELLINGS | BROKEN if wild else SPELLINGS, min_size=1, max_size=9,
                               unique_by=None if data.draw(st.booleans()) else normalize_name))
    rows = []
    for line, name in enumerate(names, start=1):
        earlier = st.sampled_from(names[:line - 1]) if line > 1 else st.nothing()
        later = st.sampled_from(names[line:]) if line < len(names) else st.nothing()
        parent = data.draw(st.one_of(st.none(), earlier, later, st.just(name),
                                     *([st.just("ghost"), SPELLINGS] if wild else [])))
        rows.append((line, name, parent, {"external_id": f"id{line}"}))
    def build(rows, origin):  # the rows of the reference builder, with no child names
        return ontology.build_ontology(((line, name, parent, None, fields) for line, name, parent, fields in rows),
                                       origin)

    assert build_outcome(build, rows) == build_outcome(reference_build_ontology, rows)

from __future__ import annotations

import json
import logging
import re
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dived import cli, curation
from dived.curation import (
    CurationReport,
    GeneratedSample,
    _Parse,
    curate_definitions_for_trees,
    curate_samples_for_trees,
    expand_definitions_for_nodes,
    definition_request,
    expansion_request,
    parse_definitions,
    parse_paraphrases,
    parse_samples,
    read_dataset,
    sample_request,
    tree_block,
    write_dataset,
)
from dived.errors import EventInputError
from dived.jsonl import JsonlError
from dived.llm_client import (
    Backend,
    GenFailure,
    MockBackend,
    PermanentBackendError,
    TemplateId,
    complete_batch,
)
from dived.ontology import load_ontology, normalize_name, save_ontology
from dived.pruning import prune_dataset

from conftest import ScriptedBackend, make_dataset, make_sample, names, ontology_of


def small_tree():
    ont = ontology_of([("conflict", None, None), ("attack", "conflict", None), ("protest", "conflict", None)])
    return ont.trees[0]


def tree_with_defs():
    tree = small_tree()
    for node in tree.iter_preorder():
        node.definitions = [f"{node.name} seed definition"]
    return tree


def definitions_of(tree):
    """The first definition of each node that has one."""
    return {node.name: node.definitions[0] for node in tree.iter_preorder() if node.definitions}


def samples_of(tree):
    return [sample for node in tree.iter_preorder() for sample in node.samples]


def expand_one(node, backend, count):
    """Expand one node; returns the paraphrases added and the report."""
    before = len(node.definitions)
    report = expand_definitions_for_nodes([node], backend, count=count)
    assert report.parsed == len(node.definitions) - before
    return node.definitions[before:], report


# ---------------------------------------------------------------------------
# GeneratedSample invariants
# ---------------------------------------------------------------------------


def test_sample_invariants_enforced_at_construction():
    GeneratedSample(sentence="Rebels bombed the base.", trigger="bombed")
    with pytest.raises(ValueError):
        GeneratedSample(sentence="Rebels bombed the base.", trigger="invaded")
    with pytest.raises(ValueError):
        GeneratedSample(sentence="Line one.\nLine two.", trigger="Line")
    with pytest.raises(ValueError):
        GeneratedSample(sentence="", trigger="x")
    with pytest.raises(TypeError):  # a sample has no origin field
        GeneratedSample(sentence="ok trigger here", trigger="trigger", origin="generated")


# ---------------------------------------------------------------------------
# definition curation
# ---------------------------------------------------------------------------


def test_curate_definitions_with_mock():
    tree = small_tree()
    report = curate_definitions_for_trees([tree], MockBackend(seed=5))
    defs = definitions_of(tree)
    assert sorted(defs) == ["attack", "conflict", "protest"]
    assert all(defs[name] for name in defs)
    assert report.requested == 3 and report.parsed == 3 and not report.failures
    for node in tree.iter_preorder():
        assert node.definitions == [defs[node.name]]


def test_curate_definitions_empty_forest_requests_nothing():
    backend = ScriptedBackend([])
    report = curate_definitions_for_trees([], backend)
    assert backend.calls == 0
    assert (report.requested, report.parsed, report.failures) == (0, 0, [])


def test_curate_definitions_missing_line_recorded_after_retry():
    response = "conflict\tdefinition: root def\nattack\tdefinition: attack def"
    backend = ScriptedBackend([response, response])  # primary + one retry with same prompt
    tree = small_tree()
    report = curate_definitions_for_trees([tree], backend)
    defs = definitions_of(tree)
    assert backend.calls == 2
    assert sorted(defs) == ["attack", "conflict"]
    assert report.parsed == 2
    assert report.failures == [("protest", "no definition line in response (after retry)")]
    assert report.requested == report.parsed + report.dropped_invalid + len(report.failures)


def test_curate_definitions_deterministic_with_mock():
    one, two = small_tree(), small_tree()
    curate_definitions_for_trees([one], MockBackend(seed=13))
    curate_definitions_for_trees([two], MockBackend(seed=13))
    assert definitions_of(one) == definitions_of(two)


# ---------------------------------------------------------------------------
# sample curation
# ---------------------------------------------------------------------------


def test_curate_samples_with_mock():
    tree = tree_with_defs()
    report = curate_samples_for_trees([tree], MockBackend(seed=5), per_event=10)
    samples = samples_of(tree)
    assert len(samples) == 30
    assert report.requested == 30 and report.parsed == 30 and report.dropped_invalid == 0
    assert [(node.name, len(node.samples)) for node in tree.iter_preorder()] == [
        ("conflict", 10), ("attack", 10), ("protest", 10)]
    assert all(s.trigger in s.sentence for s in samples)


def test_curate_samples_requires_definitions():
    with pytest.raises(ValueError):
        curate_samples_for_trees([small_tree()], MockBackend(seed=0))


@pytest.mark.parametrize("step", [
    lambda dataset: curate_samples_for_trees(dataset.trees, MockBackend(seed=0)),
    lambda dataset: expand_definitions_for_nodes(list(dataset.iter_nodes()), MockBackend(seed=0)),
    prune_dataset,
], ids=["curate_samples", "expand_definitions", "prune"])
def test_an_event_without_what_a_step_needs_raises_event_input_error(step):
    dataset = make_dataset([("A", None, ["A def"], [make_sample("A", 0)]), ("B", "A", [], [])])
    with pytest.raises(EventInputError) as err:
        step(dataset)
    assert isinstance(err.value, ValueError) and err.value.event == "B"


def test_curate_samples_rejects_nonpositive_per_event():
    with pytest.raises(ValueError):
        curate_samples_for_trees([tree_with_defs()], MockBackend(seed=0), per_event=0)


def test_curate_samples_rejects_negative_regenerate():
    with pytest.raises(ValueError, match="^regenerate must be a non-negative integer$"):
        curate_samples_for_trees([tree_with_defs()], MockBackend(seed=0), regenerate=-1)


def test_curate_samples_drops_invalid_trigger():
    response = "\n".join(
        [
            "conflict\tsentence: The war escalated quickly.",
            "conflict\ttrigger: escalated",
            "attack\tsentence: Rebels bombed the base.",
            "attack\ttrigger: bombed",
            "protest\tsentence: Crowds marched downtown.",
            "protest\ttrigger: flying",  # not a substring -> dropped
        ]
    )
    backend = ScriptedBackend([response, response])
    tree = tree_with_defs()
    report = curate_samples_for_trees([tree], backend, per_event=1)
    samples = samples_of(tree)
    assert len(samples) == 2
    assert report.parsed == 2
    assert report.dropped_invalid == 1
    assert report.requested == report.parsed + report.dropped_invalid
    assert report.failures == []


def test_curate_samples_shortfall_recorded():
    response = "conflict\tsentence: The war escalated.\nconflict\ttrigger: escalated"
    backend = ScriptedBackend([response, response])
    tree = tree_with_defs()
    report = curate_samples_for_trees([tree], backend, per_event=2)
    samples = samples_of(tree)
    assert len(samples) == 1
    assert report.requested == 6
    shortfall_events = {event for event, _ in report.failures}
    assert shortfall_events == {"conflict", "attack", "protest"}


def test_curate_samples_deterministic_with_mock():
    one, two = tree_with_defs(), tree_with_defs()
    curate_samples_for_trees([one], MockBackend(seed=21), per_event=5)
    curate_samples_for_trees([two], MockBackend(seed=21), per_event=5)
    assert samples_of(one) == samples_of(two)


def test_regenerate_rounds_stop_once_every_event_is_full():
    """Rounds after the one that fills every event request nothing, so they
    are not run: ten million of them cost what none do."""
    full, plain = tree_with_defs(), tree_with_defs()
    curate_samples_for_trees([plain], MockBackend(seed=21), per_event=5)
    start = time.perf_counter()
    report = curate_samples_for_trees([full], MockBackend(seed=21), per_event=5, regenerate=10**7)
    assert time.perf_counter() - start < 1.0
    assert samples_of(full) == samples_of(plain)
    assert report.failures == []


# ---------------------------------------------------------------------------
# definition expansion
# ---------------------------------------------------------------------------


def test_expand_definitions_with_mock():
    tree = tree_with_defs()
    node = tree.children[0]
    added, _ = expand_one(node, MockBackend(seed=5), count=10)
    assert len(added) == 10
    assert len(node.definitions) == 11
    assert len(set(d.strip() for d in node.definitions)) == 11


def test_expand_definitions_dedups_verbatim_repeats():
    tree = tree_with_defs()
    node = tree.children[0]
    seed_def = node.definitions[0]
    response = "\n".join([f"attack\tparaphrase: {seed_def}"] * 10)
    backend = ScriptedBackend([response, response])
    added, _ = expand_one(node, backend, count=10)
    assert added == []
    assert node.definitions == [seed_def]


def test_expand_definitions_count_bound():
    tree = tree_with_defs()
    node = tree.children[1]
    added, _ = expand_one(node, MockBackend(seed=5), count=1)
    assert len(added) <= 1
    assert len(node.definitions) <= 2


def test_expand_definitions_requires_seed_definition():
    with pytest.raises(ValueError):
        expand_definitions_for_nodes([small_tree()], MockBackend(seed=0), count=2)


def test_expand_definitions_rejects_a_count_of_zero():
    with pytest.raises(ValueError, match="^count must be a positive integer$"):
        expand_definitions_for_nodes(list(tree_with_defs().iter_preorder()), MockBackend(seed=0), count=0)


# ---------------------------------------------------------------------------
# parsers tolerate prose, stay strict on record lines
# ---------------------------------------------------------------------------


def test_parse_definitions_ignores_prose_and_unknown_events():
    text = "Sure! Here you go:\nattack\tdefinition: a def\nzebra\tdefinition: not requested\nnonsense line"
    assert parse_definitions(text, ["attack", "protest"]) == {
        "attack": _Parse(1, "a def"), "protest": _Parse(0, reason="no definition line in response (after retry)")}


def test_parsers_match_a_record_to_its_event_under_the_name_key():
    """A reply may spell an event with other case, spacing, '-' or '_'; the
    record still fills the event as the ontology names it."""
    text = "attack target\tdefinition: hi\nAttack-Target\tdefinition: ho"
    assert parse_definitions(text, ["Attack-Target"]) == {"Attack-Target": _Parse(1, "hi")}
    text = "attack_target\tsentence: Rebels hit the base.\nATTACK  TARGET\ttrigger: hit\nattack target\tparaphrase: p"
    assert parse_samples(text, ["Attack-Target"], per_event=1)["Attack-Target"].value == [
        GeneratedSample("Rebels hit the base.", "hit")]
    assert parse_paraphrases(text, ["Attack-Target"]) == {"Attack-Target": _Parse(1, ["p"])}


def test_parsed_plus_dropped_never_exceed_sample_record_lines():
    text = "\n".join(
        [
            "Some chatty preamble.",
            "attack\tsentence: Rebels bombed the base.",
            "attack\ttrigger: bombed",
            "attack\tsentence: Soldiers raided the camp.",
            "attack\ttrigger: flying",  # invalid pair
            "attack\tsentence: dangling sentence without a trigger",
            "Closing prose.",
        ]
    )
    parsed = parse_samples(text, ["attack"], per_event=10)["attack"]
    attributed_lines = sum(1 for ln in text.splitlines() if "\tsentence: " in ln or "\ttrigger: " in ln)
    assert parsed.score + parsed.dropped <= attributed_lines
    assert parsed.score == len(parsed.value) == 1
    assert parsed.dropped == 1
    assert parsed.reason == "response contained 2 of 10 sample records"


def test_parse_samples_ignores_orphan_lines():
    text = "\n".join(
        [
            "attack\ttrigger: bombed",  # trigger before any sentence -> orphan
            "attack\tsentence: Rebels bombed the base.",
            "attack\tsentence: Soldiers raided the camp.",  # overwrites pending sentence
            "attack\ttrigger: raided",
        ]
    )
    parsed = parse_samples(text, ["attack"], per_event=5)["attack"]
    assert [sample.trigger for sample in parsed.value] == ["raided"]


# The parsers as they were when each returned its own shape, with the
# per-stage closures that turned that shape into a _Parse, kept here as the
# reference for the parsers that return one _Parse per event themselves.

REFERENCE_RECORD_RE = re.compile(
    r"^(?P<event>[^\t]+)\t(?P<field>definition|sentence|trigger|paraphrase):\s?(?P<value>.*)$")


def reference_records(text):
    for line in text.splitlines():
        m = REFERENCE_RECORD_RE.match(line)
        if m:
            yield normalize_name(m.group("event")), m.group("field"), m.group("value").strip()


def reference_parse_definitions(text, expected_events):
    wanted = {normalize_name(name): name for name in expected_events}
    found = {}
    for key, fieldname, value in reference_records(text):
        if fieldname != "definition" or key not in wanted:
            continue
        if value and wanted[key] not in found:
            found[wanted[key]] = value
    return found


@dataclass
class ReferenceSampleStats:
    samples: list = field(default_factory=list)
    dropped: int = 0
    pairs: int = 0


def reference_parse_samples(text, expected_events, per_event):
    wanted = {normalize_name(name): name for name in expected_events}
    stats = {name: ReferenceSampleStats() for name in expected_events}
    pending = {}
    for key, fieldname, value in reference_records(text):
        if key not in wanted:
            continue
        name = wanted[key]
        if fieldname == "sentence":
            pending[key] = value
        elif fieldname == "trigger":
            sentence = pending.pop(key, None)
            if sentence is None:
                continue
            st = stats[name]
            if st.pairs >= per_event:
                continue
            st.pairs += 1
            try:
                st.samples.append(GeneratedSample(sentence=sentence, trigger=value))
            except ValueError:
                st.dropped += 1
    return stats


def reference_parse_paraphrases(text, event):
    key = normalize_name(event)
    return [value for k, fieldname, value in reference_records(text)
            if k == key and fieldname == "paraphrase" and value]


def reference_parses(text, names, per_event):
    """Each stage's closure over the reference parsers: (definitions,
    samples, paraphrases), each a dict of one _Parse per name."""
    found = reference_parse_definitions(text, names)
    missing = _Parse(0, reason="no definition line in response (after retry)")
    definitions = {name: _Parse(1, found[name]) if name in found else missing for name in names}
    samples = {
        name: _Parse(len(st.samples), st.samples,
                     f"response contained {st.pairs} of {per_event} sample records" if st.pairs < per_event else None,
                     st.dropped)
        for name, st in reference_parse_samples(text, names, per_event).items()
    }
    paraphrases = {}
    for name in names:
        values = reference_parse_paraphrases(text, name)
        paraphrases[name] = _Parse(len(values), values)
    return definitions, samples, paraphrases


REPLY_EVENTS = ["attack", "ATTACK", " attack ", "protest", "Protest\t", "sea battle", "Sea Battle", "zebra", ""]
REPLY_FIELDS = ["definition", "sentence", "trigger", "paraphrase", "Trigger"]
REPLY_VALUES = ["", " ", "  The unit hit2 the base. ", "The unit hit2 the base.", "hit2", "ghost", "a def"]


@st.composite
def replies(draw):
    """A unit's names, a reply for them and a per-event target. Record lines
    spell the names in other case or with spaces, name unknown events, pair
    sentences and triggers in any order (orphans, invalid pairs, more pairs
    than the target), and sit among prose lines."""
    names = draw(st.lists(st.sampled_from(["attack", "Protest", "sea battle"]), min_size=1, max_size=3, unique=True))
    # each reply draws from its own few spellings and fields, so that records
    # for one event and field (a second definition, many pairs) are common
    event = st.sampled_from(draw(st.lists(st.sampled_from(REPLY_EVENTS), min_size=1, max_size=4, unique=True)))
    fieldname = st.sampled_from(draw(st.lists(st.sampled_from(REPLY_FIELDS), min_size=1, max_size=3, unique=True)))
    value = st.sampled_from(REPLY_VALUES)
    record = st.builds("{}\t{}:{}{}".format, event, fieldname, st.sampled_from(["", " ", "  "]), value)
    pair = st.builds(lambda e, sentence, trigger: [f"{e}\tsentence: {sentence}", f"{e}\ttrigger: {trigger}"],
                     event, value, value)
    prose = st.sampled_from(["Sure, here you go.", "attack definition: no tab", "", "\tdefinition: no event"])
    chunks = draw(st.lists(st.one_of(st.one_of(record, prose).map(lambda line: [line]), pair), max_size=20))
    lines = [line for chunk in chunks for line in chunk]
    return names, draw(st.sampled_from(["\n", "\r\n"])).join(lines), draw(st.integers(min_value=1, max_value=4))


@given(replies())
@settings(max_examples=300, deadline=None)
def test_parsers_match_the_reference_parsers_field_for_field(case):
    names, text, per_event = case
    definitions, samples, paraphrases = reference_parses(text, names, per_event)
    assert parse_definitions(text, names) == definitions
    assert parse_samples(text, names, per_event) == samples
    assert parse_paraphrases(text, names) == paraphrases


RECORD_PIECES = ["attack", "Attack-Target", " attack ", "x", "\t", ":", ": ", ":\t", " ", "definition", "sentence",
                 "trigger", "paraphrase", "Definition", "definitions", "sentence ", "\r", "\x85", "\u2028", "\n"]
# a line of event, separator, field, colon and value; "" is drawn twice for the colon, so that a line without
# one is common
RECORD_LINE = st.builds("".join, st.tuples(*(st.sampled_from(choices) for choices in (
    ["attack", " x", ""], ["\t", " "], ["definition", "paraphrase", "Sentence", ""], [":", "", ": ", ":\t", ""],
    ["", " v ", "v:w", "v\tw"]))))


@given(st.lists(RECORD_LINE | RECORD_LINE | st.lists(st.sampled_from(RECORD_PIECES), max_size=12).map("".join)
                | st.text(), max_size=6).map("\n".join),
       st.lists(st.sampled_from(["attack", "Attack Target", "x", "definition"]), min_size=1, max_size=3))
@example("attack\tdefinition\n\tdefinition: v\nattack\t\tparaphrase: v\nattack\tdefinition:: v\nx\tSentence: v"
         "\nattack definition: v\nx\ttrigger:v\tw\nattack\tsentence:\t v:w ", ["attack", "x"])
@settings(max_examples=300, deadline=None)
def test_records_split_lines_as_the_record_regex_does(text, expected_events):
    """``_records`` splits at the first tab and the first colon after it; the
    regex it replaced is the oracle. Every expected event has a non-empty
    key, as every event of an ontology does."""
    wanted = {normalize_name(name): name for name in expected_events}
    reference = [(wanted[key], fieldname, value) for key, fieldname, value in reference_records(text) if key in wanted]
    assert list(curation._records(text, expected_events)) == reference


# ---------------------------------------------------------------------------
# dataset round-trip
# ---------------------------------------------------------------------------


def _dataset():
    return make_dataset([
        ("conflict", None, ["root def"], [make_sample("conflict", 0)]),
        ("attack", "conflict", ["attack def", "attack def 2"], [make_sample("attack", 0), make_sample("attack", 1)]),
    ])


def _content(dataset):
    return [
        (n.name, n.parent.name if n.parent else None, [c.name for c in n.children], n.definitions, n.samples)
        for n in dataset.iter_nodes()
    ]


def test_dataset_round_trip(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_dataset(_dataset(), path)
    loaded = read_dataset(path)
    assert _content(loaded) == _content(_dataset())
    assert len(loaded.trees) == 1
    assert loaded.get("attack").definitions == ["attack def", "attack def 2"]
    second = tmp_path / "dataset2.jsonl"
    write_dataset(loaded, second)
    assert path.read_bytes() == second.read_bytes()

    # trees are grouped by parent links and come back in pre-order, even when
    # a child row precedes its parent and the trees interleave
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    other = '{"event": "movement", "parent": null, "children": [], "definitions": [], "samples": []}\n'
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text(lines[1] + other + lines[0], encoding="utf-8")
    reread = read_dataset(shuffled)
    assert names(reread) == ["movement", "conflict", "attack"]
    assert _content(reread)[1:] == _content(_dataset())


def test_read_dataset_strips_the_event_name_of_its_samples_too(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text('{"event": " e2", "parent": null, "children": [], "definitions": [" e2 def"],'
                    ' "samples": [{"sentence": "The  e2 crew run at dawn.", "trigger": "run"}]}\n', encoding="utf-8")
    node = read_dataset(path).get("e2")
    assert node.name == "e2" and len(node.samples) == 1


def test_read_dataset_rejects_two_spellings_of_one_event_with_line_number(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(
        '{"event": "attack-target", "parent": null, "children": [], "definitions": [], "samples": []}\n'
        '{"event": "other", "parent": null, "children": [], "definitions": [], "samples": []}\n'
        '{"event": "Attack Target", "parent": null, "children": [], "definitions": [], "samples": []}\n',
        encoding="utf-8",
    )
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert err.value.line == 3 and f"already defined as 'attack-target' at {path}:1" in str(err.value)


@pytest.mark.parametrize("event", ["_", " - ", ""])
def test_read_dataset_rejects_a_blank_event_at_its_own_line_before_a_later_defect(tmp_path, event):
    path = tmp_path / "dataset.jsonl"
    path.write_text(
        '{"event": "a", "parent": null, "children": [], "definitions": [], "samples": []}\n'
        + json.dumps({"event": event, "parent": None, "children": [], "definitions": [], "samples": []}) + "\n"
        + '{"event": broken\n',
        encoding="utf-8",
    )
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}:2: event name {event!r} is blank: it is all whitespace, '-' and '_'"


def test_read_dataset_rejects_bad_sample_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"event": "a", "parent": null, "children": [], "definitions": [], "samples": []}\n'
        '{"event": "b", "parent": null, "children": [], "definitions": [],'
        ' "samples": [{"sentence": "no match here", "trigger": "ghost"}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert err.value.line == 2


@pytest.mark.parametrize("row, message", [
    ({"event": "b", "children": "a"}, "field 'children' must be a list of strings"),
    ({"event": "b", "children": ["a", 1]}, "field 'children' must be a list of strings"),
    ({"parent": None, "children": []}, "missing required field 'event'"),
], ids=["children_string", "children_number", "no_event"])
def test_read_dataset_rejects_a_bad_row_at_its_line(tmp_path, row, message):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "a", "parent": null}\n' + json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}:2: {message}"


def dataset_row(event, parent=None, **fields):
    return json.dumps({"event": event, "parent": parent, "definitions": [f"{event} def"],
                       "samples": [{"sentence": f"The {event} unit ran.", "trigger": "ran"}], **fields}) + "\n"


@pytest.mark.parametrize("rows, line, message", [
    ([dataset_row("A", children=["ghost"]), dataset_row("B", "A", children=[])], 1,
     "field 'children' is ['ghost'], but the events whose parent is 'A' are ['B']"),
    ([dataset_row("A", children=["C", "B"]), dataset_row("B", "A"), dataset_row("C", "A")], 1,
     "field 'children' is ['C', 'B'], but the events whose parent is 'A' are ['B', 'C']"),
    ([dataset_row("A", children=[]), dataset_row("B", "A", children=[])], 1,
     "field 'children' is [], but the events whose parent is 'A' are ['B']"),
    ([dataset_row("A", children=["B"]), dataset_row("B", "A", children=["A"])], 2,
     "field 'children' is ['A'], but the events whose parent is 'B' are []"),
], ids=["unknown_child", "wrong_order", "missing_child", "leaf_with_a_child"])
def test_read_dataset_rejects_children_that_disagree_with_the_parent_links(tmp_path, rows, line, message):
    path = tmp_path / "dataset.jsonl"
    path.write_text("".join(rows), encoding="utf-8")
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}:{line}: {message}"


def test_read_dataset_matches_children_by_key_and_takes_rows_without_them(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(dataset_row("A", children=["b", " C_1"]) + dataset_row("B", "A") + dataset_row("c-1", "a"),
                    encoding="utf-8")
    assert [child.name for child in read_dataset(path).get("A").children] == ["B", "c-1"]


def test_read_dataset_rejects_a_duplicate_before_a_later_line_that_does_not_decode(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text(dataset_row("A", children=[]) + dataset_row("a", children=[]) + "{not json\n", encoding="utf-8")
    with pytest.raises(JsonlError) as err:
        read_dataset(path)
    assert str(err.value) == (f"{path}:2: duplicate event name 'a', already defined as 'A' at {path}:1 (names that"
                              " differ only in case, spacing, '-' or '_' are one event)")


@st.composite
def forest_rows(draw):
    """Rows of a well-formed forest in shuffled file order: each name is a
    spelling of its own event, each parent one of an event drawn before it."""
    events = draw(st.lists(st.sampled_from(["attack", "fire drill", "Sea-Battle", "b", "c", "d", "e", "f"]),
                           min_size=1, max_size=8, unique=True))
    rows = []
    for i, event in enumerate(events):
        parent = draw(st.one_of(st.none(), st.sampled_from(events[:i]))) if i else None
        spell = st.sampled_from([lambda n: n, str.upper, lambda n: f" {n} ", lambda n: n.replace(" ", "_")])
        rows.append((draw(spell)(event), None if parent is None else draw(spell)(parent)))
    return draw(st.permutations(rows))


@given(forest_rows())
@settings(deadline=None)
def test_an_ontology_and_a_dataset_of_one_row_set_load_alike(rows):
    """The same rows, written once as an ontology and once as a dataset whose
    ``children`` are derived from the parent links, load to the same names,
    parents and order."""
    def children(name):
        return [child for child, parent in rows if parent is not None and normalize_name(parent) == normalize_name(name)]

    def shape(built):
        return [(n.name, n.parent.name if n.parent else None) for n in built.iter_nodes()], [t.name for t in built.trees]

    with tempfile.TemporaryDirectory() as tmp:
        onto, data = Path(tmp) / "onto.jsonl", Path(tmp) / "data.jsonl"
        onto.write_text("".join(json.dumps({"name": name, "parent": parent}) + "\n" for name, parent in rows),
                        encoding="utf-8")
        data.write_text("".join(dataset_row(name, parent, children=children(name)) for name, parent in rows),
                        encoding="utf-8")
        assert shape(load_ontology(onto)) == shape(read_dataset(data))


def test_deep_chain_loads_renders_round_trips_and_prunes(tmp_path):
    depth = 1500
    events = [f"e{i}" for i in range(depth)]
    chain = ontology_of([(name, events[i - 1] if i else None, None) for i, name in enumerate(events)])
    ontology_path = tmp_path / "chain.jsonl"
    save_ontology(chain, ontology_path)
    loaded = load_ontology(ontology_path)
    assert names(loaded) == events

    block = tree_block(loaded.trees[0]).split("\n")
    assert len(block) == depth
    assert block[-1] == "  " * (depth - 1) + events[-1]

    dataset = make_dataset([
        (name, events[i - 1] if i else None, [f"{name} def"], [make_sample(name, 0)]) for i, name in enumerate(events)
    ])
    path = tmp_path / "chain_dataset.jsonl"
    write_dataset(dataset, path)
    reread = read_dataset(path)
    assert _content(reread) == _content(dataset)

    pruned, audits = prune_dataset(reread)
    assert audits == []
    assert names(pruned) == events


# ---------------------------------------------------------------------------
# retry and keep-best behaviour, one unit per stage
# ---------------------------------------------------------------------------

REJECTED = "HTTP 400: rejected"


def _definitions_reply(tag: str, names: list[str]) -> str:
    return "\n".join(["Definitions follow."] + [f"{name}\tdefinition: {name} {tag}" for name in names])


def _sample_lines(event: str, tag: str, valid: int, invalid: int = 0) -> list[str]:
    lines = []
    for i in range(valid):
        lines += [f"{event}\tsentence: The {event} unit {event}{tag}{i} today.", f"{event}\ttrigger: {event}{tag}{i}"]
    for i in range(invalid):
        lines += [f"{event}\tsentence: The {event} unit stood still.", f"{event}\ttrigger: {event}{tag}x{i}"]
    return lines


def _samples_reply(tag: str, counts: dict[str, tuple[int, int]]) -> str:
    """counts maps event -> (valid pairs, invalid pairs)."""
    lines = ["Samples follow."]
    for event, (valid, invalid) in counts.items():
        lines += _sample_lines(event, tag, valid, invalid)
    return "\n".join(lines)


def _paraphrase_reply(tag: str, n: int) -> str:
    return "\n".join(["Paraphrases follow."] + [f"attack\tparaphrase: attack {tag} {i}" for i in range(n)])


DEFS_FULL = _definitions_reply("full", ["conflict", "attack", "protest"])
DEFS_SHORT = _definitions_reply("short", ["conflict", "attack"])
DEFS_SHORTER = _definitions_reply("shorter", ["conflict"])


@pytest.mark.parametrize(
    "script, calls, definitions, parsed, failures",
    [
        ([DEFS_SHORT, DEFS_FULL], 2, ["conflict short", "attack short", "protest full"], 3, []),
        ([DEFS_FULL, DEFS_SHORTER], 1, ["conflict full", "attack full", "protest full"], 3, []),
        ([DEFS_SHORT, DEFS_SHORTER], 2, ["conflict short", "attack short", None], 2,
         [("protest", "no definition line in response (after retry)")]),
        ([PermanentBackendError(REJECTED)], 1, [None, None, None], 0,
         [(name, f"backend failure: {REJECTED}") for name in ("conflict", "attack", "protest")]),
        ([DEFS_SHORT, PermanentBackendError(REJECTED)], 2, ["conflict short", "attack short", None], 2,
         [("protest", "no definition line in response (after retry)")]),
    ],
    ids=["short_then_full", "full_then_shorter", "short_then_shorter", "failed", "short_then_failed_retry"],
)
def test_curate_definitions_retry_keeps_best(script, calls, definitions, parsed, failures):
    tree = small_tree()
    backend = ScriptedBackend(script)
    report = curate_definitions_for_trees([tree], backend)
    assert backend.calls == calls
    assert [n.definitions[0] if n.definitions else None for n in tree.iter_preorder()] == definitions
    assert (report.requested, report.parsed, report.dropped_invalid) == (3, parsed, 0)
    assert sorted(report.failures) == sorted(failures)



# per_event = 2; SAMPLES_SHORT leaves attack one valid pair (plus one
# invalid) and protest one pair in all
SAMPLES_FULL = _samples_reply("full", {"conflict": (2, 0), "attack": (2, 0), "protest": (2, 0)})
SAMPLES_SHORT = _samples_reply("short", {"conflict": (2, 0), "attack": (1, 1), "protest": (1, 0)})
SAMPLES_SHORTER = _samples_reply("shorter", {"conflict": (1, 0)})
FROM_SHORT = {"conflict": ["conflictshort0", "conflictshort1"], "attack": ["attackshort0"], "protest": ["protestshort0"]}
SHORT_FAILURES = [("protest", "response contained 1 of 2 sample records")]


@pytest.mark.parametrize(
    "script, calls, triggers, parsed, dropped, failures",
    [
        ([SAMPLES_SHORT, SAMPLES_FULL], 2,
         {"conflict": ["conflictshort0", "conflictshort1"], "attack": ["attackfull0", "attackfull1"],
          "protest": ["protestfull0", "protestfull1"]}, 6, 0, []),
        ([SAMPLES_FULL, SAMPLES_SHORTER], 1,
         {e: [f"{e}full0", f"{e}full1"] for e in ("conflict", "attack", "protest")}, 6, 0, []),
        ([SAMPLES_SHORT, SAMPLES_SHORTER], 2, FROM_SHORT, 4, 1, SHORT_FAILURES),
        ([PermanentBackendError(REJECTED)], 1, {"conflict": [], "attack": [], "protest": []}, 0, 0,
         [(name, f"backend failure: {REJECTED}") for name in ("conflict", "attack", "protest")]),
        ([SAMPLES_SHORT, PermanentBackendError(REJECTED)], 2, FROM_SHORT, 4, 1, SHORT_FAILURES),
    ],
    ids=["short_then_full", "full_then_shorter", "short_then_shorter", "failed", "short_then_failed_retry"],
)
def test_curate_samples_retry_keeps_best(script, calls, triggers, parsed, dropped, failures):
    tree = tree_with_defs()
    backend = ScriptedBackend(script)
    report = curate_samples_for_trees([tree], backend, per_event=2)
    assert backend.calls == calls
    assert {n.name: [s.trigger for s in n.samples] for n in tree.iter_preorder()} == triggers
    assert (report.requested, report.parsed, report.dropped_invalid) == (6, parsed, dropped)
    assert sorted(report.failures) == sorted(failures)


# count = 2
PARA_FULL, PARA_SHORT, PARA_SHORTER = _paraphrase_reply("full", 2), _paraphrase_reply("short", 1), "No luck."


@pytest.mark.parametrize(
    "script, calls, added, failures",
    [
        ([PARA_SHORT, PARA_FULL], 2, ["attack full 0", "attack full 1"], []),
        ([PARA_FULL, PARA_SHORTER], 1, ["attack full 0", "attack full 1"], []),
        ([PARA_SHORT, PARA_SHORTER], 2, ["attack short 0"], []),
        ([PermanentBackendError(REJECTED)], 1, [], [("attack", f"backend failure: {REJECTED}")]),
        ([PARA_SHORT, PermanentBackendError(REJECTED)], 2, ["attack short 0"], []),
    ],
    ids=["short_then_full", "full_then_shorter", "short_then_shorter", "failed", "short_then_failed_retry"],
)
def test_expand_definitions_retry_keeps_best(script, calls, added, failures):
    node = tree_with_defs().children[0]
    backend = ScriptedBackend(script)
    result, report = expand_one(node, backend, count=2)
    assert backend.calls == calls
    assert node.definitions == ["attack seed definition"] + added
    assert result == added
    assert (report.requested, report.parsed, report.dropped_invalid) == (2, len(added), 0)
    assert report.failures == failures


# ---------------------------------------------------------------------------
# the generation loops against the per-stage loops they replaced
# ---------------------------------------------------------------------------
#
# The oracle_* functions below are the generation loops as they were when
# each stage had its own copy (and ``curate-samples --regenerate`` a fourth
# one in the CLI), kept here as the reference for the shared loop. They read
# the parsers through the two helpers below.


def found_definitions(text, names):
    """name -> definition for each event the reply defines."""
    return {name: parsed.value for name, parsed in parse_definitions(text, names).items() if parsed.score}


def found_paraphrases(text, event):
    return parse_paraphrases(text, [event])[event].value


def oracle_curate_definitions(trees, backend):
    report = CurationReport(requested=sum(len(list(t.iter_preorder())) for t in trees))
    requests = [definition_request(t) for t in trees]
    results = complete_batch(requests, backend)
    found: dict[str, str] = {}
    retry_idx: list[int] = []
    for i, (tree, result) in enumerate(zip(trees, results)):
        names = [n.name for n in tree.iter_preorder()]
        if isinstance(result, GenFailure):
            report.failures.extend((name, f"backend failure: {result.error}") for name in names)
            continue
        found.update(found_definitions(result.text, names))
        if any(name not in found for name in names):
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend)
        for i, result in zip(retry_idx, retry_results):
            names = [n.name for n in trees[i].iter_preorder()]
            if isinstance(result, GenFailure):
                continue
            for name, definition in found_definitions(result.text, names).items():
                found.setdefault(name, definition)
    for tree in trees:
        for node in tree.iter_preorder():
            if node.name in found:
                if node.definitions:
                    node.definitions[0] = found[node.name]
                else:
                    node.definitions.append(found[node.name])
            elif not any(name == node.name for name, _ in report.failures):
                report.failures.append((node.name, "no definition line in response (after retry)"))
    report.parsed = len(found)
    return found, report


def oracle_curate_samples(trees, backend, per_event=10):
    all_nodes = [node for tree in trees for node in tree.iter_preorder()]
    report = CurationReport(requested=per_event * len(all_nodes))
    requests = [sample_request(t, per_event) for t in trees]
    results = complete_batch(requests, backend)
    stats = {}
    failed_events: set[str] = set()
    retry_idx: list[int] = []
    for i, (tree, result) in enumerate(zip(trees, results)):
        names = [n.name for n in tree.iter_preorder()]
        if isinstance(result, GenFailure):
            report.failures.extend((name, f"backend failure: {result.error}") for name in names)
            failed_events.update(names)
            stats.update({name: _Parse(0, []) for name in names})
            continue
        tree_stats = parse_samples(result.text, names, per_event)
        stats.update(tree_stats)
        if any(len(st.value) < per_event for st in tree_stats.values()):
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend)
        for i, result in zip(retry_idx, retry_results):
            if isinstance(result, GenFailure):
                continue
            names = [n.name for n in trees[i].iter_preorder()]
            retry_stats = parse_samples(result.text, names, per_event)
            for name in names:
                if len(retry_stats[name].value) > len(stats[name].value):
                    stats[name] = retry_stats[name]
    samples = []
    for node in all_nodes:
        st = stats[node.name]
        pairs = st.score + st.dropped
        node.samples = list(st.value)
        samples.extend(st.value)
        report.parsed += len(st.value)
        report.dropped_invalid += st.dropped
        if per_event - pairs > 0 and node.name not in failed_events:
            report.failures.append((node.name, f"response contained {pairs} of {per_event} sample records"))
    return samples, report


def oracle_regenerate(dataset, backend, per_event, regenerate):
    """``curate-samples --regenerate``: returns (dropped_invalid, failures)."""
    _, report = oracle_curate_samples(dataset.trees, backend, per_event)
    dropped_invalid = report.dropped_invalid
    failures = dict(report.failures)
    for _ in range(regenerate):
        trees = [t for t in dataset.trees if any(len(n.samples) < per_event for n in t.iter_preorder())]
        if not trees:
            break
        before = {node: node.samples for tree in trees for node in tree.iter_preorder()}
        _, report = oracle_curate_samples(trees, backend, per_event)
        dropped_invalid += report.dropped_invalid
        round_failures = dict(report.failures)
        for node, old in before.items():
            if len(old) >= len(node.samples):
                node.samples = old
            elif node.name in round_failures:
                failures[node.name] = round_failures[node.name]
            else:
                failures.pop(node.name, None)
    return dropped_invalid, list(failures.items())


def oracle_expand_definitions(nodes, backend, count=10):
    """Returns (added, failures)."""
    failures = []
    requests = [expansion_request(n, count) for n in nodes]
    results = complete_batch(requests, backend)
    texts: dict[str, str | None] = {}
    retry_idx: list[int] = []
    for i, (node, result) in enumerate(zip(nodes, results)):
        if isinstance(result, GenFailure):
            failures.append((node.name, f"backend failure: {result.error}"))
            texts[node.name] = None
            continue
        texts[node.name] = result.text
        if len(found_paraphrases(result.text, node.name)) < count:
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend)
        for i, result in zip(retry_idx, retry_results):
            node = nodes[i]
            if isinstance(result, GenFailure):
                continue
            old = texts[node.name]
            if old is None or len(found_paraphrases(result.text, node.name)) > len(found_paraphrases(old, node.name)):
                texts[node.name] = result.text
    added = {}
    for node in nodes:
        text = texts.get(node.name)
        new: list[str] = []
        if text is not None:
            existing = {d.strip() for d in node.definitions}
            for para in found_paraphrases(text, node.name)[:count]:
                if para.strip() not in existing:
                    existing.add(para.strip())
                    new.append(para)
        node.definitions.extend(new)
        added[node.name] = new
    return added, failures


class UnitScriptedBackend(Backend):
    """Replays a script of reply kinds per unit: the unit is the tree (named
    by its root) of a curation request or the event of an expansion request,
    so the replies a unit gets do not depend on request order. Each reply
    text is written for the unit's events and tagged with the unit's own
    call number, which does not depend on thread timing either. So the
    loops run it two calls at once, on worker threads."""

    max_in_flight = 2

    def __init__(self, scripts: dict[str, list[str]], per_event: int):
        self.scripts = {unit: list(kinds) for unit, kinds in scripts.items()}
        self.per_event = per_event
        self.calls = 0
        self.lock = threading.Lock()

    def generate(self, request):
        variables = request.variables
        unit = variables["event"] if "event" in variables else variables["events"].split("\n", 1)[0]
        with self.lock:
            self.calls += 1
            kind = self.scripts[unit].pop(0)
            call = len(self.scripts[unit])
        if kind == "error":
            raise PermanentBackendError(REJECTED)
        if request.template_id is TemplateId.DEFINITION_EXPANSION:
            n = self.per_event - (kind == "short")
            seed = variables["definition"]
            return "\n".join(
                f"{unit}\tparaphrase: {seed if kind == 'invalid' and i == 0 else f'{unit} paraphrase {call}.{i}'}"
                for i in range(n)
            )
        names = [line.strip() for line in variables["events"].split("\n")]
        if request.template_id is TemplateId.DEFINITION_CURATION:
            kept = names[:-1] if kind == "short" else names
            return "\n".join(f"{n}\tdefinition: {'' if kind == 'invalid' and i == 0 else f'{n} def {call}'}"
                             for i, n in enumerate(kept))
        lines = []
        for i, name in enumerate(names):
            valid = self.per_event - (kind == "short" and i % 2 == 0) - (kind == "invalid")
            lines += _sample_lines(name, f"c{call}", valid, invalid=int(kind == "invalid"))
        return "\n".join(lines)


REPLY_KINDS = ["full", "short", "invalid", "error"]


@st.composite
def forest_and_scripts(draw, rounds: int = 1):
    """1-3 trees of 1-3 events with a seed definition each, a target of 1-3
    items per event, and per tree and per event a script long enough for
    every round and its retry."""
    rows = []
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=1, max_value=3))
        rows += [(f"t{t}e{i}", None if i == 0 else f"t{t}e{draw(st.integers(0, i - 1))}") for i in range(size)]
    script = st.lists(st.sampled_from(REPLY_KINDS), min_size=2 * rounds, max_size=2 * rounds)
    scripts = {event: draw(script) for event, _ in rows}
    return rows, scripts, draw(st.integers(min_value=1, max_value=3))


def _forest(rows, with_definitions: bool):
    return make_dataset([(event, parent, [f"{event} seed"] if with_definitions else [], []) for event, parent in rows])


def _state(dataset):
    return [(n.name, n.definitions, n.samples) for n in dataset.iter_nodes()]


@given(forest_and_scripts())
@settings(max_examples=60, deadline=None)
def test_curate_definitions_matches_the_old_loop(case):
    rows, scripts, _ = case
    old, new = _forest(rows, False), _forest(rows, False)
    old_backend, new_backend = UnitScriptedBackend(scripts, 1), UnitScriptedBackend(scripts, 1)
    _, expected = oracle_curate_definitions(old.trees, old_backend)
    report = curate_definitions_for_trees(new.trees, new_backend)
    assert _state(new) == _state(old)
    assert (report.requested, report.parsed, report.dropped_invalid) == (
        expected.requested, expected.parsed, expected.dropped_invalid)
    assert sorted(report.failures) == sorted(expected.failures)
    assert new_backend.calls == old_backend.calls


@given(forest_and_scripts())
@settings(max_examples=60, deadline=None)
def test_curate_samples_matches_the_old_loop(case):
    rows, scripts, per_event = case
    old, new = _forest(rows, True), _forest(rows, True)
    old_backend, new_backend = UnitScriptedBackend(scripts, per_event), UnitScriptedBackend(scripts, per_event)
    _, expected = oracle_curate_samples(old.trees, old_backend, per_event)
    report = curate_samples_for_trees(new.trees, new_backend, per_event=per_event)
    assert _state(new) == _state(old)
    assert (report.requested, report.parsed, report.dropped_invalid) == (
        expected.requested, expected.parsed, expected.dropped_invalid)
    assert sorted(report.failures) == sorted(expected.failures)
    assert new_backend.calls == old_backend.calls


@given(forest_and_scripts())
@settings(max_examples=60, deadline=None)
def test_expand_definitions_matches_the_old_loop(case):
    rows, scripts, count = case
    old, new = _forest(rows, True), _forest(rows, True)
    old_backend, new_backend = UnitScriptedBackend(scripts, count), UnitScriptedBackend(scripts, count)
    expected_added, expected_failures = oracle_expand_definitions(list(old.iter_nodes()), old_backend, count)
    report = expand_definitions_for_nodes(list(new.iter_nodes()), new_backend, count=count)
    assert _state(new) == _state(old)
    assert report.parsed == sum(len(added) for added in expected_added.values())
    assert sorted(report.failures) == sorted(expected_failures)
    assert new_backend.calls == old_backend.calls


@given(st.integers(min_value=0, max_value=2).flatmap(lambda k: st.tuples(st.just(k), forest_and_scripts(1 + k))))
@settings(max_examples=40, deadline=None)
def test_curate_samples_regenerate_matches_the_old_cli_loop(case):
    regenerate, (rows, scripts, per_event) = case
    old = _forest(rows, True)
    old_backend, new_backend = UnitScriptedBackend(scripts, per_event), UnitScriptedBackend(scripts, per_event)
    dropped_invalid, failures = oracle_regenerate(old, old_backend, per_event, regenerate)

    logged: list[str] = []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    cli_logger = logging.getLogger("dived.cli")
    cli_logger.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            dataset, out = Path(tmp) / "defs.jsonl", Path(tmp) / "samples.jsonl"
            write_dataset(_forest(rows, True), dataset)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_backend", lambda resolved: new_backend)
                code = cli.main(["curate-samples", "--dataset", str(dataset), "--per-event", str(per_event),
                                 "--regenerate", str(regenerate), "--out", str(out)])
            new = read_dataset(out)
            counts = json.loads(cli.manifest_path(out).read_text(encoding="utf-8"))["counts"]
    finally:
        cli_logger.removeHandler(handler)

    assert _state(new) == _state(old)
    assert counts == {"events": len(rows), "samples": sum(len(n.samples) for n in old.iter_nodes()),
                      "dropped_invalid": dropped_invalid, "failures": len(failures)}
    assert sorted(logged) == sorted(f"curation failure: {event}: {reason}" for event, reason in failures)
    assert code == (2 if failures else 0)
    assert new_backend.calls == old_backend.calls

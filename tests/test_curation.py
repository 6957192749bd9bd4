from __future__ import annotations

import json
import logging
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dived import cli
from dived.curation import (
    CurationReport,
    GeneratedSample,
    InvalidSampleError,
    _SampleStats,
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
from dived.jsonl import JsonlError
from dived.llm_client import (
    Backend,
    GenFailure,
    MockBackend,
    PermanentBackendError,
    TemplateId,
    complete_batch,
)
from dived.ontology import build_ontology, load_ontology, save_ontology
from dived.pruning import prune_dataset

from conftest import ScriptedBackend, make_dataset, make_sample


def small_tree():
    ont = build_ontology([("conflict", None, None), ("attack", "conflict", None), ("protest", "conflict", None)])
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
    report = expand_definitions_for_nodes([node], backend, count=count, max_in_flight=1)
    assert report.parsed == len(node.definitions) - before
    return node.definitions[before:], report


# ---------------------------------------------------------------------------
# GeneratedSample invariants
# ---------------------------------------------------------------------------


def test_sample_invariants_enforced_at_construction():
    GeneratedSample(event_name="attack", sentence="Rebels bombed the base.", trigger="bombed")
    with pytest.raises(InvalidSampleError):
        GeneratedSample(event_name="attack", sentence="Rebels bombed the base.", trigger="invaded")
    with pytest.raises(InvalidSampleError):
        GeneratedSample(event_name="attack", sentence="Line one.\nLine two.", trigger="Line")
    with pytest.raises(InvalidSampleError):
        GeneratedSample(event_name="attack", sentence="", trigger="x")
    with pytest.raises(TypeError):  # a sample has no origin field
        GeneratedSample(event_name="attack", sentence="ok trigger here", trigger="trigger", origin="generated")


# ---------------------------------------------------------------------------
# definition curation
# ---------------------------------------------------------------------------


def test_curate_definitions_with_mock():
    tree = small_tree()
    report = curate_definitions_for_trees([tree], MockBackend(seed=5), max_in_flight=1)
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
    report = curate_definitions_for_trees([tree], backend, max_in_flight=1)
    defs = definitions_of(tree)
    assert backend.calls == 2
    assert sorted(defs) == ["attack", "conflict"]
    assert report.parsed == 2
    assert report.failures == [("protest", "no definition line in response (after retry)")]
    assert report.requested == report.parsed + report.dropped_invalid + len(report.failures)


def test_curate_definitions_deterministic_with_mock():
    one, two = small_tree(), small_tree()
    curate_definitions_for_trees([one], MockBackend(seed=13), max_in_flight=1)
    curate_definitions_for_trees([two], MockBackend(seed=13), max_in_flight=1)
    assert definitions_of(one) == definitions_of(two)


# ---------------------------------------------------------------------------
# sample curation
# ---------------------------------------------------------------------------


def test_curate_samples_with_mock():
    tree = tree_with_defs()
    report = curate_samples_for_trees([tree], MockBackend(seed=5), per_event=10, max_in_flight=1)
    samples = samples_of(tree)
    assert len(samples) == 30
    assert report.requested == 30 and report.parsed == 30 and report.dropped_invalid == 0
    # grouped by event in node (pre-order) order
    assert [s.event_name for s in samples] == ["conflict"] * 10 + ["attack"] * 10 + ["protest"] * 10
    assert all(s.trigger in s.sentence for s in samples)


def test_curate_samples_requires_definitions():
    with pytest.raises(ValueError):
        curate_samples_for_trees([small_tree()], MockBackend(seed=0))


def test_curate_samples_rejects_nonpositive_per_event():
    with pytest.raises(ValueError):
        curate_samples_for_trees([tree_with_defs()], MockBackend(seed=0), per_event=0)


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
    report = curate_samples_for_trees([tree], backend, per_event=1, max_in_flight=1)
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
    report = curate_samples_for_trees([tree], backend, per_event=2, max_in_flight=1)
    samples = samples_of(tree)
    assert len(samples) == 1
    assert report.requested == 6
    shortfall_events = {event for event, _ in report.failures}
    assert shortfall_events == {"conflict", "attack", "protest"}


def test_curate_samples_deterministic_with_mock():
    one, two = tree_with_defs(), tree_with_defs()
    curate_samples_for_trees([one], MockBackend(seed=21), per_event=5, max_in_flight=1)
    curate_samples_for_trees([two], MockBackend(seed=21), per_event=5, max_in_flight=1)
    assert samples_of(one) == samples_of(two)


def test_regenerate_rounds_stop_once_every_event_is_full():
    """Rounds after the one that fills every event request nothing, so they
    are not run: ten million of them cost what none do."""
    full, plain = tree_with_defs(), tree_with_defs()
    curate_samples_for_trees([plain], MockBackend(seed=21), per_event=5, max_in_flight=1)
    start = time.perf_counter()
    report = curate_samples_for_trees([full], MockBackend(seed=21), per_event=5, max_in_flight=1, regenerate=10**7)
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


# ---------------------------------------------------------------------------
# parsers tolerate prose, stay strict on record lines
# ---------------------------------------------------------------------------


def test_parse_definitions_ignores_prose_and_unknown_events():
    text = "Sure! Here you go:\nattack\tdefinition: a def\nzebra\tdefinition: not requested\nnonsense line"
    assert parse_definitions(text, ["attack", "protest"]) == {"attack": "a def"}


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
    stats = parse_samples(text, ["attack"], per_event=10)
    attributed_lines = sum(1 for ln in text.splitlines() if "\tsentence: " in ln or "\ttrigger: " in ln)
    assert len(stats["attack"].samples) + stats["attack"].dropped <= attributed_lines
    assert len(stats["attack"].samples) == 1
    assert stats["attack"].dropped == 1


def test_parse_samples_ignores_orphan_lines():
    text = "\n".join(
        [
            "attack\ttrigger: bombed",  # trigger before any sentence -> orphan
            "attack\tsentence: Rebels bombed the base.",
            "attack\tsentence: Soldiers raided the camp.",  # overwrites pending sentence
            "attack\ttrigger: raided",
        ]
    )
    stats = parse_samples(text, ["attack"], per_event=5)
    assert len(stats["attack"].samples) == 1
    assert stats["attack"].samples[0].trigger == "raided"


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
    assert reread.names() == ["movement", "conflict", "attack"]
    assert _content(reread)[1:] == _content(_dataset())


def test_read_dataset_strips_the_event_name_of_its_samples_too(tmp_path):
    path = tmp_path / "dataset.jsonl"
    path.write_text('{"event": " e2", "parent": null, "children": [], "definitions": [" e2 def"],'
                    ' "samples": [{"sentence": "The  e2 crew run at dawn.", "trigger": "run"}]}\n', encoding="utf-8")
    node = read_dataset(path).get("e2")
    assert node.name == "e2" and [s.event_name for s in node.samples] == ["e2"]


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


def test_deep_chain_loads_renders_round_trips_and_prunes(tmp_path):
    depth = 1500
    names = [f"e{i}" for i in range(depth)]
    chain = build_ontology([(name, names[i - 1] if i else None, None) for i, name in enumerate(names)])
    ontology_path = tmp_path / "chain.jsonl"
    save_ontology(chain, ontology_path)
    loaded = load_ontology(ontology_path)
    assert loaded.names() == names

    block = tree_block(loaded.trees[0]).split("\n")
    assert len(block) == depth
    assert block[-1] == "  " * (depth - 1) + names[-1]

    dataset = make_dataset([
        (name, names[i - 1] if i else None, [f"{name} def"], [make_sample(name, 0)]) for i, name in enumerate(names)
    ])
    path = tmp_path / "chain_dataset.jsonl"
    write_dataset(dataset, path)
    reread = read_dataset(path)
    assert _content(reread) == _content(dataset)

    pruned, audits = prune_dataset(reread)
    assert audits == []
    assert pruned.names() == names


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
    report = curate_definitions_for_trees([tree], backend, max_in_flight=1)
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
    report = curate_samples_for_trees([tree], backend, per_event=2, max_in_flight=1)
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
# one in the CLI), kept here as the reference for the shared loop.


def oracle_curate_definitions(trees, backend, max_in_flight=4, retry_limit=3):
    report = CurationReport(requested=sum(len(list(t.iter_preorder())) for t in trees))
    requests = [definition_request(t) for t in trees]
    results = complete_batch(requests, backend, max_in_flight, retry_limit=retry_limit)
    found: dict[str, str] = {}
    retry_idx: list[int] = []
    for i, (tree, result) in enumerate(zip(trees, results)):
        names = [n.name for n in tree.iter_preorder()]
        if isinstance(result, GenFailure):
            report.failures.extend((name, f"backend failure: {result.error}") for name in names)
            continue
        found.update(parse_definitions(result.text, names))
        if any(name not in found for name in names):
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit)
        for i, result in zip(retry_idx, retry_results):
            names = [n.name for n in trees[i].iter_preorder()]
            if isinstance(result, GenFailure):
                continue
            for name, definition in parse_definitions(result.text, names).items():
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


def oracle_curate_samples(trees, backend, per_event=10, max_in_flight=4, retry_limit=3):
    all_nodes = [node for tree in trees for node in tree.iter_preorder()]
    report = CurationReport(requested=per_event * len(all_nodes))
    requests = [sample_request(t, per_event) for t in trees]
    results = complete_batch(requests, backend, max_in_flight, retry_limit=retry_limit)
    stats = {}
    failed_events: set[str] = set()
    retry_idx: list[int] = []
    for i, (tree, result) in enumerate(zip(trees, results)):
        names = [n.name for n in tree.iter_preorder()]
        if isinstance(result, GenFailure):
            report.failures.extend((name, f"backend failure: {result.error}") for name in names)
            failed_events.update(names)
            stats.update({name: _SampleStats() for name in names})
            continue
        tree_stats = parse_samples(result.text, names, per_event)
        stats.update(tree_stats)
        if any(len(st.samples) < per_event for st in tree_stats.values()):
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit)
        for i, result in zip(retry_idx, retry_results):
            if isinstance(result, GenFailure):
                continue
            names = [n.name for n in trees[i].iter_preorder()]
            retry_stats = parse_samples(result.text, names, per_event)
            for name in names:
                if len(retry_stats[name].samples) > len(stats[name].samples):
                    stats[name] = retry_stats[name]
    samples = []
    for node in all_nodes:
        st = stats[node.name]
        node.samples = list(st.samples)
        samples.extend(st.samples)
        report.parsed += len(st.samples)
        report.dropped_invalid += st.dropped
        if per_event - st.pairs > 0 and node.name not in failed_events:
            report.failures.append((node.name, f"response contained {st.pairs} of {per_event} sample records"))
    return samples, report


def oracle_regenerate(dataset, backend, per_event, regenerate, max_in_flight=4, retry_limit=3):
    """``curate-samples --regenerate``: returns (dropped_invalid, failures)."""
    _, report = oracle_curate_samples(dataset.trees, backend, per_event, max_in_flight, retry_limit)
    dropped_invalid = report.dropped_invalid
    failures = dict(report.failures)
    for _ in range(regenerate):
        trees = [t for t in dataset.trees if any(len(n.samples) < per_event for n in t.iter_preorder())]
        if not trees:
            break
        before = {node: node.samples for tree in trees for node in tree.iter_preorder()}
        _, report = oracle_curate_samples(trees, backend, per_event, max_in_flight, retry_limit)
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


def oracle_expand_definitions(nodes, backend, count=10, max_in_flight=4, retry_limit=3):
    """Returns (added, failures)."""
    failures = []
    requests = [expansion_request(n, count) for n in nodes]
    results = complete_batch(requests, backend, max_in_flight, retry_limit=retry_limit)
    texts: dict[str, str | None] = {}
    retry_idx: list[int] = []
    for i, (node, result) in enumerate(zip(nodes, results)):
        if isinstance(result, GenFailure):
            failures.append((node.name, f"backend failure: {result.error}"))
            texts[node.name] = None
            continue
        texts[node.name] = result.text
        if len(parse_paraphrases(result.text, node.name)) < count:
            retry_idx.append(i)
    if retry_idx:
        retry_results = complete_batch([requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit)
        for i, result in zip(retry_idx, retry_results):
            node = nodes[i]
            if isinstance(result, GenFailure):
                continue
            old = texts[node.name]
            if old is None or len(parse_paraphrases(result.text, node.name)) > len(parse_paraphrases(old, node.name)):
                texts[node.name] = result.text
    added = {}
    for node in nodes:
        text = texts.get(node.name)
        new: list[str] = []
        if text is not None:
            existing = {d.strip() for d in node.definitions}
            for para in parse_paraphrases(text, node.name)[:count]:
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
    call number, which does not depend on thread timing either."""

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
    _, expected = oracle_curate_definitions(old.trees, old_backend, max_in_flight=2)
    report = curate_definitions_for_trees(new.trees, new_backend, max_in_flight=2)
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
    _, expected = oracle_curate_samples(old.trees, old_backend, per_event, max_in_flight=2)
    report = curate_samples_for_trees(new.trees, new_backend, per_event=per_event, max_in_flight=2)
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
    expected_added, expected_failures = oracle_expand_definitions(list(old.iter_nodes()), old_backend, count, 2)
    report = expand_definitions_for_nodes(list(new.iter_nodes()), new_backend, count=count, max_in_flight=2)
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
    dropped_invalid, failures = oracle_regenerate(old, old_backend, per_event, regenerate, max_in_flight=2)

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
                                 "--regenerate", str(regenerate), "--max-in-flight", "2", "--out", str(out)])
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

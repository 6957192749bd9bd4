from __future__ import annotations

import pytest

from dived.curation import (
    GeneratedSample,
    InvalidSampleError,
    curate_definitions,
    curate_samples,
    expand_definitions,
    parse_definitions,
    parse_samples,
    read_dataset,
    tree_block,
    write_dataset,
)
from dived.jsonl import JsonlError
from dived.llm_client import MockBackend
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
    with pytest.raises(InvalidSampleError):
        GeneratedSample(event_name="attack", sentence="ok trigger here", trigger="trigger", origin="weird")


# ---------------------------------------------------------------------------
# definition curation
# ---------------------------------------------------------------------------


def test_curate_definitions_with_mock():
    tree = small_tree()
    defs, report = curate_definitions(tree, MockBackend(seed=5))
    assert sorted(defs) == ["attack", "conflict", "protest"]
    assert all(defs[name] for name in defs)
    assert report.requested == 3 and report.parsed == 3 and not report.failures
    for node in tree.iter_preorder():
        assert node.definitions[0] == defs[node.name]


def test_curate_definitions_empty_tree_rejected():
    with pytest.raises(ValueError):
        curate_definitions(None, MockBackend(seed=0))


def test_curate_definitions_missing_line_recorded_after_retry():
    response = "conflict\tdefinition: root def\nattack\tdefinition: attack def"
    backend = ScriptedBackend([response, response])  # primary + one retry with same prompt
    defs, report = curate_definitions(small_tree(), backend)
    assert backend.calls == 2
    assert sorted(defs) == ["attack", "conflict"]
    assert report.parsed == 2
    assert report.failures == [("protest", "no definition line in response (after retry)")]
    assert report.requested == report.parsed + report.dropped_invalid + len(report.failures)


def test_curate_definitions_deterministic_with_mock():
    one, _ = curate_definitions(small_tree(), MockBackend(seed=13))
    two, _ = curate_definitions(small_tree(), MockBackend(seed=13))
    assert one == two


# ---------------------------------------------------------------------------
# sample curation
# ---------------------------------------------------------------------------


def test_curate_samples_with_mock():
    tree = tree_with_defs()
    samples, report = curate_samples(tree, MockBackend(seed=5), per_event=10)
    assert len(samples) == 30
    assert report.requested == 30 and report.parsed == 30 and report.dropped_invalid == 0
    # grouped by event in node (pre-order) order
    assert [s.event_name for s in samples] == ["conflict"] * 10 + ["attack"] * 10 + ["protest"] * 10
    assert all(s.trigger in s.sentence for s in samples)


def test_curate_samples_requires_definitions():
    with pytest.raises(ValueError):
        curate_samples(small_tree(), MockBackend(seed=0))


def test_curate_samples_rejects_nonpositive_per_event():
    with pytest.raises(ValueError):
        curate_samples(tree_with_defs(), MockBackend(seed=0), per_event=0)


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
    samples, report = curate_samples(tree_with_defs(), backend, per_event=1)
    assert len(samples) == 2
    assert report.parsed == 2
    assert report.dropped_invalid == 1
    assert report.missing == 0
    assert report.failures == []


def test_curate_samples_shortfall_recorded():
    response = "conflict\tsentence: The war escalated.\nconflict\ttrigger: escalated"
    backend = ScriptedBackend([response, response])
    samples, report = curate_samples(tree_with_defs(), backend, per_event=2)
    assert len(samples) == 1
    assert report.requested == 6
    shortfall_events = {event for event, _ in report.failures}
    assert shortfall_events == {"conflict", "attack", "protest"}


def test_curate_samples_deterministic_with_mock():
    one, _ = curate_samples(tree_with_defs(), MockBackend(seed=21), per_event=5)
    two, _ = curate_samples(tree_with_defs(), MockBackend(seed=21), per_event=5)
    assert one == two


# ---------------------------------------------------------------------------
# definition expansion
# ---------------------------------------------------------------------------


def test_expand_definitions_with_mock():
    tree = tree_with_defs()
    node = tree.children[0]
    added = expand_definitions(node, MockBackend(seed=5), count=10)
    assert len(added) == 10
    assert len(node.definitions) == 11
    assert len(set(d.strip() for d in node.definitions)) == 11


def test_expand_definitions_dedups_verbatim_repeats():
    tree = tree_with_defs()
    node = tree.children[0]
    seed_def = node.definitions[0]
    response = "\n".join([f"attack\tparaphrase: {seed_def}"] * 10)
    backend = ScriptedBackend([response, response])
    added = expand_definitions(node, backend, count=10)
    assert added == []
    assert node.definitions == [seed_def]


def test_expand_definitions_count_bound():
    tree = tree_with_defs()
    node = tree.children[1]
    added = expand_definitions(node, MockBackend(seed=5), count=1)
    assert len(added) <= 1
    assert len(node.definitions) <= 2


def test_expand_definitions_requires_seed_definition():
    with pytest.raises(ValueError):
        expand_definitions(small_tree(), MockBackend(seed=0), count=2)


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

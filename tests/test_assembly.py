from __future__ import annotations

from collections import defaultdict

import pytest

from dived.assembly import (
    InsufficientDataError,
    NoNegativeCandidatesError,
    OntologyContext,
    SliceSpec,
    TrainingInstance,
    assemble,
    count_kinds,
    read_jsonl,
    render_instance,
    write_jsonl,
)
from dived.curation import GeneratedSample
from dived.jsonl import JsonlError
from dived.llm_client import MissingPlaceholderError
from dived.ontology import build_ontology, siblings

from conftest import grid_dataset, make_dataset, make_sample


def small_dataset():
    """One tree: root A with children B and C; plenty of defs and samples."""
    return make_dataset([
        (event, parent, [f"{event} def {i}" for i in range(3)], [make_sample(event, i) for i in range(4)])
        for event, parent in (("A", None), ("B", "A"), ("C", "A"))
    ])


def group_by_positive(instances):
    groups = defaultdict(list)
    for inst in instances:
        prefix = inst.instance_id.rsplit("|", 1)[0]
        groups[prefix].append(inst)
    return groups


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_counts_match_spec_example():
    dataset = small_dataset()
    spec = SliceSpec(n_events=2, n_definitions=1, n_samples=2, n_negatives=1, n_hard_negatives=0, seed=7)
    instances = assemble(dataset, spec)
    assert len(instances) == 8
    counts = count_kinds(instances)
    assert counts["positive"] == 4
    assert counts["negative"] == 4
    assert counts["hard_negative"] == 0


def test_output_order_event_sample_negative_index():
    dataset = small_dataset()
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=2, n_negatives=2, seed=1)
    instances = assemble(dataset, spec)
    ids = [inst.instance_id for inst in instances]
    expected = []
    for event in ("A", "B", "C"):
        for si in range(2):
            expected.extend([f"{event}|s{si}|p", f"{event}|s{si}|n0", f"{event}|s{si}|n1"])
    assert ids == expected


def test_hard_negatives_are_siblings_exact_count():
    dataset = grid_dataset(n_trees=4, children_per_tree=10)
    spec = SliceSpec(n_events=4, n_definitions=2, n_samples=2, n_negatives=10, n_hard_negatives=3, seed=3)
    instances = assemble(dataset, spec)
    counts = count_kinds(instances)
    assert counts["positive"] == 8
    assert counts["hard_negative"] == 8 * 3
    assert counts["negative"] == 8 * 7

    sibling_names = {
        event: {s.name for s in siblings(dataset, event)} for event in {n.name for n in dataset.iter_nodes() if n.samples}
    }
    for prefix, group in group_by_positive(instances).items():
        gold = group[0]
        assert gold.kind == "positive"
        hard = [i for i in group[1:] if i.kind == "hard_negative"]
        plain = [i for i in group[1:] if i.kind == "negative"]
        assert len(hard) == 3 and len(plain) == 7
        # brute-force sibling relation check against the ontology
        for inst in hard:
            assert inst.event_name in sibling_names[gold.event_name]
        for inst in plain:
            assert inst.event_name not in sibling_names[gold.event_name]
        # negatives reuse the positive's sentence with target None
        for inst in group[1:]:
            assert inst.sentence == gold.sentence
            assert inst.target == "None"
        # no event repeated within one positive's negatives
        names = [i.event_name for i in group[1:]]
        assert len(names) == len(set(names))


def test_sibling_fallback_fills_with_plain_negatives():
    dataset = small_dataset()
    # B has exactly one sibling (C); asking for 2 hard negatives forces fallback
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=1, n_negatives=2, n_hard_negatives=2, seed=5)
    instances = assemble(dataset, spec)
    for prefix, group in group_by_positive(instances).items():
        assert len(group) == 3  # positive + 2 negatives
        hard = [i for i in group if i.kind == "hard_negative"]
        gold = group[0].event_name
        sib_names = {s.name for s in siblings(dataset, gold)}
        assert all(i.event_name in sib_names for i in hard)
        assert len(hard) == min(2, len(sib_names))


def test_negative_candidates_exclude_events_containing_sentence():
    shared = "Something common happened here today."
    dataset = make_dataset([
        ("A", None, ["dA"], [GeneratedSample("A", shared, "common")]),
        ("B", None, ["dB"], [GeneratedSample("B", shared, "happened")]),
        ("C", None, ["dC"], [make_sample("C", 0)]),
    ])
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=1, n_negatives=1, seed=2)
    instances = assemble(dataset, spec)
    for prefix, group in group_by_positive(instances).items():
        gold = group[0]
        for negative in group[1:]:
            if gold.sentence == shared:
                assert negative.event_name == "C"


def test_no_negative_candidates_error():
    dataset = make_dataset([("solo", None, ["d"], [make_sample("solo", 0)])])
    with pytest.raises(NoNegativeCandidatesError):
        assemble(dataset, SliceSpec(n_events=1, n_definitions=1, n_samples=1, n_negatives=1, seed=0))


@pytest.mark.parametrize(
    "spec_kwargs, message_bit",
    [
        (dict(n_events=4, n_definitions=1, n_samples=1), "events"),
        (dict(n_events=3, n_definitions=9, n_samples=1), "definitions"),
        (dict(n_events=3, n_definitions=1, n_samples=9), "samples"),
    ],
)
def test_insufficient_errors_name_the_shortfall(spec_kwargs, message_bit):
    dataset = small_dataset()
    with pytest.raises(InsufficientDataError) as err:
        assemble(dataset, SliceSpec(seed=0, **spec_kwargs))
    assert message_bit in str(err.value)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(n_events=0, n_definitions=1, n_samples=1)
    with pytest.raises(ValueError):
        SliceSpec(n_events=1, n_definitions=1, n_samples=1, n_negatives=2, n_hard_negatives=3)


# ---------------------------------------------------------------------------
# definitions: round-robin assignment, scaling invariance
# ---------------------------------------------------------------------------


def test_definitions_assigned_round_robin():
    dataset = grid_dataset(n_trees=1, children_per_tree=4, n_definitions=10, n_samples=6)
    spec = SliceSpec(n_events=4, n_definitions=3, n_samples=6, n_negatives=0, seed=11)
    instances = assemble(dataset, spec)
    by_event = defaultdict(list)
    for inst in instances:
        by_event[inst.event_name].append(inst.definition)
    for event, defs in by_event.items():
        assert len(set(defs[:3])) == 3  # three distinct definitions in rotation
        assert defs[3:] == defs[: len(defs) - 3]  # repeats with period 3


def test_definition_count_never_changes_instance_count():
    dataset = grid_dataset(n_trees=2, children_per_tree=5)
    base = None
    for n_defs in (1, 2, 4, 8, 10):
        spec = SliceSpec(n_events=5, n_definitions=n_defs, n_samples=4, n_negatives=5, n_hard_negatives=2, seed=9)
        instances = assemble(dataset, spec)
        if base is None:
            base = len(instances)
        assert len(instances) == base


# ---------------------------------------------------------------------------
# ablation and ontology context
# ---------------------------------------------------------------------------


def test_ablation_differs_only_in_definition_field():
    dataset = grid_dataset(n_trees=2, children_per_tree=4)
    kwargs = dict(n_events=4, n_definitions=3, n_samples=3, n_negatives=4, n_hard_negatives=2, seed=13)
    with_def = assemble(dataset, SliceSpec(with_definition=True, **kwargs))
    without_def = assemble(dataset, SliceSpec(with_definition=False, **kwargs))
    assert len(with_def) == len(without_def)
    for a, b in zip(with_def, without_def):
        assert b.definition == ""
        assert a.definition != "" or a.kind != "positive"
        assert (a.instance_id, a.event_name, a.ontology_context, a.sentence, a.target, a.kind) == (
            b.instance_id, b.event_name, b.ontology_context, b.sentence, b.target, b.kind,
        )


def test_with_ontology_attaches_parent_and_children():
    dataset = small_dataset()
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=1, n_negatives=0, with_ontology=True, seed=1)
    instances = assemble(dataset, spec)
    ctx = {inst.event_name: inst.ontology_context for inst in instances}
    assert ctx["A"] == OntologyContext(parent=None, children=("B", "C"))
    assert ctx["B"] == OntologyContext(parent="A", children=())


def test_events_without_samples_are_context_only():
    # grid roots carry no samples: never drawn, but still named as parents
    dataset = grid_dataset(n_trees=2, children_per_tree=3)
    spec = SliceSpec(n_events=6, n_definitions=1, n_samples=2, n_negatives=5, n_hard_negatives=2,
                     with_ontology=True, seed=4)
    instances = assemble(dataset, spec)
    assert not any(inst.event_name.startswith("root") for inst in instances)
    assert {inst.ontology_context.parent for inst in instances} == {"root0", "root1"}
    with pytest.raises(InsufficientDataError):
        assemble(dataset, SliceSpec(n_events=7, n_definitions=1, n_samples=1, seed=0))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_same_spec_same_bytes(tmp_path):
    dataset = grid_dataset(n_trees=2, children_per_tree=5)
    spec = SliceSpec(n_events=6, n_definitions=4, n_samples=5, n_negatives=6, n_hard_negatives=3, seed=42)
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(assemble(dataset, spec), first)
    write_jsonl(assemble(dataset, spec), second)
    assert first.read_bytes() == second.read_bytes()


def test_ten_thousand_instances_write_deterministically(tmp_path):
    dataset = grid_dataset(n_trees=2, children_per_tree=10, n_definitions=2, n_samples=50)
    spec = SliceSpec(n_events=20, n_definitions=2, n_samples=50, n_negatives=10, seed=8)
    instances = assemble(dataset, spec)
    assert len(instances) == 20 * 50 * 11
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(instances, first)
    write_jsonl(instances, second)
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# render_instance
# ---------------------------------------------------------------------------


def _positive():
    return TrainingInstance(
        instance_id="A|s0|p", event_name="A", definition="A def",
        ontology_context=OntologyContext(parent=None, children=("B",)),
        sentence="The crew Atrig0 at dawn.", target="Atrig0", kind="positive",
    )


def test_render_positive_completion_is_trigger():
    prompt, completion = render_instance(_positive())
    assert completion == "Atrig0"
    assert "Event type: A" in prompt
    assert "Definition: A def" in prompt
    assert "Ontology: parent event: none; child events: B" in prompt
    assert "Sentence: The crew Atrig0 at dawn." in prompt


def test_render_negative_completion_is_none():
    inst = TrainingInstance(
        instance_id="A|s0|n0", event_name="B", definition="B def", ontology_context=None,
        sentence="The crew Atrig0 at dawn.", target="None", kind="negative",
    )
    prompt, completion = render_instance(inst)
    assert completion == "None"


def test_render_ablated_has_no_definition_block():
    inst = TrainingInstance(
        instance_id="A|s0|p", event_name="A", definition="", ontology_context=None,
        sentence="The crew Atrig0 at dawn.", target="Atrig0", kind="positive",
    )
    prompt, _ = render_instance(inst)
    assert "Definition:" not in prompt


def test_render_missing_placeholder_error():
    with pytest.raises(MissingPlaceholderError):
        render_instance(_positive(), template="Event: {event}\nSentence: {sentence}\n")


# ---------------------------------------------------------------------------
# instance JSONL round-trip and schema enforcement
# ---------------------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    dataset = small_dataset()
    spec = SliceSpec(n_events=2, n_definitions=1, n_samples=2, n_negatives=1, with_ontology=True, seed=7)
    instances = assemble(dataset, spec)
    path = tmp_path / "instances.jsonl"
    write_jsonl(instances, path)
    loaded = read_jsonl(path)
    assert loaded == instances
    second = tmp_path / "instances2.jsonl"
    write_jsonl(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_read_rejects_kind_target_mismatch_with_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = (
        '{"instance_id": "A|s0|p", "event_name": "A", "definition": "d", "ontology_context": null,'
        ' "sentence": "trigger here", "target": "trigger", "kind": "positive"}\n'
    )
    bad = (
        '{"instance_id": "A|s0|n0", "event_name": "B", "definition": "d", "ontology_context": null,'
        ' "sentence": "trigger here", "target": "trigger", "kind": "negative"}\n'
    )
    path.write_text(good + bad, encoding="utf-8")
    with pytest.raises(JsonlError) as err:
        read_jsonl(path)
    assert err.value.line == 2


def test_instance_invariants_at_construction():
    with pytest.raises(ValueError):
        TrainingInstance(instance_id="x", event_name="A", definition="", ontology_context=None,
                         sentence="no match", target="ghost", kind="positive")
    with pytest.raises(ValueError):
        TrainingInstance(instance_id="x", event_name="A", definition="", ontology_context=None,
                         sentence="s", target="None", kind="positive")
    with pytest.raises(ValueError):
        TrainingInstance(instance_id="x", event_name="A", definition="", ontology_context=None,
                         sentence="s", target="s", kind="negative")
    with pytest.raises(ValueError):
        TrainingInstance(instance_id="x", event_name="A", definition="", ontology_context=None,
                         sentence="s", target="None", kind="bogus")

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dived import cli
from dived.assembly import (
    AssemblyError,
    InsufficientDataError,
    NoNegativeCandidatesError,
    OntologyContext,
    SliceSpec,
    TrainingInstance,
    assemble,
    iter_instances,
    read_jsonl,
    render_instance,
    write_jsonl,
    write_slice,
)
from dived.assembly import _cousin_pool, _rng
from dived.curation import GeneratedSample, read_dataset, write_dataset
from dived.jsonl import JsonlError
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
    counts = Counter(inst.kind for inst in instances)
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
    counts = Counter(inst.kind for inst in instances)
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


def test_sibling_fallback_fills_with_plain_negatives(tmp_path, caplog):
    dataset = small_dataset()
    # B has exactly one sibling (C); asking for 2 hard negatives forces fallback
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=1, n_negatives=2, n_hard_negatives=2, seed=5)
    with caplog.at_level("INFO", logger="dived.assembly"):
        instances = assemble(dataset, spec)
        write_slice(dataset, spec, tmp_path / "instances.jsonl")
    # one line per slice, from either writer: A has no sibling, B and C one each
    message = "hard-negative fallback used for 4 slots (not enough siblings)"
    assert [r.getMessage() for r in caplog.records] == [message, message]
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
        ("A", None, ["dA"], [GeneratedSample(shared, "common")]),
        ("B", None, ["dB"], [GeneratedSample(shared, "happened")]),
        ("C", None, ["dC"], [make_sample("C", 0)]),
    ])
    spec = SliceSpec(n_events=3, n_definitions=1, n_samples=1, n_negatives=1, seed=2)
    instances = assemble(dataset, spec)
    for prefix, group in group_by_positive(instances).items():
        gold = group[0]
        for negative in group[1:]:
            if gold.sentence == shared:
                assert negative.event_name == "C"


def test_sentence_listed_twice_and_shared_by_two_events(tmp_path):
    """``A`` lists one sentence twice and shares it with its sibling ``B``:
    no negative for that sentence is ``A`` or ``B``, and the bytes are pinned."""
    shared = "Something common happened here today."
    dataset = make_dataset([
        ("R", None, ["dR"], [make_sample("R", i) for i in range(3)]),
        ("A", "R", ["dA0", "dA1"], [GeneratedSample(shared, "common"), make_sample("A", 1),
                                   GeneratedSample(shared, "happened")]),
        ("B", "R", ["dB0", "dB1"], [make_sample("B", 0), GeneratedSample(shared, "Something"),
                                   make_sample("B", 2)]),
        ("C", "R", ["dC"], [make_sample("C", i) for i in range(3)]),
        ("D", "R", ["dD"], [make_sample("D", i) for i in range(3)]),
        ("E", None, ["dE"], [make_sample("E", i) for i in range(3)]),
        ("F", "E", ["dF"], [make_sample("F", i) for i in range(3)]),
    ])
    spec = SliceSpec(n_events=7, n_definitions=1, n_samples=3, n_negatives=4, n_hard_negatives=2,
                     with_ontology=True, seed=5)
    instances = assemble(dataset, spec)
    groups = [group for group in group_by_positive(instances).values() if group[0].sentence == shared]
    assert sorted(group[0].event_name for group in groups) == ["A", "A", "B"]
    for group in groups:
        assert len(group) == 5 and not {neg.event_name for neg in group[1:]} & {"A", "B"}
    write_jsonl(iter_instances(dataset, spec), tmp_path / "slice.jsonl")
    digest = hashlib.sha256((tmp_path / "slice.jsonl").read_bytes()).hexdigest()
    assert digest == "9984ba8de07c51625629987c14e6295b42d9be5c42781388e7b2f8af2d07d893"


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


def _rows(instances):
    return {(i.instance_id, i.event_name, i.definition, i.sentence, i.kind) for i in instances}


@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 8), st.integers(1, 5), st.integers(1, 6)),
    axis=st.sampled_from(["n_events", "n_definitions", "n_samples"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_smaller_slices_nest_in_larger_ones(shape, axis, data):
    """Growing one axis keeps every row of the smaller slice unchanged; along
    the definition axis each event's definitions in use only gain members."""
    n_trees, children, n_definitions, n_samples = shape
    dataset = grid_dataset(n_trees, children, n_definitions, n_samples)
    limits = {"n_events": n_trees * children, "n_definitions": n_definitions, "n_samples": n_samples}
    spec = {name: data.draw(st.integers(1, high), label=name) for name, high in limits.items()}
    n_negatives = data.draw(st.integers(0, min(8, n_trees * children - 1)), label="n_negatives")
    small = SliceSpec(**spec, n_negatives=n_negatives, n_hard_negatives=data.draw(st.integers(0, n_negatives)),
                      seed=data.draw(st.integers(0, 50), label="seed"))
    large = dataclasses.replace(small, **{axis: data.draw(st.integers(spec[axis], limits[axis]), label="larger")})
    small_rows, large_rows = assemble(dataset, small), assemble(dataset, large)
    if axis != "n_definitions":
        assert _rows(small_rows) <= _rows(large_rows)
        return
    assert [(i.instance_id, i.event_name, i.sentence, i.kind) for i in small_rows] == [
        (i.instance_id, i.event_name, i.sentence, i.kind) for i in large_rows]
    for event in {i.event_name for i in small_rows}:
        assert {i.definition for i in small_rows if i.event_name == event} <= {
            i.definition for i in large_rows if i.event_name == event}


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


# The template engine that render_instance used to run, as the oracle for
# the fixed prompt: the template's placeholders are filled once, so brace
# text inside a value is never substituted.
_REFERENCE_TEMPLATE = (
    "Identify the event trigger in the sentence.\n"
    "Event type: {event}\n"
    "{definition_block}"
    "{ontology_block}"
    "Sentence: {sentence}\n"
    "Answer with the trigger word, or None if the event does not occur.\n"
)


def _reference_render(instance: TrainingInstance) -> tuple[str, str]:
    definition_block = f"Definition: {instance.definition}\n" if instance.definition else ""
    if instance.ontology_context is not None:
        ctx = instance.ontology_context
        ontology_block = (
            f"Ontology: parent event: {ctx.parent or 'none'}; "
            f"child events: {', '.join(ctx.children) or 'none'}\n"
        )
    else:
        ontology_block = ""
    values = {
        "event": instance.event_name,
        "sentence": instance.sentence,
        "definition_block": definition_block,
        "ontology_block": ontology_block,
    }
    return re.sub(r"\{([a-z_]+)\}", lambda m: values.get(m.group(1), m.group(0)), _REFERENCE_TEMPLATE), instance.target


_render_text = st.one_of(
    st.lists(st.sampled_from(["{event}", "{sentence}", "{definition_block}", "{ontology_block}", "{other}",
                              "{", "}", "é", "事件", "none", "a", " ", ", "]), max_size=6).map("".join),
    st.text(max_size=12),
)
_render_context = st.one_of(
    st.none(),
    st.builds(OntologyContext, parent=st.none() | _render_text, children=st.lists(_render_text, max_size=4).map(tuple)),
)


@given(event=_render_text, definition=st.just("") | _render_text, context=_render_context,
       sentence=_render_text, data=st.data())
@settings(max_examples=300, deadline=None)
def test_render_instance_equals_the_template_engine(event, definition, context, sentence, data):
    if sentence and data.draw(st.booleans(), label="positive"):
        start = data.draw(st.integers(0, len(sentence) - 1), label="start")
        target = sentence[start:data.draw(st.integers(start + 1, len(sentence)), label="end")]
        assume(target != "None")
        kind = "positive"
    else:
        target, kind = "None", data.draw(st.sampled_from(["negative", "hard_negative"]), label="kind")
    inst = TrainingInstance("i", event, definition, context, sentence, target, kind)
    assert render_instance(inst) == _reference_render(inst)


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


@pytest.mark.parametrize(
    "change",
    [
        {"instance_id": 7},
        {"event_name": 7},
        {"definition": ["d"]},
        {"sentence": ["trigger"]},
        {"ontology_context": {"parent": 5, "children": []}},
        {"ontology_context": {"parent": None, "children": [1, None]}},
    ],
    ids=["instance_id", "event_name", "definition", "sentence", "parent", "children"],
)
def test_read_rejects_non_string_field_with_line_number(tmp_path, change):
    good = {"instance_id": "A|s0|p", "event_name": "A", "definition": "d",
            "ontology_context": {"parent": None, "children": ["B"]},
            "sentence": "trigger here", "target": "trigger", "kind": "positive"}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n", encoding="utf-8")
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


# ---------------------------------------------------------------------------
# assemble against the list-based reference
# ---------------------------------------------------------------------------


def list_based_assemble(dataset, spec):
    """Reference oracle: every negative pool is a filtered list, rescanned for
    each sentence, and each instance gets its own ontology context. A plain
    negative is a uniform pick from all candidates, redrawn until it lies in
    that list and is new; a list no longer than the need is taken whole."""
    events = [node for node in dataset.iter_nodes() if node.samples]
    if len(events) < spec.n_events:
        raise InsufficientDataError(f"need {spec.n_events} events, dataset has {len(events)}")
    if spec.n_negatives > 0 and len(events) < 2:
        raise NoNegativeCandidatesError("negative instances need at least 2 events in the dataset")
    sentences = {node: {s.sentence for s in node.samples} for node in events}
    candidate_list = [node for node in events if node.definitions]
    candidates = set(candidate_list)

    def permuted(items, *scope):
        items = list(items)
        _rng(spec.seed, *scope).shuffle(items)
        return items

    selected = [events[i] for i in sorted(permuted(range(len(events)), "select")[:spec.n_events])]
    for node in selected:
        if len(node.definitions) < spec.n_definitions:
            raise InsufficientDataError(
                f"event {node.name!r} has {len(node.definitions)} definitions, need {spec.n_definitions}"
            )
        if len(node.samples) < spec.n_samples:
            raise InsufficientDataError(f"event {node.name!r} has {len(node.samples)} samples, need {spec.n_samples}")

    def context(node):
        if not spec.with_ontology:
            return None
        return OntologyContext(node.parent.name if node.parent is not None else None,
                               tuple(c.name for c in node.children))

    instances = []
    for node in selected:
        event = node.name
        sel_defs = permuted(node.definitions, event, "defs")[:spec.n_definitions]
        sample_ids = permuted(range(len(node.samples)), event, "samples")[:spec.n_samples]
        all_siblings = siblings(dataset, event)
        sibling_pool = [s for s in all_siblings if s in candidates]
        cousins = [c for c in _cousin_pool(node) if c in candidates]
        non_siblings = [c for c in events if c not in set(all_siblings) and c in candidates]
        for si, index in enumerate(sample_ids):
            sample = node.samples[index]
            negatives_rng = _rng(spec.seed, event, "negatives", str(index))
            instances.append(TrainingInstance(
                f"{event}|s{si}|p", event, sel_defs[si % spec.n_definitions] if spec.with_definition else "",
                context(node), sample.sentence, sample.trigger, "positive",
            ))
            if spec.n_negatives == 0:
                continue
            used = set()

            def eligible(pool):
                return [c for c in pool if c is not node and c not in used and sample.sentence not in sentences[c]]

            sib_pool = eligible(sibling_pool)
            hard = negatives_rng.sample(sib_pool, min(spec.n_hard_negatives, len(sib_pool)))
            used.update(hard)
            negative_events = [(neg, "hard_negative") for neg in hard]
            shortfall = spec.n_hard_negatives - len(hard)
            if shortfall > 0:
                cousin_pool = eligible(cousins)
                fill = negatives_rng.sample(cousin_pool, min(shortfall, len(cousin_pool)))
                used.update(fill)
                negative_events.extend((neg, "negative") for neg in fill)
                shortfall -= len(fill)
            plain_needed = (spec.n_negatives - spec.n_hard_negatives) + shortfall
            plain_pool = eligible(non_siblings)
            if len(plain_pool) <= plain_needed:
                plain = plain_pool
            else:
                plain = []
                while len(plain) < plain_needed:
                    neg = candidate_list[negatives_rng.randrange(len(candidate_list))]
                    if neg in plain_pool and neg not in plain:
                        plain.append(neg)
            if len(plain) < plain_needed:
                used.update(plain)
                overflow_pool = eligible(sibling_pool)
                plain.extend(negatives_rng.sample(overflow_pool, min(plain_needed - len(plain), len(overflow_pool))))
            if len(plain) < plain_needed:
                raise InsufficientDataError(
                    f"event {event!r}, sample {si}: need {plain_needed - len(plain)} more "
                    f"negative candidates than the dataset offers"
                )
            negative_events.extend((neg, "negative") for neg in plain)
            for ni, (neg, kind) in enumerate(negative_events):
                instances.append(TrainingInstance(
                    f"{event}|s{si}|n{ni}", neg.name, neg.definitions[0] if spec.with_definition else "",
                    context(neg), sample.sentence, "None", kind,
                ))
    return instances


SHARED_SENTENCES = [f"Crowd {k} marched past the hall." for k in range(6)]


@st.composite
def slice_cases(draw):
    """A forest of 1-30 events whose samples share sentences, with now and
    then an event without samples (context only) or without definitions, and
    a slice spec that may ask for more hard negatives than there are
    siblings (cousins fill in), more plain negatives than there are
    non-siblings (siblings fill in), or more negatives than the forest has."""
    size = draw(st.integers(min_value=1, max_value=30))
    star = draw(st.booleans())  # one root over all others: few non-siblings, so the overflow path runs
    rows = []
    for i in range(size):
        if star or not i:
            parent = "e0" if i else None
        else:
            parent = draw(st.one_of(st.none(), st.integers(0, i - 1).map(lambda p: f"e{p}")))
        kind = draw(st.sampled_from(["full"] * 8 + ["no_samples", "no_definitions"]))
        definitions = [] if kind == "no_definitions" else [f"e{i} def {d}" for d in range(2)]
        sentences = [] if kind == "no_samples" else draw(st.lists(st.sampled_from(SHARED_SENTENCES), min_size=2, max_size=3))
        rows.append((f"e{i}", parent, definitions, [GeneratedSample(s, "marched") for s in sentences]))
    return make_dataset(rows), draw_slice_spec(draw, size)


def draw_slice_spec(draw, size: int) -> SliceSpec:
    """A slice spec over a dataset of ``size`` events, for ``slice_cases``."""
    n_negatives = draw(st.sampled_from([0, 1, 2, 3, 5, 8]))
    return SliceSpec(
        n_events=draw(st.integers(min_value=1, max_value=min(size, 4))),
        n_definitions=draw(st.integers(min_value=1, max_value=2)),
        n_samples=draw(st.integers(min_value=1, max_value=2)),
        n_negatives=n_negatives,
        n_hard_negatives=draw(st.integers(min_value=0, max_value=n_negatives)),
        with_ontology=draw(st.booleans()),
        with_definition=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def deep_slice_cases(draw):
    """1-3 trees 2-4 levels deep, each node with 1-2 children, whose samples
    share sentences across trees: hard negatives past a node's few siblings
    come from its cousins."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        level = [None]
        for _ in range(draw(st.integers(min_value=2, max_value=4))):
            below = []
            for parent in level:
                for _ in range(1 if parent is None else draw(st.integers(min_value=1, max_value=2))):
                    event = f"e{len(rows)}"
                    sentences = draw(st.lists(st.sampled_from(SHARED_SENTENCES), min_size=2, max_size=3))
                    rows.append((event, parent, [f"{event} def {d}" for d in range(2)],
                                 [GeneratedSample(s, "marched") for s in sentences]))
                    below.append(event)
            level = below
    return make_dataset(rows), draw_slice_spec(draw, len(rows))


@given(st.one_of(slice_cases(), deep_slice_cases()))
@settings(max_examples=200, deadline=None)
def test_dived_assemble_writes_the_bytes_of_the_assembled_list(case):
    """The command writes its rows straight from the draws; they are the
    bytes of write_jsonl(assemble(...)), and its manifest counts their kinds.
    A slice the dataset cannot fill fails the command the same way."""
    dataset, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out, listed = Path(tmp) / "dataset.jsonl", Path(tmp) / "out.jsonl", Path(tmp) / "listed.jsonl"
        write_dataset(dataset, path)
        code = cli.main([
            "assemble", "--dataset", str(path), "--events", str(spec.n_events),
            "--definitions", str(spec.n_definitions), "--samples", str(spec.n_samples),
            "--negatives", str(spec.n_negatives), "--hard-negatives", str(spec.n_hard_negatives),
            "--ontology" if spec.with_ontology else "--no-ontology",
            "--definition" if spec.with_definition else "--no-definition", "--seed", str(spec.seed), "--out", str(out),
        ])
        try:
            instances = assemble(read_dataset(path), spec)
        except AssemblyError:
            assert code == 1 and not out.exists()
            return
        assert code == 0
        write_jsonl(instances, listed)
        assert out.read_bytes() == listed.read_bytes()
        kinds = Counter(inst.kind for inst in instances)
        assert json.loads(cli.manifest_path(out).read_text())["counts"] == {
            "instances": len(instances), "positives": kinds["positive"],
            "negatives": kinds["negative"] + kinds["hard_negative"], "hard_negatives": kinds["hard_negative"],
        }


def _outcome(assemble_fn, dataset, spec):
    try:
        return assemble_fn(dataset, spec)
    except AssemblyError as exc:
        return type(exc), str(exc)


@given(slice_cases())
@settings(max_examples=200, deadline=None)
def test_assemble_matches_list_based_oracle(case):
    dataset, spec = case
    assert _outcome(assemble, dataset, spec) == _outcome(list_based_assemble, dataset, spec)


@given(slice_cases())
@settings(max_examples=200, deadline=None)
def test_each_positives_negatives_follow_the_draw_rules(case):
    """The negative rules checked on the rows, not against the oracle: after
    each positive, its negatives' ids run n0…n{N-1}, their events are
    distinct, none is the positive's own event or holds its sentence, and
    every hard negative is a candidate sibling (one with samples and
    definitions)."""
    dataset, spec = case
    try:
        instances = assemble(dataset, spec)
    except AssemblyError:
        return
    groups: list[tuple[TrainingInstance, list[TrainingInstance]]] = []
    for inst in instances:
        if inst.kind == "positive":
            groups.append((inst, []))
        else:
            groups[-1][1].append(inst)
    for positive, negatives in groups:
        prefix = positive.instance_id.removesuffix("p")
        assert [neg.instance_id for neg in negatives] == [f"{prefix}n{i}" for i in range(spec.n_negatives)]
        names = [neg.event_name for neg in negatives]
        assert len(set(names)) == len(names)
        assert positive.event_name not in names
        for neg in negatives:
            assert neg.sentence == positive.sentence
            assert positive.sentence not in {s.sentence for s in dataset.get(neg.event_name).samples}
        candidate_siblings = {n.name for n in siblings(dataset, positive.event_name) if n.samples and n.definitions}
        assert {neg.event_name for neg in negatives if neg.kind == "hard_negative"} <= candidate_siblings


# ---------------------------------------------------------------------------
# write_jsonl bytes against json.dumps
# ---------------------------------------------------------------------------

TEXT = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\x00\x1f\n\r\t\u2028\u2029é/')))


@st.composite
def instance_batches(draw):
    """Instances with arbitrary text, often one event name and definition with
    different contexts; each one also appears again with another id and
    sentence, so the per-event part is reused."""
    batch = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        sentence = draw(TEXT.filter(bool))
        positive = sentence != "None" and draw(st.booleans())
        ctx = draw(st.one_of(st.none(), st.builds(
            OntologyContext, parent=st.one_of(st.none(), TEXT), children=st.lists(TEXT, max_size=3).map(tuple),
        )))
        batch.append(TrainingInstance(
            instance_id=draw(TEXT), event_name=draw(st.one_of(st.just("A"), TEXT)),
            definition=draw(st.one_of(st.just(""), TEXT)), ontology_context=ctx,
            sentence=sentence, target=sentence if positive else "None",
            kind="positive" if positive else draw(st.sampled_from(["negative", "hard_negative"])),
        ))
    return batch + [dataclasses.replace(inst, instance_id=inst.instance_id + "+", sentence=inst.sentence + "!",
                                        target="None", kind="negative") for inst in batch]


@given(instance_batches())
@settings(deadline=None)
def test_write_jsonl_bytes_equal_json_dumps(instances):
    expected = "".join(
        json.dumps({
            "instance_id": inst.instance_id,
            "event_name": inst.event_name,
            "definition": inst.definition,
            "ontology_context": (
                None if inst.ontology_context is None
                else {"parent": inst.ontology_context.parent, "children": list(inst.ontology_context.children)}
            ),
            "sentence": inst.sentence,
            "target": inst.target,
            "kind": inst.kind,
        }, ensure_ascii=False) + "\n"
        for inst in instances
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instances.jsonl"
        assert write_jsonl(instances, path) == len(instances)
        assert path.read_bytes() == expected.encode("utf-8")
        assert read_jsonl(path) == instances

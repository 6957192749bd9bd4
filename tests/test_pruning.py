from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dived import pruning
from dived.cli import main
from dived.curation import GeneratedSample, read_dataset
from dived.jsonl import read_rows
from dived.pruning import OverlapRecord, PruneInputError, overlap_ratio, prune_dataset, prune_tree, write_audit

from conftest import make_dataset


def record(event, parent, triggers):
    samples = [
        GeneratedSample(event_name=event, sentence=f"The {event} crew {t} at dawn.", trigger=t)
        for t in triggers
    ]
    return (event, parent, [f"{event} def"], samples)


def brute_force_max_ratio(dataset):
    """Exhaustive re-check oracle: the maximum overlap ratio over all pairs."""
    best = 0.0
    for a, b in itertools.combinations(list(dataset.iter_nodes()), 2):
        best = max(best, overlap_ratio([s.trigger for s in a.samples], [s.trigger for s in b.samples]))
    return best


# ---------------------------------------------------------------------------
# overlap_ratio
# ---------------------------------------------------------------------------


def test_identical_lists_ratio_one():
    triggers = [f"t{i}" for i in range(10)]
    assert overlap_ratio(triggers, list(triggers)) == 1.0


def test_disjoint_lists_ratio_zero():
    assert overlap_ratio(["a", "b", "c"], ["x", "y", "z"]) == 0.0


def test_six_of_ten_shared_is_point_six():
    a = [f"shared{i}" for i in range(6)] + [f"a{i}" for i in range(4)]
    b = [f"shared{i}" for i in range(6)] + [f"b{i}" for i in range(4)]
    # brute-force pairwise comparison as the oracle
    matches = sum(1 for x in set(a) if x in set(b))
    assert matches == 6
    assert overlap_ratio(a, b) == 0.6


def test_ratio_dedupes_and_trims():
    assert overlap_ratio(["hit", "hit ", " hit"], ["hit"]) == 1.0
    assert overlap_ratio(["hit", "run"], ["hit", "hit"]) == 1.0  # min(|A|,|B|) = 1


def test_empty_list_rejected():
    with pytest.raises(ValueError):
        overlap_ratio([], ["a"])


@given(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8),
    st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8),
)
def test_ratio_symmetric(a, b):
    assert overlap_ratio(a, b) == overlap_ratio(b, a)


# ---------------------------------------------------------------------------
# prune_tree / prune_dataset
# ---------------------------------------------------------------------------


def three_event_tree(shared_ab):
    a = record("A", None, [f"s{i}" for i in range(shared_ab)] + [f"a{i}" for i in range(10 - shared_ab)])
    b = record("B", "A", [f"s{i}" for i in range(shared_ab)] + [f"b{i}" for i in range(10 - shared_ab)])
    c = record("C", "A", [f"c{i}" for i in range(10)])
    return make_dataset([a, b, c])


def test_prune_removes_later_event_of_overlapping_pair():
    pruned, audits = prune_dataset(three_event_tree(shared_ab=6))
    assert pruned.names() == ["A", "C"]
    assert audits == [
        OverlapRecord(event_a="A", event_b="B", ratio=0.6, matched_triggers=tuple(sorted(f"s{i}" for i in range(6))))
    ]


def test_ratio_exactly_half_keeps_both():
    pruned, audits = prune_dataset(three_event_tree(shared_ab=5))
    assert pruned.names() == ["A", "B", "C"]
    assert audits == []


def test_single_event_tree_unchanged():
    tree = make_dataset([record("solo", None, ["hit"])])
    pruned, audits = prune_dataset(tree)
    assert pruned.names() == ["solo"]
    assert audits == []


def test_precondition_event_without_samples():
    rec = record("A", None, ["t"])
    empty = ("B", "A", [], [])
    with pytest.raises(PruneInputError):
        prune_dataset(make_dataset([rec, empty]))


def test_children_reparented_to_surviving_ancestor():
    # root -> mid (duplicate of root) -> leaf; removing mid must attach leaf to root
    root = record("root", None, [f"t{i}" for i in range(10)])
    mid = record("mid", "root", [f"t{i}" for i in range(6)] + [f"m{i}" for i in range(4)])
    leaf = record("leaf", "mid", [f"l{i}" for i in range(10)])
    pruned, audits = prune_dataset(make_dataset([root, mid, leaf]))
    assert pruned.names() == ["root", "leaf"]
    by_name = {n.name: n for n in pruned.iter_nodes()}
    assert by_name["leaf"].parent.name == "root"
    assert [c.name for c in by_name["root"].children] == ["leaf"]
    assert [a.event_b for a in audits] == ["mid"]


def test_removed_event_takes_no_further_part():
    # B duplicates A and is removed; C overlaps B but not A, so C survives.
    a = record("A", None, [f"t{i}" for i in range(10)])
    b = record("B", "A", [f"t{i}" for i in range(6)] + [f"b{i}" for i in range(4)])
    c = record("C", "A", [f"b{i}" for i in range(4)] + [f"c{i}" for i in range(6)])
    pruned, audits = prune_dataset(make_dataset([a, b, c]))
    assert pruned.names() == ["A", "C"]
    assert len(audits) == 1


def test_prune_never_removes_preorder_first_of_pair():
    pruned, audits = prune_dataset(three_event_tree(shared_ab=10))
    assert pruned.names()[0] == "A"
    for audit in audits:
        assert audit.event_a == "A"


def test_prune_deterministic():
    one = prune_dataset(three_event_tree(shared_ab=6))
    two = prune_dataset(three_event_tree(shared_ab=6))
    assert one[0].names() == two[0].names()
    assert one[1] == two[1]


def test_input_unchanged():
    tree = three_event_tree(shared_ab=6)

    def shape():
        return [
            (n.name, n.parent.name if n.parent else None, tuple(c.name for c in n.children), len(n.samples))
            for n in tree.iter_nodes()
        ]

    before = shape()
    assert [a.event_b for a in prune_tree(tree.trees[0])] == ["B"]
    prune_dataset(tree)
    assert shape() == before


def test_survivors_keep_definitions_and_samples():
    tree = three_event_tree(shared_ab=6)
    pruned, _ = prune_dataset(tree)
    for node in pruned.iter_nodes():
        original = tree.get(node.name)
        assert node is not original
        assert node.definitions == original.definitions
        assert node.samples == original.samples


def test_post_prune_no_pair_exceeds_threshold():
    # chain of events with partially overlapping trigger sets
    records = []
    for i in range(8):
        triggers = [f"t{i}_{j}" for j in range(4)] + [f"t{i + 1}_{j}" for j in range(6)]
        records.append(record(f"e{i}", None if i == 0 else "e0", triggers))
    pruned, _ = prune_dataset(make_dataset(records))
    assert brute_force_max_ratio(pruned) <= 0.5


def test_prune_dataset_is_per_tree(tmp_path):
    # identical triggers in different trees are not cross-compared
    t1 = record("x", None, ["same0", "same1"])
    t2 = record("y", None, ["same0", "same1"])
    pruned, audits = prune_dataset(make_dataset([t1, t2]))
    assert pruned.names() == ["x", "y"]
    assert audits == []
    assert write_audit(audits, tmp_path / "audit.jsonl") == 0


# ---------------------------------------------------------------------------
# prune_tree against the all-pairs reference loop
# ---------------------------------------------------------------------------


def all_pairs_prune(root, threshold):
    """Reference oracle: compare every pre-order pair of live events."""
    tree = list(root.iter_preorder())
    triggers = {node: [s.trigger for s in node.samples] for node in tree}
    dead = set()
    audits = []
    for i, first in enumerate(tree):
        if first in dead:
            continue
        for second in tree[i + 1 :]:
            if second in dead:
                continue
            ratio = overlap_ratio(triggers[first], triggers[second])
            if ratio > threshold:
                dead.add(second)
                matched = {t.strip() for t in triggers[first]} & {t.strip() for t in triggers[second]}
                audits.append(OverlapRecord(first.name, second.name, ratio, tuple(sorted(matched))))
    return audits


TRIGGER_ALPHABET = ["run", " run", "run ", "hit", " hit", "cut", "cut  ", "fly", "go", " go "]


@st.composite
def trigger_trees(draw):
    size = draw(st.integers(min_value=1, max_value=14))
    rows = []
    for i in range(size):
        parent = None if i == 0 else f"e{draw(st.integers(min_value=0, max_value=i - 1))}"
        triggers = draw(st.lists(st.sampled_from(TRIGGER_ALPHABET), min_size=1, max_size=4))
        rows.append(record(f"e{i}", parent, triggers))
    return make_dataset(rows)


@given(
    trigger_trees(),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_prune_tree_matches_all_pairs_oracle(dataset, threshold):
    root = dataset.trees[0]
    assert prune_tree(root, threshold) == all_pairs_prune(root, threshold)


@pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
def test_prune_tree_rejects_threshold_outside_unit_interval(threshold):
    with pytest.raises(ValueError):
        prune_tree(three_event_tree(shared_ab=6).trees[0], threshold)


# ---------------------------------------------------------------------------
# Comparison count: only events that share a trigger are compared
# ---------------------------------------------------------------------------


@pytest.fixture
def overlap_calls(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((tuple(a), tuple(b)))
        return overlap_ratio(a, b)

    monkeypatch.setattr(pruning, "overlap_ratio", counted)
    return calls


def test_chain_without_shared_triggers_makes_no_comparison(overlap_calls):
    names = [f"e{i}" for i in range(1500)]
    chain = make_dataset([record(name, names[i - 1] if i else None, [f"{name}t"]) for i, name in enumerate(names)])
    assert prune_tree(chain.trees[0]) == []
    assert overlap_calls == []


def test_planted_copies_make_one_comparison_each(overlap_calls):
    rows = [record("root", None, ["r0", "r1"])]
    rows += [record(f"c{i}", "root", [f"c{i}t{j}" for j in range(3)]) for i in range(30)]
    copies = [3, 11, 27]
    rows += [record(f"dup{i}", f"c{i}", [f" c{i}t{j}" for j in range(3)]) for i in copies]
    audits = prune_tree(make_dataset(rows).trees[0])
    assert sorted(a.event_b for a in audits) == sorted(f"dup{i}" for i in copies)
    assert len(overlap_calls) == len(copies)


# ---------------------------------------------------------------------------
# Random dataset files: load and prune cleanly, or fail naming file:line
# ---------------------------------------------------------------------------

# each kind of row but "good" has one defect; about four rows in five are good
ROW_KINDS = ["good"] * 36 + [
    "no_samples", "bad_sample", "samples_not_list", "definitions_not_list", "empty_event", "list_line", "bad_json",
    "duplicate_name", "unknown_parent",
]
MALFORMED_SAMPLES = [
    "oops",
    {"sentence": 5, "trigger": "hit"},
    {"sentence": "The crew hit.", "trigger": None},
    {"sentence": "The crew stood still.", "trigger": "hit"},  # trigger not in the sentence
    {"trigger": "hit"},
]


@st.composite
def dataset_rows(draw):
    """JSONL lines of a dataset of 1-8 events: names padded with blanks now
    and then, parents that may refer to later rows or form cycles, and now and
    then a row with one defect (see ROW_KINDS)."""
    size = draw(st.integers(min_value=1, max_value=8))
    names = [draw(st.sampled_from([f"e{i}", f" e{i}", f"E{i}"])) for i in range(size)]
    lines = []
    for i, event in enumerate(names):
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "duplicate_name" and i > 0:
            event = draw(st.sampled_from(names[:i])).upper()
        parent = draw(st.one_of(st.none(), st.sampled_from(names[:i] or [None]), st.sampled_from(names)))
        triggers = draw(st.lists(st.sampled_from(["run", " run", "hit", "cut", "fly"]), min_size=1, max_size=4))
        samples = [{"sentence": f"The {event} crew {t} at dawn.", "trigger": t} for t in triggers]
        if kind == "bad_sample":
            samples.insert(draw(st.integers(0, len(samples))), draw(st.sampled_from(MALFORMED_SAMPLES)))
        row = {
            "event": "" if kind == "empty_event" else event,
            "parent": "ghost" if kind == "unknown_parent" else parent,
            "children": [],
            "definitions": "oops" if kind == "definitions_not_list" else [f"{event} def"],
            "samples": {"no_samples": [], "samples_not_list": "oops"}.get(kind, samples),
        }
        lines.append({"list_line": json.dumps([row]), "bad_json": "{not json"}.get(kind, json.dumps(row)))
    return lines


@given(dataset_rows(), st.sampled_from(["0", "0.5", "1"]))
@settings(max_examples=200, deadline=None)
def test_random_dataset_files_prune_or_fail_naming_the_line(lines, threshold):
    with tempfile.TemporaryDirectory() as tmp:
        path, out, audit = Path(tmp) / "dataset.jsonl", Path(tmp) / "pruned.jsonl", Path(tmp) / "audit.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["prune", "--dataset", str(path), "--out", str(out), "--audit", str(audit),
                         "--threshold", threshold])
        if code != 0:
            assert code == 1 and not out.exists()
            located = re.match(rf"error: {re.escape(str(path))}:([0-9]+): ", stderr.getvalue())
            assert located and 1 <= int(located.group(1)) <= len(lines), stderr.getvalue()
            return
        dataset, pruned = read_dataset(path), read_dataset(out)
        audits = [OverlapRecord(r["event_a"], r["event_b"], r["ratio"], tuple(r["matched_triggers"]))
                  for _, r in read_rows(audit)]

    # every event is kept or removed once, in pre-order, with its data
    removed = [a.event_b for a in audits]
    assert pruned.names() == [name for name in dataset.names() if name not in removed]
    assert len(removed) == len(set(removed))
    nodes = {node.name: node for node in dataset.iter_nodes()}
    survivors = set(pruned.names())
    for node in pruned.iter_nodes():
        old = nodes[node.name]
        nearest = next((up.name for up in old.ancestors() if up.name in survivors), None)
        assert (node.parent.name if node.parent else None) == nearest
        assert (node.definitions, node.samples) == (old.definitions, old.samples)
    # each removal is a later event of the same tree above the threshold ...
    triggers = {name: [s.trigger for s in node.samples] for name, node in nodes.items()}
    for a in audits:
        tree = [n.name for n in _root(nodes[a.event_a]).iter_preorder()]
        assert a.event_b in tree and tree.index(a.event_a) < tree.index(a.event_b)
        assert a.ratio == overlap_ratio(triggers[a.event_a], triggers[a.event_b]) > float(threshold)
    # ... and no two survivors of one tree are duplicates
    for tree in dataset.trees:
        alive = [n.name for n in tree.iter_preorder() if n.name in survivors]
        for first, second in itertools.combinations(alive, 2):
            assert overlap_ratio(triggers[first], triggers[second]) <= float(threshold)


def _root(node):
    return list(node.ancestors())[-1] if node.parent is not None else node

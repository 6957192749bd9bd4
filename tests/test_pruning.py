from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dived.curation import GeneratedSample
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

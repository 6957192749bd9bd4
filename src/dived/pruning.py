"""Duplicate-event pruning by trigger overlap within a tree.

Two events of the same tree whose generated triggers overlap beyond a
threshold are considered duplicates; the event that comes later in pre-order
is removed and its children are re-parented to its parent, preserving the
sibling structure needed for hard negatives.

Only events that share at least one (trimmed) trigger are compared: a pair
with no trigger in common has ratio 0, which never exceeds a threshold in
[0, 1]. An inverted index from trigger to events finds those pairs, so the
cost follows the number of trigger-sharing pairs; in the worst case, where
every event of a tree shares one trigger, that is still all pairs.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Collection, Iterable

from . import jsonl
from .errors import EventInputError
from .ontology import EventTypeNode, Ontology

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OverlapRecord:
    """Audit row for one removed pair; event_a precedes event_b in pre-order
    and event_b is the one that was removed."""

    event_a: str
    event_b: str
    ratio: float
    matched_triggers: tuple[str, ...]


def overlap_ratio(triggers_a: Collection[str], triggers_b: Collection[str]) -> float:
    """|A ∩ B| / min(|A|, |B|) over deduplicated, trimmed trigger sets.

    Symmetric in its arguments. With the nominal ten distinct triggers per
    event this equals matches/10.
    """
    if not triggers_a or not triggers_b:
        raise ValueError("trigger lists must be non-empty")
    set_a = {t.strip() for t in triggers_a}
    set_b = {t.strip() for t in triggers_b}
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def prune_tree(root: EventTypeNode, threshold: float = 0.5) -> list[OverlapRecord]:
    """Find the duplicate events of one tree.

    Event pairs are compared in pre-order; when their trigger overlap ratio
    strictly exceeds the threshold (which must lie in [0, 1]) and both are
    still alive, the pre-order later event is marked removed and takes no
    further part in comparisons. Pairs that share no trigger are skipped.
    Returns one audit record per removed event (its ``event_b``); the tree is
    unchanged.
    """
    _check_threshold(threshold)
    tree = list(root.iter_preorder())
    for node in tree:
        if not node.samples:
            raise EventInputError(node.name, f"event {node.name!r} has no samples; cannot compute trigger overlap")

    stripped = [{s.trigger.strip() for s in node.samples} for node in tree]
    holders: dict[str, list[int]] = {}
    for position, trigger_set in enumerate(stripped):
        for trigger in trigger_set:
            holders.setdefault(trigger, []).append(position)

    dead: set[int] = set()
    audits: list[OverlapRecord] = []
    for i, first in enumerate(tree):
        if i in dead:
            continue
        for j in sorted({later for trigger in stripped[i] for later in holders[trigger] if later > i}):
            if j in dead:
                continue
            second = tree[j]
            ratio = overlap_ratio(stripped[i], stripped[j])
            if ratio > threshold:
                dead.add(j)
                audits.append(
                    OverlapRecord(
                        event_a=first.name,
                        event_b=second.name,
                        ratio=ratio,
                        matched_triggers=tuple(sorted(stripped[i] & stripped[j])),
                    )
                )
                logger.info("pruning %r: trigger overlap %.2f with %r", second.name, ratio, first.name)
    return audits


def prune_dataset(dataset: Ontology, threshold: float = 0.5) -> tuple[Ontology, list[OverlapRecord]]:
    """Apply prune_tree to every tree and return the surviving events as a new
    Ontology (children of a removed event re-parented to its nearest surviving
    ancestor) with the audit records. Cross-tree duplicates are deliberately
    not considered; the input is unchanged. The threshold must lie in [0, 1]."""
    _check_threshold(threshold)
    audits = [audit for tree in dataset.trees for audit in prune_tree(tree, threshold)]
    removed = {audit.event_b for audit in audits}
    return dataset.subset({node for node in dataset.iter_nodes() if node.name not in removed}), audits


def write_audit(records: Iterable[OverlapRecord], path: str | Path) -> int:
    return jsonl.write_rows(path, map(asdict, records))

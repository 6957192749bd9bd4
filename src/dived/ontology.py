"""Event-type ontology: dependency trees of event types with parent/child/sibling
queries and held-out filtering.

An ontology is a forest of event-type trees. Its structure (names, parent
links, child order) is fixed once built; the pipeline stages fill each node's
``definitions`` and ``samples`` in place. Filtering and pruning return new
ontologies and leave the input unchanged.
"""

from __future__ import annotations

import logging
import re
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import jsonl
from .errors import DivedError

if TYPE_CHECKING:
    from .curation import GeneratedSample

logger = logging.getLogger(__name__)


class OntologyFormatError(DivedError):
    """Malformed ontology row (missing/invalid fields, unknown parent reference)."""

    def __init__(self, origin: str, line: int, message: str):
        super().__init__(f"{origin}:{line}: {message}")
        self.origin = origin
        self.line = line


class DuplicateEventNameError(OntologyFormatError):
    """The same event name appears twice; the message names both occurrences."""


class OntologyCycleError(OntologyFormatError):
    """A node is its own ancestor; the message names the offending node and its row."""


class UnknownEventError(DivedError):
    """Lookup of an event name that does not exist in the ontology."""


def normalize_name(name: str) -> str:
    """Canonical form used for held-out matching: lowercase, trimmed, internal
    whitespace collapsed, hyphens and underscores treated as spaces."""
    return re.sub(r"\s+", " ", name.replace("-", " ").replace("_", " ")).strip().casefold()


def _name_key(name: str) -> str:
    # Uniqueness/lookup key: case-insensitive after trimming.
    return name.strip().casefold()


@dataclass(eq=False)
class EventTypeNode:
    """One event type inside a dependency tree.

    ``definitions`` and ``samples`` start empty and are filled by the
    curation/expansion steps; ``definitions[0]`` is the curated seed
    definition. The parent link is weak (the parent owns its children), so a
    dropped ontology is freed at once rather than left as cyclic garbage.
    """

    name: str
    external_id: str | None = None
    children: list["EventTypeNode"] = field(default_factory=list)
    definitions: list[str] = field(default_factory=list)
    samples: list["GeneratedSample"] = field(default_factory=list)
    _parent: "weakref.ref[EventTypeNode] | None" = field(default=None, init=False, repr=False)

    @property
    def parent(self) -> "EventTypeNode | None":
        return self._parent() if self._parent is not None else None

    def iter_preorder(self) -> Iterator["EventTypeNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def ancestors(self) -> Iterator["EventTypeNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTypeNode({self.name!r}, children={len(self.children)})"


@dataclass(eq=False)
class Ontology:
    """A forest of event-type trees with deterministic iteration order:
    trees in file order, nodes in pre-order within a tree."""

    trees: list[EventTypeNode]

    def __post_init__(self) -> None:
        self._index: dict[str, EventTypeNode] = {}
        for node in self.iter_nodes():
            self._index[_name_key(node.name)] = node

    def iter_nodes(self) -> Iterator[EventTypeNode]:
        for tree in self.trees:
            yield from tree.iter_preorder()

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def __contains__(self, name: str) -> bool:
        return _name_key(name) in self._index

    def get(self, name: str) -> EventTypeNode:
        try:
            return self._index[_name_key(name)]
        except KeyError:
            raise UnknownEventError(f"unknown event type: {name!r}") from None

    def names(self) -> list[str]:
        return [node.name for node in self.iter_nodes()]

    def subset(self, keep: set[EventTypeNode]) -> "Ontology":
        """A new ontology of the kept nodes in the same pre-order, each
        re-parented to its nearest kept ancestor, with copies of their
        definitions and samples. The input is unchanged."""
        rows: list[tuple[int, str, str | None, dict]] = []
        target: dict[EventTypeNode, str | None] = {}  # node -> nearest kept ancestor-or-self
        for node in self.iter_nodes():
            up = target[node.parent] if node.parent is not None else None
            if node in keep:
                fields = {"external_id": node.external_id, "definitions": list(node.definitions),
                          "samples": list(node.samples)}
                rows.append((len(rows) + 1, node.name, up, fields))
                up = node.name
            target[node] = up
        return _build_ontology(rows, "<memory>")


def build_ontology(rows: Iterable[tuple[str, str | None, str | None]], origin: str = "<memory>") -> Ontology:
    """Build an Ontology from (name, parent_name, external_id) tuples.

    Rows are in file order; a row may reference a parent declared later.
    Raises OntologyFormatError, DuplicateEventNameError, or OntologyCycleError
    on invariant violations.
    """
    numbered = [(lineno, name, parent, {"external_id": external_id})
                for lineno, (name, parent, external_id) in enumerate(rows, start=1)]
    return _build_ontology(numbered, origin)


def _build_ontology(rows: list[tuple[int, str, str | None, dict]], origin: str) -> Ontology:
    """Build from (line number, name, parent name, node fields) rows, the
    fields being ``external_id`` or ``definitions`` and ``samples``; every
    error names ``origin:line``."""
    nodes: dict[str, EventTypeNode] = {}
    first_seen: dict[str, tuple[int, str]] = {}
    ordered: list[tuple[int, EventTypeNode, str | None]] = []

    for lineno, name, parent_name, fields in rows:
        if not isinstance(name, str) or not name.strip():
            raise OntologyFormatError(origin, lineno, "field 'name' must be a non-empty string")
        if parent_name is not None and not isinstance(parent_name, str):
            raise OntologyFormatError(origin, lineno, "field 'parent' must be a string or null")
        if fields.get("external_id") is not None and not isinstance(fields["external_id"], str):
            raise OntologyFormatError(origin, lineno, "field 'external_id' must be a string or null")
        if "\t" in name.strip() or len(name.strip().splitlines()) > 1:
            raise OntologyFormatError(origin, lineno, f"event name {name!r} holds a tab or line break")
        key = _name_key(name)
        if key in first_seen:
            prev_line, prev_name = first_seen[key]
            raise DuplicateEventNameError(
                origin,
                lineno,
                f"duplicate event name {name!r}, already defined as {prev_name!r} at {origin}:{prev_line}",
            )
        first_seen[key] = (lineno, name)
        node = EventTypeNode(name=name.strip(), **fields)
        nodes[key] = node
        ordered.append((lineno, node, parent_name))

    for lineno, node, parent_name in ordered:
        if parent_name is None:
            continue
        parent = nodes.get(_name_key(parent_name))
        if parent is None:
            raise OntologyFormatError(origin, lineno, f"unknown parent {parent_name!r} for node {node.name!r}")
        node._parent = weakref.ref(parent)
        parent.children.append(node)

    _check_acyclic(ordered, origin)
    trees = [node for _, node, parent_name in ordered if parent_name is None]
    return Ontology(trees=trees)


def _check_acyclic(ordered: list[tuple[int, EventTypeNode, str | None]], origin: str) -> None:
    safe: set[EventTypeNode] = set()
    for _, start, _ in ordered:
        chain: dict[EventTypeNode, None] = {}  # insertion-ordered set
        node: EventTypeNode | None = start
        while node is not None and node not in safe:
            if node in chain:
                lineno = next(line for line, n, _ in ordered if n is node)
                raise OntologyCycleError(
                    origin, lineno, f"cycle detected at node {node.name!r}: it is its own ancestor"
                )
            chain[node] = None
            node = node.parent
        safe.update(chain)


def load_ontology(path: str | Path) -> Ontology:
    """Load an ontology from a JSONL file of {"name", "parent", "external_id"} rows.

    File order defines tree order and the order of children under a parent.
    """
    rows: list[tuple[int, str, str | None, dict]] = []
    for lineno, obj in jsonl.read_rows(path):
        if "name" not in obj:
            raise OntologyFormatError(str(path), lineno, "missing required field 'name'")
        rows.append((lineno, obj["name"], obj.get("parent"), {"external_id": obj.get("external_id")}))
    return _build_ontology(rows, str(path))


def save_ontology(ontology: Ontology, path: str | Path) -> int:
    """Write an ontology as JSONL in pre-order. Returns the node count written."""
    return jsonl.write_rows(
        path,
        (
            {
                "name": node.name,
                "parent": node.parent.name if node.parent is not None else None,
                "external_id": node.external_id,
            }
            for node in ontology.iter_nodes()
        ),
    )


def siblings(ontology: Ontology, name: str) -> list[EventTypeNode]:
    """All nodes sharing the named node's parent, excluding the node itself.

    Root nodes have no parent and therefore no siblings (an empty list), unless
    an explicit synthetic parent was built into the ontology.
    """
    node = ontology.get(name)
    if node.parent is None:
        return []
    return [child for child in node.parent.children if child is not node]


def filter_heldout(ontology: Ontology, heldout_names: list[str]) -> Ontology:
    """Remove every tree containing a node whose normalized name matches a
    held-out name. Returns a new Ontology; the input is unchanged."""
    targets = {normalize_name(n) for n in heldout_names if n.strip()}
    present = {normalize_name(node.name) for node in ontology.iter_nodes()}
    for missing in sorted(t for t in targets if t not in present):
        logger.warning("held-out name %r matches no event type; ignored", missing)

    keep: set[EventTypeNode] = set()
    for tree in ontology.trees:
        tree_nodes = list(tree.iter_preorder())
        if any(normalize_name(n.name) in targets for n in tree_nodes):
            logger.info("removing tree rooted at %r (%d nodes): held-out match", tree.name, len(tree_nodes))
        else:
            keep.update(tree_nodes)
    return ontology.subset(keep)

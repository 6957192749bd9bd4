"""Event-type ontology: dependency trees of event types with parent, child and
ancestor queries and held-out filtering.

An ontology is a forest of event-type trees. Its structure (names, parent
links, child order) is fixed once built; the pipeline stages fill each node's
``definitions`` and ``samples`` in place. Filtering and pruning return new
ontologies and leave the input unchanged.

Two event names are the same event when their ``normalize_name`` keys are
equal. That one key decides uniqueness, parent references, lookups, held-out
matching and which reply line belongs to which event; a name with an empty
key is blank. Parent cycles are found by the walk from the roots that indexes
the ontology, which leaves out every node on or below a cycle.

Every ontology is built row by row by ``build_ontology``, from files through
``read_nodes``, the one reader of ontology and dataset files. A row gets each
check of its own before a later line is decoded; only unknown parents, cycles
and a dataset row's ``children`` wait for the last row.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from . import jsonl
from .errors import DivedError

if TYPE_CHECKING:
    from .curation import GeneratedSample

logger = logging.getLogger(__name__)


class OntologyFormatError(jsonl.JsonlError):
    """Malformed ontology row (missing/invalid fields, unknown parent reference)."""


class DuplicateEventNameError(OntologyFormatError):
    """The same event name appears twice; the message names both occurrences."""


class OntologyCycleError(OntologyFormatError):
    """A node is its own ancestor; the message names the offending node and its row."""


class UnknownEventError(DivedError):
    """Lookup of an event name that does not exist in the ontology."""


def normalize_name(name: str) -> str:
    """The key under which two event names are the same event: hyphens and
    underscores read as spaces, whitespace runs collapsed to one space,
    trimmed and casefolded. ``Attack-Target``, ``attack_target`` and
    ``attack  target`` share one key."""
    return " ".join(name.replace("-", " ").replace("_", " ").split()).casefold()


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
            self._index[normalize_name(node.name)] = node

    def iter_nodes(self) -> Iterator[EventTypeNode]:
        for tree in self.trees:
            yield from tree.iter_preorder()

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._index

    def get(self, name: str) -> EventTypeNode:
        try:
            return self._index[normalize_name(name)]
        except KeyError:
            raise UnknownEventError(f"unknown event type: {name!r}") from None

    def subset(self, keep: set[EventTypeNode]) -> "Ontology":
        """A new ontology of the kept nodes in the same pre-order, each
        re-parented to its nearest kept ancestor, with copies of their
        definitions and samples. The input is unchanged."""
        rows: list[tuple[int, str, str | None, None, dict]] = []
        target: dict[EventTypeNode, str | None] = {}  # node -> nearest kept ancestor-or-self
        for node in self.iter_nodes():
            up = target[node.parent] if node.parent is not None else None
            if node in keep:
                fields = {"external_id": node.external_id, "definitions": list(node.definitions),
                          "samples": list(node.samples)}
                rows.append((len(rows) + 1, node.name, up, None, fields))
                up = node.name
            target[node] = up
        return build_ontology(rows)


def event_key(name: object, origin: str, lineno: int) -> str:
    """The key of an event name read at ``origin:line``; OntologyFormatError if
    the name is not a string, is blank (an empty key) or holds a tab or line break."""
    if not isinstance(name, str):
        raise OntologyFormatError(origin, lineno, f"event name {name!r} is not a string")
    if not (key := normalize_name(name)):
        raise OntologyFormatError(origin, lineno, f"event name {name!r} is blank: it is all whitespace, '-' and '_'")
    if "\t" in name.strip() or len(name.strip().splitlines()) > 1:
        raise OntologyFormatError(origin, lineno, f"event name {name!r} holds a tab or line break")
    return key


def build_ontology(rows: Iterable[tuple[int, object, object, list[str] | None, dict[str, Any]]],
                   origin: str = "<memory>") -> Ontology:
    """Build an Ontology from (line number, name, parent name, child names or
    None, node fields) rows in file order; a row may name a parent given
    later. The node fields are ``EventTypeNode`` keyword arguments. Each row
    is checked before the next is drawn: its name (``event_key``), a second
    name for its event, the types of ``parent`` and ``external_id``. Every
    error names ``origin:line``."""
    seen: dict[str, tuple] = {}  # key -> (line, name as given, node, parent name, child names or None)
    for lineno, name, parent_name, children, fields in rows:
        key = event_key(name, origin, lineno)
        if parent_name is not None and not isinstance(parent_name, str):
            raise OntologyFormatError(origin, lineno, "field 'parent' must be a string or null")
        if fields.get("external_id") is not None and not isinstance(fields["external_id"], str):
            raise OntologyFormatError(origin, lineno, "field 'external_id' must be a string or null")
        if key in seen:
            prev_line, prev_name, *_ = seen[key]
            raise DuplicateEventNameError(origin, lineno, f"duplicate event name {name!r}, already defined as "
                                          f"{prev_name!r} at {origin}:{prev_line} (names that differ only in case,"
                                          " spacing, '-' or '_' are one event)")
        seen[key] = (lineno, name, EventTypeNode(name=name.strip(), **fields), parent_name, children)
    return _build_ontology(seen, origin)


def _build_ontology(seen: dict[str, tuple], origin: str) -> Ontology:
    """Link the rows ``build_ontology`` keyed, one per node, to their parents.
    A node that the index walk from the roots misses is on or below a parent
    cycle; the walk up from the first such row names the first node that
    repeats, at its line. A row's ``children``, if given, must name the
    events whose parent it is, in file order, by key."""
    for lineno, _, node, parent_name, _ in seen.values():
        if parent_name is None:
            continue
        found = seen.get(normalize_name(parent_name))
        if found is None:
            raise OntologyFormatError(origin, lineno, f"unknown parent {parent_name!r} for node {node.name!r}")
        node._parent = weakref.ref(found[2])
        found[2].children.append(node)

    result = Ontology(trees=[node for _, _, node, parent_name, _ in seen.values() if parent_name is None])
    if len(result._index) < len(seen):
        node = seen[next(key for key in seen if key not in result._index)][2]
        chain: set[EventTypeNode] = set()
        while node not in chain:
            chain.add(node)
            node = node.parent
        raise OntologyCycleError(origin, seen[normalize_name(node.name)][0],
                                 f"cycle detected at node {node.name!r}: it is its own ancestor")

    for lineno, _, node, _, children in seen.values():
        if children is not None and [*map(normalize_name, children)] != [normalize_name(c.name) for c in node.children]:
            raise OntologyFormatError(origin, lineno, f"field 'children' is {children!r}, but the events whose "
                                      f"parent is {node.name!r} are {[c.name for c in node.children]!r}")
    return result


def read_nodes(path: str | Path, name_field: str,
               node_fields: Callable[[dict[str, Any]], tuple[list[str] | None, dict[str, Any]]]) -> Ontology:
    """Build an Ontology from a JSONL file of node rows, each naming its event
    in ``name_field`` and its parent's in ``parent``. ``node_fields`` gives a
    row's child names (or None) and node fields for ``build_ontology``, or
    raises ValueError naming what is wrong. A row gets every check of its own
    as it is read, so the first bad row fails before a later line is decoded."""
    def rows() -> Iterator[tuple[int, object, object, list[str] | None, dict[str, Any]]]:
        for lineno, obj in jsonl.read_rows(path):
            if name_field not in obj:
                raise OntologyFormatError(path, lineno, f"missing required field {name_field!r}")
            try:
                children, fields = node_fields(obj)
            except ValueError as exc:
                raise OntologyFormatError(path, lineno, str(exc)) from exc
            yield lineno, obj[name_field], obj.get("parent"), children, fields

    return build_ontology(rows(), str(path))


def load_ontology(path: str | Path) -> Ontology:
    """Load an ontology from a JSONL file of {"name", "parent", "external_id"} rows.

    File order defines tree order and the order of children under a parent.
    Each row is checked as it is read (``read_nodes``).
    """
    return read_nodes(path, "name", lambda row: (None, {"external_id": row.get("external_id")}))


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


def filter_heldout(ontology: Ontology, heldout_names: list[str]) -> Ontology:
    """Remove every tree containing a node named by a held-out name. Blank
    names are skipped; a name that matches no event type is warned about as
    given. Returns a new Ontology; the input is unchanged."""
    names = [n for n in heldout_names if n.strip()]
    for missing in sorted({n.strip() for n in names if n not in ontology}):
        logger.warning("held-out name %r matches no event type; ignored", missing)
    held = {ontology.get(n) for n in names if n in ontology}

    keep: set[EventTypeNode] = set()
    for tree in ontology.trees:
        tree_nodes = list(tree.iter_preorder())
        if held.intersection(tree_nodes):
            logger.info("removing tree rooted at %r (%d nodes): held-out match", tree.name, len(tree_nodes))
        else:
            keep.update(tree_nodes)
    return ontology.subset(keep)

"""Generation steps of the pipeline: definition curation per tree, sample
curation per tree, and definition expansion per node, plus the parsers that
turn raw model output into validated records.

Responses are line-oriented: one record per line of the form
``EVENT<TAB>FIELD: value``. Anything that does not match is treated as
surrounding prose and ignored; the record lines themselves are strict.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import jsonl, ontology
from .errors import DivedError
from .llm_client import (
    DEFAULT_EXAMPLES,
    Backend,
    GenFailure,
    GenRequest,
    TemplateId,
    complete_batch,
)
from .ontology import EventTypeNode, Ontology, _name_key

logger = logging.getLogger(__name__)

_RECORD_RE = re.compile(r"^(?P<event>[^\t]+)\t(?P<field>definition|sentence|trigger|paraphrase):\s?(?P<value>.*)$")


class InvalidSampleError(DivedError):
    """A generated sample violates its invariants (trigger not in sentence, etc.)."""


@dataclass(frozen=True)
class GeneratedSample:
    """One (sentence, trigger) pair for an event type.

    Constructing an instance validates the invariants, so any GeneratedSample
    in circulation is known-good: the trigger occurs verbatim in the sentence
    and the sentence is a single line.
    """

    event_name: str
    sentence: str
    trigger: str
    origin: str = "generated"

    def __post_init__(self) -> None:
        if not self.event_name.strip():
            raise InvalidSampleError("empty event name")
        if not self.sentence.strip():
            raise InvalidSampleError(f"{self.event_name}: empty sentence")
        if "\n" in self.sentence or "\r" in self.sentence:
            raise InvalidSampleError(f"{self.event_name}: sentence contains a newline")
        if not self.trigger.strip():
            raise InvalidSampleError(f"{self.event_name}: empty trigger")
        if self.trigger not in self.sentence:
            raise InvalidSampleError(
                f"{self.event_name}: trigger {self.trigger!r} is not a substring of the sentence"
            )
        if self.origin not in ("generated", "imported"):
            raise InvalidSampleError(f"{self.event_name}: bad origin {self.origin!r}")


@dataclass
class CurationReport:
    """Bookkeeping for one curation pass.

    requested = parsed + dropped_invalid + (count attributed to failures).
    """

    requested: int = 0
    parsed: int = 0
    dropped_invalid: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def missing(self) -> int:
        return self.requested - self.parsed - self.dropped_invalid


def tree_block(root: EventTypeNode) -> str:
    """Indented-tree rendering of one ontology tree, one event name per line."""
    lines: list[str] = []
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + node.name)
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def _definitions_block(root: EventTypeNode) -> str:
    return "\n".join(f"{n.name}: {n.definitions[0]}" for n in root.iter_preorder())


def _ontology_context(node: EventTypeNode) -> str:
    parent = node.parent.name if node.parent is not None else "none"
    children = ", ".join(c.name for c in node.children) or "none"
    return f"parent: {parent}; children: {children}"


def definition_request(root: EventTypeNode) -> GenRequest:
    return GenRequest(
        TemplateId.DEFINITION_CURATION,
        {"events": tree_block(root), "example": DEFAULT_EXAMPLES[TemplateId.DEFINITION_CURATION]},
    )


def sample_request(root: EventTypeNode, per_event: int) -> GenRequest:
    return GenRequest(
        TemplateId.SAMPLE_CURATION,
        {
            "events": tree_block(root),
            "definitions": _definitions_block(root),
            "count": str(per_event),
            "example": DEFAULT_EXAMPLES[TemplateId.SAMPLE_CURATION],
        },
    )


def expansion_request(node: EventTypeNode, count: int) -> GenRequest:
    return GenRequest(
        TemplateId.DEFINITION_EXPANSION,
        {
            "event": node.name,
            "definition": node.definitions[0],
            "ontology": _ontology_context(node),
            "count": str(count),
            "example": DEFAULT_EXAMPLES[TemplateId.DEFINITION_EXPANSION],
        },
    )


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


def _records(text: str) -> Iterable[tuple[str, str, str]]:
    for line in text.splitlines():
        m = _RECORD_RE.match(line)
        if m:
            yield _name_key(m.group("event")), m.group("field"), m.group("value").strip()


def parse_definitions(text: str, expected_events: Sequence[str]) -> dict[str, str]:
    """Extract one definition per expected event (first record wins).

    Missing or empty definitions simply do not appear in the result.
    """
    wanted = {_name_key(name): name for name in expected_events}
    found: dict[str, str] = {}
    for key, fieldname, value in _records(text):
        if fieldname != "definition" or key not in wanted:
            continue
        if value and wanted[key] not in found:
            found[wanted[key]] = value
    return found


@dataclass
class _SampleStats:
    samples: list[GeneratedSample] = field(default_factory=list)
    dropped: int = 0
    pairs: int = 0


def parse_samples(
    text: str, expected_events: Sequence[str], per_event: int
) -> dict[str, _SampleStats]:
    """Pair up sentence/trigger record lines per event and validate each pair.

    Keeps at most per_event valid samples per event; invalid pairs are counted
    in ``dropped``. Unpaired sentence or trigger lines are ignored.
    """
    wanted = {_name_key(name): name for name in expected_events}
    stats = {name: _SampleStats() for name in expected_events}
    pending: dict[str, str] = {}
    for key, fieldname, value in _records(text):
        if key not in wanted:
            continue
        name = wanted[key]
        if fieldname == "sentence":
            if key in pending:
                logger.debug("orphan sentence line for %s discarded", name)
            pending[key] = value
        elif fieldname == "trigger":
            sentence = pending.pop(key, None)
            if sentence is None:
                logger.debug("orphan trigger line for %s discarded", name)
                continue
            st = stats[name]
            if st.pairs >= per_event:
                continue
            st.pairs += 1
            try:
                st.samples.append(GeneratedSample(event_name=name, sentence=sentence, trigger=value))
            except InvalidSampleError as exc:
                logger.debug("invalid sample dropped: %s", exc)
                st.dropped += 1
    return stats


def parse_paraphrases(text: str, event: str) -> list[str]:
    """All non-empty paraphrase record values for the event, in order."""
    key = _name_key(event)
    return [value for k, fieldname, value in _records(text) if k == key and fieldname == "paraphrase" and value]


# ---------------------------------------------------------------------------
# Step 2: definition curation (one request per tree)
# ---------------------------------------------------------------------------


def curate_definitions_for_trees(
    trees: Sequence[EventTypeNode],
    backend: Backend,
    max_in_flight: int = 4,
    retry_limit: int = 3,
) -> tuple[dict[str, str], CurationReport]:
    """Curate one definition per node for every tree, one prompt per tree so
    sibling definitions are generated together and stay mutually distinct.

    Trees whose response is missing some event's definition line are retried
    once with the same prompt; events still missing afterwards are recorded
    as failures. Found definitions are attached to the nodes as
    ``definitions[0]``.
    """
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
        retry_results = complete_batch(
            [requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit
        )
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


def curate_definitions(tree: EventTypeNode, backend: Backend) -> tuple[dict[str, str], CurationReport]:
    """Definition curation for a single tree. See curate_definitions_for_trees."""
    if tree is None:
        raise ValueError("empty tree")
    return curate_definitions_for_trees([tree], backend, max_in_flight=1)


# ---------------------------------------------------------------------------
# Step 3: sample curation (one request per tree)
# ---------------------------------------------------------------------------


def curate_samples_for_trees(
    trees: Sequence[EventTypeNode],
    backend: Backend,
    per_event: int = 10,
    max_in_flight: int = 4,
    retry_limit: int = 3,
) -> tuple[list[GeneratedSample], CurationReport]:
    """Generate per_event validated samples for every event of every tree.

    Samples whose trigger does not occur verbatim in the sentence are dropped
    and counted. A tree whose response leaves some event short of per_event
    valid samples is retried once; per event, whichever response yields more
    valid samples wins. Each node's ``samples`` is set to its winners.
    """
    if per_event < 1:
        raise ValueError("per_event must be a positive integer")
    all_nodes = [node for tree in trees for node in tree.iter_preorder()]
    for node in all_nodes:
        if not node.definitions:
            raise ValueError(f"node {node.name!r} has no definition; run definition curation first")

    report = CurationReport(requested=per_event * len(all_nodes))
    requests = [sample_request(t, per_event) for t in trees]
    results = complete_batch(requests, backend, max_in_flight, retry_limit=retry_limit)

    stats: dict[str, _SampleStats] = {}
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
        retry_results = complete_batch(
            [requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit
        )
        for i, result in zip(retry_idx, retry_results):
            if isinstance(result, GenFailure):
                continue
            names = [n.name for n in trees[i].iter_preorder()]
            retry_stats = parse_samples(result.text, names, per_event)
            for name in names:
                if len(retry_stats[name].samples) > len(stats[name].samples):
                    stats[name] = retry_stats[name]

    samples: list[GeneratedSample] = []
    for node in all_nodes:
        st = stats[node.name]
        node.samples = list(st.samples)
        samples.extend(st.samples)
        report.parsed += len(st.samples)
        report.dropped_invalid += st.dropped
        short = per_event - st.pairs
        if short > 0 and node.name not in failed_events:
            report.failures.append((node.name, f"response contained {st.pairs} of {per_event} sample records"))
    return samples, report


def curate_samples(
    tree: EventTypeNode, backend: Backend, per_event: int = 10
) -> tuple[list[GeneratedSample], CurationReport]:
    """Sample curation for a single tree. See curate_samples_for_trees."""
    if tree is None:
        raise ValueError("empty tree")
    return curate_samples_for_trees([tree], backend, per_event=per_event, max_in_flight=1)


# ---------------------------------------------------------------------------
# Step 4: definition expansion (one request per node)
# ---------------------------------------------------------------------------


def expand_definitions_for_nodes(
    nodes: Sequence[EventTypeNode],
    backend: Backend,
    count: int = 10,
    max_in_flight: int = 4,
    retry_limit: int = 3,
    failures: list[tuple[str, str]] | None = None,
) -> dict[str, list[str]]:
    """Paraphrase each node's seed definition count times and append the new,
    deduplicated paraphrases to node.definitions (so len <= 1 + count).

    A node whose request fails gets nothing added; when ``failures`` is given,
    an (event, reason) pair is appended to it for each such node.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    for node in nodes:
        if not node.definitions:
            raise ValueError(f"node {node.name!r} has no definition; run definition curation first")

    requests = [expansion_request(n, count) for n in nodes]
    results = complete_batch(requests, backend, max_in_flight, retry_limit=retry_limit)

    texts: dict[str, str | None] = {}
    retry_idx: list[int] = []
    for i, (node, result) in enumerate(zip(nodes, results)):
        if isinstance(result, GenFailure):
            if failures is not None:
                failures.append((node.name, f"backend failure: {result.error}"))
            texts[node.name] = None
            continue
        texts[node.name] = result.text
        if len(parse_paraphrases(result.text, node.name)) < count:
            retry_idx.append(i)

    if retry_idx:
        retry_results = complete_batch(
            [requests[i] for i in retry_idx], backend, max_in_flight, retry_limit=retry_limit
        )
        for i, result in zip(retry_idx, retry_results):
            node = nodes[i]
            if isinstance(result, GenFailure):
                continue
            old = texts[node.name]
            if old is None or len(parse_paraphrases(result.text, node.name)) > len(parse_paraphrases(old, node.name)):
                texts[node.name] = result.text

    added: dict[str, list[str]] = {}
    for node in nodes:
        text = texts.get(node.name)
        new: list[str] = []
        if text is not None:
            existing = {d.strip() for d in node.definitions}
            for para in parse_paraphrases(text, node.name)[:count]:
                if para.strip() not in existing:
                    existing.add(para.strip())
                    new.append(para)
            if len(new) < count:
                logger.info("%s: %d of %d paraphrases survived dedup", node.name, len(new), count)
        node.definitions.extend(new)
        added[node.name] = new
    return added


def expand_definitions(node: EventTypeNode, backend: Backend, count: int = 10) -> list[str]:
    """Definition expansion for a single node. See expand_definitions_for_nodes."""
    return expand_definitions_for_nodes([node], backend, count=count, max_in_flight=1)[node.name]


# ---------------------------------------------------------------------------
# Generated-dataset JSONL round-trip
# ---------------------------------------------------------------------------


def write_dataset(dataset: Ontology, path: str | Path) -> int:
    """Write one row per event in pre-order; ``children`` is derived from the
    parent links."""
    return jsonl.write_rows(
        path,
        (
            {
                "event": node.name,
                "parent": node.parent.name if node.parent is not None else None,
                "children": [child.name for child in node.children],
                "definitions": list(node.definitions),
                "samples": [{"sentence": s.sentence, "trigger": s.trigger} for s in node.samples],
            }
            for node in dataset.iter_nodes()
        ),
    )


def read_dataset(path: str | Path) -> Ontology:
    """Load a dataset as an Ontology with definitions and samples on its nodes.

    The rows must form a valid ontology (names unique up to case, parents
    known, no cycles); ``children`` is only type-checked. Every error names
    ``path:line``.
    """
    numbered: list[tuple[int, tuple[str, str | None, str | None]]] = []
    contents: list[tuple[list[str], list[GeneratedSample]]] = []
    for lineno, obj in jsonl.read_rows(path):
        try:
            event = obj["event"]
            if not isinstance(event, str) or not event.strip():
                raise jsonl.JsonlError(path, lineno, "field 'event' must be a non-empty string")
            children = obj.get("children", [])
            definitions = obj.get("definitions", [])
            if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
                raise jsonl.JsonlError(path, lineno, "field 'children' must be a list of strings")
            if not isinstance(definitions, list) or not all(isinstance(d, str) for d in definitions):
                raise jsonl.JsonlError(path, lineno, "field 'definitions' must be a list of strings")
            samples = obj.get("samples", [])
            if not isinstance(samples, list) or not all(
                isinstance(s, dict) and isinstance(s.get("sentence"), str) and isinstance(s.get("trigger"), str)
                for s in samples
            ):
                raise jsonl.JsonlError(
                    path, lineno, "field 'samples' must be a list of objects with string 'sentence' and 'trigger'"
                )
            samples = [GeneratedSample(event_name=event, sentence=s["sentence"], trigger=s["trigger"]) for s in samples]
        except KeyError as exc:
            raise jsonl.JsonlError(path, lineno, f"missing required field {exc.args[0]!r}") from exc
        except InvalidSampleError as exc:
            raise jsonl.JsonlError(path, lineno, str(exc)) from exc
        numbered.append((lineno, (event, obj.get("parent"), None)))
        contents.append((definitions, samples))

    dataset = ontology._build_ontology(numbered, "1", str(path), str(path))
    for (_, (event, _, _)), (definitions, samples) in zip(numbered, contents):
        node = dataset.get(event)
        node.definitions, node.samples = definitions, samples
    return dataset

"""Generation steps of the pipeline: definition curation per tree, sample
curation per tree, and definition expansion per node, plus the parsers that
turn raw model output into validated records.

All three steps run one loop, ``_generate``, over units: a request (per tree
or per node) and the events it covers. Round 0 requests every unit; a later
round (only sample curation has them) requests the units with an event still
short of its target. Within a round, a unit whose reply left an event short
is retried once; a unit whose request failed is not, as complete_batch has
spent its retries on it. Per event, a parse replaces the kept one only if it
scores strictly higher. Each step fills the nodes in place and returns a
CurationReport; sample curation and expansion first raise EventInputError for
an event without a definition.

Responses are line-oriented: one record per line of the form
``EVENT<TAB>FIELD: value``. Anything that does not match is treated as
surrounding prose and ignored; the record lines themselves are strict. Each
parser returns one ``_Parse`` per expected event, the type ``_generate`` keeps.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import jsonl, ontology
from .errors import EventInputError
from .llm_client import (
    DEFAULT_EXAMPLES,
    Backend,
    GenFailure,
    GenRequest,
    TemplateId,
    complete_batch,
)
from .ontology import EventTypeNode, Ontology, normalize_name

logger = logging.getLogger(__name__)

_RECORD_FIELDS = frozenset({"definition", "sentence", "trigger", "paraphrase"})


@dataclass(slots=True)
class GeneratedSample:
    """One generated sample: a single-line ``sentence`` and the ``trigger``,
    which occurs verbatim in the sentence; the node that holds it names its event.

    Construction checks these invariants and raises ValueError. They hold at
    construction only; the class is slotted, not frozen, because a frozen
    ``__init__`` pays one ``object.__setattr__`` per field. The pipeline never
    reassigns a field, so every GeneratedSample in circulation stays known-good.
    """

    sentence: str
    trigger: str

    def __post_init__(self) -> None:
        if not self.sentence.strip():
            raise ValueError("empty sentence")
        if self.sentence.splitlines() != [self.sentence]:  # one line of text, as a definition is
            raise ValueError(f"sentence {self.sentence!r} holds a line break")
        if not self.trigger.strip():
            raise ValueError("empty trigger")
        if self.trigger not in self.sentence:
            raise ValueError(f"trigger {self.trigger!r} is not a substring of the sentence")


@dataclass
class CurationReport:
    """Bookkeeping for one generation step: ``requested`` records (the target
    per event times the events), ``parsed`` records kept, ``dropped_invalid``
    records that failed validation, and in ``failures`` an ``(event, reason)``
    for each event whose request failed or whose reply lacked required records."""

    requested: int = 0
    parsed: int = 0
    dropped_invalid: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)


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


@dataclass
class _Parse:
    """What one reply gave one item: a score (the number of usable records),
    the parsed value, why the item falls short if it does, and how many
    invalid records were dropped."""

    score: int
    value: object = None
    reason: str | None = None
    dropped: int = 0


def _records(text: str, expected_events: Sequence[str]) -> Iterable[tuple[str, str, str]]:
    """(event, field, value) per record line that names an expected event,
    the event as spelled in ``expected_events``."""
    wanted = {normalize_name(name): name for name in expected_events}
    for line in text.splitlines():
        event, _, rest = line.partition("\t")
        fieldname, colon, value = rest.partition(":")
        if colon and fieldname in _RECORD_FIELDS and (name := wanted.get(normalize_name(event))) is not None:
            yield name, fieldname, value.strip()


def parse_definitions(text: str, expected_events: Sequence[str]) -> dict[str, _Parse]:
    """One definition per expected event (the first non-empty record wins);
    an event without one scores 0."""
    found: dict[str, str] = {}
    for name, fieldname, value in _records(text, expected_events):
        if fieldname == "definition" and value:
            found.setdefault(name, value)
    missing = _Parse(0, reason="no definition line in response (after retry)")
    return {name: _Parse(1, found[name]) if name in found else missing for name in expected_events}


def parse_samples(text: str, expected_events: Sequence[str], per_event: int) -> dict[str, _Parse]:
    """Pair up sentence/trigger record lines per event and validate each pair.

    Takes at most per_event pairs per event: the valid ones are the value
    (and the score), the invalid ones are counted in ``dropped``. Unpaired
    sentence or trigger lines are ignored.
    """
    parses = {name: _Parse(0, []) for name in expected_events}
    pending: dict[str, str] = {}
    for name, fieldname, value in _records(text, expected_events):
        if fieldname == "sentence":
            if name in pending:
                logger.debug("orphan sentence line for %s discarded", name)
            pending[name] = value
        elif fieldname == "trigger":
            sentence = pending.pop(name, None)
            if sentence is None:
                logger.debug("orphan trigger line for %s discarded", name)
                continue
            parsed = parses[name]
            if parsed.score + parsed.dropped >= per_event:
                continue
            try:
                parsed.value.append(GeneratedSample(sentence, value))
                parsed.score += 1
            except ValueError as exc:
                logger.debug("invalid sample for %s dropped: %s", name, exc)
                parsed.dropped += 1
    for parsed in parses.values():
        pairs = parsed.score + parsed.dropped
        if pairs < per_event:
            parsed.reason = f"response contained {pairs} of {per_event} sample records"
    return parses


def parse_paraphrases(text: str, expected_events: Sequence[str]) -> dict[str, _Parse]:
    """All non-empty paraphrase record values per expected event, in order."""
    found: dict[str, list[str]] = {name: [] for name in expected_events}
    for name, fieldname, value in _records(text, expected_events):
        if fieldname == "paraphrase" and value:
            found[name].append(value)
    return {name: _Parse(len(paraphrases), paraphrases) for name, paraphrases in found.items()}


# ---------------------------------------------------------------------------
# The generation loop shared by steps 2-4
# ---------------------------------------------------------------------------


def _generate(
    units: Sequence[tuple],
    parse: Callable[[str, Sequence[str]], dict[str, _Parse]],
    target: int,
    backend: Backend,
    rounds: int = 1,
) -> tuple[dict[str, _Parse], CurationReport]:
    """The loop of the module docstring. A unit is a ``(request, *names)``
    tuple; a flat tuple, because expansion holds one per node through its
    batch. Returns each item's best parse and the report, whose
    ``dropped_invalid`` sums the drops of each round's best parses."""
    best: dict[str, _Parse] = {}
    dropped = 0
    for _ in range(rounds):
        todo = [unit for unit in units if any(n not in best or best[n].score < target for n in unit[1:])]
        if not todo:  # every item is full, so no later round requests anything
            break
        round_best: dict[str, _Parse] = {}
        for _ in range(2):  # the round's requests, then one retry of the units left short
            results = complete_batch([unit[0] for unit in todo], backend)
            short = []
            for unit, result in zip(todo, results):
                names = unit[1:]
                if isinstance(result, GenFailure):
                    _keep_better(round_best, {n: _Parse(0, reason=f"backend failure: {result.error}") for n in names})
                    continue
                _keep_better(round_best, parse(result.text, names))
                if any(round_best[n].score < target for n in names):
                    short.append(unit)
            if not short:
                break
            todo = short
        dropped += sum(parsed.dropped for parsed in round_best.values())
        _keep_better(best, round_best)
    names = [name for unit in units for name in unit[1:]]
    failures = [(name, best[name].reason) for name in names if best[name].reason is not None]
    return best, CurationReport(target * len(names), sum(best[name].score for name in names), dropped, failures)


def _keep_better(kept: dict[str, _Parse], parses: dict[str, _Parse]) -> None:
    for name, parsed in parses.items():
        if name not in kept or parsed.score > kept[name].score:
            kept[name] = parsed


def _require_definitions(nodes: Iterable[EventTypeNode]) -> None:
    for node in nodes:
        if not node.definitions:
            raise EventInputError(node.name, f"event {node.name!r} has no definition; run definition curation first")


# ---------------------------------------------------------------------------
# Step 2: definition curation (one request per tree)
# ---------------------------------------------------------------------------


def curate_definitions_for_trees(
    trees: Sequence[EventTypeNode],
    backend: Backend,
) -> CurationReport:
    """Curate one definition per node for every tree, one prompt per tree so
    sibling definitions are generated together and stay mutually distinct.

    Trees whose response is missing some event's definition line are retried
    once with the same prompt; events still missing afterwards are recorded
    as failures. Found definitions are attached to the nodes as
    ``definitions[0]``.
    """
    units = [(definition_request(tree), *(node.name for node in tree.iter_preorder())) for tree in trees]
    best, report = _generate(units, parse_definitions, 1, backend)
    for tree in trees:
        for node in tree.iter_preorder():
            if best[node.name].value is not None:
                node.definitions[:1] = [best[node.name].value]
    return report


# ---------------------------------------------------------------------------
# Step 3: sample curation (one request per tree)
# ---------------------------------------------------------------------------


def curate_samples_for_trees(
    trees: Sequence[EventTypeNode],
    backend: Backend,
    per_event: int = 10,
    regenerate: int = 0,
) -> CurationReport:
    """Generate per_event validated samples for every event of every tree.

    Samples whose trigger does not occur verbatim in the sentence are dropped
    and counted. A tree whose response leaves some event short of per_event
    valid samples is retried once; per event, whichever response yields more
    valid samples wins. Each of ``regenerate`` further rounds requests again
    every tree that still has a short event, and an event keeps a later
    round's samples only if there are more of them. Each node's ``samples``
    is set to its winners.
    """
    if per_event < 1:
        raise ValueError("per_event must be a positive integer")
    if regenerate < 0:
        raise ValueError("regenerate must be a non-negative integer")
    nodes = [node for tree in trees for node in tree.iter_preorder()]
    _require_definitions(nodes)
    units = [(sample_request(tree, per_event), *(node.name for node in tree.iter_preorder())) for tree in trees]
    parse = functools.partial(parse_samples, per_event=per_event)
    best, report = _generate(units, parse, per_event, backend, rounds=1 + regenerate)
    for node in nodes:
        node.samples = best[node.name].value or []
    return report


# ---------------------------------------------------------------------------
# Step 4: definition expansion (one request per node)
# ---------------------------------------------------------------------------


def expand_definitions_for_nodes(
    nodes: Sequence[EventTypeNode],
    backend: Backend,
    count: int = 10,
) -> CurationReport:
    """Paraphrase each node's seed definition count times and append the new,
    deduplicated paraphrases to node.definitions (so len <= 1 + count).

    A node whose reply has fewer than count paraphrases is retried once and
    keeps the reply with more. A node whose request fails gets nothing added
    and is recorded as a failure. ``parsed`` counts the paraphrases added.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    _require_definitions(nodes)
    units = [(expansion_request(node, count), node.name) for node in nodes]
    best, report = _generate(units, parse_paraphrases, count, backend)
    report.parsed = 0
    for node in nodes:
        existing = {d.strip() for d in node.definitions}
        new: list[str] = []
        for para in (best[node.name].value or [])[:count]:
            if para.strip() not in existing:
                existing.add(para.strip())
                new.append(para)
        if best[node.name].value is not None and len(new) < count:
            logger.info("%s: %d of %d paraphrases survived dedup", node.name, len(new), count)
        node.definitions.extend(new)
        report.parsed += len(new)
    return report


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

    The rows must form a valid ontology (names unique under
    ``normalize_name``, parents known, no cycles) whose parent links give each
    row's ``children``, if it has them, in file order. A definition, like a
    sample's sentence, must be one non-blank line. Each row is checked as it
    is read (``ontology.read_nodes``); every error names ``path:line``.
    """
    return ontology.read_nodes(path, "event", _dataset_fields)


def _dataset_fields(row: dict) -> tuple[list[str] | None, dict]:
    """A dataset row's ``children`` (None if it has none), and its
    definitions and samples; ValueError names a field of the wrong shape."""
    strings = {name: row[name] for name in ("children", "definitions") if name in row}
    for name, value in strings.items():
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"field {name!r} must be a list of strings")
    definitions = strings.get("definitions", [])
    for definition in definitions:  # one line of text, as an event name is
        if not definition.strip() or definition.splitlines() != [definition]:
            raise ValueError(f"definition {definition!r} is blank or holds a line break")
    samples = row.get("samples", [])
    if not isinstance(samples, list) or not all(
        isinstance(s, dict) and isinstance(s.get("sentence"), str) and isinstance(s.get("trigger"), str)
        for s in samples
    ):
        raise ValueError("field 'samples' must be a list of objects with string 'sentence' and 'trigger'")
    return strings.get("children"), {
        "definitions": definitions, "samples": [GeneratedSample(s["sentence"], s["trigger"]) for s in samples]}

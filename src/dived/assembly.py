"""Training/evaluation instance assembly.

Turns a (pruned) generated dataset into serialized instruction instances:
positives, sentence-reusing negatives with target "None", sibling
hard-negatives, optional ontology context, and the definition-removal
ablation variant. All sampling is seeded and derived per event, so output is
a pure function of (dataset, spec) regardless of scheduling.

Negatives come from a sentence index, which keeps for each selected
sentence a list of the distinct events that hold it, and from copied
candidate lists. Negative rows are written from pieces encoded once per
event and kept; a positive row's piece is encoded when the row is written,
since it does not recur (see ``iter_instances`` and ``write_jsonl``). Both
give the same instances and bytes as filtering every event for every
sentence and encoding every row whole. ``iter_instances`` yields the
instances one at a time, so ``write_jsonl(iter_instances(...))`` writes a
slice without holding it.
"""

from __future__ import annotations

import bisect
import functools
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import jsonl
from .errors import DivedError
from .llm_client import _PLACEHOLDER_RE, MissingPlaceholderError
from .ontology import EventTypeNode, Ontology

logger = logging.getLogger(__name__)

_encode = json.encoder.encode_basestring  # a JSON string literal, as json.dumps(..., ensure_ascii=False) writes it

NONE_TARGET = "None"
KINDS = ("positive", "negative", "hard_negative")


class AssemblyError(DivedError):
    pass


class InsufficientDataError(AssemblyError):
    """Not enough events/definitions/samples for the requested slice."""


class NoNegativeCandidatesError(AssemblyError):
    """Negative instances requested but no candidate event types exist."""


@dataclass(frozen=True)
class OntologyContext:
    parent: str | None
    children: tuple[str, ...]


@dataclass(slots=True)
class TrainingInstance:
    instance_id: str
    event_name: str
    definition: str
    ontology_context: OntologyContext | None
    sentence: str
    target: str
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "positive":
            if self.target == NONE_TARGET:
                raise ValueError("positive instance cannot have target 'None'")
            if self.target not in self.sentence:
                raise ValueError(f"positive target {self.target!r} is not a substring of the sentence")
        elif self.target != NONE_TARGET:
            raise ValueError(f"{self.kind} instance must have target 'None', got {self.target!r}")


@dataclass(frozen=True)
class SliceSpec:
    """One point on the scaling grid: how much of each data component to use."""

    n_events: int
    n_definitions: int
    n_samples: int
    n_negatives: int = 0
    n_hard_negatives: int = 0
    with_ontology: bool = False
    with_definition: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_events", "n_definitions", "n_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.n_negatives < 0:
            raise ValueError("n_negatives must be non-negative")
        if not 0 <= self.n_hard_negatives <= self.n_negatives:
            raise ValueError("n_hard_negatives must satisfy 0 <= H <= n_negatives")


def _rng(seed: int, *scope: str) -> random.Random:
    return random.Random("|".join([str(seed), *scope]))


def _cousin_pool(node: EventTypeNode) -> list[EventTypeNode]:
    """Descendants of the node's ancestors, nearest ancestor first, excluding
    the node's own subtree, its siblings, and the ancestors themselves."""
    skip = set(node.iter_preorder()) | set(node.ancestors())
    if node.parent is not None:
        skip.update(node.parent.children)
    pool: list[EventTypeNode] = []
    for ancestor in node.ancestors():
        for desc in ancestor.iter_preorder():
            if desc not in skip:
                skip.add(desc)
                pool.append(desc)
    return pool


def _without(items: list, positions: Iterable[int]) -> list:
    """``items`` minus the given (distinct) positions, in order, copied slice by slice."""
    out: list = []
    start = 0
    for pos in sorted(positions):
        out += items[start:pos]
        start = pos + 1
    out += items[start:]
    return out


def assemble(dataset: Ontology, spec: SliceSpec) -> list[TrainingInstance]:
    """All instances of one slice of the dataset, as a list (see ``iter_instances``)."""
    return list(iter_instances(dataset, spec))


def iter_instances(dataset: Ontology, spec: SliceSpec) -> Iterator[TrainingInstance]:
    """Build instances for one slice of the dataset, one at a time.

    Only events with at least one sample are drawn, as positives or as
    negatives; the others are ontology context only. Selects n_events events
    (seeded, without replacement), per event n_samples samples and
    n_definitions definitions; definitions are assigned to positives
    round-robin so the instance count is invariant along the definition
    axis. Every positive is followed by n_negatives negatives that reuse its
    sentence with target "None": the first n_hard_negatives drawn from
    siblings in the ontology, the rest from non-sibling events with no gold
    sample for this sentence. When an event has fewer siblings than
    requested, the shortfall is filled from cousins and then random
    non-occurring events; those fillers are plain negatives (kind
    "negative"), since only true siblings count as hard negatives.

    The slice checks that need no instance (event count, definitions and
    samples per chosen event, negative candidates) run when this is called,
    before the first instance is asked for. Running out of negative
    candidates for one sentence is found only when its turn comes, and
    raised from the iteration.

    Cost: an index from each selected sentence to a list of the distinct
    events holding it is built once. A plain-negative pool is the candidate
    list (pre-order) with the siblings, the event itself, the events already
    used and the sentence's holders cut out at positions found through a
    node-to-position dict, so it is copied, never rescanned. It has the same
    length and order as the filtered list, and ``random.sample`` reads only
    ``len()`` and indexing, so every draw is the same as from that list. An
    event's cousin pool is built the first time one of its positives is
    short of siblings. Memory follows the dataset and the slice's picks, not the
    instance count: nothing keeps an instance once it is yielded.
    """
    events = [node for node in dataset.iter_nodes() if node.samples]
    if len(events) < spec.n_events:
        raise InsufficientDataError(f"need {spec.n_events} events, dataset has {len(events)}")
    if spec.n_negatives > 0 and len(events) < 2:
        raise NoNegativeCandidatesError("negative instances need at least 2 events in the dataset")

    select_rng = _rng(spec.seed, "select")
    chosen = sorted(select_rng.sample(range(len(events)), spec.n_events))
    picks = []  # (event, its chosen definitions, its chosen samples)
    for node in (events[i] for i in chosen):
        if len(node.definitions) < spec.n_definitions:
            raise InsufficientDataError(
                f"event {node.name!r} has {len(node.definitions)} definitions, need {spec.n_definitions}"
            )
        if len(node.samples) < spec.n_samples:
            raise InsufficientDataError(
                f"event {node.name!r} has {len(node.samples)} samples, need {spec.n_samples}"
            )
        defs_rng = _rng(spec.seed, node.name, "defs")
        samples_rng = _rng(spec.seed, node.name, "samples")
        sel_defs = [node.definitions[i] for i in defs_rng.sample(range(len(node.definitions)), spec.n_definitions)]
        sel_samples = [node.samples[i] for i in sorted(samples_rng.sample(range(len(node.samples)), spec.n_samples))]
        picks.append((node, sel_defs, sel_samples))
    return _instances(spec, events, picks)


def _instances(spec: SliceSpec, events: list[EventTypeNode], picks: list) -> Iterator[TrainingInstance]:
    """The instances of ``iter_instances``, once its checks have passed."""
    holders: dict[str, list[EventTypeNode]] = {s.sentence: [] for _, _, samples in picks for s in samples}
    for node in events:
        for s in node.samples:
            held_by = holders.get(s.sentence)
            if held_by is not None and node not in held_by:
                held_by.append(node)
    candidates = [node for node in events if node.definitions]
    position = {node: i for i, node in enumerate(candidates)}

    @functools.cache
    def context(node: EventTypeNode) -> OntologyContext | None:
        if not spec.with_ontology:
            return None
        return OntologyContext(
            parent=node.parent.name if node.parent is not None else None,
            children=tuple(c.name for c in node.children),
        )

    fallback_count = 0
    for node, sel_defs, sel_samples in picks:
        event = node.name
        negatives_rng = _rng(spec.seed, event, "negatives")
        all_siblings = [] if node.parent is None else [c for c in node.parent.children if c is not node]
        sibling_pool = [s for s in all_siblings if s in position]
        sibling_set = set(all_siblings)
        cousins: list[EventTypeNode] | None = None  # built on the first shortfall of siblings
        sibling_positions = sorted(position[s] for s in sibling_pool)
        non_siblings = _without(candidates, sibling_positions)

        def non_sibling_position(c: EventTypeNode) -> int:
            return position[c] - bisect.bisect_left(sibling_positions, position[c])

        for si, sample in enumerate(sel_samples):
            definition = sel_defs[si % spec.n_definitions]
            yield TrainingInstance(
                instance_id=f"{event}|s{si}|p",
                event_name=event,
                definition=definition if spec.with_definition else "",
                ontology_context=context(node),
                sentence=sample.sentence,
                target=sample.trigger,
                kind="positive",
            )
            if spec.n_negatives == 0:
                continue

            sentence = sample.sentence
            held_by = holders[sentence]
            used: set[EventTypeNode] = set()

            def eligible(pool: Iterable[EventTypeNode]) -> list[EventTypeNode]:
                return [c for c in pool if c is not node and c not in used and c not in held_by]

            negative_events: list[tuple[EventTypeNode, str]] = []  # (event, kind)
            sib_pool = eligible(sibling_pool)
            hard = negatives_rng.sample(sib_pool, min(spec.n_hard_negatives, len(sib_pool)))
            used.update(hard)
            negative_events.extend((neg, "hard_negative") for neg in hard)

            shortfall = spec.n_hard_negatives - len(hard)
            if shortfall > 0:
                fallback_count += shortfall
                if cousins is None:
                    cousins = [c for c in _cousin_pool(node) if c in position]
                cousin_pool = eligible(cousins)
                fill = negatives_rng.sample(cousin_pool, min(shortfall, len(cousin_pool)))
                used.update(fill)
                negative_events.extend((neg, "negative") for neg in fill)
                shortfall -= len(fill)

            plain_needed = (spec.n_negatives - spec.n_hard_negatives) + shortfall
            cut = {node, *used, *held_by}
            plain_pool = _without(
                non_siblings, {non_sibling_position(c) for c in cut if c in position and c not in sibling_set}
            )
            plain = negatives_rng.sample(plain_pool, min(plain_needed, len(plain_pool)))
            if len(plain) < plain_needed:
                # Non-sibling candidates exhausted (small trees): top up from
                # the remaining siblings, still as plain negatives.
                used.update(plain)
                overflow_pool = eligible(sibling_pool)
                overflow = negatives_rng.sample(overflow_pool, min(plain_needed - len(plain), len(overflow_pool)))
                plain.extend(overflow)
            if len(plain) < plain_needed:
                raise InsufficientDataError(
                    f"event {event!r}, sample {si}: need {plain_needed - len(plain)} more "
                    f"negative candidates than the dataset offers"
                )
            negative_events.extend((neg, "negative") for neg in plain)

            for ni, (neg, kind) in enumerate(negative_events):
                yield TrainingInstance(
                    instance_id=f"{event}|s{si}|n{ni}",
                    event_name=neg.name,
                    definition=neg.definitions[0] if spec.with_definition else "",
                    ontology_context=context(neg),
                    sentence=sentence,
                    target=NONE_TARGET,
                    kind=kind,
                )

    if fallback_count:
        logger.info("hard-negative fallback used for %d slots (not enough siblings)", fallback_count)


# ---------------------------------------------------------------------------
# Instance rendering
# ---------------------------------------------------------------------------

DEFAULT_INSTANCE_TEMPLATE = (
    "Identify the event trigger in the sentence.\n"
    "Event type: {event}\n"
    "{definition_block}"
    "{ontology_block}"
    "Sentence: {sentence}\n"
    "Answer with the trigger word, or None if the event does not occur.\n"
)

def render_instance(
    instance: TrainingInstance, template: str = DEFAULT_INSTANCE_TEMPLATE
) -> tuple[str, str]:
    """Serialize one instance into a (prompt, completion) pair.

    The definition and ontology blocks are emitted only when the instance
    carries them, so the ablation variant simply has no Definition block.
    """
    present = set(_PLACEHOLDER_RE.findall(template))
    required = {"event", "sentence"}
    if instance.definition:
        required.add("definition_block")
    if instance.ontology_context is not None:
        required.add("ontology_block")
    missing = required - present
    if missing:
        raise MissingPlaceholderError(sorted(missing))

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
    prompt = _PLACEHOLDER_RE.sub(lambda m: values.get(m.group(1), m.group(0)), template)
    return prompt, instance.target


# ---------------------------------------------------------------------------
# Instance JSONL round-trip
# ---------------------------------------------------------------------------


_STRING_FIELDS = ("instance_id", "event_name", "definition", "sentence", "target", "kind")


def write_jsonl(instances: Iterable[TrainingInstance], path: str | Path) -> int:
    """Write instances as JSONL with a stable field order.

    Each line has the bytes of ``json.dumps(row, ensure_ascii=False)``: the
    event name / definition / ontology context part and the other strings
    are encoded one by one, then joined. Only negative rows' parts are kept,
    once per distinct triple, since a negative event recurs across positives;
    a positive row's part is encoded when the row is written."""
    fragments: dict[tuple[str, str, OntologyContext | None], str] = {}

    def encode_part(inst: TrainingInstance) -> str:
        ctx = inst.ontology_context
        return jsonl.encode_row({
            "event_name": inst.event_name,
            "definition": inst.definition,
            "ontology_context": None if ctx is None else {"parent": ctx.parent, "children": list(ctx.children)},
        })[1:-1]

    def line(inst: TrainingInstance) -> str:
        if inst.kind == "positive":
            part = encode_part(inst)
        else:
            key = (inst.event_name, inst.definition, inst.ontology_context)
            part = fragments.get(key)
            if part is None:
                part = fragments[key] = encode_part(inst)
        return (
            f'{{"instance_id": {_encode(inst.instance_id)}, {part}, "sentence": {_encode(inst.sentence)}, '
            f'"target": {_encode(inst.target)}, "kind": {_encode(inst.kind)}}}'
        )

    return jsonl.write_rows(path, instances, encode=line)


def read_jsonl(path: str | Path) -> list[TrainingInstance]:
    """Read instances back, enforcing the schema; violations name the line."""
    instances: list[TrainingInstance] = []
    for lineno, obj in jsonl.read_rows(path):
        missing = [k for k in _STRING_FIELDS if k not in obj]
        if missing:
            raise jsonl.JsonlError(path, lineno, f"missing required fields: {', '.join(missing)}")
        not_strings = [k for k in _STRING_FIELDS if not isinstance(obj[k], str)]
        if not_strings:
            raise jsonl.JsonlError(path, lineno, f"fields must be strings: {', '.join(not_strings)}")
        ctx_obj = obj.get("ontology_context")
        ctx: OntologyContext | None = None
        if ctx_obj is not None:
            if (
                not isinstance(ctx_obj, dict)
                or "parent" not in ctx_obj
                or not isinstance(ctx_obj["parent"], (str, type(None)))
                or not isinstance(ctx_obj.get("children"), list)
                or not all(isinstance(c, str) for c in ctx_obj["children"])
            ):
                raise jsonl.JsonlError(path, lineno, "ontology_context must be null or {parent, children} of strings")
            ctx = OntologyContext(parent=ctx_obj["parent"], children=tuple(ctx_obj["children"]))
        try:
            instances.append(TrainingInstance(ontology_context=ctx, **{k: obj[k] for k in _STRING_FIELDS}))
        except ValueError as exc:
            raise jsonl.JsonlError(path, lineno, str(exc)) from exc
    return instances


def count_kinds(instances: Iterable[TrainingInstance]) -> dict[str, int]:
    counts = {kind: 0 for kind in KINDS}
    for inst in instances:
        counts[inst.kind] += 1
    return counts

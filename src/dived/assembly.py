"""Training/evaluation instance assembly.

Turns a (pruned) generated dataset into serialized instruction instances:
positives, sentence-reusing negatives with target "None", sibling
hard-negatives, optional ontology context, and the definition-removal
ablation variant. All sampling is seeded per event and per positive, so
output is a pure function of (dataset, spec) regardless of scheduling, and a
smaller slice lies inside a larger one.

Each positive draws its negatives from its own RNG, out of four pools that
leave out the events holding its sentence (a sentence index keeps, for
each selected sentence, the distinct events that hold it): hard negatives
from the event's free siblings, a cousin fill for their shortfall, plain
negatives by rejection from the candidate list, and a top-up from the free
siblings left over when the plain ones run out. One draw loop makes every
draw of a slice and every choice of a row: its id, event, definition,
target and kind (``_context`` gives its ontology context). ``iter_instances`` builds
``TrainingInstance``s from those rows, one at a time; ``write_slice``, which
``dived assemble`` runs, turns the same rows straight into the JSONL lines
of ``write_jsonl(iter_instances(...))``. Both writers format a line in one
place (``_row``) and encode an event's name, definition and context part
once per slice. Neither holds the slice.
"""

from __future__ import annotations

import functools
import json
import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import jsonl
from .errors import DivedError, EventInputError
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


def assemble(dataset: Ontology, spec: SliceSpec) -> list[TrainingInstance]:
    """All instances of one slice of the dataset, as a list (see ``iter_instances``)."""
    return list(iter_instances(dataset, spec))


def iter_instances(dataset: Ontology, spec: SliceSpec) -> Iterator[TrainingInstance]:
    """Build instances for one slice of the dataset, one at a time.

    Only events with at least one sample are drawn, as positives or as
    negatives; the others are ontology context only. The n_events events,
    and per chosen event its n_definitions definitions and n_samples
    samples, are each the prefix of one seeded permutation. Events come in
    pre-order, samples in permutation order (``s{si}`` is a sample's place
    in it), and definitions are assigned to positives round-robin so the
    instance count is invariant along the definition axis. Every positive is
    followed by n_negatives negatives that reuse its sentence with target
    "None": the first n_hard_negatives drawn from siblings in the ontology,
    the rest from non-sibling events with no gold sample for this sentence.
    When an event has fewer siblings than requested, the shortfall is filled
    from cousins and then random non-occurring events; those fillers are
    plain negatives (kind "negative"), since only true siblings count as
    hard negatives. Each positive draws them from its own RNG, seeded by its
    event and its sample's index in ``node.samples``. So slices nest: growing
    n_events or n_samples keeps every row of the smaller slice unchanged, and
    growing n_definitions only adds definitions to each event's rotation.

    The slice checks that need no instance (event count, definitions and
    samples per chosen event, negative candidates) run when this is called,
    before the first instance is asked for. Running out of negative
    candidates for one sentence is found only when its turn comes, and
    raised from the iteration; so is a chosen sample whose trigger is
    "None", the negative target (an EventInputError).

    Cost: the sentence index is built once. A positive draws from four
    pools, in this order: hard negatives from its free siblings (the
    event's candidate siblings that do not hold the sentence, listed once
    per positive); the cousin fill from the cousins that do not hold it;
    plain negatives, each a uniform pick from the whole candidate list drawn
    again while it falls in the skip set (the event and its siblings, a set
    built once per event, then the sentence's holders, the cousin fill and
    the plain negatives already drawn), or all candidates outside that set
    in pre-order when no more lie outside it than are needed; and the top-up
    from the free siblings not drawn as hard negatives. So a positive costs
    about its siblings, its skip set and its draws, not a pass over the
    candidates. An event's cousin pool is built the first time one of its
    positives is short of siblings. Each row's id, definition, target and
    kind are chosen in the draw loop, which this wraps in a
    ``TrainingInstance`` per row (``write_slice`` writes the same rows
    without one). Memory follows the dataset and the slice's picks, not the
    instance count: nothing keeps an instance once it is yielded.
    """
    return _instances(spec, _draws(dataset, spec))


def _draws(dataset: Ontology, spec: SliceSpec) -> Iterator[tuple]:
    """Run the slice checks, then return its draw loop. Per positive, in
    output order, the loop yields (stem, sentence, rows) for the positive,
    then draws its negatives and yields them the same way, hard ones first.
    Each row is (suffix, node, definition, target, kind), its instance id
    is stem + suffix and its ontology context ``_context(spec, node)``."""
    events = [node for node in dataset.iter_nodes() if node.samples]
    if len(events) < spec.n_events:
        raise InsufficientDataError(f"need {spec.n_events} events, dataset has {len(events)}")
    if spec.n_negatives > 0 and len(events) < 2:
        raise NoNegativeCandidatesError("negative instances need at least 2 events in the dataset")

    order = list(range(len(events)))  # each permutation is the same for every slice size
    _rng(spec.seed, "select").shuffle(order)
    picks = []  # (event, its chosen definitions, the indices of its chosen samples)
    for node in (events[i] for i in sorted(order[: spec.n_events])):
        if len(node.definitions) < spec.n_definitions:
            raise InsufficientDataError(
                f"event {node.name!r} has {len(node.definitions)} definitions, need {spec.n_definitions}"
            )
        if len(node.samples) < spec.n_samples:
            raise InsufficientDataError(f"event {node.name!r} has {len(node.samples)} samples, need {spec.n_samples}")
        definitions, sample_ids = list(node.definitions), list(range(len(node.samples)))
        _rng(spec.seed, node.name, "defs").shuffle(definitions)
        _rng(spec.seed, node.name, "samples").shuffle(sample_ids)
        picks.append((node, definitions[: spec.n_definitions], sample_ids[: spec.n_samples]))
    return _draw_loop(spec, events, picks)


def _draw_loop(spec: SliceSpec, events: list[EventTypeNode], picks: list) -> Iterator[tuple]:
    """The draw loop of ``_draws``, once its checks have passed."""
    candidates = [node for node in events if node.definitions]
    is_candidate = set(candidates)
    holders: dict[str, set[EventTypeNode]] = {node.samples[i].sentence: set() for node, _, ids in picks for i in ids}
    for node in candidates:
        for s in node.samples:
            if s.sentence in holders:
                holders[s.sentence].add(node)
    suffixes = [f"n{ni}" for ni in range(spec.n_negatives)]

    fallback_count = 0
    for node, sel_defs, sample_ids in picks:
        event = node.name
        siblings = [c for c in (node.parent.children if node.parent else ()) if c is not node and c in is_candidate]
        own = {node, *siblings}
        cousins: list[EventTypeNode] | None = None  # built on the first shortfall of siblings

        for si, sample_index in enumerate(sample_ids):
            sample = node.samples[sample_index]
            if sample.trigger == NONE_TARGET:
                raise EventInputError(event, f"event {event!r}: sample {sample.sentence!r} has trigger "
                                             f"{NONE_TARGET!r}, which is the target of a negative instance")
            stem = f"{event}|s{si}|"
            definition = sel_defs[si % spec.n_definitions] if spec.with_definition else ""
            yield stem, sample.sentence, [("p", node, definition, sample.trigger, "positive")]
            if spec.n_negatives == 0:
                continue

            negatives_rng = _rng(spec.seed, event, "negatives", str(sample_index))
            held_by = holders[sample.sentence]
            free_siblings = [c for c in siblings if c not in held_by]
            hard = negatives_rng.sample(free_siblings, min(spec.n_hard_negatives, len(free_siblings)))
            fill: list[EventTypeNode] = []
            shortfall = spec.n_hard_negatives - len(hard)
            if shortfall > 0:
                fallback_count += shortfall
                if cousins is None:
                    cousins = [c for c in _cousin_pool(node) if c in is_candidate]
                free_cousins = [c for c in cousins if c not in held_by]
                fill = negatives_rng.sample(free_cousins, min(shortfall, len(free_cousins)))

            plain_needed = spec.n_negatives - len(hard) - len(fill)
            skip = own.union(held_by, fill)  # every set here holds candidates only
            if len(candidates) - len(skip) <= plain_needed:
                plain = [c for c in candidates if c not in skip]
            else:
                plain = []
                while len(plain) < plain_needed:
                    neg = candidates[negatives_rng.randrange(len(candidates))]
                    if neg not in skip:
                        skip.add(neg)
                        plain.append(neg)
            if len(plain) < plain_needed:
                # Non-sibling candidates exhausted (small trees): top up from
                # the free siblings left over, still as plain negatives.
                rest = [c for c in free_siblings if c not in hard]
                plain += negatives_rng.sample(rest, min(plain_needed - len(plain), len(rest)))
            if len(plain) < plain_needed:
                raise InsufficientDataError(
                    f"event {event!r}, sample {si}: need {plain_needed - len(plain)} more "
                    f"negative candidates than the dataset offers"
                )
            yield stem, sample.sentence, [
                (suffixes[ni], neg, neg.definitions[0] if spec.with_definition else "", NONE_TARGET,
                 "hard_negative" if ni < len(hard) else "negative")
                for ni, neg in enumerate(hard + fill + plain)
            ]

    if fallback_count:
        logger.info("hard-negative fallback used for %d slots (not enough siblings)", fallback_count)


def _context(spec: SliceSpec, node: EventTypeNode) -> OntologyContext | None:
    """The ontology context of a row of the slice that names the node."""
    if not spec.with_ontology:
        return None
    return OntologyContext(
        parent=node.parent.name if node.parent is not None else None,
        children=tuple(c.name for c in node.children),
    )


def _instances(spec: SliceSpec, draws: Iterator[tuple]) -> Iterator[TrainingInstance]:
    """The instances of ``iter_instances``, built from the draw loop's rows."""
    context = functools.cache(functools.partial(_context, spec))
    for stem, sentence, rows in draws:
        for suffix, node, definition, target, kind in rows:
            yield TrainingInstance(stem + suffix, node.name, definition, context(node), sentence, target, kind)


# ---------------------------------------------------------------------------
# Instance rendering
# ---------------------------------------------------------------------------


def render_instance(instance: TrainingInstance) -> tuple[str, str]:
    """Serialize one instance into a (prompt, completion) pair, in one fixed
    instruction format. The Definition line appears only when the instance
    has a definition (so the ablation variant has none), the Ontology line
    only when it has a context. Field values go in as they are."""
    prompt = f"Identify the event trigger in the sentence.\nEvent type: {instance.event_name}\n"
    if instance.definition:
        prompt += f"Definition: {instance.definition}\n"
    if (ctx := instance.ontology_context) is not None:
        prompt += f"Ontology: parent event: {ctx.parent or 'none'}; child events: {', '.join(ctx.children) or 'none'}\n"
    prompt += f"Sentence: {instance.sentence}\nAnswer with the trigger word, or None if the event does not occur.\n"
    return prompt, instance.target


# ---------------------------------------------------------------------------
# Instance JSONL round-trip
# ---------------------------------------------------------------------------


_STRING_FIELDS = ("instance_id", "event_name", "definition", "sentence", "target", "kind")


def _part(event_name: str, definition: str, ctx: OntologyContext | None) -> str:
    """The event name / definition / ontology context members of an instance line."""
    return jsonl.encode_row({
        "event_name": event_name,
        "definition": definition,
        "ontology_context": None if ctx is None else {"parent": ctx.parent, "children": list(ctx.children)},
    })[1:-1]


def _row(instance_id: str, part: str, sentence: str, target: str, kind: str) -> str:
    """One instance line, without its newline, from JSON string literals and a
    ``_part``: the bytes of ``json.dumps(row, ensure_ascii=False)``."""
    return f'{{"instance_id": {instance_id}, {part}, "sentence": {sentence}, "target": {target}, "kind": {kind}}}'


def write_jsonl(instances: Iterable[TrainingInstance], path: str | Path) -> int:
    """Write instances as JSONL with a stable field order (``_row``); return the
    row count. A negative row's event name / definition / context part is
    kept once per distinct triple, since a negative event recurs across
    positives; a positive row's part is encoded when the row is written."""
    neg_parts: dict[tuple[str, str, OntologyContext | None], str] = {}

    def line(inst: TrainingInstance) -> str:
        key = (inst.event_name, inst.definition, inst.ontology_context)
        if inst.kind == "positive":
            part = _part(*key)
        elif (part := neg_parts.get(key)) is None:
            part = neg_parts[key] = _part(*key)
        return _row(_encode(inst.instance_id), part, _encode(inst.sentence), _encode(inst.target), _encode(inst.kind))

    return jsonl.write_rows(path, instances, encode=line)


def write_slice(dataset: Ontology, spec: SliceSpec, path: str | Path) -> dict[str, int]:
    """Write the bytes of ``write_jsonl(iter_instances(dataset, spec), path)``
    straight from the draw loop's rows, and return the row count per kind.
    The slice checks run before the output opens. Each group of rows the loop
    yields (a positive, or its negatives) has its stem and sentence encoded
    once and goes out in one write. As in ``write_jsonl``, only the
    negatives' parts are kept."""
    counts = dict.fromkeys(KINDS, 0)
    literals = {text: _encode(text) for text in (*KINDS, NONE_TARGET)}
    neg_parts: dict[tuple[EventTypeNode, str], str] = {}
    draws = _draws(dataset, spec)
    with jsonl.open_atomic(path) as fh:
        for stem, sentence, rows in draws:
            ids, sentence = _encode(stem)[:-1], _encode(sentence)
            lines = []
            for suffix, node, definition, target, kind in rows:
                if kind == "positive":
                    part = _part(node.name, definition, _context(spec, node))
                elif (part := neg_parts.get((node, definition))) is None:
                    part = neg_parts[node, definition] = _part(node.name, definition, _context(spec, node))
                lines.append(_row(f'{ids}{suffix}"', part, sentence, literals.get(target) or _encode(target),
                                  literals[kind]))
                counts[kind] += 1
            fh.write("\n".join(lines) + "\n")
    return counts


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

"""Training/evaluation instance assembly.

Turns a (pruned) generated dataset into serialized instruction instances:
positives, sentence-reusing negatives with target "None", sibling
hard-negatives, optional ontology context, and the definition-removal
ablation variant. All sampling is seeded per event and per positive, so
output is a pure function of (dataset, spec) regardless of scheduling, and a
smaller slice lies inside a larger one.

Each positive draws its negatives from its own RNG, by rejection from the
candidate list, against a sentence index that keeps for each selected
sentence the distinct events that hold it. Negative rows are written from
pieces encoded once per event and kept; a positive row's piece is encoded
when the row is written (see ``write_jsonl``). ``iter_instances`` yields the
instances one at a time, so ``write_jsonl(iter_instances(...))`` writes a
slice without holding it.
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
    raised from the iteration.

    Cost: the sentence index is built once. A plain negative is a uniform
    pick from the whole candidate list, drawn again while it falls in the
    skip set (the event, its siblings, the sentence's holders and the
    negatives already drawn); when no more candidates lie outside that set
    than are needed, all of them are taken in pre-order. So a positive costs
    about its skip set and its draws, not a pass over the candidates. An
    event's cousin pool is built the first time one of its positives is
    short of siblings. Memory follows the dataset and the slice's picks, not
    the instance count: nothing keeps an instance once it is yielded.
    """
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
    return _instances(spec, events, picks)


def _instances(spec: SliceSpec, events: list[EventTypeNode], picks: list) -> Iterator[TrainingInstance]:
    """The instances of ``iter_instances``, once its checks have passed."""
    candidates = [node for node in events if node.definitions]
    is_candidate = set(candidates)
    holders: dict[str, set[EventTypeNode]] = {node.samples[i].sentence: set() for node, _, ids in picks for i in ids}
    for node in candidates:
        for s in node.samples:
            if s.sentence in holders:
                holders[s.sentence].add(node)

    @functools.cache
    def context(node: EventTypeNode) -> OntologyContext | None:
        if not spec.with_ontology:
            return None
        return OntologyContext(
            parent=node.parent.name if node.parent is not None else None,
            children=tuple(c.name for c in node.children),
        )

    fallback_count = 0
    for node, sel_defs, sample_ids in picks:
        event = node.name
        sibling_pool = [c for c in (node.parent.children if node.parent else ()) if c is not node and c in is_candidate]
        own_skip = {node, *sibling_pool}  # every set here holds candidates only
        cousins: list[EventTypeNode] | None = None  # built on the first shortfall of siblings

        for si, sample_index in enumerate(sample_ids):
            sample = node.samples[sample_index]
            yield TrainingInstance(
                instance_id=f"{event}|s{si}|p",
                event_name=event,
                definition=sel_defs[si % spec.n_definitions] if spec.with_definition else "",
                ontology_context=context(node),
                sentence=sample.sentence,
                target=sample.trigger,
                kind="positive",
            )
            if spec.n_negatives == 0:
                continue

            negatives_rng = _rng(spec.seed, event, "negatives", str(sample_index))
            held_by = holders[sample.sentence]
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
                    cousins = [c for c in _cousin_pool(node) if c in is_candidate]
                cousin_pool = eligible(cousins)
                fill = negatives_rng.sample(cousin_pool, min(shortfall, len(cousin_pool)))
                used.update(fill)
                negative_events.extend((neg, "negative") for neg in fill)
                shortfall -= len(fill)

            plain_needed = (spec.n_negatives - spec.n_hard_negatives) + shortfall
            skip = own_skip.union(held_by, used)
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
                    sentence=sample.sentence,
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

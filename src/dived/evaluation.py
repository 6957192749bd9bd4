"""Trigger identification/classification scoring and ablation drop rates.

Identification (ID) matches predicted trigger strings against gold trigger
strings within a sentence, pooled over event types; classification (CLS)
additionally requires the event type to match. Matching is one-to-one over
multisets with exact string equality after trim and whitespace collapse
(case-sensitive), which makes greedy matching optimal. When every record of
a sentence carries character spans on both sides, span equality replaces
string equality.

Scoring is one pass over the records (see ``match_and_score``): each
trigger is normalized and counted once, and the per-type counts are the
same as matching every event type on its own.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

from . import jsonl
from .errors import DivedError

NONE_TOKEN = "none"


class EvaluationInputError(DivedError):
    """Bad scorer input: an unknown sentence id, a duplicate record, or a
    score report file that is not one."""


class RecordError(EvaluationInputError):
    """A record ``match_and_score`` cannot score: the second gold or
    prediction record for one (sentence, event type), or the first
    prediction for a sentence without gold (``event_type`` None). ``side``
    ("gold" or "prediction"), ``sentence_id`` and ``event_type`` name it; the
    CLI names its line."""

    def __init__(self, side: str, sentence_id: str, event_type: str | None, message: str):
        super().__init__(message)
        self.side, self.sentence_id, self.event_type = side, sentence_id, event_type


def normalize_trigger(text: str) -> str:
    """Trim and collapse each whitespace run to one space (``str.split``'s
    whitespace is the same set as the regex class ``\\s``)."""
    return " ".join(text.split())


def parse_model_output(raw: str) -> list[str]:
    """Split raw model output into trigger strings.

    Splits on each comma and line feed, trims, drops empty pieces and the
    literal "None" (case-insensitive). Order is preserved and duplicates are
    kept: triggers are multisets.
    """
    out = []
    for part in re.split("[,\n]", raw):
        trimmed = part.strip()
        if trimmed and trimmed.casefold() != NONE_TOKEN:
            out.append(trimmed)
    return out


@dataclass(slots=True)
class GoldRecord:
    """Gold triggers for one (sentence, event type). An empty trigger list is
    an explicit no-event marker."""

    sentence_id: str
    event_type: str
    triggers: tuple[str, ...]
    spans: tuple[tuple[int, int], ...] | None = None


@dataclass(slots=True)
class PredictionRecord(GoldRecord):
    """Predicted triggers for one (sentence, event type); the same fields as GoldRecord."""

    @classmethod
    def from_raw(
        cls,
        sentence_id: str,
        event_type: str,
        triggers: Sequence[str],
        spans: Sequence[Sequence[int]] | None = None,
    ) -> "PredictionRecord":
        """Normalize raw trigger strings: "None" outputs become no triggers."""
        kept: list[str] = []
        kept_spans: list[tuple[int, int]] = []
        for i, trigger in enumerate(triggers):
            if normalize_trigger(trigger).casefold() == NONE_TOKEN:
                continue
            kept.append(trigger)
            if spans is not None:
                kept_spans.append(tuple(spans[i]))
        return cls(
            sentence_id=sentence_id,
            event_type=event_type,
            triggers=tuple(kept),
            spans=tuple(kept_spans) if spans is not None else None,
        )


@dataclass(frozen=True)
class Scores:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "Scores":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


@dataclass
class ScoreReport:
    id_scores: Scores
    cls_scores: Scores
    per_event_type: dict[str, Scores] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "identification": dict(vars(self.id_scores)),
            "classification": dict(vars(self.cls_scores)),
            "per_event_type": {t: dict(vars(s)) for t, s in sorted(self.per_event_type.items())},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScoreReport":
        def scores(fields: dict) -> Scores:
            return Scores(*map(fields.__getitem__, _SCORE_KEYS))

        return cls(
            id_scores=scores(obj["identification"]),
            cls_scores=scores(obj["classification"]),
            per_event_type={t: scores(s) for t, s in obj.get("per_event_type", {}).items()},
        )

    def to_table(self) -> str:
        rows = [("", "P", "R", "F1", "TP", "FP", "FN")]

        def fmt(label: str, s: Scores) -> tuple[str, ...]:
            return (label, f"{s.precision:.4f}", f"{s.recall:.4f}", f"{s.f1:.4f}", str(s.tp), str(s.fp), str(s.fn))

        rows.append(fmt("identification", self.id_scores))
        rows.append(fmt("classification", self.cls_scores))
        for event_type in sorted(self.per_event_type):
            rows.append(fmt(f"  {event_type}", self.per_event_type[event_type]))
        widths = [max(len(r[i]) for r in rows) for i in range(7)]
        return "\n".join(
            "  ".join(cell.ljust(widths[0]) if i == 0 else cell.rjust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        )


def _span_mode(records: Collection[GoldRecord]) -> bool:
    return bool(records) and all(rec.spans is not None and len(rec.spans) == len(rec.triggers) for rec in records)


def _typed_triggers(records: Iterable[GoldRecord], spans: bool) -> dict[tuple, int]:
    """Multiset of (event type, span or normalized trigger) over the records."""
    counts: dict[tuple, int] = {}
    for rec in records:
        for ident in rec.spans if spans else map(normalize_trigger, rec.triggers):
            key = (rec.event_type, ident)
            counts[key] = counts.get(key, 0) + 1
    return counts


def match_and_score(gold: Sequence[GoldRecord], pred: Sequence[PredictionRecord]) -> ScoreReport:
    """Micro-averaged trigger identification and classification scores.

    Per sentence, predicted triggers are matched one-to-one against gold
    triggers: pooled over event types for identification, within the event
    type for classification. Matched pairs are TP; unmatched predictions FP;
    unmatched gold FN. Every event type of the records gets a per-type entry,
    also one with no triggers.

    Cost: one pass groups each side's records per sentence in a dict keyed
    by event type, in file order. A duplicate (sentence, event type) record
    on either side is a lookup in that dict, so no key is built per record;
    a prediction for a sentence without gold is rejected in the same pass.
    Each sentence then builds one typed multiset per side; the pooled
    (identification) multisets and the per-type counts are derived from
    those in the same pass.
    """
    by_sentence: dict[str, tuple[dict[str, GoldRecord], dict[str, PredictionRecord]]] = {}
    type_counts: dict[str, list[int]] = {}  # type -> [tp, fp, fn]
    for side, (label, records) in enumerate((("gold", gold), ("prediction", pred))):
        for rec in records:
            if side == 0:
                group = by_sentence.setdefault(rec.sentence_id, ({}, {}))
            elif (group := by_sentence.get(rec.sentence_id)) is None:
                raise RecordError(label, rec.sentence_id, None,
                                  f"prediction for unknown sentence id {rec.sentence_id!r}")
            by_type = group[side]
            if rec.event_type in by_type:
                raise RecordError(label, rec.sentence_id, rec.event_type,
                                  f"duplicate {label} record for sentence {rec.sentence_id!r}, type {rec.event_type!r}")
            by_type[rec.event_type] = rec
            type_counts.setdefault(rec.event_type, [0, 0, 0])

    id_tp = n_gold = n_pred = 0
    for g_by_type, p_by_type in by_sentence.values():
        g_recs, p_recs = g_by_type.values(), p_by_type.values()
        spans = _span_mode(g_recs) and _span_mode(p_recs)
        g_typed = _typed_triggers(g_recs, spans)
        p_typed = _typed_triggers(p_recs, spans)
        g_pool: dict = {}
        for (event_type, ident), n in g_typed.items():
            g_pool[ident] = g_pool.get(ident, 0) + n
            matched = min(n, p_typed.get((event_type, ident), 0))
            acc = type_counts[event_type]
            acc[0] += matched
            acc[2] += n - matched
        p_pool: dict = {}
        for (event_type, ident), n in p_typed.items():
            p_pool[ident] = p_pool.get(ident, 0) + n
            type_counts[event_type][1] += n - min(n, g_typed.get((event_type, ident), 0))
        id_tp += sum(min(n, g_pool.get(ident, 0)) for ident, n in p_pool.items())
        n_gold += sum(g_pool.values())
        n_pred += sum(p_pool.values())

    cls_tp, cls_fp, cls_fn = (sum(c[i] for c in type_counts.values()) for i in range(3))
    return ScoreReport(
        id_scores=Scores.from_counts(id_tp, n_pred - id_tp, n_gold - id_tp),
        cls_scores=Scores.from_counts(cls_tp, cls_fp, cls_fn),
        per_event_type={t: Scores.from_counts(*c) for t, c in type_counts.items()},
    )


def relative_drop_pct(base_f1: float, ablated_f1: float) -> float:
    """100 * (base - ablated) / base, as a reporting percentage (9 decimal
    places, so exact decimal inputs give exact percentages). 0 when base is 0."""
    if base_f1 == 0:
        return 0.0
    return round(100.0 * (base_f1 - ablated_f1) / base_f1, 9)


def drop_rate(baseline: ScoreReport, ablated: ScoreReport) -> dict:
    """Performance drop after an ablation, relative to the baseline F1.

    Also reports the absolute drop in F1 points for comparison, and flags the
    degenerate zero-baseline case.
    """
    return {
        "id_drop_pct": relative_drop_pct(baseline.id_scores.f1, ablated.id_scores.f1),
        "cls_drop_pct": relative_drop_pct(baseline.cls_scores.f1, ablated.cls_scores.f1),
        "id_drop_points": round(100.0 * (baseline.id_scores.f1 - ablated.id_scores.f1), 9),
        "cls_drop_points": round(100.0 * (baseline.cls_scores.f1 - ablated.cls_scores.f1), 9),
        "id_base_zero": baseline.id_scores.f1 == 0,
        "cls_base_zero": baseline.cls_scores.f1 == 0,
    }


# ---------------------------------------------------------------------------
# Gold / prediction JSONL
# ---------------------------------------------------------------------------


def _parse_spans(obj: dict, path: str | Path, lineno: int, n_triggers: int):
    spans = obj.get("spans")
    if spans is None:
        return None
    if (
        not isinstance(spans, list)
        or len(spans) != n_triggers
        or not all(
            isinstance(s, list) and len(s) == 2 and type(s[0]) is int and type(s[1]) is int and 0 <= s[0] <= s[1]
            for s in spans
        )
    ):
        raise jsonl.JsonlError(
            path, lineno, "field 'spans' must be a [start, end] pair per trigger, integers with 0 <= start <= end"
        )
    return tuple(map(tuple, spans))


def _validate_record(obj: dict, path: str | Path, lineno: int) -> tuple[str, str, list[str]]:
    """The three required fields of a gold/prediction row. Types are checked
    exactly (``str``, ``list``: all that JSON gives), which costs less per
    row than ``isinstance``."""
    try:
        sid, event_type, triggers = obj["sentence_id"], obj["event_type"], obj["triggers"]
    except KeyError as exc:  # the first missing key, in the order above
        raise jsonl.JsonlError(path, lineno, f"missing required field {exc.args[0]!r}") from None
    if sid.__class__ is not str:
        raise jsonl.JsonlError(path, lineno, "field 'sentence_id' must be a string")
    if event_type.__class__ is not str:
        raise jsonl.JsonlError(path, lineno, "field 'event_type' must be a string")
    if triggers.__class__ is not list:
        raise jsonl.JsonlError(path, lineno, "field 'triggers' must be a list of strings")
    for trigger in triggers:
        if trigger.__class__ is not str:
            raise jsonl.JsonlError(path, lineno, "field 'triggers' must be a list of strings")
    return sid, event_type, triggers


def _read_records(path: str | Path, make: Callable) -> list:
    """``make(sentence_id, event_type, triggers, spans)`` for every row, with
    the triggers and spans as tuples.

    The JSON decoder makes a new string for every value, but a sentence id
    recurs once per event type and an event type once per sentence. One
    dict per file maps each id and type to its first copy, and every record
    holds that copy: on the ``forest`` benchmark's gold file (16,500 rows,
    1,500 ids, 440 types) this cuts what the records keep from 3.5 to
    1.5 MB (``tracemalloc``)."""
    records = []
    shared: dict[str, str] = {}
    for lineno, obj in jsonl.read_rows(path):
        sid, event_type, triggers = _validate_record(obj, path, lineno)
        spans = _parse_spans(obj, path, lineno, len(triggers)) if "spans" in obj else None
        sid, event_type = shared.setdefault(sid, sid), shared.setdefault(event_type, event_type)
        records.append(make(sid, event_type, tuple(triggers), spans))
    return records


def read_gold(path: str | Path) -> list[GoldRecord]:
    return _read_records(path, GoldRecord)


def read_predictions(path: str | Path) -> list[PredictionRecord]:
    return _read_records(path, PredictionRecord.from_raw)


def write_report(report: ScoreReport, path: str | Path) -> None:
    jsonl.write_object(path, report.to_dict())


_SCORE_KEYS = ("tp", "fp", "fn", "precision", "recall", "f1")


def _check_scores(obj: object, path: str | Path, where: str) -> None:
    try:  # math.isfinite raises OverflowError on an integer too large for a float
        ok = isinstance(obj, dict) and all(
            type(v := obj.get(key)) in (int, float) and math.isfinite(v) for key in _SCORE_KEYS
        )
    except OverflowError:
        ok = False
    if not ok:
        raise EvaluationInputError(f"{path}: {where} must be an object with finite numbers {', '.join(_SCORE_KEYS)}")


def read_report(path: str | Path) -> ScoreReport:
    """Load a report written by ``write_report``. A file that is not one
    raises an EvaluationInputError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except UnicodeDecodeError as exc:
        raise EvaluationInputError(f"{path}: invalid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError; an integer past the digit limit; nesting too deep
        raise EvaluationInputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise EvaluationInputError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    per_type = obj.get("per_event_type", {})
    if not isinstance(per_type, dict):
        raise EvaluationInputError(f"{path}: 'per_event_type' must be an object")
    _check_scores(obj.get("identification"), path, "'identification'")
    _check_scores(obj.get("classification"), path, "'classification'")
    for event_type, scores in per_type.items():
        _check_scores(scores, path, f"per_event_type {event_type!r}")
    return ScoreReport.from_dict(obj)

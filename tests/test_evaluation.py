from __future__ import annotations

import json
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dived.evaluation import (
    EvaluationInputError,
    GoldRecord,
    PredictionRecord,
    ScoreReport,
    Scores,
    drop_rate,
    match_and_score,
    normalize_trigger,
    parse_model_output,
    read_gold,
    read_predictions,
    read_report,
    relative_drop_pct,
    write_report,
)
from dived.jsonl import JsonlError, read_rows


def gold(sid, etype, triggers, spans=None):
    return GoldRecord(sentence_id=sid, event_type=etype, triggers=tuple(triggers),
                      spans=tuple(map(tuple, spans)) if spans is not None else None)


def pred(sid, etype, triggers, spans=None):
    return PredictionRecord.from_raw(sid, etype, list(triggers), spans)


# ---------------------------------------------------------------------------
# brute-force optimal matching oracle
# ---------------------------------------------------------------------------


def oracle_max_matching(preds, golds, match_fn):
    """Maximum one-to-one matching via exhaustive backtracking."""
    best = 0

    def recurse(i, used, count):
        nonlocal best
        if count + (len(preds) - i) <= best:
            return
        if i == len(preds):
            best = max(best, count)
            return
        recurse(i + 1, used, count)
        for j in range(len(golds)):
            if j not in used and match_fn(preds[i], golds[j]):
                used.add(j)
                recurse(i + 1, used, count + 1)
                used.discard(j)

    recurse(0, set(), 0)
    return best


def oracle_scores(gold_records, pred_records):
    """Independent scorer: pools triggers per sentence and finds the optimal
    matching by brute force, for ID (string only) and CLS (string + type)."""
    sentences = {r.sentence_id for r in gold_records} | {r.sentence_id for r in pred_records}
    id_tp = cls_tp = total_gold = total_pred = 0
    for sid in sentences:
        g = [(r.event_type, normalize_trigger(t)) for r in gold_records if r.sentence_id == sid for t in r.triggers]
        p = [(r.event_type, normalize_trigger(t)) for r in pred_records if r.sentence_id == sid for t in r.triggers]
        total_gold += len(g)
        total_pred += len(p)
        id_tp += oracle_max_matching(p, g, lambda a, b: a[1] == b[1])
        cls_tp += oracle_max_matching(p, g, lambda a, b: a == b)
    return {
        "id": (id_tp, total_pred - id_tp, total_gold - id_tp),
        "cls": (cls_tp, total_pred - cls_tp, total_gold - cls_tp),
    }


def random_case(rng):
    alphabet = ["a", "b", "c", "d", "x", "y"]
    types = ["T1", "T2", "T3"]
    gold_records, pred_records = [], []
    for which, bucket in (("gold", gold_records), ("pred", pred_records)):
        total = rng.randint(0, 5)
        chosen_types = rng.sample(types, rng.randint(1, 2))
        per_type = [[] for _ in chosen_types]
        for _ in range(total):
            per_type[rng.randrange(len(chosen_types))].append(rng.choice(alphabet))
        for etype, triggers in zip(chosen_types, per_type):
            if which == "gold":
                bucket.append(gold("s0", etype, triggers))
            else:
                bucket.append(pred("s0", etype, triggers))
    return gold_records, pred_records


# ---------------------------------------------------------------------------
# match_and_score
# ---------------------------------------------------------------------------


def perfect_fixture():
    records = [
        gold("s1", "attack", ["bombed"]),
        gold("s1", "protest", ["marched", "rallied"]),
        gold("s2", "attack", ["raided"]),
        gold("s2", "movement", []),
        gold("s3", "purchase", ["bought"]),
        gold("s4", "attack", ["struck", "hit"]),
        gold("s5", "protest", ["chanted"]),
        gold("s6", "refund", ["refunded"]),
    ]
    preds = [pred(r.sentence_id, r.event_type, list(r.triggers)) for r in records]
    return records, preds


def test_perfect_prediction_scores_one():
    gold_records, pred_records = perfect_fixture()
    report = match_and_score(gold_records, pred_records)
    for scores in (report.id_scores, report.cls_scores):
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0
    assert report.id_scores.fp == 0 and report.id_scores.fn == 0


def test_empty_predictions_score_zero():
    gold_records, _ = perfect_fixture()
    report = match_and_score(gold_records, [])
    assert report.id_scores.precision == 0.0
    assert report.id_scores.recall == 0.0
    assert report.id_scores.f1 == 0.0


def test_worked_arithmetic_example():
    gold_records = [gold("s1", "T", ["a", "b", "c"])]
    pred_records = [pred("s1", "T", ["a", "x"])]
    report = match_and_score(gold_records, pred_records)
    assert report.id_scores.tp == 1 and report.id_scores.fp == 1 and report.id_scores.fn == 2
    assert abs(report.id_scores.precision - 0.5) < 1e-12
    assert abs(report.id_scores.recall - 1 / 3) < 1e-12
    assert abs(report.id_scores.f1 - 0.4) < 1e-12
    assert report.cls_scores == report.id_scores


def test_cls_requires_matching_type():
    gold_records = [gold("s1", "T1", ["a"])]
    pred_records = [pred("s1", "T2", ["a"])]
    report = match_and_score(gold_records, pred_records)
    assert report.id_scores.tp == 1
    assert report.cls_scores.tp == 0
    assert report.cls_scores.fp == 1 and report.cls_scores.fn == 1


def test_matching_is_multiset_one_to_one():
    gold_records = [gold("s1", "T", ["hit", "hit"])]
    pred_records = [pred("s1", "T", ["hit", "hit", "hit"])]
    report = match_and_score(gold_records, pred_records)
    assert report.id_scores.tp == 2
    assert report.id_scores.fp == 1
    assert report.id_scores.fn == 0


def test_trigger_normalization_trim_and_collapse_case_sensitive():
    gold_records = [gold("s1", "T", ["took  over"])]
    assert match_and_score(gold_records, [pred("s1", "T", [" took over "])]).id_scores.tp == 1
    assert match_and_score(gold_records, [pred("s1", "T", ["Took over"])]).id_scores.tp == 0


def test_unknown_sentence_id_rejected():
    with pytest.raises(EvaluationInputError):
        match_and_score([gold("s1", "T", ["a"])], [pred("s2", "T", ["a"])])


def test_duplicate_records_rejected():
    with pytest.raises(EvaluationInputError):
        match_and_score([gold("s1", "T", ["a"]), gold("s1", "T", ["b"])], [])
    with pytest.raises(EvaluationInputError):
        match_and_score([gold("s1", "T", ["a"])], [pred("s1", "T", ["a"]), pred("s1", "T", ["b"])])


def test_scorer_matches_brute_force_oracle():
    rng = random.Random(20240917)
    for _ in range(300):
        gold_records, pred_records = random_case(rng)
        report = match_and_score(gold_records, pred_records)
        expected = oracle_scores(gold_records, pred_records)
        assert (report.id_scores.tp, report.id_scores.fp, report.id_scores.fn) == expected["id"]
        assert (report.cls_scores.tp, report.cls_scores.fp, report.cls_scores.fn) == expected["cls"]
        assert report.cls_scores.tp <= report.id_scores.tp
        assert report.cls_scores.f1 <= report.id_scores.f1 + 1e-12


def test_permutation_invariance():
    rng = random.Random(7)
    gold_records, pred_records = random_case(rng)
    while not gold_records or not pred_records:
        gold_records, pred_records = random_case(rng)
    base = match_and_score(gold_records, pred_records)
    shuffled = match_and_score(list(reversed(gold_records)), list(reversed(pred_records)))
    assert base.id_scores == shuffled.id_scores
    assert base.cls_scores == shuffled.cls_scores


def test_scale_consistency_on_duplicated_corpus():
    gold_records = [gold("s1", "T", ["a", "b", "c"]), gold("s2", "U", ["d"])]
    pred_records = [pred("s1", "T", ["a", "x"]), pred("s2", "U", ["d"])]
    base = match_and_score(gold_records, pred_records)
    doubled_gold = gold_records + [gold(f"{r.sentence_id}-copy", r.event_type, list(r.triggers)) for r in gold_records]
    doubled_pred = pred_records + [pred(f"{r.sentence_id}-copy", r.event_type, list(r.triggers)) for r in pred_records]
    doubled = match_and_score(doubled_gold, doubled_pred)
    for attr in ("precision", "recall", "f1"):
        assert getattr(doubled.id_scores, attr) == pytest.approx(getattr(base.id_scores, attr))
        assert getattr(doubled.cls_scores, attr) == pytest.approx(getattr(base.cls_scores, attr))


def test_per_event_type_breakdown():
    gold_records = [gold("s1", "T1", ["a"]), gold("s1", "T2", ["b"])]
    pred_records = [pred("s1", "T1", ["a"]), pred("s1", "T2", ["z"])]
    report = match_and_score(gold_records, pred_records)
    assert report.per_event_type["T1"].f1 == 1.0
    assert report.per_event_type["T2"].f1 == 0.0


def test_span_override_when_both_sides_carry_spans():
    # same strings, different offsets: span mode must not match them
    gold_records = [gold("s1", "T", ["hit"], spans=[[0, 3]])]
    pred_records = [pred("s1", "T", ["hit"], spans=[[10, 13]])]
    assert match_and_score(gold_records, pred_records).id_scores.tp == 0
    # matching offsets count even with different surface strings
    gold_records = [gold("s1", "T", ["hit"], spans=[[0, 3]])]
    pred_records = [pred("s1", "T", ["HIT"], spans=[[0, 3]])]
    assert match_and_score(gold_records, pred_records).id_scores.tp == 1
    # spans on one side only: falls back to string matching
    gold_records = [gold("s1", "T", ["hit"], spans=[[0, 3]])]
    pred_records = [pred("s1", "T", ["hit"])]
    assert match_and_score(gold_records, pred_records).id_scores.tp == 1


# ---------------------------------------------------------------------------
# match_and_score against the counter-based reference
# ---------------------------------------------------------------------------


def counter_based_match_and_score(gold_records, pred_records):
    """Reference oracle: checks the inputs in a pass of their own, then per
    sentence (sorted) builds pooled and typed Counters and rescans the typed
    overlap once for every event type."""
    gold_keys, pred_keys = set(), set()
    for rec in gold_records:
        if (rec.sentence_id, rec.event_type) in gold_keys:
            raise EvaluationInputError(f"duplicate gold record for sentence {rec.sentence_id!r}, type {rec.event_type!r}")
        gold_keys.add((rec.sentence_id, rec.event_type))
    gold_sentences = {rec.sentence_id for rec in gold_records}
    for rec in pred_records:
        if (rec.sentence_id, rec.event_type) in pred_keys:
            raise EvaluationInputError(
                f"duplicate prediction record for sentence {rec.sentence_id!r}, type {rec.event_type!r}"
            )
        pred_keys.add((rec.sentence_id, rec.event_type))
        if rec.sentence_id not in gold_sentences:
            raise EvaluationInputError(f"prediction for unknown sentence id {rec.sentence_id!r}")

    def span_mode(records):
        return bool(records) and all(r.spans is not None and len(r.spans) == len(r.triggers) for r in records)

    def keys(rec, spans, with_type):
        idents = [rec.spans[i] if spans else re.sub(r"\s+", " ", t.strip()) for i, t in enumerate(rec.triggers)]
        return [(rec.event_type, ident) if with_type else (ident,) for ident in idents]

    id_tp = id_fp = id_fn = 0
    type_counts = {}
    for sid in sorted(gold_sentences):
        g_recs = [r for r in gold_records if r.sentence_id == sid]
        p_recs = [r for r in pred_records if r.sentence_id == sid]
        spans = span_mode(g_recs) and span_mode(p_recs)
        g_pool = Counter(k for r in g_recs for k in keys(r, spans, False))
        p_pool = Counter(k for r in p_recs for k in keys(r, spans, False))
        matched = sum((g_pool & p_pool).values())
        id_tp, id_fp, id_fn = id_tp + matched, id_fp + sum(p_pool.values()) - matched, id_fn + sum(g_pool.values()) - matched
        g_typed = Counter(k for r in g_recs for k in keys(r, spans, True))
        p_typed = Counter(k for r in p_recs for k in keys(r, spans, True))
        overlap = g_typed & p_typed
        for event_type in {r.event_type for r in g_recs} | {r.event_type for r in p_recs}:
            tp = sum(n for (t, _), n in overlap.items() if t == event_type)
            acc = type_counts.setdefault(event_type, [0, 0, 0])
            acc[0] += tp
            acc[1] += sum(n for (t, _), n in p_typed.items() if t == event_type) - tp
            acc[2] += sum(n for (t, _), n in g_typed.items() if t == event_type) - tp
    return ScoreReport(
        id_scores=Scores.from_counts(id_tp, id_fp, id_fn),
        cls_scores=Scores.from_counts(*(sum(c[i] for c in type_counts.values()) for i in range(3))),
        per_event_type={t: Scores.from_counts(*c) for t, c in type_counts.items()},
    )


SCORE_TRIGGERS = ["hit", " hit", "hit ", "took  over", "took over", "Hit", "None", "none "]


@st.composite
def scoring_cases(draw):
    """Gold and prediction records over three sentences and three types, with
    triggers that differ only in whitespace or case, records without
    triggers, spans on one side or both (now and then not one per trigger),
    and now and then a duplicate record or a prediction for a sentence
    without gold."""

    def records(make, sentence_ids):
        keys = draw(st.lists(st.tuples(st.sampled_from(sentence_ids), st.sampled_from(["T1", "T2", "T3"])),
                             max_size=7, unique=draw(st.sampled_from([True, True, True, False]))))
        with_spans = draw(st.booleans())
        out = []
        for sid, event_type in keys:
            triggers = draw(st.lists(st.sampled_from(SCORE_TRIGGERS), max_size=3))
            spans = None
            if with_spans:
                pair = st.lists(st.integers(0, 2), min_size=2, max_size=2)
                spans = draw(st.lists(pair, min_size=len(triggers), max_size=len(triggers)))
                if make is gold and draw(st.integers(0, 9)) == 0:
                    spans.append([0, 1])  # not one span per trigger: the sentence falls back to strings
            out.append(make(sid, event_type, triggers, spans))
        return out

    gold_records = records(gold, ["s0", "s1", "s2"])
    known = sorted({r.sentence_id for r in gold_records}) or ["s0"]
    pred_records = records(pred, draw(st.sampled_from([known] * 5 + [["s0", "s3"]])))
    return gold_records, pred_records


def _score_outcome(gold_records, pred_records, scorer):
    try:
        return scorer(gold_records, pred_records)
    except EvaluationInputError as exc:
        return str(exc)


@given(scoring_cases())
@settings(max_examples=200, deadline=None)
def test_match_and_score_matches_counter_based_oracle(case):
    gold_records, pred_records = case
    assert _score_outcome(gold_records, pred_records, match_and_score) == _score_outcome(
        gold_records, pred_records, counter_based_match_and_score
    )


# ---------------------------------------------------------------------------
# match_and_score against the seen-set scorer
# ---------------------------------------------------------------------------


def seen_set_match_and_score(gold_records, pred_records):
    """Reference oracle: the scorer as it was before records were grouped in
    per-sentence dicts keyed by event type. Each side's duplicate check holds
    one (sentence, type) tuple per record in a set, and each sentence keeps
    its records in two lists."""

    def span_mode(records):
        return bool(records) and all(r.spans is not None and len(r.spans) == len(r.triggers) for r in records)

    def typed_triggers(records, spans):
        counts = {}
        for rec in records:
            for ident in rec.spans if spans else map(normalize_trigger, rec.triggers):
                counts[(rec.event_type, ident)] = counts.get((rec.event_type, ident), 0) + 1
        return counts

    by_sentence = {}
    type_counts = {}
    for side, (label, records) in enumerate((("gold", gold_records), ("prediction", pred_records))):
        seen = set()
        for rec in records:
            key = (rec.sentence_id, rec.event_type)
            if key in seen:
                raise EvaluationInputError(
                    f"duplicate {label} record for sentence {rec.sentence_id!r}, type {rec.event_type!r}"
                )
            seen.add(key)
            if side == 0:
                group = by_sentence.setdefault(rec.sentence_id, ([], []))
            elif (group := by_sentence.get(rec.sentence_id)) is None:
                raise EvaluationInputError(f"prediction for unknown sentence id {rec.sentence_id!r}")
            group[side].append(rec)
            type_counts.setdefault(rec.event_type, [0, 0, 0])

    id_tp = n_gold = n_pred = 0
    for g_recs, p_recs in by_sentence.values():
        spans = span_mode(g_recs) and span_mode(p_recs)
        g_typed, p_typed = typed_triggers(g_recs, spans), typed_triggers(p_recs, spans)
        g_pool, p_pool = {}, {}
        for (event_type, ident), n in g_typed.items():
            g_pool[ident] = g_pool.get(ident, 0) + n
            matched = min(n, p_typed.get((event_type, ident), 0))
            type_counts[event_type][0] += matched
            type_counts[event_type][2] += n - matched
        for (event_type, ident), n in p_typed.items():
            p_pool[ident] = p_pool.get(ident, 0) + n
            type_counts[event_type][1] += n - min(n, g_typed.get((event_type, ident), 0))
        id_tp += sum(min(n, g_pool.get(ident, 0)) for ident, n in p_pool.items())
        n_gold += sum(g_pool.values())
        n_pred += sum(p_pool.values())
    return ScoreReport(
        id_scores=Scores.from_counts(id_tp, n_pred - id_tp, n_gold - id_tp),
        cls_scores=Scores.from_counts(*(sum(c[i] for c in type_counts.values()) for i in range(3))),
        per_event_type={t: Scores.from_counts(*c) for t, c in type_counts.items()},
    )


def _copy(text: str) -> str:
    """An equal string that is a new object (``text`` has two characters or more)."""
    return text[:1] + text[1:]


@st.composite
def regrouping_cases(draw):
    """Gold and prediction records over up to five sentences and four types:
    (sentence, type) pairs that now and then repeat on either side, now and
    then a prediction for a sentence without gold, spans on every record of
    a side, on none or on some, and ids and types that are one string object
    across records or equal copies."""
    sentence_ids = [f"s{k}" for k in range(draw(st.integers(1, 5)))]

    def records(make, ids):
        pairs = st.tuples(st.sampled_from(ids), st.sampled_from(["T1", "T2", "T3", "T4"]))
        keys = draw(st.lists(pairs, max_size=12, unique=draw(st.sampled_from([True, True, True, False]))))
        with_spans = draw(st.sampled_from(["all", "none", "some"]))
        out = []
        for sid, event_type in keys:
            if draw(st.booleans()):
                sid, event_type = _copy(sid), _copy(event_type)
            triggers = draw(st.lists(st.sampled_from(SCORE_TRIGGERS), max_size=3))
            spans = None
            if with_spans == "all" or (with_spans == "some" and draw(st.booleans())):
                pair = st.tuples(st.integers(0, 2), st.integers(0, 2))
                spans = draw(st.lists(pair, min_size=len(triggers), max_size=len(triggers)))
            out.append(make(sid, event_type, triggers, spans))
        return out

    gold_records = records(gold, sentence_ids)
    pred_records = records(pred, sentence_ids + draw(st.sampled_from([[], [], ["s9"]])))
    return gold_records, pred_records


@given(regrouping_cases())
@settings(max_examples=300, deadline=None)
def test_match_and_score_matches_seen_set_oracle(case):
    gold_records, pred_records = case
    assert _score_outcome(gold_records, pred_records, match_and_score) == _score_outcome(
        gold_records, pred_records, seen_set_match_and_score
    )


def test_match_and_score_peak_memory_per_record():
    """The grouping pass keeps each record in a per-sentence dict keyed by
    event type and builds no (sentence, type) key per record. On 1,000
    sentences × 10 types per side, ``match_and_score``'s traced peak
    (``tracemalloc``, CPython 3.11) was 75 B per input record (gold plus
    prediction) with a set of such keys per side, and is 28-31 B now."""
    types = [f"type{t}" for t in range(10)]
    inputs = []
    for make in (GoldRecord, PredictionRecord):
        inputs.append([
            make(f"sentence{s}", event_type, (f"trig{s % 7}",) if (s + t) % 10 == 0 else ())
            for s in range(1000)
            for t, event_type in enumerate(types)
        ])
    tracemalloc.start()
    try:
        match_and_score(*inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (len(inputs[0]) + len(inputs[1])) < 50


@given(st.text(st.one_of(st.characters(), st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"))))
def test_normalize_trigger_trims_and_collapses_whitespace_like_the_regex(text):
    assert normalize_trigger(text) == re.sub(r"\s+", " ", text.strip())


# ---------------------------------------------------------------------------
# parse_model_output
# ---------------------------------------------------------------------------


def test_parse_none_is_empty():
    assert parse_model_output("None") == []
    assert parse_model_output("none") == []


def test_parse_splits_on_comma_and_newline():
    assert parse_model_output("attacked, bombing") == ["attacked", "bombing"]
    assert parse_model_output(" attacked \n None \n attacked") == ["attacked", "attacked"]


def test_parse_keeps_order_and_duplicates():
    assert parse_model_output("b,a,b") == ["b", "a", "b"]


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80))
def test_parse_never_emits_empty_or_none(raw):
    out = parse_model_output(raw)
    assert all(t and t.casefold() != "none" for t in out)


# ---------------------------------------------------------------------------
# drop rate
# ---------------------------------------------------------------------------


def _report(f1_id, f1_cls=None):
    f1_cls = f1_id if f1_cls is None else f1_cls
    mk = lambda f1: Scores(tp=0, fp=0, fn=0, precision=0.0, recall=0.0, f1=f1)
    return ScoreReport(id_scores=mk(f1_id), cls_scores=mk(f1_cls))


def test_drop_rate_twenty_percent_exact():
    drops = drop_rate(_report(0.50), _report(0.40))
    assert drops["id_drop_pct"] == 20.0
    assert drops["cls_drop_pct"] == 20.0
    assert drops["id_drop_points"] == 10.0


def test_drop_rate_identity_and_negative():
    assert drop_rate(_report(0.5), _report(0.5))["id_drop_pct"] == 0.0
    assert drop_rate(_report(0.50), _report(0.55))["id_drop_pct"] == -10.0


def test_drop_rate_zero_baseline_flagged():
    drops = drop_rate(_report(0.0), _report(0.3))
    assert drops["id_drop_pct"] == 0.0
    assert drops["id_base_zero"] is True


def test_relative_drop_pct_plain_values():
    assert relative_drop_pct(0.5, 0.4) == 20.0
    assert relative_drop_pct(0.8, 0.2) == 75.0


# ---------------------------------------------------------------------------
# JSONL inputs and report round-trip
# ---------------------------------------------------------------------------


def test_read_gold_and_predictions(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '{"sentence_id": "s1", "event_type": "T", "triggers": ["a", "b"]}\n'
        '{"sentence_id": "s2", "event_type": "U", "triggers": []}\n',
        encoding="utf-8",
    )
    records = read_gold(path)
    assert len(records) == 2
    assert records[0].triggers == ("a", "b")

    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text('{"sentence_id": "s1", "event_type": "T", "triggers": ["None", "a"]}\n', encoding="utf-8")
    preds = read_predictions(pred_path)
    assert preds[0].triggers == ("a",)  # "None" normalized away


@pytest.mark.parametrize("reader, make", [(read_gold, gold), (read_predictions, pred)], ids=["gold", "predictions"])
def test_readers_share_each_repeated_id_and_type(tmp_path, reader, make):
    rows = [("s1", "Attack", ["hit"]), ("s1", "Arrest", []), ("s2", "Attack", ["None"]), ("s2", "Arrest", ["took"])]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(
        json.dumps({"sentence_id": sid, "event_type": etype, "triggers": triggers}) + "\n"
        for sid, etype, triggers in rows
    ), encoding="utf-8")
    records = reader(path)
    assert records == [make(*row) for row in rows]
    assert records[0].sentence_id is records[1].sentence_id and records[2].sentence_id is records[3].sentence_id
    assert records[0].event_type is records[2].event_type and records[1].event_type is records[3].event_type


def test_read_gold_schema_error_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"sentence_id": "s1", "event_type": "T", "triggers": ["a"]}\n'
        '{"sentence_id": "s2", "event_type": "T"}\n',
        encoding="utf-8",
    )
    with pytest.raises(JsonlError) as err:
        read_gold(path)
    assert err.value.line == 2


def test_report_json_round_trip(tmp_path):
    gold_records, pred_records = perfect_fixture()
    report = match_and_score(gold_records, pred_records)
    path = tmp_path / "report.json"
    write_report(report, path)
    loaded = read_report(path)
    assert loaded.id_scores == report.id_scores
    assert loaded.cls_scores == report.cls_scores
    assert loaded.per_event_type == report.per_event_type
    table = report.to_table()
    assert "identification" in table and "classification" in table


def test_report_to_dict_holds_copies_not_the_frozen_scores_fields():
    report = match_and_score(*perfect_fixture())
    before = report.id_scores
    fields = report.to_dict()
    fields["identification"]["tp"] = -1
    for scores in fields["per_event_type"].values():
        scores["f1"] = -1.0
    assert report.id_scores == before and report.id_scores.tp != -1
    assert all(s.f1 != -1.0 for s in report.per_event_type.values())
    assert list(report.to_dict()["classification"]) == ["tp", "fp", "fn", "precision", "recall", "f1"]


# ---------------------------------------------------------------------------
# read_gold / read_predictions against the row-by-row readers they replaced
# ---------------------------------------------------------------------------


def _validate_record_oracle(obj, path, lineno):
    for key in ("sentence_id", "event_type", "triggers"):
        if key not in obj:
            raise JsonlError(path, lineno, f"missing required field {key!r}")
    for key in ("sentence_id", "event_type"):
        if not isinstance(obj[key], str):
            raise JsonlError(path, lineno, f"field {key!r} must be a string")
    if not isinstance(obj["triggers"], list) or not all(isinstance(t, str) for t in obj["triggers"]):
        raise JsonlError(path, lineno, "field 'triggers' must be a list of strings")
    return obj["sentence_id"], obj["event_type"], obj["triggers"]


SPANS_ERROR = "field 'spans' must be a [start, end] pair per trigger, integers with 0 <= start <= end"


def _parse_spans_oracle(obj, path, lineno, n_triggers):
    """The span check before offsets were range-checked, plus that rule
    written out: no bool offsets, and 0 <= start <= end."""
    spans = obj.get("spans")
    if spans is None:
        return None
    if (
        not isinstance(spans, list)
        or len(spans) != n_triggers
        or not all(isinstance(s, list) and len(s) == 2 and all(isinstance(x, int) for x in s) for s in spans)
    ):
        raise JsonlError(path, lineno, SPANS_ERROR)
    for start, end in spans:
        if isinstance(start, bool) or isinstance(end, bool) or not 0 <= start <= end:
            raise JsonlError(path, lineno, SPANS_ERROR)
    return [tuple(s) for s in spans]


def read_gold_oracle(path):
    """The reader before exact-type checks: every row through the
    ``isinstance`` validator, then the span check, then a keyword
    constructor."""
    records = []
    for lineno, obj in read_rows(path):
        sid, event_type, triggers = _validate_record_oracle(obj, path, lineno)
        spans = _parse_spans_oracle(obj, path, lineno, len(triggers))
        records.append(GoldRecord(sentence_id=sid, event_type=event_type, triggers=tuple(triggers),
                                  spans=tuple(spans) if spans is not None else None))
    return records


def read_predictions_oracle(path):
    records = []
    for lineno, obj in read_rows(path):
        sid, event_type, triggers = _validate_record_oracle(obj, path, lineno)
        spans = _parse_spans_oracle(obj, path, lineno, len(triggers))
        records.append(PredictionRecord.from_raw(sid, event_type, triggers, spans))
    return records


ABSENT = object()
# Half the draws valid, so that later fields and rows are reached often.
ID_VALUES = st.sampled_from(["s1", "T", ""]) | st.sampled_from([5, 1.5, True, None, ["s1"], {"s": 1}, ABSENT])
TRIGGER_VALUES = st.one_of(
    st.lists(st.sampled_from(["hit", "None", " none ", "took  over", "", "NONE\t"]), max_size=3),
    st.sampled_from(["hit", "", None, 3, {"a": "b"}, ["hit", 2], [None], ["hit", ["x"]], [True], ABSENT]),
)
OFFSETS = st.sampled_from([0, 1, 2, 5, -1, True, False]) | st.sampled_from([1.0, None, "1"])
SPAN_VALUES = st.one_of(
    st.just(ABSENT), st.none(),
    st.lists(st.lists(OFFSETS, min_size=2, max_size=2), max_size=3),
    st.lists(st.lists(st.integers(0, 3), min_size=0, max_size=3), max_size=3),
    st.sampled_from(["0-1", 3, [0, 1], {"0": 1}]),
)


@st.composite
def record_rows(draw):
    row = {"sentence_id": draw(ID_VALUES), "event_type": draw(ID_VALUES),
           "triggers": draw(TRIGGER_VALUES), "spans": draw(SPAN_VALUES)}
    if isinstance(row["triggers"], list) and draw(st.booleans()):
        # One pair per trigger, so valid span lists are drawn often.
        pair = st.lists(OFFSETS, min_size=2, max_size=2) | st.lists(st.integers(0, 3), min_size=2, max_size=2)
        row["spans"] = [draw(pair) for _ in row["triggers"]]
    if draw(st.booleans()):
        row["extra"] = "ignored"
    return {key: value for key, value in row.items() if value is not ABSENT}


def _records_outcome(reader, path):
    try:
        return "records", reader(path)
    except JsonlError as exc:
        return "error", exc.line, str(exc)


@st.composite
def span_rows(draw):
    """Rows valid up to their spans, so that every draw reaches the span check."""
    triggers = draw(st.lists(st.sampled_from(["hit", "None", "took over"]), min_size=1, max_size=3))
    pair = st.lists(OFFSETS, min_size=2, max_size=2) | st.lists(st.integers(-1, 3), min_size=2, max_size=2)
    # Three draws in four give one pair per trigger, the rest any span value.
    spans = draw(SPAN_VALUES) if draw(st.integers(0, 3)) == 0 else [draw(pair) for _ in triggers]
    row = {"sentence_id": draw(st.sampled_from(["s1", "s2"])), "event_type": "T", "triggers": triggers}
    if spans is not ABSENT:
        row["spans"] = spans
    return row


def _assert_readers_match(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        for reader, oracle in ((read_gold, read_gold_oracle), (read_predictions, read_predictions_oracle)):
            outcome = _records_outcome(reader, path)
            assert outcome == _records_outcome(oracle, path)
            if outcome[0] == "records":  # equal ids and types are one string object
                shared = {}
                for rec in outcome[1]:
                    assert shared.setdefault(rec.sentence_id, rec.sentence_id) is rec.sentence_id
                    assert shared.setdefault(rec.event_type, rec.event_type) is rec.event_type


@given(rows=st.lists(record_rows(), max_size=5))
@settings(max_examples=300, deadline=None)
def test_readers_match_the_row_by_row_readers(rows):
    _assert_readers_match(rows)


@given(rows=st.lists(span_rows(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_span_checks_match_the_row_by_row_readers(rows):
    _assert_readers_match(rows)

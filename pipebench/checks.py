"""Checks of the pipeline's outputs against computations made apart from it.

Nothing here imports ``dived``. Expected results come from the planted input
layout (``inputs.Layout``), the planted prediction counts and the stub's own
record of what it served, never from a stored copy of earlier output. Every
check raises ``CheckError`` naming the first difference it finds.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import Layout


class CheckError(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _children(order: list[str], parent: dict[str, str | None]) -> dict[str, list[str]]:
    children: dict[str, list[str]] = {name: [] for name in order}
    for name in order:
        if parent[name] is not None:
            children[parent[name]].append(name)
    return children


def check_ingest(out: Path, layout: Layout) -> None:
    kept = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    rows = read_jsonl(out / "filtered.jsonl")
    _expect(len(layout.heldout_tree) > 0, "the layout plants no held-out tree")
    _expect([(r["name"], r["parent"]) for r in rows] == kept,
            f"filtered.jsonl: expected the {len(kept)} nodes outside the held-out tree, got {len(rows)} rows")


def check_generation(out: Path, rows: list[tuple[str, str | None]], per_event: int, count: int) -> None:
    """Every event gets one curated definition, ``per_event`` valid samples
    and ``1 + count`` distinct definitions, with its ontology links intact."""
    order = [n for n, _ in rows]
    parent = dict(rows)
    children = _children(order, parent)
    defs = read_jsonl(out / "defs.jsonl")
    samples = read_jsonl(out / "samples.jsonl")
    expanded = read_jsonl(out / "expanded.jsonl")
    for name, data in (("defs", defs), ("samples", samples), ("expanded", expanded)):
        _expect([r["event"] for r in data] == order, f"{name}.jsonl: events differ from the ontology's pre-order")
        for r in data:
            _expect(r["parent"] == parent[r["event"]] and r["children"] == children[r["event"]],
                    f"{name}.jsonl: wrong ontology links for {r['event']!r}")
    for d, s, e in zip(defs, samples, expanded):
        event = d["event"]
        _expect(len(d["definitions"]) == 1 and d["definitions"][0].strip() != "",
                f"defs.jsonl: {event!r} has {len(d['definitions'])} definitions, expected 1")
        _expect(len(s["samples"]) == per_event, f"samples.jsonl: {event!r} has {len(s['samples'])} samples, expected {per_event}")
        for sample in s["samples"]:
            _expect(sample["trigger"] in sample["sentence"], f"samples.jsonl: {event!r} trigger not in its sentence")
        _expect(s["definitions"] == d["definitions"], f"samples.jsonl: {event!r} definitions changed")
        _expect(len(e["definitions"]) == 1 + count and len(set(e["definitions"])) == 1 + count,
                f"expanded.jsonl: {event!r} has {len(e['definitions'])} definitions, expected {1 + count} distinct")
        _expect(e["definitions"][0] == d["definitions"][0], f"expanded.jsonl: {event!r} seed definition changed")
        _expect(e["samples"] == s["samples"], f"expanded.jsonl: {event!r} samples changed")


def expected_structure(layout: Layout) -> tuple[list[str], dict[str, str | None]]:
    """Survivors in pre-order and their parents after pruning removes exactly
    the planted duplicates: each survivor hangs under its nearest surviving
    ancestor in the planted layout."""
    parent = layout.parent_of()
    order = [n for n, _ in layout.rows if n not in layout.planted]

    def surviving(name: str | None) -> str | None:
        while name is not None and name in layout.planted:
            name = parent[name]
        return name

    return order, {n: surviving(parent[n]) for n in order}


def check_prune(out: Path, layout: Layout, dataset: Path) -> None:
    order, parent = expected_structure(layout)
    children = _children(order, parent)
    before = {r["event"]: r for r in read_jsonl(dataset)}
    pruned = read_jsonl(out / "pruned.jsonl")
    _expect([r["event"] for r in pruned] == order,
            f"pruned.jsonl: {len(pruned)} events kept, expected {len(order)} (all but the {len(layout.planted)} planted duplicates)")
    for r in pruned:
        event = r["event"]
        _expect(r["parent"] == parent[event], f"pruned.jsonl: {event!r} re-parented to {r['parent']!r}, expected {parent[event]!r}")
        _expect(r["children"] == children[event], f"pruned.jsonl: {event!r} has the wrong children")
        _expect(r["definitions"] == before[event]["definitions"] and r["samples"] == before[event]["samples"],
                f"pruned.jsonl: {event!r} data changed")
    audit = read_jsonl(out / "audit.jsonl")
    _expect({a["event_b"]: a["event_a"] for a in audit} == layout.planted and len(audit) == len(layout.planted),
            f"audit.jsonl: {len(audit)} removals that differ from the {len(layout.planted)} planted duplicates")
    _expect(all(a["ratio"] == 1.0 for a in audit), "audit.jsonl: a planted copy overlaps its source by less than 1.0")


def check_assembly(out: Path, layout: Layout, dataset: Path, spec: dict) -> None:
    """Instance counts follow events x samples x (1 + negatives); hard
    negatives are true siblings; no negative reuses a sentence that is gold
    for its event; the ablation twin differs only in its empty definition."""
    order, parent = expected_structure(layout)
    children = _children(order, parent)
    records = {r["event"]: r for r in read_jsonl(dataset)}
    sentences = {e: {s["sentence"] for s in r["samples"]} for e, r in records.items()}
    pairs = {e: {(s["sentence"], s["trigger"]) for s in r["samples"]} for e, r in records.items()}
    events, n_samples, negatives, hard = spec["events"], spec["samples"], spec["negatives"], spec["hard_negatives"]

    train = read_jsonl(out / "train.jsonl")
    _expect(len(train) == events * n_samples * (1 + negatives),
            f"train.jsonl: {len(train)} instances, expected {events} x {n_samples} x (1 + {negatives})")

    def context(event: str) -> dict:
        return {"parent": parent[event], "children": children[event]}

    per_event: dict[str, int] = {}
    for start in range(0, len(train), 1 + negatives):
        pos, negs = train[start], train[start + 1 : start + 1 + negatives]
        event, sentence = pos["event_name"], pos["sentence"]
        _expect(pos["kind"] == "positive", f"train.jsonl:{start + 1}: expected a positive, got {pos['kind']!r}")
        per_event[event] = per_event.get(event, 0) + 1
        _expect((sentence, pos["target"]) in pairs[event] and pos["target"] in sentence,
                f"train.jsonl:{start + 1}: target is not one of {event!r}'s samples")
        _expect(pos["definition"] in records[event]["definitions"], f"train.jsonl:{start + 1}: foreign definition")
        _expect(pos["ontology_context"] == context(event), f"train.jsonl:{start + 1}: wrong ontology context")
        siblings = set(children[parent[event]]) - {event} if parent[event] is not None else set()
        eligible = [s for s in siblings if sentence not in sentences[s]]
        _expect(len({n["event_name"] for n in negs}) == negatives and event not in {n["event_name"] for n in negs},
                f"train.jsonl:{start + 1}: negatives are not {negatives} distinct other events")
        kinds = [n["kind"] for n in negs]
        _expect(kinds.count("hard_negative") == min(hard, len(eligible)),
                f"train.jsonl:{start + 1}: {kinds.count('hard_negative')} hard negatives, expected {min(hard, len(eligible))}")
        for i, neg in enumerate(negs, start=start + 2):
            name = neg["event_name"]
            _expect(neg["sentence"] == sentence and neg["target"] == "None", f"train.jsonl:{i}: negative does not reuse its positive's sentence")
            _expect(sentence not in sentences[name], f"train.jsonl:{i}: the sentence is gold for negative event {name!r}")
            _expect(neg["kind"] != "hard_negative" or name in siblings, f"train.jsonl:{i}: hard negative {name!r} is not a sibling of {event!r}")
            _expect(neg["definition"] == records[name]["definitions"][0], f"train.jsonl:{i}: wrong definition for {name!r}")
            _expect(neg["ontology_context"] == context(name), f"train.jsonl:{i}: wrong ontology context")
    _expect(len(per_event) == events and set(per_event.values()) == {n_samples},
            f"train.jsonl: {len(per_event)} events with positives, expected {events} with {n_samples} each")

    nodef_path = out / "train_nodef.jsonl"
    if nodef_path.exists():
        nodef = read_jsonl(nodef_path)
        _expect(len(nodef) == len(train), "train_nodef.jsonl: instance count differs from train.jsonl")
        for i, (a, b) in enumerate(zip(train, nodef), start=1):
            _expect(b["definition"] == "" and {**a, "definition": ""} == b,
                    f"train_nodef.jsonl:{i}: differs from train.jsonl in more than the definition field")


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def check_report(path: Path, planted: dict[str, int]) -> None:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for block, prefix in (("identification", "id"), ("classification", "cls")):
        got = {k: report[block][k] for k in ("tp", "fp", "fn")}
        want = {k: planted[f"{prefix}_{k}"] for k in ("tp", "fp", "fn")}
        _expect(got == want, f"{path.name}: {block} {got}, planted {want}")
        _expect(abs(report[block]["f1"] - _f1(**want)) < 1e-12, f"{path.name}: {block} F1 disagrees with the planted counts")


def check_drops(path: Path, baseline: dict[str, int], ablated: dict[str, int]) -> None:
    with open(path, encoding="utf-8") as fh:
        drops = json.load(fh)
    for prefix, label in (("id", "identification"), ("cls", "classification")):
        base = _f1(*(baseline[f"{prefix}_{k}"] for k in ("tp", "fp", "fn")))
        abl = _f1(*(ablated[f"{prefix}_{k}"] for k in ("tp", "fp", "fn")))
        want = {
            f"{prefix}_drop_pct": 100.0 * (base - abl) / base,
            f"{prefix}_drop_points": 100.0 * (base - abl),
        }
        for key, value in want.items():
            _expect(abs(drops[key] - value) < 1e-6, f"{path.name}: {key} = {drops[key]}, planted reports give {value}")
        _expect(abs(drops["baseline_f1"][label] - base) < 1e-12 and abs(drops["ablated_f1"][label] - abl) < 1e-12,
                f"{path.name}: {label} F1 disagrees with the planted reports")


def check_stub(out: Path, layout: Layout, stats: dict, reject_every: int) -> None:
    """The dataset equals what the stub's generator says it served for this
    ontology, and the stub saw each request once plus one retry per 429."""
    order = [n for n, _ in layout.rows]
    parent = layout.parent_of()
    children = _children(order, parent)
    served = stats["served"]
    expected = [
        {
            "event": name,
            "parent": parent[name],
            "children": children[name],
            "definitions": [served[name]["definition"]] + served[name]["paraphrases"],
            "samples": served[name]["samples"],
        }
        for name in order
    ]
    got = read_jsonl(out / "expanded.jsonl")
    _expect(len(got) == len(expected), f"expanded.jsonl: {len(got)} events, the stub served {len(expected)}")
    for row, want in zip(got, expected):
        _expect(row == want, f"expanded.jsonl: {row['event']!r} differs from what the stub served")
    trees = sum(1 for _, p in layout.rows if p is None)
    requests = 2 * trees + len(order)
    _expect(stats["replies_200"] == requests, f"stub: {stats['replies_200']} replies, expected one per request ({requests})")
    _expect(stats["replies_429"] == requests // reject_every, f"stub: {stats['replies_429']} 429s, expected {requests // reject_every}")
    _expect(stats["requests"] == requests + stats["replies_429"], "stub: a request was sent more than once beyond its 429 retry")


def check_round(workload: str, rundir: Path, layout: Layout, shape: dict, result: dict) -> None:
    """All checks of one round of ``workload``; raises CheckError."""
    out = rundir / "out"
    if workload == "http_stub":
        check_generation(out, layout.rows, shape["per_event"], shape["count"])
        check_stub(out, layout, result["stub"], shape["reject_every"])
        return
    if workload == "forest":
        check_ingest(out, layout)
    rows = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    check_generation(out, rows, shape["per_event"], shape["count"])
    dataset = out / ("expanded_planted.jsonl" if layout.planted else "expanded.jsonl")
    check_prune(out, Layout(rows=rows, planted=layout.planted), dataset)
    check_assembly(out, Layout(rows=rows, planted=layout.planted), out / "pruned.jsonl", shape["slice"])
    check_report(out / "report.json", result["planted"]["baseline"])
    if workload == "forest":
        check_report(out / "report_nodef.json", result["planted"]["ablated"])
        check_drops(out / "drops.json", result["planted"]["baseline"], result["planted"]["ablated"])

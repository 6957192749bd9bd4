"""Golden digests: the README walkthrough (seed 11, mock backend) run in
process must reproduce every data output byte for byte.

Manifests are left out: they carry a timestamp and absolute paths. The
walkthrough's audit is empty (mock triggers never overlap), so a second
prune runs on a copy of the expanded dataset in which ``attack`` carries the
samples of its parent ``conflict``: ``attack`` is removed and its children
are re-parented to ``conflict``.

The scorer's outputs are pinned the same way: gold records built from
``train.jsonl``, and two prediction files with planted misses, extra
triggers, wrong types and span mismatches, built from ``train.jsonl``
(fewer errors) and ``train_nodef.jsonl`` (more). ``score`` writes one
report per prediction file and ``ablate-report`` the drops between them.

A refactor must leave these digests unchanged; a deliberate change of an
output format updates them in the same commit and says so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from dived.cli import main

from conftest import TOY_ONTOLOGY

GOLDEN = {
    "filtered.jsonl": "be279560ab740640d29b0f31600ca60e0b96a3a29a0eff6627cbd3acdec2e469",
    "defs.jsonl": "bdb5887f319cef1697ad199c6fbb1c328dbd25837996a9637a7c4b35ce5d2824",
    "samples.jsonl": "9b7e50cccb9ca77e22179dc4dc843d16456107d2c74aa476ac29ec2e0aef924e",
    "expanded.jsonl": "ed6ab52ddb9f5825113dd988ed2c181b079202b48bfa7dfa8baaf686370d8a01",
    "pruned.jsonl": "ed6ab52ddb9f5825113dd988ed2c181b079202b48bfa7dfa8baaf686370d8a01",
    "audit.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "train.jsonl": "7e257a96cd5cdb93c1a70885b2eadadd12ac7a4987eb2a4f95c94a4b301171ea",
    "train_nodef.jsonl": "4291bec622b19d6ad6556bcad0c151bb203e0700f31fa85fbd8fa9b93831a9fa",
    "planted_pruned.jsonl": "c03cf5826c1f02b7d3ef6ac35b9ce7bbb79e4cc183f0f05456ab6c192a2a8884",
    "planted_audit.jsonl": "e6fd861f70701a2d4a925d769329f9bbf588702bb26189147f030b0047b35fac",
    "report.json": "65c452075e4185f224e5f3118c88be34bf401d37d92eb5d238f8574e712e4053",
    "report_nodef.json": "5167a75427df113c18852f69f6d699769ba18016227945ab83ef00475b4f8119",
    "drops.json": "b8ac537b07484d31cdd85af25c8d0db20f8d3632cca00859aace76f13c79f5f2",
}

ASSEMBLE = ["--events", "12", "--definitions", "10", "--samples", "10",
            "--negatives", "10", "--hard-negatives", "3", "--ontology", "--seed", "11"]


def run_walkthrough(d) -> None:
    steps = [
        ["ingest", "--ontology", str(TOY_ONTOLOGY), "--heldout", "attack", "--out", str(d / "filtered.jsonl")],
        ["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "mock", "--seed", "11",
         "--out", str(d / "defs.jsonl")],
        ["curate-samples", "--dataset", str(d / "defs.jsonl"), "--backend", "mock", "--seed", "11",
         "--per-event", "10", "--out", str(d / "samples.jsonl")],
        ["expand-defs", "--dataset", str(d / "samples.jsonl"), "--backend", "mock", "--seed", "11",
         "--count", "10", "--out", str(d / "expanded.jsonl")],
        ["prune", "--dataset", str(d / "expanded.jsonl"), "--out", str(d / "pruned.jsonl"),
         "--audit", str(d / "audit.jsonl")],
        ["assemble", "--dataset", str(d / "pruned.jsonl"), *ASSEMBLE, "--out", str(d / "train.jsonl")],
        ["assemble", "--dataset", str(d / "pruned.jsonl"), *ASSEMBLE, "--no-definition",
         "--out", str(d / "train_nodef.jsonl")],
    ]
    for step in steps:
        assert main(step) == 0, f"walkthrough step failed: {step[0]}"


def plant_duplicate(d) -> None:
    rows = [json.loads(line) for line in (d / "expanded.jsonl").read_text(encoding="utf-8").splitlines()]
    by_event = {row["event"]: row for row in rows}
    by_event["attack"]["samples"] = by_event["conflict"]["samples"]
    (d / "planted.jsonl").write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    assert main(["prune", "--dataset", str(d / "planted.jsonl"), "--out", str(d / "planted_pruned.jsonl"),
                 "--audit", str(d / "planted_audit.jsonl")]) == 0


def by_sentence(path) -> list[list[dict]]:
    """The rows of an instance file grouped by sentence, in first-seen order."""
    groups: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        groups.setdefault(row["sentence"], []).append(row)
    return list(groups.values())


def span(sentence: str, trigger: str) -> list[int]:
    start = sentence.find(trigger)
    return [start, start + len(trigger)]


def gold_rows(groups: list[list[dict]]) -> list[dict]:
    """One record per (sentence, event type): the positive's target, or no
    trigger. Every fourth sentence carries spans."""
    rows = []
    for n, group in enumerate(groups):
        for row in group:
            triggers = [row["target"]] if row["kind"] == "positive" else []
            record = {"sentence_id": f"s{n}", "event_type": row["event_name"], "triggers": triggers}
            if n % 4 == 0:
                record["spans"] = [span(row["sentence"], t) for t in triggers]
            rows.append(record)
    return rows


def prediction_rows(groups: list[list[dict]], every: int) -> list[dict]:
    """Each row's target as its prediction ("None" on negatives), with one in
    ``every`` sentences each given a missed trigger, an extra trigger, the
    trigger under a negative's type instead of the positive's, a trigger in
    other whitespace, or no negative records. Every fourth sentence carries
    spans, and every eighth has its positive span shifted by one."""
    rows = []
    for n, group in enumerate(groups):
        plant = n % every
        triggers = [[row["target"]] for row in group]
        if plant == 1:
            triggers[0] = []
        elif plant == 2:
            triggers[1] = [group[1]["sentence"].split()[0]]
        elif plant == 3:
            triggers[0], triggers[1] = [], triggers[0]
        elif plant == 4:
            triggers[0] = [f" {triggers[0][0]}  "]
        for i, (row, trigs) in enumerate(zip(group, triggers)):
            if plant == 5 and i > 0:
                break
            record = {"sentence_id": f"s{n}", "event_type": row["event_name"], "triggers": trigs}
            if n % 4 == 0:
                record["spans"] = [span(row["sentence"], t.strip()) if t != "None" else [0, 0] for t in trigs]
                if n % 8 == 0 and i == 0 and trigs:
                    record["spans"][0][1] += 1
            rows.append(record)
    return rows


def write_rows(path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def score_walkthrough(d) -> None:
    train, nodef = by_sentence(d / "train.jsonl"), by_sentence(d / "train_nodef.jsonl")
    write_rows(d / "gold.jsonl", gold_rows(train))
    write_rows(d / "pred.jsonl", prediction_rows(train, every=10))
    write_rows(d / "pred_nodef.jsonl", prediction_rows(nodef, every=6))
    for pred, report in (("pred.jsonl", "report.json"), ("pred_nodef.jsonl", "report_nodef.json")):
        assert main(["score", "--gold", str(d / "gold.jsonl"), "--pred", str(d / pred),
                     "--out", str(d / report)]) == 0
    assert main(["ablate-report", "--baseline", str(d / "report.json"), "--ablated", str(d / "report_nodef.json"),
                 "--out", str(d / "drops.json")]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("walkthrough")
    run_walkthrough(d)
    plant_duplicate(d)
    score_walkthrough(d)
    return d


def test_walkthrough_outputs_match_golden_digests(outputs):
    digests = {name: hashlib.sha256((outputs / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


def test_planted_duplicate_is_removed_and_its_children_reparented(outputs):
    audit = [json.loads(line) for line in (outputs / "planted_audit.jsonl").read_text().splitlines()]
    assert [(a["event_a"], a["event_b"], a["ratio"]) for a in audit] == [("conflict", "attack", 1.0)]
    pruned = [json.loads(line) for line in (outputs / "planted_pruned.jsonl").read_text().splitlines()]
    assert [r["event"] for r in pruned][:4] == ["conflict", "bombing", "ambush", "protest"]
    assert pruned[0]["children"] == ["bombing", "ambush", "protest"]
    assert pruned[1]["parent"] == pruned[2]["parent"] == "conflict"


def test_scored_walkthrough_counts_every_planted_error(outputs):
    report = json.loads((outputs / "report_nodef.json").read_text())
    baseline = json.loads((outputs / "report.json").read_text())
    assert 0 < report["classification"]["f1"] < baseline["classification"]["f1"] < 1
    assert report["identification"]["fp"] > 0 and report["identification"]["fn"] > 0
    assert report["classification"]["tp"] < report["identification"]["tp"]  # a wrong type still identifies

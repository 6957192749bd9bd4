"""Checks on the benchmark's checks, on small shapes of each workload.

Run with ``python3 -m pytest pipebench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

import checks
import inputs
import run

SMALL = {
    "forest": {
        "trees": 6, "children": 5, "per_event": 4, "count": 3,
        "slice": {"events": 8, "definitions": 2, "samples": 3, "negatives": 4, "hard_negatives": 2},
    },
    "wide_tree": {
        "trees": 1, "children": 60, "per_event": 4, "count": 3, "duplicate_rate": 0.1,
        "slice": {"events": 10, "definitions": 2, "samples": 3, "negatives": 3, "hard_negatives": 1},
    },
    "http_stub": {
        "trees": 3, "children": 3, "per_event": 4, "count": 3,
        "latency_ms": 1, "reject_every": 4, "max_in_flight": 2,
    },
}


def one_round(rundir: Path, workload: str, seed: int = 1, max_in_flight: int | None = None) -> dict:
    rundir.mkdir(parents=True, exist_ok=True)
    return run._spawn(rundir, {"workload": workload, "seed": seed, "shape": SMALL[workload], "rundir": str(rundir),
                               "max_in_flight": max_in_flight, "trace": False, "setup_only": False})


def checked_round(rundir: Path, workload: str, seed: int = 1) -> tuple[inputs.Layout, dict]:
    result = one_round(rundir, workload, seed)
    assert result["error"] is None and result["failed"] == 0
    layout = inputs.layout_for(workload, seed, SMALL[workload])
    checks.check_round(workload, rundir, layout, SMALL[workload], result)
    return layout, result


@pytest.fixture(scope="module")
def forest_round(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("forest")
    layout, result = checked_round(rundir, "forest")
    return rundir, layout, result


@pytest.fixture(scope="module")
def wide_round(tmp_path_factory):
    rundir = tmp_path_factory.mktemp("wide")
    layout, result = checked_round(rundir, "wide_tree")
    return rundir, layout, result


def copy_out(src: Path, tmp_path: Path) -> Path:
    shutil.copytree(src / "out", tmp_path / "out")
    return tmp_path / "out"


def rewrite(path: Path, edit) -> None:
    rows = checks.read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_wide_tree_layout_plants_removals_that_reparent():
    layout = inputs.layout_for("wide_tree", 1, SMALL["wide_tree"])
    order, parent = checks.expected_structure(layout)
    original = layout.parent_of()
    non_first = sum(1 for _, p in layout.rows if p is not None) - len({p for _, p in layout.rows if p is not None})
    assert len(layout.planted) == int(non_first * 0.1) > 0
    assert any(original[n] in layout.planted for n in order), "no survivor hangs under a removed event"
    assert all(parent[n] not in layout.planted for n in order)


def test_missing_removal_is_rejected(wide_round, tmp_path):
    rundir, layout, _ = wide_round
    out = copy_out(rundir, tmp_path)
    kept = next(iter(layout.planted))
    planted_rows = {r["event"]: r for r in checks.read_jsonl(out / "expanded_planted.jsonl")}
    order = [n for n, _ in layout.rows]

    def keep_one(rows):
        rows.append(planted_rows[kept])
        rows.sort(key=lambda r: order.index(r["event"]))

    rewrite(out / "pruned.jsonl", keep_one)
    with pytest.raises(checks.CheckError, match="planted duplicates"):
        checks.check_prune(out, layout, out / "expanded_planted.jsonl")


def test_wrong_reparenting_is_rejected(wide_round, tmp_path):
    rundir, layout, _ = wide_round
    out = copy_out(rundir, tmp_path)
    _, parent = checks.expected_structure(layout)
    moved = next(n for n, p in layout.rows if p in layout.planted and n not in layout.planted)

    def to_old_parent(rows):
        for r in rows:
            if r["event"] == moved:
                r["parent"] = layout.parent_of()[moved]

    rewrite(out / "pruned.jsonl", to_old_parent)
    with pytest.raises(checks.CheckError, match="re-parented"):
        checks.check_prune(out, layout, out / "expanded_planted.jsonl")


def test_extra_negative_is_rejected(forest_round, tmp_path):
    rundir, layout, _ = forest_round
    out = copy_out(rundir, tmp_path)
    rewrite(out / "train.jsonl", lambda rows: rows.insert(2, {**rows[1], "instance_id": rows[1]["instance_id"] + "x"}))
    rows = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    with pytest.raises(checks.CheckError, match="instances, expected"):
        checks.check_assembly(out, inputs.Layout(rows=rows), out / "pruned.jsonl", SMALL["forest"]["slice"])


def test_non_sibling_hard_negative_is_rejected(forest_round, tmp_path):
    rundir, layout, _ = forest_round
    out = copy_out(rundir, tmp_path)
    rows = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    roots = [n for n, p in rows if p is None]

    def swap(instances):
        hard = next(i for i in instances if i["kind"] == "hard_negative")
        pos = next(i for i in instances if i["kind"] == "positive" and i["sentence"] == hard["sentence"])
        parent = dict(rows)[pos["event_name"]]
        hard["event_name"] = next(r for r in roots if r != parent)

    rewrite(out / "train.jsonl", swap)
    with pytest.raises(checks.CheckError):
        checks.check_assembly(out, inputs.Layout(rows=rows), out / "pruned.jsonl", SMALL["forest"]["slice"])


def test_ablation_twin_differing_beyond_definition_is_rejected(forest_round, tmp_path):
    rundir, layout, _ = forest_round
    out = copy_out(rundir, tmp_path)
    rewrite(out / "train_nodef.jsonl", lambda rows: rows[0].update(sentence=rows[0]["sentence"] + " "))
    rows = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    with pytest.raises(checks.CheckError, match="more than the definition"):
        checks.check_assembly(out, inputs.Layout(rows=rows), out / "pruned.jsonl", SMALL["forest"]["slice"])


def test_off_by_one_tp_is_rejected(forest_round, tmp_path):
    rundir, _, result = forest_round
    out = copy_out(rundir, tmp_path)
    report = json.loads((out / "report.json").read_text())
    report["identification"]["tp"] += 1
    (out / "report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="identification"):
        checks.check_report(out / "report.json", result["planted"]["baseline"])


def test_wrong_drop_rate_is_rejected(forest_round, tmp_path):
    rundir, _, result = forest_round
    out = copy_out(rundir, tmp_path)
    drops = json.loads((out / "drops.json").read_text())
    drops["cls_drop_pct"] += 0.01
    (out / "drops.json").write_text(json.dumps(drops))
    with pytest.raises(checks.CheckError, match="cls_drop_pct"):
        checks.check_drops(out / "drops.json", result["planted"]["baseline"], result["planted"]["ablated"])


def test_short_generation_is_rejected(forest_round, tmp_path):
    rundir, layout, _ = forest_round
    out = copy_out(rundir, tmp_path)
    rewrite(out / "expanded.jsonl", lambda rows: rows[3]["definitions"].pop())
    rows = [(n, p) for n, p in layout.rows if n not in layout.heldout_tree]
    with pytest.raises(checks.CheckError, match="expected 4 distinct"):
        checks.check_generation(out, rows, SMALL["forest"]["per_event"], SMALL["forest"]["count"])


def test_stub_dataset_must_match_what_was_served(tmp_path):
    layout, result = checked_round(tmp_path / "run", "http_stub")
    out = copy_out(tmp_path / "run", tmp_path / "copy")
    rewrite(out / "expanded.jsonl", lambda rows: rows[-1]["samples"].reverse())
    with pytest.raises(checks.CheckError, match="differs from what the stub served"):
        checks.check_stub(out, layout, result["stub"], SMALL["http_stub"]["reject_every"])


@pytest.mark.parametrize("workload", ["forest", "wide_tree", "http_stub"])
def test_checks_pass_on_a_second_seed(workload, tmp_path):
    checked_round(tmp_path, workload, seed=2)


@pytest.mark.parametrize("workload", ["forest", "http_stub"])
def test_outputs_independent_of_hash_seed_and_max_in_flight(workload, tmp_path, monkeypatch):
    nproc = os.cpu_count() or 1
    digests = []
    for i, (hash_seed, max_in_flight) in enumerate([("0", 1), ("1", 1), ("0", nproc)]):
        monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        one_round(tmp_path / str(i), workload, max_in_flight=max_in_flight)
        digests.append(run._digests(tmp_path / str(i) / "out"))
    assert digests[0] == digests[1] == digests[2]

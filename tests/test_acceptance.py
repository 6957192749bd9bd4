"""Acceptance suite: every criterion as one test, at its stated tolerance.

A terminal-summary hook in conftest.py prints one PASS/FAIL line per
criterion at the end of the run.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from dived import cli
from dived.assembly import SliceSpec, assemble, count_kinds, read_jsonl, write_jsonl
from dived.cli import main
from dived.curation import read_dataset
from dived.evaluation import ScoreReport, Scores, drop_rate, match_and_score
from dived.jsonl import JsonlError
from dived.ontology import OntologyFormatError, load_ontology, save_ontology, siblings
from dived.pruning import overlap_ratio, prune_dataset

from conftest import FIXTURES, TOY_ONTOLOGY, WaitingMockBackend, grid_dataset, make_dataset, make_sample
from test_evaluation import gold, oracle_scores, pred, random_case
from test_pruning import brute_force_max_ratio, record


# ---------------------------------------------------------------------------
# 1. Pruning boundary
# ---------------------------------------------------------------------------


def test_criterion_1_pruning_boundary():
    start = time.perf_counter()

    # ratio 0.6 -> later event removed
    a = record("A", None, [f"s{i}" for i in range(6)] + [f"a{i}" for i in range(4)])
    b = record("B", "A", [f"s{i}" for i in range(6)] + [f"b{i}" for i in range(4)])
    pruned, audits = prune_dataset(make_dataset([a, b]))
    assert pruned.names() == ["A"]
    assert audits[0].ratio == 0.6

    # ratio exactly 0.5 -> both kept (strict >)
    a = record("A", None, [f"s{i}" for i in range(5)] + [f"a{i}" for i in range(5)])
    b = record("B", "A", [f"s{i}" for i in range(5)] + [f"b{i}" for i in range(5)])
    pruned, audits = prune_dataset(make_dataset([a, b]))
    assert pruned.names() == ["A", "B"]
    assert audits == []

    # post-prune exhaustive re-check on fixtures up to 20 events
    rng = random.Random(404)
    for n_events in (5, 12, 20):
        vocabulary = [f"t{i}" for i in range(n_events + 8)]
        tree = [
            record(f"e{i}", None if i == 0 else "e0", rng.sample(vocabulary, 10))
            for i in range(n_events)
        ]
        pruned, _ = prune_dataset(make_dataset(tree))
        assert brute_force_max_ratio(pruned) <= 0.5

    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. Scorer oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_scorer_equals_brute_force_oracle():
    start = time.perf_counter()
    rng = random.Random(1000003)
    discrepancies = 0
    for _ in range(1000):
        gold_records, pred_records = random_case(rng)
        report = match_and_score(gold_records, pred_records)
        expected = oracle_scores(gold_records, pred_records)
        if (report.id_scores.tp, report.id_scores.fp, report.id_scores.fn) != expected["id"]:
            discrepancies += 1
        if (report.cls_scores.tp, report.cls_scores.fp, report.cls_scores.fn) != expected["cls"]:
            discrepancies += 1
    assert discrepancies == 0
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. Worked arithmetic
# ---------------------------------------------------------------------------


def test_criterion_3_worked_arithmetic_and_cls_bound():
    report = match_and_score([gold("s1", "T", ["a", "b", "c"])], [pred("s1", "T", ["a", "x"])])
    assert report.id_scores.precision == pytest.approx(0.5, abs=1e-12)
    assert report.id_scores.recall == pytest.approx(1 / 3, abs=1e-12)
    assert report.id_scores.f1 == pytest.approx(0.4, abs=1e-12)

    rng = random.Random(77)
    for _ in range(200):
        gold_records, pred_records = random_case(rng)
        rep = match_and_score(gold_records, pred_records)
        assert rep.cls_scores.f1 <= rep.id_scores.f1 + 1e-12


# ---------------------------------------------------------------------------
# 4. Assembly counts across the scaled-down sweep grids
# ---------------------------------------------------------------------------


def test_criterion_4_assembly_counts_across_sweeps():
    start = time.perf_counter()
    dataset = grid_dataset(n_trees=4, children_per_tree=10, n_definitions=10, n_samples=10)

    def check(n_events, n_definitions, n_samples, n_negatives, n_hard):
        spec = SliceSpec(
            n_events=n_events, n_definitions=n_definitions, n_samples=n_samples,
            n_negatives=n_negatives, n_hard_negatives=n_hard, seed=1729,
        )
        instances = assemble(dataset, spec)
        counts = count_kinds(instances)
        assert counts["positive"] == n_events * n_samples
        assert counts["negative"] + counts["hard_negative"] == n_events * n_samples * n_negatives
        assert counts["hard_negative"] == n_events * n_samples * n_hard
        # every hard negative is a sibling of its positive's gold event
        gold_of = {}
        for inst in instances:
            prefix = inst.instance_id.rsplit("|", 1)[0]
            if inst.kind == "positive":
                gold_of[prefix] = inst.event_name
        for inst in instances:
            if inst.kind == "hard_negative":
                prefix = inst.instance_id.rsplit("|", 1)[0]
                sibs = {s.name for s in siblings(dataset, gold_of[prefix])}
                assert inst.event_name in sibs

    for n_hard in (0, 3):
        for n_events in (2, 4, 8, 16, 32):  # paper grid / 100
            check(n_events, 10, 10, 10, n_hard)
        for n_definitions in (1, 2, 4, 8, 10):
            check(2, n_definitions, 10, 10, n_hard)
        for n_samples in (1, 5, 10):
            check(2, 10, n_samples, 10, n_hard)

    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 5. Pipeline determinism across runs and max_in_flight
# ---------------------------------------------------------------------------

PIPELINE_FILES = ("d1.jsonl", "d2.jsonl", "d3.jsonl", "d4.jsonl", "audit.jsonl", "instances.jsonl")


def run_pipeline(outdir, seed: int, max_in_flight: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    mif = str(max_in_flight)
    seed_s = str(seed)
    steps = [
        ["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "mock", "--seed", seed_s,
         "--max-in-flight", mif, "--out", str(outdir / "d1.jsonl")],
        ["curate-samples", "--dataset", str(outdir / "d1.jsonl"), "--backend", "mock", "--seed", seed_s,
         "--max-in-flight", mif, "--out", str(outdir / "d2.jsonl")],
        ["expand-defs", "--dataset", str(outdir / "d2.jsonl"), "--backend", "mock", "--seed", seed_s,
         "--count", "10", "--max-in-flight", mif, "--out", str(outdir / "d3.jsonl")],
        ["prune", "--dataset", str(outdir / "d3.jsonl"), "--out", str(outdir / "d4.jsonl"),
         "--audit", str(outdir / "audit.jsonl")],
        ["assemble", "--dataset", str(outdir / "d4.jsonl"), "--events", "12", "--definitions", "10",
         "--samples", "10", "--negatives", "10", "--hard-negatives", "0", "--seed", seed_s,
         "--out", str(outdir / "instances.jsonl")],
    ]
    for step in steps:
        assert main(step) == 0, f"pipeline step failed: {step[0]}"


def test_criterion_5_pipeline_determinism(tmp_path):
    runs = {"first": 1, "second": 1, "wide": 8}
    for name, mif in runs.items():
        run_pipeline(tmp_path / name, seed=11, max_in_flight=mif)
    for filename in PIPELINE_FILES:
        first = (tmp_path / "first" / filename).read_bytes()
        assert first == (tmp_path / "second" / filename).read_bytes(), f"{filename} differs across identical runs"
        assert first == (tmp_path / "wide" / filename).read_bytes(), f"{filename} differs across max_in_flight"


def test_criterion_5_pipeline_determinism_on_worker_threads(tmp_path, monkeypatch, thread_starts):
    """The same bytes when the mock's replies go through complete_batch's
    worker threads, as a backend that waits on a server does."""
    run_pipeline(tmp_path / "caller", seed=11, max_in_flight=8)
    assert thread_starts == []
    monkeypatch.setattr(cli, "MockBackend", WaitingMockBackend)
    runs = {"first": 8, "second": 8, "narrow": 1}
    for name, mif in runs.items():
        run_pipeline(tmp_path / name, seed=11, max_in_flight=mif)
    assert thread_starts, "the generation stages ran on worker threads"
    for filename in PIPELINE_FILES:
        caller = (tmp_path / "caller" / filename).read_bytes()
        for name in runs:
            assert caller == (tmp_path / name / filename).read_bytes(), f"{filename} differs in run {name!r}"


# ---------------------------------------------------------------------------
# 6. Ablation correctness
# ---------------------------------------------------------------------------


def test_criterion_6_ablation_field_diff_and_drop_rate():
    dataset = grid_dataset(n_trees=2, children_per_tree=6)
    kwargs = dict(n_events=6, n_definitions=4, n_samples=5, n_negatives=6, n_hard_negatives=3,
                  with_ontology=True, seed=23)
    baseline = assemble(dataset, SliceSpec(with_definition=True, **kwargs))
    ablated = assemble(dataset, SliceSpec(with_definition=False, **kwargs))
    assert len(baseline) == len(ablated)
    for a, b in zip(baseline, ablated):
        assert b.definition == ""
        assert (a.instance_id, a.event_name, a.ontology_context, a.sentence, a.target, a.kind) == (
            b.instance_id, b.event_name, b.ontology_context, b.sentence, b.target, b.kind,
        )

    def report(f1: float) -> ScoreReport:
        scores = Scores(tp=0, fp=0, fn=0, precision=f1, recall=f1, f1=f1)
        return ScoreReport(id_scores=scores, cls_scores=scores)

    drops = drop_rate(report(0.50), report(0.40))
    assert drops["id_drop_pct"] == 20.0
    assert drops["cls_drop_pct"] == 20.0


# ---------------------------------------------------------------------------
# 7. End-to-end mock pipeline on the toy ontology
# ---------------------------------------------------------------------------


def test_criterion_7_end_to_end_mock_pipeline(tmp_path):
    start = time.perf_counter()
    outdir = tmp_path / "e2e"
    run_pipeline(outdir, seed=2024, max_in_flight=4)

    with_samples = read_dataset(outdir / "d2.jsonl")
    assert len(with_samples) == 12
    for node in with_samples.iter_nodes():
        assert node.definitions and node.definitions[0]
        assert len(node.samples) == 10  # validated at read: trigger in sentence

    expanded = read_dataset(outdir / "d3.jsonl")
    for node in expanded.iter_nodes():
        assert len(node.definitions) >= 11  # seed + at least 10 paraphrases surviving dedup

    assert (outdir / "audit.jsonl").exists()
    pruned = read_dataset(outdir / "d4.jsonl")
    assert len(pruned) == 12

    instances = read_jsonl(outdir / "instances.jsonl")
    # 12 events x 10 samples positives, each with 10 negatives: E*S*(1+N)
    assert len(instances) == 12 * 10 * (1 + 10)
    counts = count_kinds(instances)
    assert counts["positive"] == 120
    assert counts["negative"] + counts["hard_negative"] == 1200

    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 8. Round-trips and canned corrupt files
# ---------------------------------------------------------------------------


def test_criterion_8_round_trips_and_corrupt_files(tmp_path):
    # ontology: write -> read -> write is byte-identical
    ontology = load_ontology(TOY_ONTOLOGY)
    first, second = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
    save_ontology(ontology, first)
    save_ontology(load_ontology(first), second)
    assert first.read_bytes() == second.read_bytes()

    # instances: write -> read -> write is byte-identical
    dataset = grid_dataset(n_trees=2, children_per_tree=4)
    spec = SliceSpec(n_events=4, n_definitions=2, n_samples=3, n_negatives=2,
                     n_hard_negatives=1, with_ontology=True, seed=5)
    instances = assemble(dataset, spec)
    i1, i2 = tmp_path / "i1.jsonl", tmp_path / "i2.jsonl"
    write_jsonl(instances, i1)
    write_jsonl(read_jsonl(i1), i2)
    assert i1.read_bytes() == i2.read_bytes()

    # three canned corrupt files, each rejected with a line number
    with pytest.raises(JsonlError) as err:
        load_ontology(FIXTURES / "corrupt" / "ontology_bad_json.jsonl")
    assert err.value.line == 2

    with pytest.raises(OntologyFormatError) as err2:
        load_ontology(FIXTURES / "corrupt" / "ontology_missing_name.jsonl")
    assert err2.value.line == 2

    with pytest.raises(JsonlError) as err3:
        read_jsonl(FIXTURES / "corrupt" / "instances_kind_mismatch.jsonl")
    assert err3.value.line == 2

from __future__ import annotations

import hashlib
import json
import tracemalloc
from collections import Counter
from datetime import datetime
from types import SimpleNamespace

import pytest

from dived import assembly, cli
from dived.cli import build_parser, main, manifest_path
from dived.curation import GeneratedSample, read_dataset, write_dataset
from dived.llm_client import PermanentBackendError
from dived.ontology import load_ontology

from conftest import TOY_ONTOLOGY, ScriptedBackend, grid_dataset, make_dataset, make_sample


def run(args: list[str]) -> int:
    return main(args)


def small_dataset_file(tmp_path):
    dataset = make_dataset([
        (event, parent, [f"{event} def {i}" for i in range(3)], [make_sample(event, i) for i in range(4)])
        for event, parent in (("A", None), ("B", "A"), ("C", "A"))
    ])
    path = tmp_path / "dataset.jsonl"
    write_dataset(dataset, path)
    return path


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_heldout_writes_filtered_ontology_and_manifest(tmp_path):
    out = tmp_path / "filtered.jsonl"
    code = run(["ingest", "--ontology", str(TOY_ONTOLOGY), "--heldout", "attack", "--out", str(out)])
    assert code == 0
    filtered = load_ontology(out)
    assert len(filtered) == 7
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["command"] == "ingest"
    assert manifest["counts"] == {"trees_in": 3, "nodes_in": 12, "trees_out": 2, "nodes_out": 7}
    assert manifest["input_paths"] == [str(TOY_ONTOLOGY)]
    assert manifest["output_paths"] == [str(out)]
    assert manifest["config_hash"]
    assert manifest["volatile"]["timestamp"]


def test_ingest_comma_and_repeat_heldout(tmp_path):
    out = tmp_path / "filtered.jsonl"
    code = run(["ingest", "--ontology", str(TOY_ONTOLOGY), "--heldout", "attack,refund",
                "--heldout", "arrival", "--out", str(out)])
    assert code == 0
    assert len(load_ontology(out)) == 0


# ---------------------------------------------------------------------------
# pipeline chain + manifest chaining
# ---------------------------------------------------------------------------


def test_pipeline_chain_and_manifest_links(tmp_path):
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    assert run(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "mock",
                "--seed", "3", "--out", str(d1)]) == 0
    assert run(["curate-samples", "--dataset", str(d1), "--backend", "mock",
                "--seed", "3", "--per-event", "4", "--out", str(d2)]) == 0
    manifest = json.loads(manifest_path(d2).read_text())
    assert manifest["counts"]["samples"] == 48
    # chaining: d2's manifest records the digest of d1's manifest
    assert str(d1) in manifest["input_manifests"]
    assert len(manifest["input_manifests"][str(d1)]) == 64


def test_reruns_write_the_same_manifests_but_for_the_volatile_block(tmp_path, monkeypatch):
    """The chain digests each input manifest without its ``volatile`` block, so
    a rerun at another time chains the same digest; a manifest that is not a
    JSON object is digested as raw bytes."""
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    runs = []
    for year in (2020, 2031):
        monkeypatch.setattr(cli, "datetime", SimpleNamespace(now=lambda tz, year=year: datetime(year, 1, 1, tzinfo=tz)))
        assert run(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--seed", "3", "--out", str(d1)]) == 0
        assert run(["curate-samples", "--dataset", str(d1), "--seed", "3", "--per-event", "2", "--out", str(d2)]) == 0
        runs.append([json.loads(manifest_path(p).read_text(encoding="utf-8")) for p in (d1, d2)])
    assert [m.pop("volatile") for m in runs[0]] != [m.pop("volatile") for m in runs[1]]
    assert runs[0] == runs[1]
    written = json.dumps(runs[1][0], ensure_ascii=False, indent=2) + "\n"
    assert runs[1][1]["input_manifests"] == {str(d1): hashlib.sha256(written.encode("utf-8")).hexdigest()}

    manifest_path(d1).write_bytes(b"[1, 2]\n")
    assert run(["curate-samples", "--dataset", str(d1), "--per-event", "2", "--out", str(d2)]) == 0
    chained = json.loads(manifest_path(d2).read_text(encoding="utf-8"))["input_manifests"]
    assert chained == {str(d1): hashlib.sha256(b"[1, 2]\n").hexdigest()}


def test_mock_generation_keeps_a_comma_in_an_event_name(tmp_path):
    ontology = tmp_path / "ontology.jsonl"
    rows = [("arrest, detain", None), ("trade", None), ("sale", "trade")]
    ontology.write_text("".join(json.dumps({"name": n, "parent": p}) + "\n" for n, p in rows), encoding="utf-8")
    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    assert run(["curate-defs", "--ontology", str(ontology), "--backend", "mock", "--out", str(d1)]) == 0
    assert run(["curate-samples", "--dataset", str(d1), "--backend", "mock", "--per-event", "2",
                "--out", str(d2)]) == 0
    node = read_dataset(d2).get("arrest, detain")
    assert len(node.definitions) == 1
    assert node.name == "arrest, detain" and len(node.samples) == 2


def test_assemble_example_counts(tmp_path):
    dataset = small_dataset_file(tmp_path)
    out = tmp_path / "instances.jsonl"
    code = run(["assemble", "--dataset", str(dataset), "--events", "2", "--definitions", "1",
                "--samples", "2", "--negatives", "1", "--hard-negatives", "0", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 8
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["counts"]["instances"] == 8
    assert manifest["counts"]["positives"] == 4
    assert manifest["seed"] == 7


def test_prune_writes_audit(tmp_path):
    dataset = small_dataset_file(tmp_path)
    out, audit = tmp_path / "pruned.jsonl", tmp_path / "audit.jsonl"
    assert run(["prune", "--dataset", str(dataset), "--out", str(out), "--audit", str(audit)]) == 0
    assert audit.exists()
    assert manifest_path(audit).exists() and manifest_path(out).exists()


@pytest.mark.parametrize("spelling", ["same.jsonl", "sub/../same.jsonl"])
def test_prune_rejects_out_and_audit_naming_one_file_before_reading(tmp_path, capsys, spelling):
    (tmp_path / "sub").mkdir()
    same = tmp_path / "same.jsonl"
    # A missing dataset fails the same way: the check comes before the read.
    for dataset in (small_dataset_file(tmp_path), tmp_path / "no_such_dataset.jsonl"):
        code = run(["prune", "--dataset", str(dataset), "--out", str(same), "--audit", str(tmp_path / spelling)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--out" in err and "--audit" in err and "same file" in err
        assert not same.exists()


@pytest.mark.parametrize(
    "rows",
    [
        # parent cycle: a and b are each other's parent
        [("r", None), ("a", "b"), ("b", "a")],
        # two names equal up to case
        [("A", None), ("a", None)],
        # unknown parent
        [("x", None), ("y", "ghost")],
    ],
    ids=["cycle", "case_duplicate", "unknown_parent"],
)
def test_prune_rejects_invalid_dataset_naming_the_line(tmp_path, capsys, rows):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"event": e, "parent": p, "children": [], "definitions": [f"{e} def"],
                        "samples": [{"sentence": f"The {e} hit.", "trigger": "hit"}]}) + "\n"
            for e, p in rows
        ),
        encoding="utf-8",
    )
    out, audit = tmp_path / "pruned.jsonl", tmp_path / "audit.jsonl"
    assert run(["prune", "--dataset", str(dataset), "--out", str(out), "--audit", str(audit)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {dataset}:2: ")
    assert not out.exists()


def assert_assemble_rejects_line_2(tmp_path, capsys, b_row, bad_text):
    """``assemble`` on a dataset of event A and then ``b_row`` exits 1 and
    names line 2 and ``bad_text``, writing nothing."""
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in [
        {"event": "A", "parent": None, "children": [], "definitions": ["A def"],
         "samples": [{"sentence": "The A hit.", "trigger": "hit"}]},
        {"event": "B", "parent": None, "children": [], **b_row},
    ]), encoding="utf-8")
    out = tmp_path / "train.jsonl"
    assert run(["assemble", "--dataset", str(dataset), "--events", "2", "--definitions", "1", "--samples", "1",
                "--negatives", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}:2: ") and repr(bad_text) in err
    assert not out.exists()


@pytest.mark.parametrize("definition", ["", "  ", "c\nd", "e\rf", "g\x0bh", "i\x1cj", "k\x85l", "m\u2028n", "end\n"])
def test_a_blank_or_multi_line_definition_exits_1_naming_the_line(tmp_path, capsys, definition):
    # A blank definition would render like the --no-definition ablation.
    b_row = {"definitions": [definition], "samples": [{"sentence": "The B hit.", "trigger": "hit"}]}
    assert_assemble_rejects_line_2(tmp_path, capsys, b_row, definition)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_a_sentence_holding_a_line_break_exits_1_naming_the_line(tmp_path, capsys, brk):
    # Such a sentence would break the Sentence: line of the rendered prompt.
    sentence = f"z{brk}hit2 w"
    b_row = {"definitions": ["B def"], "samples": [{"sentence": sentence, "trigger": "hit2"}]}
    assert_assemble_rejects_line_2(tmp_path, capsys, b_row, sentence)


@pytest.mark.parametrize("threshold", ["-0.1", "1.5", "nan"])
def test_prune_rejects_threshold_outside_unit_interval(tmp_path, capsys, threshold):
    dataset = small_dataset_file(tmp_path)
    out, audit = tmp_path / "pruned.jsonl", tmp_path / "audit.jsonl"
    code = run(["prune", "--dataset", str(dataset), "--out", str(out), "--audit", str(audit),
                "--threshold", threshold])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threshold" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "samples",
    [["oops"], [{"sentence": 5, "trigger": "hit"}], [{"sentence": "The B hit.", "trigger": None}], "oops", []],
    ids=["string_entry", "int_sentence", "null_trigger", "not_a_list", "no_samples"],
)
def test_prune_rejects_malformed_sample_entry_naming_the_line(tmp_path, capsys, samples):
    rows = [
        {"event": "A", "parent": None, "children": ["B"], "definitions": ["A def"],
         "samples": [{"sentence": "The A hit.", "trigger": "hit"}]},
        {"event": "B", "parent": "A", "children": [], "definitions": ["B def"], "samples": samples},
    ]
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out, audit = tmp_path / "pruned.jsonl", tmp_path / "audit.jsonl"
    assert run(["prune", "--dataset", str(dataset), "--out", str(out), "--audit", str(audit)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {dataset}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["curate-samples", "expand-defs"])
def test_a_step_needing_definitions_exits_1_naming_the_line_of_an_event_without_one(tmp_path, capsys, command):
    rows = [
        {"event": "a", "parent": None, "children": ["b"], "definitions": ["a def"], "samples": []},
        {"event": "b", "parent": "a", "children": [], "definitions": [], "samples": []},
    ]
    dataset = tmp_path / "ds.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run([command, "--dataset", str(dataset), "--backend", "mock", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset}:2: ") and "event 'b' has no definition" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["a\tb", "c\nd", "e\rf", "g\x0bh", "i\x1cj", "k\x85l", "m\u2028n"])
def test_an_event_name_the_reply_format_cannot_carry_exits_1_naming_the_line(tmp_path, capsys, name):
    # Reply lines are EVENT<TAB>FIELD: value, so no reply could name this event.
    ontology = tmp_path / "ontology.jsonl"
    ontology.write_text(json.dumps({"name": "ok"}) + "\n" + json.dumps({"name": name, "parent": "ok"}) + "\n",
                        encoding="utf-8")
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in [
        {"event": "ok", "parent": None, "children": [name], "definitions": ["ok def"],
         "samples": [{"sentence": "The ok hit.", "trigger": "hit"}]},
        {"event": name, "parent": "ok", "children": [], "definitions": ["def"],
         "samples": [{"sentence": "The other hit.", "trigger": "hit"}]},
    ]), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    for args, path in ((["ingest", "--ontology", str(ontology)], ontology),
                       (["curate-defs", "--ontology", str(ontology)], ontology),
                       (["prune", "--dataset", str(dataset), "--audit", str(tmp_path / "audit.jsonl")], dataset)):
        assert run([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: ") and repr(name) in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# generation commands: failures and counts
# ---------------------------------------------------------------------------


def test_expand_defs_exits_2_and_counts_failures_when_every_request_fails(tmp_path, monkeypatch, capsys):
    backend = ScriptedBackend([PermanentBackendError("HTTP 400: rejected")] * 3)  # one request per event
    monkeypatch.setattr(cli, "_backend", lambda resolved: backend)
    dataset = small_dataset_file(tmp_path)
    out = tmp_path / "expanded.jsonl"
    assert run(["expand-defs", "--dataset", str(dataset), "--count", "2", "--out", str(out)]) == 2
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["counts"] == {"events": 3, "paraphrases_added": 0, "failures": 3}


def _samples_reply(pairs: dict[str, list[tuple[str, str]]]) -> str:
    lines = ["Here are the samples:"]
    for event, event_pairs in pairs.items():
        for sentence, trigger in event_pairs:
            lines += [f"{event}\tsentence: {sentence}", f"{event}\ttrigger: {trigger}"]
    return "\n".join(lines)


def test_curate_samples_regenerate_counts_describe_every_round(tmp_path, monkeypatch, capsys):
    dataset = tmp_path / "defs.jsonl"
    write_dataset(make_dataset([("A", None, ["A def"], []), ("B", "A", ["B def"], [])]), dataset)
    good = {event: [(f"The {event} unit {event}hit{i} today.", f"{event}hit{i}") for i in range(2)]
            for event in ("A", "B")}
    # round 0: A is complete, one of B's two pairs is invalid (trigger not in sentence)
    round0 = _samples_reply({"A": good["A"], "B": [good["B"][0], ("The B unit stood still.", "Bhit1")]})
    # round 1: B is complete, A's lines are missing; A keeps its round-0 samples
    round1 = _samples_reply({"B": good["B"]})
    backend = ScriptedBackend([round0, round0, round1, round1])  # each round retries a short tree once
    monkeypatch.setattr(cli, "_backend", lambda resolved: backend)
    out = tmp_path / "samples.jsonl"
    code = run(["curate-samples", "--dataset", str(dataset), "--per-event", "2", "--regenerate", "1",
                "--out", str(out)])
    assert backend.script == []
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["counts"] == {"events": 2, "samples": 4, "dropped_invalid": 1, "failures": 0}
    assert "(1 invalid dropped)" in capsys.readouterr().out
    assert code == 0


def test_curate_samples_regenerate_requests_a_failed_tree_again(tmp_path, monkeypatch, capsys):
    dataset = tmp_path / "defs.jsonl"
    write_dataset(make_dataset([("A", None, ["A def"], []), ("B", "A", ["B def"], [])]), dataset)
    full = _samples_reply({event: [(f"The {event} unit {event}hit{i} today.", f"{event}hit{i}") for i in range(2)]
                           for event in ("A", "B")})
    # round 0: the request fails and is not retried; round 1 asks again
    backend = ScriptedBackend([PermanentBackendError("HTTP 400: rejected"), full])
    monkeypatch.setattr(cli, "_backend", lambda resolved: backend)
    out = tmp_path / "samples.jsonl"
    code = run(["curate-samples", "--dataset", str(dataset), "--per-event", "2", "--regenerate", "1",
                "--out", str(out)])
    assert backend.calls == 2
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["counts"] == {"events": 2, "samples": 4, "dropped_invalid": 0, "failures": 0}
    assert code == 0


# ---------------------------------------------------------------------------
# score / ablate-report
# ---------------------------------------------------------------------------


def test_score_self_is_perfect(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        '{"sentence_id": "s1", "event_type": "attack", "triggers": ["bombed"]}\n'
        '{"sentence_id": "s2", "event_type": "protest", "triggers": ["marched", "rallied"]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    code = run(["score", "--gold", str(gold), "--pred", str(gold), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["identification"]["f1"] == 1.0
    assert report["classification"]["f1"] == 1.0
    assert "identification" in capsys.readouterr().out


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize(
    "field, value",
    [("sentence_id", ["s1"]), ("sentence_id", {"t": 1}), ("sentence_id", 5),
     ("event_type", ["T"]), ("event_type", {"t": 1}), ("event_type", 5)],
    ids=["sid_list", "sid_object", "sid_int", "type_list", "type_object", "type_int"],
)
def test_score_rejects_non_string_id_naming_the_line(tmp_path, capsys, side, field, value):
    good = {"sentence_id": "s1", "event_type": "T", "triggers": ["hit"]}
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    for path in (gold, pred):
        path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    bad_file = gold if side == "gold" else pred
    bad = {**good, "sentence_id": "s2", field: value}
    with bad_file.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    out = tmp_path / "report.json"
    assert run(["score", "--gold", str(gold), "--pred", str(pred), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad_file}:2: ")
    assert not out.exists()


@pytest.mark.parametrize("side, extra, line, message", [
    ("gold", [("s2", "T"), ("s1", "U"), ("s1", "T")], 4, "duplicate gold record for sentence 's1', type 'T'"),
    ("pred", [("s2", "T"), ("s1", "U"), ("s1", "T")], 4, "duplicate prediction record for sentence 's1', type 'T'"),
    ("pred", [("s1", "U"), ("s9", "U"), ("s9", "T")], 3, "prediction for unknown sentence id 's9'"),
], ids=["duplicate_gold", "duplicate_pred", "unknown_id"])
def test_score_names_the_line_of_a_record_it_cannot_score(tmp_path, capsys, side, extra, line, message):
    """The duplicate is the second record of its key; the unknown id, the
    first prediction that names it. Each file also holds the other's keys,
    so only one side is at fault."""
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    keys = [("s1", "T"), ("s2", "T"), ("s1", "U")]
    for path in (gold, pred):
        rows = [("s1", "T"), *extra] if path.name.startswith(side) else keys
        path.write_text("".join(json.dumps({"sentence_id": sid, "event_type": t, "triggers": ["hit"]}) + "\n"
                                for sid, t in rows), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run(["score", "--gold", str(gold), "--pred", str(pred), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / side}.jsonl:{line}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize(
    "spans",
    [[[True, 1]], [[1, True]], [[False, 0]], [[5, 2]], [[-1, 2]], [[-3, -1]]],
    ids=["bool_start", "bool_end", "bool_both", "inverted", "negative_start", "negative_both"],
)
def test_score_rejects_bool_negative_and_inverted_spans_naming_the_line(tmp_path, capsys, side, spans):
    good = {"sentence_id": "s1", "event_type": "T", "triggers": ["hit"], "spans": [[1, 1]]}
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    for path in (gold, pred):
        path.write_text(json.dumps(good) + "\n", encoding="utf-8")
    bad_file = gold if side == "gold" else pred
    with bad_file.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({**good, "sentence_id": "s2", "spans": spans}) + "\n")
    assert run(["score", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad_file}:2: field 'spans' ")


def fake_report(f1):
    scores = {"tp": 1, "fp": 1, "fn": 1, "precision": f1, "recall": f1, "f1": f1}
    return {"identification": scores, "classification": scores, "per_event_type": {}}


def test_ablate_report(tmp_path, capsys):
    base, ablated = tmp_path / "base.json", tmp_path / "ablated.json"
    base.write_text(json.dumps(fake_report(0.50)), encoding="utf-8")
    ablated.write_text(json.dumps(fake_report(0.40)), encoding="utf-8")
    out = tmp_path / "drops.json"
    code = run(["ablate-report", "--baseline", str(base), "--ablated", str(ablated), "--out", str(out)])
    assert code == 0
    drops = json.loads(out.read_text())
    assert drops["id_drop_pct"] == 20.0
    assert drops["id_drop_points"] == 10.0
    assert "20.0%" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------


def test_config_file_supplies_options_and_flags_override(tmp_path):
    dataset = small_dataset_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "seed": 7,
            "assemble": {"events": 2, "definitions": 1, "samples": 2, "negatives": 1, "hard-negatives": 0},
        }),
        encoding="utf-8",
    )
    out1 = tmp_path / "a.jsonl"
    assert run(["assemble", "--dataset", str(dataset), "--config", str(config), "--out", str(out1)]) == 0
    assert len(out1.read_text().splitlines()) == 8
    # flag overrides config: one sample instead of two
    out2 = tmp_path / "b.jsonl"
    assert run(["assemble", "--dataset", str(dataset), "--config", str(config),
                "--samples", "1", "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b'{"seed": "\xff"}', b'{"score": [1]}', b"[]", b'{"seed": 1'],
    ids=["too_deep", "invalid_utf8", "section_not_an_object", "not_an_object", "invalid_json"],
)
def test_bad_config_file_exits_1_naming_the_file(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    gold = tmp_path / "gold.jsonl"
    gold.write_text("", encoding="utf-8")
    assert run(["score", "--gold", str(gold), "--pred", str(gold), "--config", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {config}: ")


def test_a_section_of_another_command_is_not_checked(tmp_path):
    dataset = small_dataset_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"score": [1], "seed": 7}), encoding="utf-8")
    out = tmp_path / "pruned.jsonl"
    assert run(["prune", "--dataset", str(dataset), "--config", str(config), "--out", str(out),
                "--audit", str(tmp_path / "audit.jsonl")]) == 0
    assert out.exists()


ASSEMBLE_SLICE = ["--events", "2", "--definitions", "1", "--samples", "2", "--negatives", "1"]


def bad_value_run(tmp_path, command):
    """argv of ``command`` on small inputs, short of --config and its output flags."""
    dataset = str(small_dataset_file(tmp_path))
    return {
        "ingest": ["ingest", "--ontology", str(TOY_ONTOLOGY)],
        "curate-samples": ["curate-samples", "--dataset", dataset],
        "prune": ["prune", "--dataset", dataset, "--audit", str(tmp_path / "audit.jsonl")],
        "assemble": ["assemble", "--dataset", dataset, *ASSEMBLE_SLICE],
    }[command]


@pytest.mark.parametrize(
    "command, config",
    [
        ("assemble", {"with_ontology": "false"}),
        ("assemble", {"with_definition": 1}),
        ("assemble", {"seed": None}),
        ("assemble", {"seed": 5.5}),
        ("assemble", {"seed": 5.0}),
        ("assemble", {"seed": True}),
        ("assemble", {"seed": "x"}),
        ("assemble", {"assemble": {"negatives": {"n": 1}}}),
        ("curate-samples", {"per_event": [2]}),
        ("prune", {"threshold": "abc"}),
        ("ingest", {"heldout": None}),
        ("ingest", {"heldout": ["attack", 3]}),
        ("curate-samples", {"backend": "bogus"}),
        ("curate-samples", {"curate-samples": {"backend": 1}}),
        ("curate-samples", {"max_in_flight": 100000}),
        ("curate-samples", {"curate-samples": {"max-in-flight": 0}}),
        ("curate-samples", {"retry_limit": -1}),
        ("curate-samples", {"retry_limit": 11}),
    ],
    ids=["bool_as_string", "bool_as_number", "null", "fraction_for_int", "float_for_int", "bool_for_int",
         "word_for_int", "object_in_section", "list_for_int", "word_for_float", "null_heldout", "number_in_heldout",
         "unknown_backend", "number_for_backend", "max_in_flight_too_high", "max_in_flight_zero",
         "negative_retry_limit", "retry_limit_too_high"],
)
def test_a_bad_config_value_exits_1_naming_the_file(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run([*bad_value_run(tmp_path, command), "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config file {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("config", [{"backend": "bogus"}, {"curate-samples": {"backend": "Mock"}}],
                         ids=["flat", "section"])
def test_a_config_value_outside_the_choices_names_the_file_key_and_choices(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    value = json.dumps(config.get("backend") or config["curate-samples"]["backend"])
    out = tmp_path / "out.jsonl"
    assert run([*bad_value_run(tmp_path, "curate-samples"), "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: config file {path}: 'backend' must be one of 'mock', 'http', not {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("config, flags, nodes_left", [
    ({"heldout": "attack"}, [], 7),
    ({"heldout": ["attack"]}, ["--heldout", "refund"], 8),
])
def test_config_heldout_is_a_string_or_list_and_flags_replace_it(tmp_path, config, flags, nodes_left):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "filtered.jsonl"
    assert run(["ingest", "--ontology", str(TOY_ONTOLOGY), "--config", str(path), *flags, "--out", str(out)]) == 0
    assert len(load_ontology(out)) == nodes_left


def test_assemble_by_config_equals_assemble_by_flags(tmp_path):
    dataset = small_dataset_file(tmp_path)
    out = tmp_path / "train.jsonl"
    flags = [*ASSEMBLE_SLICE, "--hard-negatives", "1", "--ontology", "--no-definition", "--seed", "3"]
    assert run(["assemble", "--dataset", str(dataset), *flags, "--out", str(out)]) == 0
    by_flags = out.read_bytes(), json.loads(manifest_path(out).read_text())["config_hash"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "assemble": {
        "dataset": str(dataset), "events": 2, "definitions": 1, "samples": "2", "negatives": 1,
        "hard-negatives": 1, "with_ontology": True, "with_definition": False, "out": str(out),
    }}), encoding="utf-8")
    out.unlink()
    assert run(["assemble", "--config", str(config)]) == 0
    assert (out.read_bytes(), json.loads(manifest_path(out).read_text())["config_hash"]) == by_flags


# ---------------------------------------------------------------------------
# assemble streams its output
# ---------------------------------------------------------------------------


def deep_dataset_file(tmp_path):
    """Three trees of root, 4 children and 2 grandchildren per child, every
    event with definitions and samples: a grandchild has one sibling, so
    hard negatives past it come from its cousins."""
    rows = []
    for t in range(3):
        rows.append((f"r{t}", None))
        for c in range(4):
            rows.append((f"r{t}c{c}", f"r{t}"))
            rows.extend((f"r{t}c{c}g{g}", f"r{t}c{c}") for g in range(2))
    dataset = make_dataset([
        (event, parent, [f"{event} def {i}" for i in range(3)], [make_sample(event, i) for i in range(4)])
        for event, parent in rows
    ])
    path = tmp_path / "dataset.jsonl"
    write_dataset(dataset, path)
    return path


@pytest.mark.parametrize("flags", [
    ["--events", "10", "--definitions", "2", "--samples", "3", "--negatives", "5", "--hard-negatives", "3",
     "--ontology", "--seed", "4"],
    ["--events", "10", "--definitions", "2", "--samples", "3", "--negatives", "5", "--hard-negatives", "3",
     "--ontology", "--no-definition", "--seed", "4"],
    ["--events", "39", "--definitions", "1", "--samples", "1", "--negatives", "2", "--seed", "5"],
    ["--events", "6", "--definitions", "3", "--samples", "4", "--negatives", "0"],
], ids=["cousins", "no_definition", "every_event", "no_negatives"])
def test_assemble_streams_the_bytes_of_the_assembled_list(tmp_path, flags):
    dataset = deep_dataset_file(tmp_path)
    out = tmp_path / "streamed.jsonl"
    assert run(["assemble", "--dataset", str(dataset), *flags, "--out", str(out)]) == 0
    args = build_parser().parse_args(["assemble", *flags])
    spec = assembly.SliceSpec(
        n_events=args.events, n_definitions=args.definitions, n_samples=args.samples, n_negatives=args.negatives,
        n_hard_negatives=args.hard_negatives, with_ontology=args.with_ontology,
        with_definition=args.with_definition, seed=args.seed,
    )
    instances = assembly.assemble(read_dataset(dataset), spec)
    assembly.write_jsonl(instances, tmp_path / "listed.jsonl")
    assert out.read_bytes() == (tmp_path / "listed.jsonl").read_bytes()
    kinds = Counter(inst.kind for inst in instances)
    assert json.loads(manifest_path(out).read_text())["counts"] == {
        "instances": len(instances),
        "positives": kinds["positive"],
        "negatives": kinds["negative"] + kinds["hard_negative"],
        "hard_negatives": kinds["hard_negative"],
    }


def test_running_out_of_negatives_partway_leaves_no_output(tmp_path, capsys):
    """A has negatives to spare; B's sentence is held by B, C and D, which
    leaves it one candidate for two negatives."""
    shared = "The fire spread to the hall."
    dataset = make_dataset([
        ("A", None, ["A def"], [make_sample("A", 0)]),
        *((event, None, [f"{event} def"], [GeneratedSample(shared, "fire")]) for event in "BCD"),
    ])
    path = tmp_path / "dataset.jsonl"
    write_dataset(dataset, path)
    spec = assembly.SliceSpec(n_events=4, n_definitions=1, n_samples=1, n_negatives=2)
    streamed = []
    with pytest.raises(assembly.InsufficientDataError) as err:
        streamed.extend(assembly.iter_instances(read_dataset(path), spec))
    assert len(streamed) == 4 and "negative candidates" in str(err.value)  # A's three instances, then B's positive

    out = tmp_path / "out" / "instances.jsonl"
    out.parent.mkdir()
    code = run(["assemble", "--dataset", str(path), "--events", "4", "--definitions", "1", "--samples", "1",
                "--negatives", "2", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert list(out.parent.iterdir()) == []


def test_a_sample_whose_trigger_is_the_negative_target_exits_1_naming_its_line(tmp_path, capsys):
    """A positive row with target "None" would read as a negative, so the
    slice is refused and the message names the dataset line of the event."""
    dataset = make_dataset([
        ("A", None, ["A def"], [make_sample("A", 0)]),
        ("B", None, ["B def"], [GeneratedSample("None of them came.", "None")]),
        ("C", None, ["C def"], [make_sample("C", 0)]),
    ])
    path = tmp_path / "dataset.jsonl"
    write_dataset(dataset, path)
    with pytest.raises(ValueError, match="'B'"):
        list(assembly.iter_instances(read_dataset(path), assembly.SliceSpec(3, 1, 1, n_negatives=1)))

    out = tmp_path / "out" / "instances.jsonl"
    out.parent.mkdir()
    code = run(["assemble", "--dataset", str(path), "--events", "3", "--definitions", "1", "--samples", "1",
                "--negatives", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: event 'B'") and "'None'" in err
    assert list(out.parent.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--events", "99", "--definitions", "1", "--samples", "1"], "need 99 events, dataset has 3"),
    (["--events", "3", "--definitions", "9", "--samples", "1"], "definitions, need 9"),
    (["--events", "3", "--definitions", "1", "--samples", "9"], "samples, need 9"),
])
def test_a_short_slice_is_reported_before_a_missing_output_directory(tmp_path, capsys, flags, message):
    dataset = small_dataset_file(tmp_path)
    out = tmp_path / "missing" / "instances.jsonl"
    assert run(["assemble", "--dataset", str(dataset), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_no_negative_candidates_is_reported_before_a_missing_output_directory(tmp_path, capsys):
    path = tmp_path / "dataset.jsonl"
    write_dataset(make_dataset([("solo", None, ["d"], [make_sample("solo", 0)])]), path)
    out = tmp_path / "missing" / "instances.jsonl"
    code = run(["assemble", "--dataset", str(path), "--events", "1", "--definitions", "1", "--samples", "1",
                "--negatives", "1", "--out", str(out)])
    assert code == 1
    assert "negative instances need at least 2 events" in capsys.readouterr().err


def test_assemble_memory_does_not_grow_with_the_negatives(tmp_path):
    """200 events x 10 samples: 4,000 instances at --negatives 1 and 22,000
    at --negatives 10. Holding the second slice as a list costs ~2.8 MB more
    than the first (tracemalloc); streamed, the two peaks are within 0.5 MB."""
    path = tmp_path / "dataset.jsonl"
    write_dataset(grid_dataset(n_trees=20, children_per_tree=10, n_definitions=1, n_samples=10), path)

    def peak(negatives: int) -> int:
        out = tmp_path / f"instances{negatives}.jsonl"
        tracemalloc.start()
        try:
            assert run(["assemble", "--dataset", str(path), "--events", "200", "--definitions", "1",
                        "--samples", "10", "--negatives", str(negatives), "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    larger = peak(10)  # first, so that any first-run allocation counts against the test
    assert larger - peak(1) < 500_000


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def generation_run(tmp_path, command):
    """argv of a generation command on small inputs, short of its output flag."""
    if command == "curate-defs":
        return [command, "--ontology", str(TOY_ONTOLOGY)]
    return [command, "--dataset", str(small_dataset_file(tmp_path))]


@pytest.mark.parametrize("flags, message", [
    (["--max-in-flight", "0"], "argument --max-in-flight: 0 is not from 1 to 64"),
    (["--max-in-flight", "65"], "argument --max-in-flight: 65 is not from 1 to 64"),
    (["--max-in-flight", "100000"], "argument --max-in-flight: 100000 is not from 1 to 64"),
    (["--max-in-flight", "two"], "argument --max-in-flight: invalid integer value: 'two'"),
    (["--retry-limit", "-1"], "argument --retry-limit: -1 is not from 0 to 10"),
    (["--retry-limit", "11"], "argument --retry-limit: 11 is not from 0 to 10"),
], ids=["max_in_flight_zero", "max_in_flight_65", "max_in_flight_100000", "max_in_flight_word",
        "retry_limit_negative", "retry_limit_11"])
@pytest.mark.parametrize("command", ["curate-defs", "curate-samples", "expand-defs"])
def test_batch_options_out_of_range_exit_1(tmp_path, capsys, command, flags, message):
    out = tmp_path / "out.jsonl"
    assert run([*generation_run(tmp_path, command), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dived {command}: ") and err.rstrip().endswith(message)
    assert not out.exists()


def test_batch_options_at_their_bounds_are_accepted(tmp_path):
    dataset = str(small_dataset_file(tmp_path))
    for flags in (["--max-in-flight", "1", "--retry-limit", "0"], ["--max-in-flight", "64", "--retry-limit", "10"]):
        assert run(["expand-defs", "--dataset", dataset, *flags, "--out", str(tmp_path / "out.jsonl")]) == 0


@pytest.mark.parametrize("command", ["curate-defs", "curate-samples", "expand-defs"])
def test_mock_generation_starts_no_thread(tmp_path, thread_starts, command):
    out = tmp_path / "out.jsonl"
    assert run([*generation_run(tmp_path, command), "--backend", "mock", "--max-in-flight", "8", "--out", str(out)]) == 0
    assert out.exists()
    assert thread_starts == []


def test_missing_required_option_exits_1(tmp_path, capsys):
    assert run(["ingest", "--ontology", str(TOY_ONTOLOGY)]) == 1
    assert "--out" in capsys.readouterr().err
    # a required option may come from the config file
    out, config = tmp_path / "out.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({"ingest": {"out": str(out)}}), encoding="utf-8")
    assert run(["ingest", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: missing required option --ontology\n"
    assert run(["ingest", "--ontology", str(TOY_ONTOLOGY), "--config", str(config)]) == 0
    assert out.exists()


REQUIRED = {
    "ingest": ["--ontology", "--out"],
    "curate-defs": ["--ontology", "--out"],
    "curate-samples": ["--dataset", "--out"],
    "expand-defs": ["--dataset", "--out"],
    "prune": ["--dataset", "--out", "--audit"],
    "assemble": ["--dataset", "--out", "--events", "--definitions", "--samples"],
    "score": ["--gold", "--pred"],
    "ablate-report": ["--baseline", "--ablated"],
}


@pytest.mark.parametrize("command, option", [(c, o) for c, options in REQUIRED.items() for o in options])
def test_each_missing_required_option_exits_1_before_any_file_is_touched(tmp_path, capsys, command, option):
    argv = [command]
    for flag in REQUIRED[command]:
        if flag != option:  # a path that does not exist, or a count for assemble
            argv += [flag, "1" if flag in ("--events", "--definitions", "--samples") else str(tmp_path / flag[2:])]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: missing required option {option}\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert run(["ingest", "--ontology", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == 1


def test_validation_error_exits_1(tmp_path, capsys):
    dataset = small_dataset_file(tmp_path)
    code = run(["assemble", "--dataset", str(dataset), "--events", "99", "--definitions", "1",
                "--samples", "1", "--out", str(tmp_path / "o.jsonl")])
    assert code == 1


def test_backend_config_failure_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DIVED_API_KEY", raising=False)
    code = run(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "http",
                "--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--out", str(tmp_path / "d.jsonl")])
    assert code == 2
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize("endpoint", ["localhost:9/v1", "127.0.0.1:9", "http:///v1", "ftp://127.0.0.1:9/v1", "/v1",
                                      "http://127.0.0.1:port/v1", "http://127.0.0.1:99999/v1", "http://[::1/v1"])
def test_malformed_endpoint_exits_2_before_any_request(tmp_path, monkeypatch, capsys, sleeps, endpoint):
    monkeypatch.setenv("DIVED_API_KEY", "secret")
    code = run(["curate-defs", "--ontology", str(TOY_ONTOLOGY), "--backend", "http",
                "--endpoint", endpoint, "--model", "m", "--out", str(tmp_path / "d.jsonl")])
    assert code == 2
    assert sleeps == []
    assert f"backend error: endpoint {endpoint!r}" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


def test_unknown_flag_exits_1(capsys):
    assert run(["ingest", "--bogus"]) == 1


# ---------------------------------------------------------------------------
# --help / documented-flag parity
# ---------------------------------------------------------------------------

DOCUMENTED_FLAGS = {
    "ingest": ["--ontology", "--heldout", "--out", "--config"],
    "curate-defs": ["--ontology", "--out", "--backend", "--seed", "--endpoint", "--model",
                    "--max-in-flight", "--retry-limit", "--config"],
    "curate-samples": ["--dataset", "--out", "--per-event", "--regenerate", "--backend", "--seed",
                       "--max-in-flight", "--retry-limit", "--config"],
    "expand-defs": ["--dataset", "--out", "--count", "--backend", "--seed", "--config"],
    "prune": ["--dataset", "--out", "--audit", "--threshold", "--config"],
    "assemble": ["--dataset", "--out", "--events", "--definitions", "--samples", "--negatives",
                 "--hard-negatives", "--ontology", "--no-ontology", "--definition", "--no-definition",
                 "--seed", "--config"],
    "score": ["--gold", "--pred", "--out", "--config"],
    "ablate-report": ["--baseline", "--ablated", "--out", "--config"],
}


@pytest.mark.parametrize("command", sorted(DOCUMENTED_FLAGS))
def test_help_lists_documented_flags(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    for flag in DOCUMENTED_FLAGS[command]:
        assert flag in help_text, f"{command} --help is missing {flag}"


SCORES = fake_report(0.5)["identification"]


@pytest.mark.parametrize(
    "content",
    [
        b'{"identification": {"tp": 1}}',
        b"[1, 2]",
        b"{not json",
        b"",
        json.dumps({"identification": SCORES, "classification": {**SCORES, "f1": "0.5"}}).encode(),
        json.dumps({"identification": SCORES, "classification": {**SCORES, "tp": True}}).encode(),
        json.dumps({"identification": SCORES, "classification": SCORES, "per_event_type": []}).encode(),
        json.dumps({"identification": SCORES, "classification": SCORES, "per_event_type": {"T": [1]}}).encode(),
        b'{"identification": "\xff"}',
        b'{"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ],
    ids=["missing_scores", "not_an_object", "invalid_json", "empty", "string_f1", "bool_tp",
         "per_type_list", "per_type_entry_list", "invalid_utf8", "too_deep"],
)
@pytest.mark.parametrize("side", ["baseline", "ablated"])
def test_ablate_report_rejects_a_malformed_report_naming_the_file(tmp_path, capsys, content, side):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(fake_report(0.5)), encoding="utf-8")
    bad.write_bytes(content)
    paths = {"baseline": good, "ablated": good, side: bad}
    out = tmp_path / "drops.json"
    code = run(["ablate-report", "--baseline", str(paths["baseline"]), "--ablated", str(paths["ablated"]),
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}")
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "infinity", "minus_infinity", "int_too_large_for_a_float"])
@pytest.mark.parametrize("where", ["identification", "classification", "per_event_type"])
@pytest.mark.parametrize("side", ["baseline", "ablated"])
def test_ablate_report_rejects_a_score_that_is_not_a_finite_float(tmp_path, capsys, value, where, side):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(fake_report(0.5)), encoding="utf-8")
    report = {"identification": dict(SCORES), "classification": dict(SCORES), "per_event_type": {"T": dict(SCORES)}}
    scores = report[where]["T"] if where == "per_event_type" else report[where]
    scores["f1"] = "@"  # stands for a literal that json.dumps does not write
    bad.write_text(json.dumps(report).replace('"@"', value), encoding="utf-8")
    paths = {"baseline": good, "ablated": good, side: bad}
    out = tmp_path / "drops.json"
    code = run(["ablate-report", "--baseline", str(paths["baseline"]), "--ablated", str(paths["ablated"]),
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()

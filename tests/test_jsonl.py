from __future__ import annotations

import json

import pytest

from dived import cli, evaluation, jsonl
from dived.cli import manifest_path

OLD_BYTES = b'{"old": "content"}\n'


def crashing_rows():
    yield {"row": 1}
    yield {"row": 2}
    raise RuntimeError("generator failed midway")


def crashing_dump(obj, fh, **kwargs):
    fh.write('{"partial": ')
    raise OSError("disk full")


def test_write_rows_replaces_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(OLD_BYTES)
    assert jsonl.write_rows(path, [{"a": 1}, {"b": "é"}]) == 2
    assert path.read_bytes() == '{"a": 1}\n{"b": "é"}\n'.encode("utf-8")
    assert sorted(tmp_path.iterdir()) == [path]


def test_write_rows_bytes_equal_json_dumps(tmp_path):
    rows = [{"q": '"\\ \x00\u2028é', "n": None, "l": [1.5, True, {"x": []}]}, {}]
    path = tmp_path / "rows.jsonl"
    jsonl.write_rows(path, rows)
    assert path.read_bytes() == "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


def test_write_rows_crash_keeps_old_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(OLD_BYTES)
    with pytest.raises(RuntimeError, match="midway"):
        jsonl.write_rows(path, crashing_rows())
    assert path.read_bytes() == OLD_BYTES
    assert sorted(tmp_path.iterdir()) == [path]


def test_write_rows_crash_creates_no_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    with pytest.raises(RuntimeError):
        jsonl.write_rows(path, crashing_rows())
    assert list(tmp_path.iterdir()) == []


def test_unwritable_target_error_names_the_target(tmp_path):
    path = tmp_path / "missing" / "rows.jsonl"
    with pytest.raises(FileNotFoundError) as err:
        jsonl.write_rows(path, [{"a": 1}])
    assert err.value.filename == str(path)


def write_report(tmp_path):
    path = tmp_path / "report.json"
    scores = {"tp": 1, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    report = evaluation.ScoreReport.from_dict({"identification": scores, "classification": scores})
    evaluation.write_report(report, path)
    return path


def write_manifest(tmp_path):
    out = tmp_path / "out.jsonl"
    cli.write_manifests("prune", {"seed": 0}, [], [str(out)], {"events": 1})
    return manifest_path(out)


def write_ablate_report(tmp_path):
    scores = {"tp": 1, "fp": 1, "fn": 1, "precision": 0.5, "recall": 0.5, "f1": 0.5}
    report = json.dumps({"identification": scores, "classification": scores, "per_event_type": {}})
    base, ablated = tmp_path / "base.json", tmp_path / "ablated.json"
    base.write_text(report, encoding="utf-8")
    ablated.write_text(report, encoding="utf-8")
    out = tmp_path / "drops.json"
    code = cli.main(["ablate-report", "--baseline", str(base), "--ablated", str(ablated), "--out", str(out)])
    return out if code == 0 else None


@pytest.mark.parametrize("writer", [write_report, write_manifest, write_ablate_report])
def test_json_writer_crash_keeps_old_file(tmp_path, monkeypatch, writer):
    path = writer(tmp_path)
    assert path is not None and json.loads(path.read_text(encoding="utf-8"))
    before = sorted(tmp_path.iterdir())
    path.write_bytes(OLD_BYTES)

    monkeypatch.setattr(json, "dump", crashing_dump)
    try:
        writer(tmp_path)
    except OSError:
        pass
    assert path.read_bytes() == OLD_BYTES
    assert sorted(tmp_path.iterdir()) == before

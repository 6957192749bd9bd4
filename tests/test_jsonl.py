from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_write_object_bytes_equal_indented_json_dump(tmp_path):
    obj = {"q": '"\\ é', "n": None, "l": [1.5, True, {"x": []}], "e": {}}
    path = tmp_path / "obj.json"
    jsonl.write_object(path, obj)
    assert path.read_bytes() == (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    assert sorted(tmp_path.iterdir()) == [path]


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


# ---------------------------------------------------------------------------
# read_rows: undecodable lines, and the per-line json.loads reader as oracle
# ---------------------------------------------------------------------------

GOLD_ROW = '{"sentence_id": "s1", "event_type": "T", "triggers": ["hit"]}\n'


def score_with_gold(tmp_path, gold_bytes: bytes):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_bytes(gold_bytes)
    pred.write_text(GOLD_ROW, encoding="utf-8")
    return gold, cli.main(["score", "--gold", str(gold), "--pred", str(pred)])


def test_score_names_the_line_of_invalid_utf8(tmp_path, capsys):
    gold, code = score_with_gold(tmp_path, GOLD_ROW.encode() * 2 + b'{"sentence_id": "s\xff2"}\n' + GOLD_ROW.encode())
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gold}:3: invalid UTF-8: ")
    assert "0xff in position 18" in err


def test_invalid_utf8_past_the_first_read_chunk_names_its_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\r\n' * 3000 + b'{"a": "\xe9"}\n')
    with pytest.raises(jsonl.JsonlError) as err:
        list(jsonl.read_rows(path))
    assert err.value.line == 3001


def test_score_names_the_line_of_too_deep_nesting(tmp_path, capsys):
    deep = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}\n"
    gold, code = score_with_gold(tmp_path, (GOLD_ROW + deep).encode())
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {gold}:2: invalid JSON: ")


def read_rows_per_line(path):
    """The reader before the one-scanner-call fast path: ``json.loads`` on
    every non-blank line. Kept as the oracle. Its one addition is the last
    ``except``: a line that ``json.loads`` rejects with a plain ValueError
    (an integer past the digit limit) or a RecursionError (deep nesting) is
    named too, where the old reader let the bare exception escape."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise jsonl.JsonlError(path, lineno, f"invalid JSON: {exc.msg}") from exc
            except (ValueError, RecursionError) as exc:
                raise jsonl.JsonlError(path, lineno, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise jsonl.JsonlError(path, lineno, f"expected a JSON object, got {type(obj).__name__}")
            rows.append((lineno, obj))
    return rows


def _read_outcome(reader, path):
    try:
        return "rows", repr(list(reader(path)))  # repr: NaN is not equal to itself
    except jsonl.JsonlError as exc:
        return "error", exc.line, str(exc)


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
JSON_SPACE = st.sampled_from(["", " ", "\t", "  \t ", "\r"])
OTHER_SPACE = st.sampled_from(["\x0b", "\x0c", "\u3000", "\x1c", "\x85", "\u2028", "\xa0"])
VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | TEXT
    | st.sampled_from([10**30, -(10**40), 2**64]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
TRAILING = st.sampled_from([""] * 24 + [" x", '{"b": 2}', "]", ",", " 1", "\x0b", "\u3000", " // c"])
ODD_VALUES = st.sampled_from([
    "NaN", "-Infinity", '{"x": Infinity}', '{"n": NaN}', '{"big": ' + "9" * 4400 + "}",
    "[1]", '"s"', "1", "null", "true", '{"a": }', "{", "}", '{"a" 1}', '{"a": 1,}', "\ufeff{}",
    '{"a": "\\ud800"}',
    '{"a": ' + "[" * 5000 + "]" * 5000 + "}",
])


@st.composite
def jsonl_lines(draw):
    """One line: a blank one (JSON or other whitespace, which the readers
    skip), or a value with JSON or other whitespace before it, JSON
    whitespace after it and now and then trailing data. The value is an
    object of JSON values, or an odd one: NaN/Infinity, an integer past the
    digit limit, a top-level non-object, broken JSON, a BOM, deep nesting."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(OTHER_SPACE | JSON_SPACE, max_size=3).map("".join))
    if draw(st.integers(0, 4)) == 0:
        value = draw(ODD_VALUES)
    else:
        obj = draw(st.dictionaries(TEXT, VALUES, max_size=4))
        separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,  ", " : ")]))
        value = json.dumps(obj, ensure_ascii=draw(st.booleans()), separators=separators)
    return draw(st.one_of(JSON_SPACE, JSON_SPACE, OTHER_SPACE)) + value + draw(JSON_SPACE) + draw(TRAILING)


@given(lines=st.lists(jsonl_lines(), max_size=6), ending=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
@settings(max_examples=300, deadline=None)
def test_read_rows_matches_the_per_line_json_loads_reader(lines, ending, last):
    text = ending.join(lines) + (ending if last else "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert _read_outcome(jsonl.read_rows, path) == _read_outcome(read_rows_per_line, path)

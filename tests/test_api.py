"""The package's export list, the names it no longer has, and the shape of
its per-row records."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

import dived
from dived import assembly, cli, curation, evaluation, jsonl, llm_client, ontology, pruning

from conftest import FIXTURES, REPO_ROOT


def test_every_exported_name_resolves():
    assert len(dived.__all__) == len(set(dived.__all__))
    for name in dived.__all__:
        assert getattr(dived, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dived import *", namespace)
    assert set(dived.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["curate_definitions", "curate_samples", "expand_definitions"])
def test_single_unit_wrappers_are_gone(name):
    assert name not in dived.__all__
    assert not hasattr(dived, name) and not hasattr(curation, name)


def test_removed_request_and_result_fields_are_gone():
    assert [f.name for f in dataclasses.fields(llm_client.GenRequest)] == ["template_id", "variables"]
    assert not hasattr(llm_client.GenRequest, "resolved_decoding")
    assert [f.name for f in dataclasses.fields(llm_client.GenResponse)] == ["text", "attempts"]
    assert [f.name for f in dataclasses.fields(llm_client.GenFailure)] == ["error", "attempts"]
    assert not hasattr(llm_client.Backend, "name") and not hasattr(llm_client.MockBackend(seed=1), "name")


def test_removed_knobs_are_gone():
    """One instance prompt, one back-off base, one set of trigger delimiters,
    only the packaged prompt templates, one per-kind instance count, one
    parse result type, which each parser returns per expected event, one
    error type per kind of bad input, and one place for a backend's batch
    limits: the backend."""
    assert list(inspect.signature(assembly.render_instance).parameters) == ["instance"]
    assert not hasattr(assembly, "DEFAULT_INSTANCE_TEMPLATE")
    assert list(inspect.signature(llm_client.complete_batch).parameters) == ["requests_", "backend"]
    for step, params in [(curation.curate_definitions_for_trees, ["trees", "backend"]),
                         (curation.curate_samples_for_trees, ["trees", "backend", "per_event", "regenerate"]),
                         (curation.expand_definitions_for_nodes, ["nodes", "backend", "count"])]:
        assert list(inspect.signature(step).parameters) == params
    assert [f.name for f in dataclasses.fields(llm_client.HttpBackend)] == [
        "endpoint", "model", "max_in_flight", "retry_limit"]
    assert not hasattr(llm_client.Backend, "waits_on_io") and not hasattr(llm_client.MockBackend, "waits_on_io")
    assert llm_client.MockBackend.max_in_flight == 1
    assert not hasattr(cli, "_batch")
    assert list(inspect.signature(evaluation.parse_model_output).parameters) == ["raw"]
    assert list(inspect.signature(llm_client.render).parameters) == ["template_id", "variables"]
    assert not hasattr(llm_client, "TemplateNotFoundError")
    assert not hasattr(assembly, "count_kinds")
    assert not hasattr(pruning, "PruneInputError") and not hasattr(curation, "InvalidSampleError")
    assert ontology.OntologyFormatError.__mro__[1] is jsonl.JsonlError
    assert "__init__" not in vars(ontology.OntologyFormatError)
    assert not hasattr(curation, "_SampleStats")
    for parser, params in [(curation.parse_definitions, ["text", "expected_events"]),
                           (curation.parse_samples, ["text", "expected_events", "per_event"]),
                           (curation.parse_paraphrases, ["text", "expected_events"])]:
        assert list(inspect.signature(parser).parameters) == params


PER_ROW_RECORDS = [
    (evaluation.GoldRecord, ["sentence_id", "event_type", "triggers", "spans"], ("s1", "T", ("hit",))),
    (evaluation.PredictionRecord, ["sentence_id", "event_type", "triggers", "spans"], ("s1", "T", ("hit",))),
    (assembly.TrainingInstance,
     ["instance_id", "event_name", "definition", "ontology_context", "sentence", "target", "kind"],
     ("i", "E", "d", None, "a hit", "hit", "positive")),
    (curation.GeneratedSample, ["sentence", "trigger"], ("a hit", "hit")),
]


@pytest.mark.parametrize("cls, fields, args", PER_ROW_RECORDS, ids=[cls.__name__ for cls, _, _ in PER_ROW_RECORDS])
def test_per_row_records_are_slotted_with_the_same_fields(cls, fields, args):
    assert [f.name for f in dataclasses.fields(cls)] == fields
    record = cls(*args)
    assert not hasattr(record, "__dict__") and not cls.__dataclass_params__.frozen
    assert dataclasses.replace(record) == record and dataclasses.replace(record) is not record
    assert cls.__hash__ is None


def test_prediction_record_is_a_gold_record_with_its_own_constructor():
    assert evaluation.PredictionRecord.__mro__[1] is evaluation.GoldRecord
    assert "from_raw" in vars(evaluation.PredictionRecord) and not hasattr(evaluation.GoldRecord, "from_raw")
    assert evaluation.PredictionRecord.from_raw("s1", "T", ["hit", " none "]).triggers == ("hit",)


@pytest.mark.parametrize("make", [
    lambda: assembly.TrainingInstance("i", "E", "d", None, "a hit", "miss", "positive"),
    lambda: assembly.TrainingInstance("i", "E", "d", None, "a hit", "hit", "negative"),
    lambda: dataclasses.replace(assembly.TrainingInstance("i", "E", "d", None, "a hit", "hit", "positive"),
                                kind="other"),
    lambda: curation.GeneratedSample("a hit", "miss"),
    lambda: dataclasses.replace(curation.GeneratedSample("a hit", "hit"), sentence="two\nlines hit"),
], ids=["positive_target_not_in_sentence", "negative_with_target", "replace_to_bad_kind",
        "trigger_not_in_sentence", "replace_to_two_lines"])
def test_slotted_records_still_check_their_invariants(make):
    with pytest.raises(ValueError):
        make()


def test_ontology_context_stays_frozen_and_hashable():
    ctx = assembly.OntologyContext(parent="P", children=("C",))
    assert hash(ctx) == hash(assembly.OntologyContext(parent="P", children=("C",)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ctx.parent = "Q"


def test_import_loads_no_third_party_http_stack():
    """The CLI's start-up cost and memory stay free of an HTTP client library."""
    code = ("import sys, dived, dived.cli; "
            "print(sorted(m for m in ('requests', 'urllib3', 'charset_normalizer', 'idna') if m in sys.modules))")
    src = str(Path(dived.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    """README's one Python block runs as written, from a directory holding a
    copy of ``fixtures/``."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (REPO_ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert isinstance(namespace["prompt"], str) and namespace["prompt"]


MODULES = sorted(Path(dived.__file__).parent.glob("*.py"))


def _imports(tree: ast.Module) -> Iterator[tuple[ast.stmt, str, str]]:
    """(statement, bound name, imported name) per name a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.partition(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name, alias.name


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module reads, counting those in string annotations and, for
    a package, those it re-exports in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_modules_import_only_public_names_they_use(path):
    """A deletion leaves no dead import behind, and no module reaches into
    another's private names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [bound for _, bound, _ in _imports(tree) if bound not in used] == []
    private = [name for stmt, _, name in _imports(tree)
               if isinstance(stmt, ast.ImportFrom) and (stmt.level or (stmt.module or "").startswith("dived"))
               and name.startswith("_")]
    assert private == []


def test_only_jsonl_opens_and_decodes_json_files():
    """``jsonl`` is the one module that opens a file or decodes JSON, so every
    input fails with its ``path:line`` errors. The one other decode is of an
    HTTP reply's body, not of a file."""
    calls = []
    for path in MODULES:
        if path.name == "jsonl.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("open", "json.load", "json.loads"):
                calls.append((path.name, ast.unparse(node)))
    assert calls == [("llm_client.py", "json.loads(body)")]


def test_the_second_slice_path_is_gone():
    """A slice is drawn only to be written, in one plain function:
    ``write_slice`` draws and writes each row, no generator in ``assembly``
    yields rows for it, and ``read_jsonl`` is the one way back to instances."""
    assert "assemble" not in dived.__all__ and not hasattr(dived, "assemble")
    for name in ("assemble", "iter_instances", "_instances", "_context", "_draws", "_draw_loop"):
        assert not hasattr(assembly, name), name
    tree = ast.parse(Path(assembly.__file__).read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Yield, ast.YieldFrom))] == []


# Functions the bench tracer still patches that the program no longer has: the
# record/ontology converters, and ``write_jsonl`` and ``assemble``, the
# instance writer and the slice-as-a-list that ``write_slice`` replaced.
# ROADMAP item 1 drops them from the tracer. Every other hook must name a
# function the program still has, or its layer reads 0.
TRACER_HOOKS_GONE = {"ontology_from_dataset", "records_from_ontology", "dataset_to_trees", "write_jsonl", "assemble"}


def _tracer_hooks() -> list[tuple[str, str]]:
    """(module, attribute) per ``patch(module, attribute, ...)`` call in the
    bench tracer, read without importing it. An attribute given as a loop
    variable stands for each string of the tuple that the loop runs over."""
    tree = ast.parse((REPO_ROOT / "pipebench" / "tracing.py").read_text(encoding="utf-8"))
    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)]
    hooks = []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "patch":
            module, attr = call.args[:2]
            if isinstance(attr, ast.Constant):
                hooks.append((module.id, attr.value))
            else:
                loop = next(loop for loop in loops if loop.target.id == attr.id and call in ast.walk(loop))
                hooks += [(module.id, value) for value in ast.literal_eval(loop.iter)]
    return hooks


def test_every_tracer_hook_names_a_function_the_program_has():
    hooks = _tracer_hooks()
    assert ("ontology", "_build_ontology") in hooks and ("curation", "complete_batch") in hooks
    modules = {"assembly": assembly, "cli": cli, "curation": curation, "evaluation": evaluation, "jsonl": jsonl,
               "ontology": ontology, "pruning": pruning}
    assert [f"{module}.{attr}" for module, attr in hooks
            if not hasattr(modules[module], attr) and attr not in TRACER_HOOKS_GONE] == []

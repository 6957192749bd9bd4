from __future__ import annotations

import json
import tempfile
import threading
from pathlib import Path

import pytest

from dived import llm_client
from dived.assembly import SliceSpec, TrainingInstance, read_jsonl, write_slice
from dived.curation import GeneratedSample
from dived.llm_client import Backend, MockBackend
from dived.ontology import EventTypeNode, Ontology, build_ontology, load_ontology

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"
TOY_ONTOLOGY = FIXTURES / "ontology_toy.jsonl"


@pytest.fixture
def toy_ontology_path() -> Path:
    return TOY_ONTOLOGY


@pytest.fixture
def toy_ontology() -> Ontology:
    return load_ontology(TOY_ONTOLOGY)


@pytest.fixture
def sleeps(monkeypatch) -> list[float]:
    """The delays complete_batch sleeps for, without sleeping."""
    delays: list[float] = []
    monkeypatch.setattr(llm_client.time, "sleep", delays.append)
    return delays


class ScriptedBackend(Backend):
    """Test backend that replays a fixed list of responses (or raises the
    exception found in the list) in call order, so one call at a time."""

    max_in_flight = 1

    def __init__(self, script: list):
        self.script = list(script)
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if not self.script:
            raise AssertionError("ScriptedBackend ran out of responses")
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class WaitingMockBackend(MockBackend):
    """MockBackend's replies, sent through complete_batch's worker threads as a
    backend that waits on a server would be."""

    max_in_flight = llm_client.DEFAULT_MAX_IN_FLIGHT


@pytest.fixture
def thread_starts(monkeypatch) -> list[threading.Thread]:
    """Every thread started from here on, started as usual."""
    started: list[threading.Thread] = []
    start = threading.Thread.start

    def counted(thread, *args, **kwargs):
        started.append(thread)
        return start(thread, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def ontology_of(rows: list[tuple[str, str | None, str | None]], origin: str = "<memory>") -> Ontology:
    """An ontology from (name, parent name, external id) rows in file order."""
    return build_ontology(((line, name, parent, None, {"external_id": external_id})
                           for line, (name, parent, external_id) in enumerate(rows, start=1)), origin)


def names(ontology: Ontology) -> list[str]:
    """The event names of an ontology in pre-order."""
    return [node.name for node in ontology.iter_nodes()]


def siblings(ontology: Ontology, name: str) -> list[EventTypeNode]:
    """The other children of the named event's parent; none for a root."""
    node = ontology.get(name)
    return [child for child in node.parent.children if child is not node] if node.parent is not None else []


def make_sample(event: str, idx: int) -> GeneratedSample:
    trigger = f"{event}trig{idx}"
    return GeneratedSample(sentence=f"The {event} unit {trigger} during incident number {idx}.", trigger=trigger)


def make_dataset(rows: list[tuple[str, str | None, list[str], list[GeneratedSample]]]) -> Ontology:
    """A dataset from (event, parent, definitions, samples) rows in file order."""
    dataset = ontology_of([(event, parent, None) for event, parent, _, _ in rows])
    for event, _, definitions, samples in rows:
        node = dataset.get(event)
        node.definitions, node.samples = list(definitions), list(samples)
    return dataset


def grid_dataset(
    n_trees: int = 4,
    children_per_tree: int = 10,
    n_definitions: int = 10,
    n_samples: int = 10,
) -> Ontology:
    """Synthetic dataset for slicing tests: n_trees roots, each with
    children_per_tree children. Only the children carry definitions and
    samples, so every drawable event has children_per_tree - 1 siblings."""
    rows: list[tuple[str, str | None, str | None]] = []
    for t in range(n_trees):
        root = f"root{t}"
        rows.append((root, None, None))
        rows.extend((f"ev{t}_{c}", root, None) for c in range(children_per_tree))
    dataset = ontology_of(rows)
    for node in dataset.iter_nodes():
        if node.parent is not None:
            node.definitions = [f"{node.name} definition number {d}" for d in range(n_definitions)]
            node.samples = [make_sample(node.name, s) for s in range(n_samples)]
    return dataset


def assembled(dataset: Ontology, spec: SliceSpec) -> list[TrainingInstance]:
    """The instances of a slice as ``dived assemble`` ships them: the file
    ``write_slice`` writes, read back with ``read_jsonl``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slice.jsonl"
        write_slice(dataset, spec, path)
        return read_jsonl(path)


def instance_bytes(instances) -> bytes:
    """The JSONL bytes of instances, each row made by ``json.dumps``: what
    ``write_slice`` must write, built without its encoders."""
    return "".join(
        json.dumps({
            "instance_id": inst.instance_id,
            "event_name": inst.event_name,
            "definition": inst.definition,
            "ontology_context": (
                None if inst.ontology_context is None
                else {"parent": inst.ontology_context.parent, "children": list(inst.ontology_context.children)}
            ),
            "sentence": inst.sentence,
            "target": inst.target,
            "kind": inst.kind,
        }, ensure_ascii=False) + "\n"
        for inst in instances
    ).encode("utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[str, str] = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid and getattr(rep, "when", "call") in ("call", "setup"):
                name = nodeid.split("::")[-1]
                if status != "passed" or name not in results:
                    results[name] = "PASS" if status == "passed" else "FAIL"
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"[{results[name]}] {name}")

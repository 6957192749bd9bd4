from __future__ import annotations

import threading
from pathlib import Path

import pytest

from dived import llm_client
from dived.curation import GeneratedSample
from dived.llm_client import Backend, MockBackend
from dived.ontology import Ontology, build_ontology, load_ontology

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
    exception found in the list) in call order."""

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

    waits_on_io = True


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


def make_sample(event: str, idx: int) -> GeneratedSample:
    trigger = f"{event}trig{idx}"
    return GeneratedSample(
        event_name=event,
        sentence=f"The {event} unit {trigger} during incident number {idx}.",
        trigger=trigger,
    )


def make_dataset(rows: list[tuple[str, str | None, list[str], list[GeneratedSample]]]) -> Ontology:
    """A dataset from (event, parent, definitions, samples) rows in file order."""
    dataset = build_ontology([(event, parent, None) for event, parent, _, _ in rows])
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
    dataset = build_ontology(rows)
    for node in dataset.iter_nodes():
        if node.parent is not None:
            node.definitions = [f"{node.name} definition number {d}" for d in range(n_definitions)]
            node.samples = [make_sample(node.name, s) for s in range(n_samples)]
    return dataset


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

"""Synthetic inputs for the pipeline benchmark, made from a seed.

Everything here is plain standard-library code that never imports ``dived``:
the layouts it builds are what the checks compare the program's outputs
against. The same seed and shape always give the same inputs; the shape
(tree counts, widths, planted-duplicate count) never depends on the seed, so
every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

_SYLLABLES = ["ka", "lo", "mi", "ru", "te", "vo", "za", "ne", "pi", "su", "da", "fe", "go", "hu", "ji", "be"]

# Workload shapes. Tests pass smaller ones; the benchmark uses these.
SHAPES: dict[str, dict] = {
    "forest": {
        "trees": 40, "children": 10, "per_event": 10, "count": 10,
        "slice": {"events": 150, "definitions": 10, "samples": 10, "negatives": 10, "hard_negatives": 3},
    },
    "wide_tree": {
        "trees": 1, "children": 500, "per_event": 10, "count": 10, "duplicate_rate": 0.1,
        "slice": {"events": 40, "definitions": 5, "samples": 5, "negatives": 5, "hard_negatives": 2},
    },
    "http_stub": {
        "trees": 20, "children": 5, "per_event": 10, "count": 10,
        "latency_ms": 10, "reject_every": 20, "max_in_flight": 2,
    },
}

# Predictions are gold with a planted mix of errors: (correct, miss, extra, wrong type) weights.
PREDICTION_MIX = {"baseline": (70, 10, 10, 10), "ablated": (50, 20, 15, 15)}


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


@dataclass
class Layout:
    """An ontology as pre-order (name, parent) rows, plus what was planted in it."""

    rows: list[tuple[str, str | None]]
    heldout: str | None = None
    heldout_tree: set[str] = field(default_factory=set)
    # planted duplicate -> the earlier sibling whose samples it copies
    planted: dict[str, str] = field(default_factory=dict)

    def parent_of(self) -> dict[str, str | None]:
        return dict(self.rows)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for name, parent in self.rows:
                fh.write(json.dumps({"name": name, "parent": parent, "external_id": None}) + "\n")


def forest(seed: int, trees: int, children: int, heldout: bool = True, **_) -> Layout:
    """``trees`` roots with ``children`` leaves each; with ``heldout``, plus
    one extra tree of the same shape holding the held-out event, at a seeded
    position."""
    rng = random.Random(f"{seed}|forest")
    heldout_at = rng.randrange(trees + 1) if heldout else -1
    rows: list[tuple[str, str | None]] = []
    heldout_name = f"heldout_{_word(rng, 3)}"
    heldout_tree: set[str] = set()
    for t in range(trees + (1 if heldout else 0)):
        root = f"{_word(rng, 3)}{t}"
        tree = [(root, None)] + [(f"{root}_{_word(rng, 2)}{c}", root) for c in range(children)]
        if t == heldout_at:
            tree[-1] = (heldout_name, root)
            heldout_tree = {name for name, _ in tree}
        rows.extend(tree)
    return Layout(rows=rows, heldout=heldout_name if heldout else None, heldout_tree=heldout_tree)


def wide_tree(seed: int, trees: int, children: int, duplicate_rate: float = 0.0, **_) -> Layout:
    """``trees`` roots with ``children`` children each. Every tenth child has
    three grandchildren and every fiftieth child's second grandchild has two
    great-grandchildren, so removals exercise re-parenting across levels.

    ``duplicate_rate`` of the nodes that have an earlier sibling are planted
    as duplicates of a seeded earlier, unplanted sibling; the first child of
    every parent is never planted, so a source always exists. The draw is
    stratified so that nodes with children are planted at the same rate (at
    least one), which makes every layout re-parent some survivors.
    """
    rng = random.Random(f"{seed}|wide")
    rows: list[tuple[str, str | None]] = []
    for t in range(trees):
        root = f"{_word(rng, 3)}{t}"
        rows.append((root, None))
        for c in range(children):
            child = f"{root}_{_word(rng, 2)}{c}"
            rows.append((child, root))
            if c % 10 != 5:
                continue
            for g in range(3):
                grand = f"{child}_{_word(rng, 1)}{g}"
                rows.append((grand, child))
                if g == 1 and c % 50 == 5:
                    rows.extend((f"{grand}_{_word(rng, 1)}{k}", grand) for k in range(2))

    siblings: dict[str | None, list[str]] = {}
    for name, parent in rows:
        if parent is not None:
            siblings.setdefault(parent, []).append(name)
    eligible = [name for group in siblings.values() for name in group[1:]]
    total = int(len(eligible) * duplicate_rate)
    inner = [name for name in eligible if name in siblings]
    n_inner = min(total, max(1, round(len(inner) * duplicate_rate)))
    leaves = [name for name in eligible if name not in siblings]
    planted_set = set(rng.sample(inner, n_inner) + rng.sample(leaves, total - n_inner))
    planted: dict[str, str] = {}
    for group in siblings.values():
        for i, name in enumerate(group):
            if name in planted_set:
                planted[name] = rng.choice([s for s in group[:i] if s not in planted_set])
    return Layout(rows=rows, planted=planted)


def layout_for(workload: str, seed: int, shape: dict) -> Layout:
    if workload == "wide_tree":
        return wide_tree(seed, **shape)
    return forest(seed, heldout=workload == "forest", **shape)


def plant_duplicates(src: Path, dst: Path, planted: dict[str, str]) -> None:
    """Copy ``src`` dataset to ``dst`` with every planted event's samples
    replaced by its source sibling's samples."""
    rows = [json.loads(line) for line in src.read_text(encoding="utf-8").splitlines() if line.strip()]
    samples = {row["event"]: row["samples"] for row in rows}
    with open(dst, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            if row["event"] in planted:
                row["samples"] = samples[planted[row["event"]]]
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def _groups(train: Path):
    """Yield (positive, [negatives]) from an instances file, in file order."""
    group = None
    with open(train, encoding="utf-8") as fh:
        for line in fh:
            inst = json.loads(line)
            if inst["kind"] == "positive":
                if group is not None:
                    yield group
                group = (inst, [])
            else:
                group[1].append(inst)
    if group is not None:
        yield group


def write_gold(train: Path, gold: Path) -> None:
    """One gold record per instance: the positive's trigger, and an explicit
    empty record for every negative event of the same sentence."""
    with open(gold, "w", encoding="utf-8", newline="\n") as fh:
        for pos, negs in _groups(train):
            sid = pos["instance_id"].rsplit("|", 1)[0]
            fh.write(json.dumps({"sentence_id": sid, "event_type": pos["event_name"], "triggers": [pos["target"]]}) + "\n")
            for neg in negs:
                fh.write(json.dumps({"sentence_id": sid, "event_type": neg["event_name"], "triggers": []}) + "\n")


def write_predictions(train: Path, pred: Path, seed: int, variant: str) -> dict[str, int]:
    """Predictions built from gold with a planted mix of misses, extra
    triggers and wrong types. Returns the TP/FP/FN the scorer must report."""
    rng = random.Random(f"{seed}|pred|{variant}")
    kinds = ("correct", "miss", "extra", "wrong")
    n = dict.fromkeys(kinds, 0)
    with open(pred, "w", encoding="utf-8", newline="\n") as fh:
        for pos, negs in _groups(train):
            sid = pos["instance_id"].rsplit("|", 1)[0]
            event, trigger = pos["event_name"], pos["target"]
            kind = rng.choices(kinds, weights=PREDICTION_MIX[variant])[0] if negs else "correct"
            n[kind] += 1
            if kind == "correct":
                rows = [(event, [trigger])]
            elif kind == "miss":
                rows = [(event, [])]
            elif kind == "extra":
                rows = [(event, [trigger]), (negs[0]["event_name"], [trigger + "zz"])]
            else:
                rows = [(event, []), (negs[0]["event_name"], [trigger])]
            for event_type, triggers in rows:
                fh.write(json.dumps({"sentence_id": sid, "event_type": event_type, "triggers": triggers}) + "\n")
    return {
        "id_tp": n["correct"] + n["extra"] + n["wrong"],
        "id_fp": n["extra"],
        "id_fn": n["miss"],
        "cls_tp": n["correct"] + n["extra"],
        "cls_fp": n["extra"] + n["wrong"],
        "cls_fn": n["miss"] + n["wrong"],
    }

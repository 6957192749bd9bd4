"""Golden digests: the README walkthrough (seed 11, mock backend) run in
process must reproduce every data output byte for byte.

The walkthrough runs in its own directory on relative paths, so its
manifests' ``config_hash`` is the same wherever it runs; each manifest's
fields other than its paths and its ``volatile`` block are pinned, and so
is every command's stdout. The walkthrough's audit is empty (mock triggers never
overlap), so a second prune runs on a copy of the expanded dataset in which ``attack`` carries the
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

import contextlib
import hashlib
import io
import json
import shlex
import shutil

import pytest

from dived.cli import build_parser, main, manifest_path

from conftest import REPO_ROOT, TOY_ONTOLOGY

GOLDEN = {
    "filtered.jsonl": "be279560ab740640d29b0f31600ca60e0b96a3a29a0eff6627cbd3acdec2e469",
    "defs.jsonl": "bdb5887f319cef1697ad199c6fbb1c328dbd25837996a9637a7c4b35ce5d2824",
    "samples.jsonl": "9b7e50cccb9ca77e22179dc4dc843d16456107d2c74aa476ac29ec2e0aef924e",
    "expanded.jsonl": "ed6ab52ddb9f5825113dd988ed2c181b079202b48bfa7dfa8baaf686370d8a01",
    "pruned.jsonl": "ed6ab52ddb9f5825113dd988ed2c181b079202b48bfa7dfa8baaf686370d8a01",
    "audit.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "train.jsonl": "cb960de067d97a54b58afc64adf77a5443666595c45ff86412e22af6173a8e42",
    "train_nodef.jsonl": "b333cd92b4e5192f5f21f40dde6131cc8422de605359559c4fde7cc3191dce01",
    "planted_pruned.jsonl": "c03cf5826c1f02b7d3ef6ac35b9ce7bbb79e4cc183f0f05456ab6c192a2a8884",
    "planted_audit.jsonl": "e6fd861f70701a2d4a925d769329f9bbf588702bb26189147f030b0047b35fac",
    "report.json": "74744ac7e517f468c945504c8da94fdadf544262c468830dd13dc0eee706a9e3",
    "report_nodef.json": "d35fade05d3a7096013d6569cfc222388969d8999f690bac9743636ffe978237",
    "drops.json": "b8ac537b07484d31cdd85af25c8d0db20f8d3632cca00859aace76f13c79f5f2",
}

# Each walkthrough manifest but its paths and its volatile block. The chained
# digests are of the input manifests without their volatile blocks.
DEFS_MANIFEST = "95c0589f2bf5930d8eafde7846942545dd0d39b75bb29e13fdc715ed1b4ab193"
SAMPLES_MANIFEST = "99e2bc6c077a288ac37c90b7fa9bd4efe16da043526b642d23e0711d5d337406"
EXPANDED_MANIFEST = "6882b8c910b96b001dc67a361aa0dbafbfeece1ae68b5141aabba7db688450bd"
PRUNED_MANIFEST = "14e095a08d5964213515a034ecc2eef8e01a474a0c99e7ed491ade6a2b467d8d"
MANIFESTS = {
    "filtered.jsonl": {
        "command": "ingest", "seed": None, "input_manifests": {},
        "config_hash": "ff272ca5a296a4fa86c59211d140c14179e79154a18dee8892a0686decb2f759",
        "counts": {"trees_in": 3, "nodes_in": 12, "trees_out": 2, "nodes_out": 7},
    },
    "defs.jsonl": {
        "command": "curate-defs", "seed": 11, "input_manifests": {},
        "config_hash": "83274308bece212b4018fa540bb80c3012c521b8beae518cee0fe989f66a97b3",
        "counts": {"events": 12, "definitions": 12, "failures": 0},
    },
    "samples.jsonl": {
        "command": "curate-samples", "seed": 11, "input_manifests": {"defs.jsonl": DEFS_MANIFEST},
        "config_hash": "cc47c651fcf95c1dfc5cd09bcc3075ebea0abeb4d9dcbdc8973e3a0db47e9de2",
        "counts": {"events": 12, "samples": 120, "dropped_invalid": 0, "failures": 0},
    },
    "expanded.jsonl": {
        "command": "expand-defs", "seed": 11, "input_manifests": {"samples.jsonl": SAMPLES_MANIFEST},
        "config_hash": "4a3c012ca775a6869752838bf5d7791860de47ef9b912f860db4568eb6bdc479",
        "counts": {"events": 12, "paraphrases_added": 120, "failures": 0},
    },
    "pruned.jsonl": {
        "command": "prune", "seed": None, "input_manifests": {"expanded.jsonl": EXPANDED_MANIFEST},
        "config_hash": "76b2dd51e1885ffa21c8b13642be3660b284a520c6ca434ab2afdfd5cb00c842",
        "counts": {"events_in": 12, "events_removed": 0, "events_out": 12},
    },
    "audit.jsonl": {
        "command": "prune", "seed": None, "input_manifests": {"expanded.jsonl": EXPANDED_MANIFEST},
        "config_hash": "76b2dd51e1885ffa21c8b13642be3660b284a520c6ca434ab2afdfd5cb00c842",
        "counts": {"events_in": 12, "events_removed": 0, "events_out": 12},
    },
    "train.jsonl": {
        "command": "assemble", "seed": 11, "input_manifests": {"pruned.jsonl": PRUNED_MANIFEST},
        "config_hash": "d2c1c13685b2f90f25c4221aa0f9e88b3289b201e4a11e20b93ce314bc9f0342",
        "counts": {"instances": 1320, "positives": 120, "negatives": 1200, "hard_negatives": 120},
    },
    "train_nodef.jsonl": {
        "command": "assemble", "seed": 11, "input_manifests": {"pruned.jsonl": PRUNED_MANIFEST},
        "config_hash": "40f9df7f405ea0b8ba9d60a71ef570c765858fc1891acfcce89ef74588353744",
        "counts": {"instances": 1320, "positives": 120, "negatives": 1200, "hard_negatives": 120},
    },
    "planted_pruned.jsonl": {
        "command": "prune", "seed": None, "input_manifests": {},
        "config_hash": "56348fcbe596c9a00ef9e2986d226940da7ea3b6efffb31a4124ef0f05b4f5da",
        "counts": {"events_in": 12, "events_removed": 1, "events_out": 11},
    },
    "planted_audit.jsonl": {
        "command": "prune", "seed": None, "input_manifests": {},
        "config_hash": "56348fcbe596c9a00ef9e2986d226940da7ea3b6efffb31a4124ef0f05b4f5da",
        "counts": {"events_in": 12, "events_removed": 1, "events_out": 11},
    },
    "report.json": {
        "command": "score", "seed": None, "input_manifests": {},
        "config_hash": "195f68052c81bdb1d6935bea9739015f8a697718c119c912be8a09a4bc7ab9c8",
        "counts": {"gold_records": 1320, "pred_records": 1200},
    },
    "report_nodef.json": {
        "command": "score", "seed": None, "input_manifests": {},
        "config_hash": "2416be65904f7a0975458580e91dfb72154d701df4447eb629417adaa8ed01a4",
        "counts": {"gold_records": 1320, "pred_records": 1120},
    },
    "drops.json": {
        "command": "ablate-report", "seed": None, "input_manifests": {
            "report.json": "a164afc7f67708d860ac454cbd898970276268c971522e27c921a21aa637cddc",
            "report_nodef.json": "4b9d4afb2e644518823c7669c452e997656b3fbb617162dd546f11d3c40419de",
        },
        "config_hash": "ad7321f31a1743861feb8a842adf47aac3074239a43653a73452a56823e332af",
        "counts": {},
    },
}

STDOUT = {
    "filtered.jsonl": "ingest: 12 nodes in 3 trees -> 7 nodes in 2 trees\n",
    "defs.jsonl": "curate-defs: 12/12 definitions\n",
    "samples.jsonl": "curate-samples: 120 samples for 12 events (0 invalid dropped)\n",
    "expanded.jsonl": "expand-defs: 120 paraphrases added across 12 events\n",
    "pruned.jsonl": "prune: 12 events -> 12 (removed 0)\n",
    "train.jsonl": "assemble: 1320 instances (120 positive, 1200 negative, of which 120 hard)\n",
    "train_nodef.jsonl": "assemble: 1320 instances (120 positive, 1200 negative, of which 120 hard)\n",
    "planted_pruned.jsonl": "prune: 12 events -> 11 (removed 1)\n",
    "report.json": (
        "                     P       R      F1  TP  FP  FN\n"
        "identification  0.7750  0.7750  0.7750  93  27  27\n"
        "classification  0.6750  0.6750  0.6750  81  39  39\n"
        "  ambush        0.5833  0.7000  0.6364   7   5   3\n"
        "  arrival       0.6364  0.7000  0.6667   7   4   3\n"
        "  attack        0.7000  0.7000  0.7000   7   3   3\n"
        "  bombing       0.5833  0.7000  0.6364   7   5   3\n"
        "  conflict      0.7500  0.6000  0.6667   6   2   4\n"
        "  departure     0.7000  0.7000  0.7000   7   3   3\n"
        "  donation      0.6364  0.7000  0.6667   7   4   3\n"
        "  movement      0.7778  0.7000  0.7368   7   2   3\n"
        "  protest       0.6000  0.6000  0.6000   6   4   4\n"
        "  purchase      0.7000  0.7000  0.7000   7   3   3\n"
        "  refund        0.6667  0.6000  0.6316   6   3   4\n"
        "  transaction   0.8750  0.7000  0.7778   7   1   3\n"
    ),
    "report_nodef.json": (
        "                     P       R      F1  TP  FP  FN\n"
        "identification  0.7083  0.7083  0.7083  85  35  35\n"
        "classification  0.5417  0.5417  0.5417  65  55  55\n"
        "  ambush        0.4167  0.5000  0.4545   5   7   5\n"
        "  arrival       0.6000  0.6000  0.6000   6   4   4\n"
        "  attack        0.5455  0.6000  0.5714   6   5   4\n"
        "  bombing       0.4286  0.6000  0.5000   6   8   4\n"
        "  conflict      0.6667  0.4000  0.5000   4   2   6\n"
        "  departure     0.4615  0.6000  0.5217   6   7   4\n"
        "  donation      0.4000  0.6000  0.4800   6   9   4\n"
        "  movement      0.7143  0.5000  0.5882   5   2   5\n"
        "  protest       0.5556  0.5000  0.5263   5   4   5\n"
        "  purchase      0.6250  0.5000  0.5556   5   3   5\n"
        "  refund        0.6250  0.5000  0.5556   5   3   5\n"
        "  transaction   0.8571  0.6000  0.7059   6   1   4\n"
    ),
    "drops.json": (
        "identification drop: 8.602150538% (6.666666667 points)\n"
        "classification drop: 19.75308642% (13.333333333 points)\n"
    ),
}

ASSEMBLE = ["--events", "12", "--definitions", "10", "--samples", "10",
            "--negatives", "10", "--hard-negatives", "3", "--ontology", "--seed", "11"]


def run_step(args: list[str]) -> str:
    """Run one command in process; its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    assert code == 0, f"walkthrough step failed: {args[0]}"
    return buf.getvalue()


# The walkthrough's steps by their first output: the README's, with the toy
# ontology copied to ``ontology.jsonl``, and a second ``score`` for the ablation.
STEPS = {
    "filtered.jsonl": ["ingest", "--ontology", "ontology.jsonl", "--heldout", "attack", "--out", "filtered.jsonl"],
    "defs.jsonl": ["curate-defs", "--ontology", "ontology.jsonl", "--backend", "mock", "--seed", "11",
                   "--out", "defs.jsonl"],
    "samples.jsonl": ["curate-samples", "--dataset", "defs.jsonl", "--backend", "mock", "--seed", "11",
                      "--per-event", "10", "--out", "samples.jsonl"],
    "expanded.jsonl": ["expand-defs", "--dataset", "samples.jsonl", "--backend", "mock", "--seed", "11",
                       "--count", "10", "--out", "expanded.jsonl"],
    "pruned.jsonl": ["prune", "--dataset", "expanded.jsonl", "--out", "pruned.jsonl", "--audit", "audit.jsonl"],
    "train.jsonl": ["assemble", "--dataset", "pruned.jsonl", *ASSEMBLE, "--out", "train.jsonl"],
    "train_nodef.jsonl": ["assemble", "--dataset", "pruned.jsonl", *ASSEMBLE, "--no-definition",
                          "--out", "train_nodef.jsonl"],
    "report.json": ["score", "--gold", "gold.jsonl", "--pred", "pred.jsonl", "--out", "report.json"],
    "report_nodef.json": ["score", "--gold", "gold.jsonl", "--pred", "pred_nodef.jsonl", "--out", "report_nodef.json"],
    "drops.json": ["ablate-report", "--baseline", "report.json", "--ablated", "report_nodef.json",
                   "--out", "drops.json"],
}
SCORE_STEPS = ("report.json", "report_nodef.json", "drops.json")


def run_walkthrough() -> dict[str, str]:
    """The README walkthrough up to assembly in the current directory, on
    relative paths; each step's stdout by its first output."""
    shutil.copyfile(TOY_ONTOLOGY, "ontology.jsonl")
    return {name: run_step(step) for name, step in STEPS.items() if name not in SCORE_STEPS}


def plant_duplicate(d) -> str:
    rows = [json.loads(line) for line in (d / "expanded.jsonl").read_text(encoding="utf-8").splitlines()]
    by_event = {row["event"]: row for row in rows}
    by_event["attack"]["samples"] = by_event["conflict"]["samples"]
    (d / "planted.jsonl").write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return run_step(["prune", "--dataset", "planted.jsonl", "--out", "planted_pruned.jsonl",
                     "--audit", "planted_audit.jsonl"])


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


def score_walkthrough(d) -> dict[str, str]:
    train, nodef = by_sentence(d / "train.jsonl"), by_sentence(d / "train_nodef.jsonl")
    write_rows(d / "gold.jsonl", gold_rows(train))
    write_rows(d / "pred.jsonl", prediction_rows(train, every=10))
    write_rows(d / "pred_nodef.jsonl", prediction_rows(nodef, every=6))
    return {name: run_step(STEPS[name]) for name in SCORE_STEPS}


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The walkthrough's directory and each step's stdout by its first output."""
    d = tmp_path_factory.mktemp("walkthrough")
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.chdir(d)
        stdout = run_walkthrough()
        stdout["planted_pruned.jsonl"] = plant_duplicate(d)
        stdout.update(score_walkthrough(d))
    return d, stdout


@pytest.fixture(scope="module")
def outputs(walkthrough):
    return walkthrough[0]


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


def test_walkthrough_manifests_match_their_pins(outputs):
    """Every manifest but its paths and its volatile block. The paths are
    relative, so ``config_hash`` and the chained digests do not depend on
    where the test runs."""
    pins = {}
    for name in MANIFESTS:
        manifest = json.loads(manifest_path(outputs / name).read_text(encoding="utf-8"))
        pins[name] = {key: manifest[key] for key in ("command", "config_hash", "seed", "counts", "input_manifests")}
    assert pins == MANIFESTS


def test_walkthrough_stdout_matches_its_pins(walkthrough):
    assert walkthrough[1] == STDOUT


def readme_commands() -> list[list[str]]:
    """The ``dived`` lines of the README's walkthrough block, continuations
    joined, as argument lists after ``dived``."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dived ")]


def test_readme_walkthrough_matches_the_golden_steps():
    """Each README command resolves to the options of the golden step with
    the same output, and every step up to assembly is in the README."""
    parser = build_parser()
    resolved = {}
    for args in readme_commands():
        args = ["ontology.jsonl" if arg == "fixtures/ontology_toy.jsonl" else arg for arg in args]
        options = vars(parser.parse_args(args))
        resolved[options["out"]] = options
    assert set(STEPS) - set(SCORE_STEPS) <= set(resolved)
    assert resolved == {name: vars(parser.parse_args(STEPS[name])) for name in resolved}

"""Subcommand front-end wiring the pipeline stages.

Every subcommand validates its inputs, writes its outputs plus one run
manifest per output file, and exits 0 on success, 1 on a validation/usage
error, 2 on a backend failure. With the mock backend and a fixed seed,
re-running a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import assembly, curation, evaluation, jsonl, pruning
from .errors import DivedError
from .llm_client import (
    BackendConfigError,
    HttpBackend,
    MockBackend,
    PermanentBackendError,
    TransientBackendError,
)
from .ontology import filter_heldout, load_ontology, save_ontology

logger = logging.getLogger(__name__)


class UsageError(DivedError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class RunManifest:
    """Provenance record written next to every output file (as
    <output>.manifest.json). Manifests chain: input_manifests records the
    digest of each input's own manifest when one exists."""

    command: str
    config_hash: str
    seed: int | None
    input_paths: list[str]
    output_paths: list[str]
    counts: dict[str, int]
    timestamp: str
    input_manifests: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "input_paths": self.input_paths,
            "output_paths": self.output_paths,
            "counts": self.counts,
            "input_manifests": self.input_manifests,
            "timestamp": self.timestamp,
        }


def manifest_path(output_path: str | Path) -> Path:
    return Path(f"{output_path}.manifest.json")


def _config_hash(resolved: dict) -> str:
    return hashlib.sha256(json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")).hexdigest()


def write_manifests(command: str, resolved: dict, inputs: list[str], outputs: list[str], counts: dict[str, int]) -> None:
    chained = {}
    for input_path in inputs:
        mpath = manifest_path(input_path)
        if mpath.is_file():
            chained[str(input_path)] = hashlib.sha256(mpath.read_bytes()).hexdigest()
    manifest = RunManifest(
        command=command,
        config_hash=_config_hash(resolved),
        seed=resolved.get("seed"),
        input_paths=[str(p) for p in inputs],
        output_paths=[str(p) for p in outputs],
        counts=counts,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        input_manifests=chained,
    )
    for output_path in outputs:
        with jsonl.open_atomic(manifest_path(output_path)) as fh:
            json.dump(manifest.to_dict(), fh, ensure_ascii=False, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Option resolution: defaults < config file < explicit flags
# ---------------------------------------------------------------------------

_DEFAULTS: dict[str, dict] = {
    "ingest": {"ontology": None, "heldout": [], "out": None},
    "curate-defs": {"ontology": None, "out": None, "backend": "mock", "seed": 0,
                    "endpoint": None, "model": None, "max_in_flight": 4, "retry_limit": 3},
    "curate-samples": {"dataset": None, "out": None, "backend": "mock", "seed": 0, "per_event": 10,
                       "regenerate": 0, "endpoint": None, "model": None, "max_in_flight": 4, "retry_limit": 3},
    "expand-defs": {"dataset": None, "out": None, "backend": "mock", "seed": 0, "count": 10,
                    "endpoint": None, "model": None, "max_in_flight": 4, "retry_limit": 3},
    "prune": {"dataset": None, "out": None, "audit": None, "threshold": 0.5},
    "assemble": {"dataset": None, "out": None, "events": None, "definitions": None, "samples": None,
                 "negatives": 10, "hard_negatives": 0, "with_ontology": False, "with_definition": True,
                 "seed": 0},
    "score": {"gold": None, "pred": None, "out": None},
    "ablate-report": {"baseline": None, "ablated": None, "out": None},
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path}: invalid UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit; nesting too deep
        raise UsageError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"config file {path}: top level must be a JSON object")
    return config


def _resolve(args: argparse.Namespace) -> dict:
    command = args.command
    resolved = dict(_DEFAULTS[command])
    config = _load_config(getattr(args, "config", None))
    flat = {k: v for k, v in config.items() if not isinstance(v, dict)}
    section = config.get(command, {})
    if not isinstance(section, dict):
        raise UsageError(f"config file {args.config}: section {command!r} must be a JSON object")
    for source in (flat, section):
        for key, value in source.items():
            key = key.replace("-", "_")
            if key in resolved:
                resolved[key] = value
    for key in resolved:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(resolved: dict, *names: str) -> None:
    for name in names:
        if resolved.get(name) in (None, []):
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _backend(resolved: dict):
    kind = resolved["backend"]
    if kind == "mock":
        return MockBackend(seed=int(resolved["seed"]))
    if kind == "http":
        if not resolved.get("endpoint") or not resolved.get("model"):
            raise BackendConfigError("http backend needs --endpoint and --model")
        return HttpBackend(endpoint=resolved["endpoint"], model=resolved["model"])
    raise UsageError(f"unknown backend {kind!r}")


def _report_failures(report: curation.CurationReport) -> int:
    for event, reason in report.failures:
        logger.warning("curation failure: %s: %s", event, reason)
    return 2 if report.failures else 0


def _generation(args: argparse.Namespace, source: str, load, run) -> int:
    """The generation commands' shared body: read ``resolved[source]`` with ``load``, run
    the stage, write the dataset and its manifest, and print one summary line.
    ``run(dataset, backend, resolved, batch)`` returns (report, own counts, summary)."""
    resolved = _resolve(args)
    _require(resolved, source, "out")
    dataset = load(resolved[source])
    batch = {"max_in_flight": int(resolved["max_in_flight"]), "retry_limit": int(resolved["retry_limit"])}
    report, counts, summary = run(dataset, _backend(resolved), resolved, batch)
    events = curation.write_dataset(dataset, resolved["out"])
    counts = {"events": events, **counts, "failures": len(report.failures)}
    write_manifests(args.command, resolved, [resolved[source]], [resolved["out"]], counts)
    print(f"{args.command}: {summary}")
    return _report_failures(report)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "ontology", "out")
    heldout: list[str] = []
    for chunk in resolved["heldout"] or []:
        heldout.extend(part.strip() for part in chunk.split(",") if part.strip())
    ontology = load_ontology(resolved["ontology"])
    trees_in, nodes_in = len(ontology.trees), len(ontology)
    filtered = filter_heldout(ontology, heldout)
    save_ontology(filtered, resolved["out"])
    counts = {
        "trees_in": trees_in,
        "nodes_in": nodes_in,
        "trees_out": len(filtered.trees),
        "nodes_out": len(filtered),
    }
    write_manifests("ingest", resolved, [resolved["ontology"]], [resolved["out"]], counts)
    print(f"ingest: {nodes_in} nodes in {trees_in} trees -> {counts['nodes_out']} nodes in {counts['trees_out']} trees")
    return 0


def cmd_curate_defs(args: argparse.Namespace) -> int:
    def run(ontology, backend, resolved, batch):
        report = curation.curate_definitions_for_trees(ontology.trees, backend, **batch)
        return report, {"definitions": report.parsed}, f"{report.parsed}/{report.requested} definitions"

    return _generation(args, "ontology", load_ontology, run)


def cmd_curate_samples(args: argparse.Namespace) -> int:
    def run(dataset, backend, resolved, batch):
        report = curation.curate_samples_for_trees(
            dataset.trees, backend, per_event=int(resolved["per_event"]), regenerate=int(resolved["regenerate"]),
            **batch,
        )
        summary = f"{report.parsed} samples for {len(dataset)} events ({report.dropped_invalid} invalid dropped)"
        return report, {"samples": report.parsed, "dropped_invalid": report.dropped_invalid}, summary

    return _generation(args, "dataset", curation.read_dataset, run)


def cmd_expand_defs(args: argparse.Namespace) -> int:
    def run(dataset, backend, resolved, batch):
        report = curation.expand_definitions_for_nodes(
            list(dataset.iter_nodes()), backend, count=int(resolved["count"]), **batch
        )
        summary = f"{report.parsed} paraphrases added across {len(dataset)} events"
        return report, {"paraphrases_added": report.parsed}, summary

    return _generation(args, "dataset", curation.read_dataset, run)


def cmd_prune(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "dataset", "out", "audit")
    dataset = curation.read_dataset(resolved["dataset"])
    events_in = len(dataset)
    try:
        pruned, audits = pruning.prune_dataset(dataset, threshold=float(resolved["threshold"]))
    except pruning.PruneInputError as exc:  # name the row of the event without samples
        line = next(n for n, row in jsonl.read_rows(resolved["dataset"]) if row["event"].strip() == exc.event)
        raise jsonl.JsonlError(resolved["dataset"], line, str(exc)) from None
    events_out = curation.write_dataset(pruned, resolved["out"])
    pruning.write_audit(audits, resolved["audit"])
    counts = {"events_in": events_in, "events_removed": len(audits), "events_out": events_out}
    write_manifests("prune", resolved, [resolved["dataset"]], [resolved["out"], resolved["audit"]], counts)
    print(f"prune: {events_in} events -> {events_out} (removed {len(audits)})")
    return 0


def cmd_assemble(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "dataset", "out", "events", "definitions", "samples")
    dataset = curation.read_dataset(resolved["dataset"])
    spec = assembly.SliceSpec(
        n_events=int(resolved["events"]),
        n_definitions=int(resolved["definitions"]),
        n_samples=int(resolved["samples"]),
        n_negatives=int(resolved["negatives"]),
        n_hard_negatives=int(resolved["hard_negatives"]),
        with_ontology=bool(resolved["with_ontology"]),
        with_definition=bool(resolved["with_definition"]),
        seed=int(resolved["seed"]),
    )
    instances = assembly.assemble(dataset, spec)
    assembly.write_jsonl(instances, resolved["out"])
    kind_counts = assembly.count_kinds(instances)
    counts = {
        "instances": len(instances),
        "positives": kind_counts["positive"],
        "negatives": kind_counts["negative"] + kind_counts["hard_negative"],
        "hard_negatives": kind_counts["hard_negative"],
    }
    write_manifests("assemble", resolved, [resolved["dataset"]], [resolved["out"]], counts)
    print(
        f"assemble: {counts['instances']} instances "
        f"({counts['positives']} positive, {counts['negatives']} negative, "
        f"of which {counts['hard_negatives']} hard)"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "gold", "pred")
    gold = evaluation.read_gold(resolved["gold"])
    pred = evaluation.read_predictions(resolved["pred"])
    report = evaluation.match_and_score(gold, pred)
    print(report.to_table())
    counts = {"gold_records": len(gold), "pred_records": len(pred)}
    if resolved["out"]:
        evaluation.write_report(report, resolved["out"])
        write_manifests("score", resolved, [resolved["gold"], resolved["pred"]], [resolved["out"]], counts)
    return 0


def cmd_ablate_report(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    _require(resolved, "baseline", "ablated")
    baseline = evaluation.read_report(resolved["baseline"])
    ablated = evaluation.read_report(resolved["ablated"])
    drops = evaluation.drop_rate(baseline, ablated)
    result = {
        "baseline_f1": {"identification": baseline.id_scores.f1, "classification": baseline.cls_scores.f1},
        "ablated_f1": {"identification": ablated.id_scores.f1, "classification": ablated.cls_scores.f1},
        **drops,
    }
    print(f"identification drop: {drops['id_drop_pct']}% ({drops['id_drop_points']} points)")
    print(f"classification drop: {drops['cls_drop_pct']}% ({drops['cls_drop_points']} points)")
    if resolved["out"]:
        with jsonl.open_atomic(resolved["out"]) as fh:
            json.dump(result, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
        write_manifests("ablate-report", resolved, [resolved["baseline"], resolved["ablated"]], [resolved["out"]], {})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_backend_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=["mock", "http"], help="text-generation backend (default: mock)")
    sub.add_argument("--seed", type=int, help="seed for the mock backend and any sampling")
    sub.add_argument("--endpoint", help="HTTP backend: chat-completion endpoint URL")
    sub.add_argument("--model", help="HTTP backend: model name")
    sub.add_argument("--max-in-flight", type=int, dest="max_in_flight", help="max concurrent requests")
    sub.add_argument("--retry-limit", type=int, dest="retry_limit", help="retries per request on transient failures")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dived", description="Event-detection dataset pipeline toolkit")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", parents=[], help="load an ontology and remove held-out trees")
    p.add_argument("--ontology", help="ontology JSONL file")
    p.add_argument("--heldout", action="append", help="held-out event name (repeatable, comma-splittable)")
    p.add_argument("--out", help="filtered ontology JSONL output")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("curate-defs", help="generate one definition per event type, a prompt per tree")
    p.add_argument("--ontology", help="ontology JSONL file")
    p.add_argument("--out", help="dataset JSONL output")
    p.add_argument("--config", help="JSON config file")
    _add_backend_options(p)
    p.set_defaults(func=cmd_curate_defs)

    p = subs.add_parser("curate-samples", help="generate validated samples per event type")
    p.add_argument("--dataset", help="dataset JSONL with definitions")
    p.add_argument("--out", help="dataset JSONL output")
    p.add_argument("--per-event", type=int, dest="per_event", help="samples per event (default 10)")
    p.add_argument("--regenerate", type=int, help="extra regeneration rounds for events short of samples")
    p.add_argument("--config", help="JSON config file")
    _add_backend_options(p)
    p.set_defaults(func=cmd_curate_samples)

    p = subs.add_parser("expand-defs", help="paraphrase each event definition")
    p.add_argument("--dataset", help="dataset JSONL with definitions")
    p.add_argument("--out", help="dataset JSONL output")
    p.add_argument("--count", type=int, help="paraphrases per event (default 10)")
    p.add_argument("--config", help="JSON config file")
    _add_backend_options(p)
    p.set_defaults(func=cmd_expand_defs)

    p = subs.add_parser("prune", help="remove duplicate events by trigger overlap")
    p.add_argument("--dataset", help="dataset JSONL with samples")
    p.add_argument("--out", help="pruned dataset JSONL output")
    p.add_argument("--audit", help="overlap audit JSONL output")
    p.add_argument("--threshold", type=float, help="overlap ratio threshold (default 0.5, strict >)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_prune)

    p = subs.add_parser("assemble", help="build training instances from a pruned dataset")
    p.add_argument("--dataset", help="pruned dataset JSONL")
    p.add_argument("--out", help="instances JSONL output")
    p.add_argument("--events", type=int, help="number of event types")
    p.add_argument("--definitions", type=int, help="definitions per event")
    p.add_argument("--samples", type=int, help="samples per event")
    p.add_argument("--negatives", type=int, help="negative instances per positive (default 10)")
    p.add_argument("--hard-negatives", type=int, dest="hard_negatives", help="sibling hard-negatives within --negatives (default 0)")
    p.add_argument("--ontology", dest="with_ontology", action=argparse.BooleanOptionalAction,
                   help="attach parent/children ontology context")
    p.add_argument("--definition", dest="with_definition", action=argparse.BooleanOptionalAction,
                   help="include the definition text (--no-definition = ablation)")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_assemble)

    p = subs.add_parser("score", help="score predictions against gold triggers")
    p.add_argument("--gold", help="gold JSONL file")
    p.add_argument("--pred", help="prediction JSONL file")
    p.add_argument("--out", help="score report JSON output")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("ablate-report", help="drop rates between a baseline and an ablated score report")
    p.add_argument("--baseline", help="baseline score report JSON")
    p.add_argument("--ablated", help="ablated score report JSON")
    p.add_argument("--out", help="drop report JSON output")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_ablate_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BackendConfigError, TransientBackendError, PermanentBackendError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except (DivedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Subcommand front-end wiring the pipeline stages.

Every subcommand runs one path: the parser resolves its options (defaults <
``--config`` file < flags), ``main`` checks the ones the command requires, and
the command's function takes them, writes its outputs and returns (inputs,
outputs, counts, exit code); ``main`` then writes one run manifest per output.
Exit codes: 0 on success, 1 on a validation/usage error, 2 on a backend
failure or an event a generation command left without its output. With the
mock backend and a fixed seed, a rerun reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import assembly, curation, evaluation, jsonl, pruning
from .errors import DivedError, EventInputError
from .llm_client import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_RETRY_LIMIT,
    MAX_IN_FLIGHT,
    MAX_RETRY_LIMIT,
    BackendConfigError,
    HttpBackend,
    MockBackend,
)
from .ontology import filter_heldout, load_ontology, normalize_name, save_ontology

logger = logging.getLogger(__name__)


class UsageError(DivedError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def manifest_path(output_path: str | Path) -> Path:
    return Path(f"{output_path}.manifest.json")


def _manifest_digest(path: Path) -> str:
    """sha256 of a manifest as written without its ``volatile`` block, so that a
    rerun digests the same; of its raw bytes if it does not decode to a JSON object."""
    try:
        manifest = jsonl.read_object(path)
    except jsonl.JsonlError:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    manifest.pop("volatile", None)
    return hashlib.sha256(json.dumps(manifest, ensure_ascii=False, indent=2).encode("utf-8") + b"\n").hexdigest()


def write_manifests(command: str, resolved: dict, inputs: list[str], outputs: list[str], counts: dict[str, int]) -> None:
    """Write the run's provenance record next to every output, as
    <output>.manifest.json. Manifests chain: input_manifests records the
    digest of each input's own manifest, without its ``volatile`` block, when
    one exists. Only the ``volatile`` block differs between two runs."""
    chained = {str(p): _manifest_digest(m) for p in inputs if (m := manifest_path(p)).is_file()}
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")).hexdigest(),
        "seed": resolved.get("seed"),
        "input_paths": [str(p) for p in inputs],
        "output_paths": [str(p) for p in outputs],
        "counts": counts,
        "input_manifests": chained,
        "volatile": {"timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")},
    }
    for output_path in outputs:
        jsonl.write_object(manifest_path(output_path), manifest)


# ---------------------------------------------------------------------------
# Option resolution: defaults < config file < explicit flags, all in the parser
# ---------------------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        return jsonl.read_object(path)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except jsonl.JsonlError as exc:
        raise UsageError(f"config file {exc}") from exc


def _config_value(path: str, key: str, action: argparse.Action, value):
    """A config value as the parser's default for ``action``: true or false for
    a --[no-] switch, a string or list of strings for a repeatable option, one
    of the choices for an option that has them (argparse checks a flag's
    choices, never a default's), and otherwise a string or number, as its text
    for the option's type to convert."""
    if isinstance(action, argparse.BooleanOptionalAction):
        ok, expected, converted = isinstance(value, bool), "true or false", value
    elif isinstance(action, _AppendOverDefault):
        converted = [value] if isinstance(value, str) else value
        ok = isinstance(converted, list) and all(isinstance(item, str) for item in converted)
        expected = "a string or a list of strings"
    elif action.choices is not None:
        ok, expected, converted = value in action.choices, f"one of {', '.join(map(repr, action.choices))}", value
    else:
        ok, expected, converted = type(value) in (str, int, float), "a string or a number", str(value)
    if not ok:
        raise UsageError(f"config file {path}: {key!r} must be {expected}, not {json.dumps(value)}")
    return converted


class _AppendOverDefault(argparse.Action):
    """``action="append"`` whose first flag replaces the default, so that the
    flags replace a config file's list rather than extend it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if items is self.default else items), values])


class _CommandParser(_Parser):
    """A subcommand's parser. Given ``--config``, it makes the file's values
    for its options its defaults and parses again: each option's type converts
    a config value as it converts a flag, and explicit flags win."""

    def parse_known_args(self, args=None, namespace=None):  # noqa: D102 - argparse hook
        parsed, extras = super().parse_known_args(args, namespace)
        if parsed.config is None:
            return parsed, extras
        self._set_config_defaults(parsed.config)
        try:
            return super().parse_known_args(args, namespace)
        except UsageError as exc:
            raise UsageError(f"config file {parsed.config}: {exc}") from None

    def _set_config_defaults(self, path: str) -> None:
        """Make this command's options in the config file, flat keys then its section, the defaults."""
        config = _load_config(path)
        command = self.prog.rpartition(" ")[2]
        section = config.get(command, {})
        if not isinstance(section, dict):
            raise UsageError(f"config file {path}: section {command!r} must be a JSON object")
        actions = {action.dest: action for action in self._actions if action.dest not in ("help", "config")}
        for key, value in [*((k, v) for k, v in config.items() if not isinstance(v, dict)), *section.items()]:
            action = actions.get(key.replace("-", "_"))
            if action is not None:
                self.set_defaults(**{action.dest: _config_value(path, key, action, value)})


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options: the parsed namespace without the front-end's own entries."""
    front_end = ("verbose", "command", "config", "func", "required")
    return {key: value for key, value in vars(args).items() if key not in front_end}


def _backend(resolved: dict):
    """The backend named by ``--backend``, which the parser has checked against its choices."""
    if resolved["backend"] == "mock":
        return MockBackend(seed=resolved["seed"])
    if not resolved.get("endpoint") or not resolved.get("model"):
        raise BackendConfigError("http backend needs --endpoint and --model")
    return HttpBackend(endpoint=resolved["endpoint"], model=resolved["model"],
                       max_in_flight=resolved["max_in_flight"], retry_limit=resolved["retry_limit"])


def _generated(resolved: dict, source: str, dataset, report: curation.CurationReport, counts: dict, summary: str):
    """A generation command's end: write its dataset, print its summary and log
    each failure. The exit code is 2 if there was a failure."""
    events = curation.write_dataset(dataset, resolved["out"])
    print(summary)
    for event, reason in report.failures:
        logger.warning("curation failure: %s: %s", event, reason)
    counts = {"events": events, **counts, "failures": len(report.failures)}
    return [resolved[source]], [resolved["out"]], counts, 2 if report.failures else 0


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved options and returns (inputs, outputs, counts, exit code)
# ---------------------------------------------------------------------------


def cmd_ingest(resolved: dict):
    heldout = [part for chunk in resolved["heldout"] for part in chunk.split(",")]
    ontology = load_ontology(resolved["ontology"])
    filtered = filter_heldout(ontology, heldout)
    save_ontology(filtered, resolved["out"])
    counts = {"trees_in": len(ontology.trees), "nodes_in": len(ontology),
              "trees_out": len(filtered.trees), "nodes_out": len(filtered)}
    print("ingest: {nodes_in} nodes in {trees_in} trees -> {nodes_out} nodes in {trees_out} trees".format(**counts))
    return [resolved["ontology"]], [resolved["out"]], counts, 0


def cmd_curate_defs(resolved: dict):
    ontology = load_ontology(resolved["ontology"])
    report = curation.curate_definitions_for_trees(ontology.trees, _backend(resolved))
    summary = f"curate-defs: {report.parsed}/{report.requested} definitions"
    return _generated(resolved, "ontology", ontology, report, {"definitions": report.parsed}, summary)


def cmd_curate_samples(resolved: dict):
    dataset = curation.read_dataset(resolved["dataset"])
    report = curation.curate_samples_for_trees(dataset.trees, _backend(resolved), per_event=resolved["per_event"],
                                               regenerate=resolved["regenerate"])
    summary = (f"curate-samples: {report.parsed} samples for {len(dataset)} events "
               f"({report.dropped_invalid} invalid dropped)")
    counts = {"samples": report.parsed, "dropped_invalid": report.dropped_invalid}
    return _generated(resolved, "dataset", dataset, report, counts, summary)


def cmd_expand_defs(resolved: dict):
    dataset = curation.read_dataset(resolved["dataset"])
    report = curation.expand_definitions_for_nodes(list(dataset.iter_nodes()), _backend(resolved),
                                                   count=resolved["count"])
    summary = f"expand-defs: {report.parsed} paraphrases added across {len(dataset)} events"
    return _generated(resolved, "dataset", dataset, report, {"paraphrases_added": report.parsed}, summary)


def cmd_prune(resolved: dict):
    if Path(resolved["out"]).resolve() == Path(resolved["audit"]).resolve():
        raise UsageError(f"--out {resolved['out']} and --audit {resolved['audit']} name the same file")
    dataset = curation.read_dataset(resolved["dataset"])
    events_in = len(dataset)
    pruned, audits = pruning.prune_dataset(dataset, threshold=resolved["threshold"])
    events_out = curation.write_dataset(pruned, resolved["out"])
    pruning.write_audit(audits, resolved["audit"])
    print(f"prune: {events_in} events -> {events_out} (removed {len(audits)})")
    counts = {"events_in": events_in, "events_removed": len(audits), "events_out": events_out}
    return [resolved["dataset"]], [resolved["out"], resolved["audit"]], counts, 0


def cmd_assemble(resolved: dict):
    dataset = curation.read_dataset(resolved["dataset"])
    spec = assembly.SliceSpec(
        n_events=resolved["events"], n_definitions=resolved["definitions"], n_samples=resolved["samples"],
        n_negatives=resolved["negatives"], n_hard_negatives=resolved["hard_negatives"],
        with_ontology=resolved["with_ontology"], with_definition=resolved["with_definition"], seed=resolved["seed"],
    )
    kinds = assembly.write_slice(dataset, spec, resolved["out"])  # the slice checks run before the output opens
    counts = {"instances": sum(kinds.values()), "positives": kinds["positive"],
              "negatives": kinds["negative"] + kinds["hard_negative"], "hard_negatives": kinds["hard_negative"]}
    print("assemble: {instances} instances ({positives} positive, {negatives} negative, "
          "of which {hard_negatives} hard)".format(**counts))
    return [resolved["dataset"]], [resolved["out"]], counts, 0


def cmd_score(resolved: dict):
    gold = evaluation.read_gold(resolved["gold"])
    pred = evaluation.read_predictions(resolved["pred"])
    report = evaluation.match_and_score(gold, pred)
    print(report.to_table())
    if resolved["out"]:
        evaluation.write_report(report, resolved["out"])
    counts = {"gold_records": len(gold), "pred_records": len(pred)}
    return [resolved["gold"], resolved["pred"]], ([resolved["out"]] if resolved["out"] else []), counts, 0


def cmd_ablate_report(resolved: dict):
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
        jsonl.write_object(resolved["out"], result)
    return [resolved["baseline"], resolved["ablated"]], ([resolved["out"]] if resolved["out"] else []), {}, 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_in(low: int, high: int):
    """An option type: an integer from ``low`` to ``high``, both included."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value: ..."
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is not from {low} to {high}")
        return value

    return integer


def _add_backend_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=["mock", "http"], default="mock",
                     help="text-generation backend (default: %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="seed for the mock backend and any sampling")
    sub.add_argument("--endpoint", help="HTTP backend: chat-completion endpoint URL")
    sub.add_argument("--model", help="HTTP backend: model name")
    sub.add_argument("--max-in-flight", type=_int_in(1, MAX_IN_FLIGHT), default=DEFAULT_MAX_IN_FLIGHT,
                     help=f"max concurrent requests to a server, 1-{MAX_IN_FLIGHT} (default %(default)s)")
    sub.add_argument("--retry-limit", type=_int_in(0, MAX_RETRY_LIMIT), default=DEFAULT_RETRY_LIMIT,
                     help=f"retries per request on transient failures, 0-{MAX_RETRY_LIMIT} (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """The one table of the options: each command's flags, defaults and types."""
    parser = _Parser(prog="dived", description="Event-detection dataset pipeline toolkit")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name: str, func, help: str, required: tuple[str, ...]) -> argparse.ArgumentParser:
        """A subcommand run by ``func``; ``main`` checks the options named in ``required``."""
        p = subs.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file")
        p.set_defaults(func=func, required=required)
        return p

    p = command("ingest", cmd_ingest, "load an ontology and remove held-out trees", required=("ontology", "out"))
    p.add_argument("--ontology", help="ontology JSONL file")
    p.add_argument("--heldout", action=_AppendOverDefault, default=[],
                   help="held-out event name (repeatable, comma-splittable)")
    p.add_argument("--out", help="filtered ontology JSONL output")

    p = command("curate-defs", cmd_curate_defs, "generate one definition per event type, a prompt per tree",
                required=("ontology", "out"))
    p.add_argument("--ontology", help="ontology JSONL file")
    p.add_argument("--out", help="dataset JSONL output")
    _add_backend_options(p)

    p = command("curate-samples", cmd_curate_samples, "generate validated samples per event type",
                required=("dataset", "out"))
    p.add_argument("--dataset", help="dataset JSONL with definitions")
    p.add_argument("--out", help="dataset JSONL output")
    p.add_argument("--per-event", type=int, default=10, help="samples per event (default %(default)s)")
    p.add_argument("--regenerate", type=int, default=0, help="extra regeneration rounds for events short of samples")
    _add_backend_options(p)

    p = command("expand-defs", cmd_expand_defs, "paraphrase each event definition", required=("dataset", "out"))
    p.add_argument("--dataset", help="dataset JSONL with definitions")
    p.add_argument("--out", help="dataset JSONL output")
    p.add_argument("--count", type=int, default=10, help="paraphrases per event (default %(default)s)")
    _add_backend_options(p)

    p = command("prune", cmd_prune, "remove duplicate events by trigger overlap",
                required=("dataset", "out", "audit"))
    p.add_argument("--dataset", help="dataset JSONL with samples")
    p.add_argument("--out", help="pruned dataset JSONL output")
    p.add_argument("--audit", help="overlap audit JSONL output")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="overlap ratio threshold (default %(default)s, strict >)")

    p = command("assemble", cmd_assemble, "build training instances from a pruned dataset",
                required=("dataset", "out", "events", "definitions", "samples"))
    p.add_argument("--dataset", help="pruned dataset JSONL")
    p.add_argument("--out", help="instances JSONL output")
    p.add_argument("--events", type=int, help="number of event types")
    p.add_argument("--definitions", type=int, help="definitions per event")
    p.add_argument("--samples", type=int, help="samples per event")
    p.add_argument("--negatives", type=int, default=10, help="negative instances per positive (default %(default)s)")
    p.add_argument("--hard-negatives", type=int, default=0,
                   help="sibling hard-negatives within --negatives (default %(default)s)")
    p.add_argument("--ontology", dest="with_ontology", action=argparse.BooleanOptionalAction, default=False,
                   help="attach parent/children ontology context")
    p.add_argument("--definition", dest="with_definition", action=argparse.BooleanOptionalAction, default=True,
                   help="include the definition text (--no-definition = ablation)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = command("score", cmd_score, "score predictions against gold triggers", required=("gold", "pred"))
    p.add_argument("--gold", help="gold JSONL file")
    p.add_argument("--pred", help="prediction JSONL file")
    p.add_argument("--out", help="score report JSON output")

    p = command("ablate-report", cmd_ablate_report, "drop rates between a baseline and an ablated score report",
                required=("baseline", "ablated"))
    p.add_argument("--baseline", help="baseline score report JSON")
    p.add_argument("--ablated", help="ablated score report JSON")
    p.add_argument("--out", help="drop report JSON output")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        resolved = _resolve(args)
        for name in args.required:
            if resolved[name] in (None, []):
                raise UsageError(f"missing required option --{name.replace('_', '-')}")
        try:
            inputs, outputs, counts, code = args.func(resolved)
        except EventInputError as exc:  # an event lacks what the command needs: name its dataset row
            key = normalize_name(exc.event)
            line = next(n for n, row in jsonl.read_rows(resolved["dataset"]) if normalize_name(row["event"]) == key)
            raise jsonl.JsonlError(resolved["dataset"], line, str(exc)) from None
        except evaluation.RecordError as exc:  # name the row: an unknown id's first, a duplicate key's second
            path = resolved["gold" if exc.side == "gold" else "pred"]
            rows = (n for n, row in jsonl.read_rows(path)
                    if row["sentence_id"] == exc.sentence_id and exc.event_type in (None, row["event_type"]))
            line = [*itertools.islice(rows, 1 if exc.event_type is None else 2)][-1]
            raise jsonl.JsonlError(path, line, str(exc)) from None
        if outputs:
            write_manifests(args.command, resolved, inputs, outputs, counts)
        return code
    except BackendConfigError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 2
    except (DivedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

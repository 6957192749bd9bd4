"""Per-layer spans and counts for a traced benchmark round.

``Tracer.install()`` wraps the public functions of each ``dived`` module at
the names its callers look them up by, so nothing under ``src/`` changes.
Each wrapped call records a span (id, parent id, name, start, end) in memory
and adds to counters; ``write_spans`` writes the spans out when the round
ends. Times are inclusive: a span covers its child spans, e.g.
``ontology.build_s`` also falls inside ``curation.convert_s`` when a
converter rebuilds an ontology. Backend requests run on worker threads, so
their spans have no parent and ``llm_client.backend_s`` and
``llm_client.backoff_s`` are thread-seconds summed over those threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

CLI_COMMANDS = ("ingest", "curate-defs", "curate-samples", "expand-defs", "prune",
                "assemble", "score", "ablate-report")

# name -> unit, in the order the benchmark reports them
LAYER_METRICS: dict[str, str] = {
    **{f"cli.{c.replace('-', '_')}_s": "s" for c in CLI_COMMANDS},
    "cli.manifest_s": "s",
    "ontology.load_s": "s", "ontology.build_s": "s", "ontology.nodes": "count",
    "curation.read_dataset_s": "s", "curation.write_dataset_s": "s", "curation.convert_s": "s",
    "curation.request_build_s": "s", "curation.parse_s": "s", "curation.items_parsed": "count",
    "curation.items_dropped": "count", "curation.retry_batches": "count",
    "llm_client.batch_s": "s", "llm_client.backend_s": "s", "llm_client.backoff_s": "s",
    "llm_client.requests": "count", "llm_client.attempts": "count", "llm_client.failed": "count",
    "llm_client.request_p50_ms": "ms", "llm_client.request_p99_ms": "ms", "llm_client.request_samples": "count",
    "llm_client.http_connections": "count", "llm_client.connections_per_request": "ratio",
    "llm_client.http_429": "count",
    "pruning.prune_s": "s", "pruning.overlap_calls": "count", "pruning.events_removed": "count",
    "pruning.write_audit_s": "s",
    "assembly.assemble_s": "s", "assembly.instances": "count", "assembly.instances_per_s": "1/s",
    "assembly.write_jsonl_s": "s",
    "evaluation.read_s": "s", "evaluation.match_s": "s", "evaluation.records": "count",
    "evaluation.records_per_s": "1/s", "evaluation.write_report_s": "s",
    "jsonl.read_s": "s", "jsonl.write_s": "s", "jsonl.rows_read": "count", "jsonl.rows_written": "count",
    "jsonl.bytes_written": "B",
    "trace.pipeline_s": "s", "trace.overhead_s": "s",
}

# span name -> layer metric its durations add up to
_SPAN_METRIC = {
    "cli.write_manifests": "cli.manifest_s",
    "ontology.load_ontology": "ontology.load_s",
    "ontology.build": "ontology.build_s",
    "curation.read_dataset": "curation.read_dataset_s",
    "curation.write_dataset": "curation.write_dataset_s",
    "curation.convert": "curation.convert_s",
    "curation.request_build": "curation.request_build_s",
    "curation.parse": "curation.parse_s",
    "llm_client.complete_batch": "llm_client.batch_s",
    "llm_client.generate": "llm_client.backend_s",
    "llm_client.sleep": "llm_client.backoff_s",
    "pruning.prune_dataset": "pruning.prune_s",
    "pruning.write_audit": "pruning.write_audit_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.write_jsonl": "assembly.write_jsonl_s",
    "evaluation.read": "evaluation.read_s",
    "evaluation.match_and_score": "evaluation.match_s",
    "evaluation.write_report": "evaluation.write_report_s",
    "jsonl.write_rows": "jsonl.write_s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request_ms: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span called ``name``; ``on_result(result, args)``
        adds counts after each call. A result of another shape than today's
        leaves the count at 0 rather than failing the round."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                try:
                    on_result(result, args)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    pass
            return result

        return traced

    def cli_span(self, command: str, start: float, end: float) -> None:
        self.spans.append((next(self._ids), None, f"cli.{command}", start, end))

    def install(self) -> None:
        """Patch the dived modules of this process. Rounds run in their own
        process, so nothing is ever un-patched. A function the program no
        longer has is skipped, and its metric reads 0."""
        from dived import assembly, cli, curation, evaluation, jsonl, llm_client, ontology, pruning

        def patch(module, attr: str, name: str, on_result=None) -> None:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), on_result))

        patch(cli, "write_manifests", "cli.write_manifests")

        patch(cli, "load_ontology", "ontology.load_ontology")
        patch(ontology, "load_ontology", "ontology.load_ontology")
        patch(ontology, "_build_ontology", "ontology.build",
              lambda result, args: self.add("ontology.nodes", len(args[0])))

        patch(curation, "read_dataset", "curation.read_dataset")
        patch(curation, "write_dataset", "curation.write_dataset")
        for attr in ("ontology_from_dataset", "records_from_ontology", "dataset_to_trees"):
            patch(curation, attr, "curation.convert")
        patch(pruning, "dataset_to_trees", "curation.convert")
        for attr in ("definition_request", "sample_request", "expansion_request"):
            patch(curation, attr, "curation.request_build")
        patch(curation, "parse_definitions", "curation.parse")
        patch(curation, "parse_paraphrases", "curation.parse")
        patch(curation, "parse_samples", "curation.parse",
              lambda stats, args: self.add("curation.items_dropped", sum(st.dropped for st in stats.values())))

        def stage(attr: str, parsed) -> None:
            fn = getattr(curation, attr, None)
            if fn is None:
                return

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                before = self.counts["llm_client.batches"]
                result = fn(*args, **kwargs)
                self.add("curation.retry_batches", max(self.counts["llm_client.batches"] - before - 1, 0))
                try:
                    self.add("curation.items_parsed", parsed(result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
                return result

            setattr(curation, attr, counted)

        stage("curate_definitions_for_trees", lambda result: result[1].parsed)
        stage("curate_samples_for_trees", lambda result: result[1].parsed)
        stage("expand_definitions_for_nodes", lambda result: sum(len(v) for v in result.values()))

        def batch_done(results, args) -> None:
            self.add("llm_client.batches", 1)
            self.add("llm_client.requests", len(args[0]))
            self.add("llm_client.attempts", sum(r.attempts for r in results))
            self.add("llm_client.failed", sum(isinstance(r, llm_client.GenFailure) for r in results))

        patch(curation, "complete_batch", "llm_client.complete_batch", batch_done)
        for backend_cls in filter(None, (getattr(llm_client, "MockBackend", None), getattr(llm_client, "HttpBackend", None))):
            generate = backend_cls.generate

            def timed_generate(backend, request, _generate=generate):
                start = time.perf_counter()
                try:
                    return _generate(backend, request)
                finally:
                    end = time.perf_counter()
                    self.request_ms.append((end - start) * 1000.0)
                    self.spans.append((next(self._ids), None, "llm_client.generate", start, end))

            backend_cls.generate = timed_generate
        shim = types.SimpleNamespace(**{k: getattr(time, k) for k in dir(time) if not k.startswith("_")})
        shim.sleep = self.wrap("llm_client.sleep", time.sleep)
        llm_client.time = shim

        patch(pruning, "prune_dataset", "pruning.prune_dataset",
              lambda result, args: self.add("pruning.events_removed", len(result[1])))
        overlap_ratio = getattr(pruning, "overlap_ratio", None)

        def counted_overlap(a, b):
            self.counts["pruning.overlap_calls"] += 1
            return overlap_ratio(a, b)

        if overlap_ratio is not None:
            pruning.overlap_ratio = counted_overlap
        patch(pruning, "write_audit", "pruning.write_audit")

        patch(assembly, "assemble", "assembly.assemble",
              lambda result, args: self.add("assembly.instances", len(result)))
        patch(assembly, "write_jsonl", "assembly.write_jsonl")

        for attr in ("read_gold", "read_predictions"):
            patch(evaluation, attr, "evaluation.read")
        patch(evaluation, "read_report", "evaluation.read")
        patch(evaluation, "match_and_score", "evaluation.match_and_score",
              lambda result, args: self.add("evaluation.records", len(args[0]) + len(args[1])))
        patch(evaluation, "write_report", "evaluation.write_report")

        read_rows = getattr(jsonl, "read_rows", None)

        def timed_read_rows(path):
            rows = read_rows(path)
            busy, count = 0.0, 0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        row = next(rows)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    busy += time.perf_counter() - start
                    count += 1
                    yield row
            finally:
                self.add("jsonl.read_s", busy)
                self.add("jsonl.rows_read", count)

        def rows_written(result, args) -> None:
            self.add("jsonl.rows_written", result)
            self.add("jsonl.bytes_written", os.path.getsize(args[0]))

        if read_rows is not None:
            jsonl.read_rows = timed_read_rows
        patch(jsonl, "write_rows", "jsonl.write_rows", rows_written)

    def metrics(self, cli_seconds: dict[str, float], stub: dict | None) -> dict[str, float]:
        """The layer metrics of this round. The request percentiles and the
        ``trace.*`` pair span several rounds and are filled in by the caller
        from ``request_ms`` and the rounds' pipeline times."""
        out = dict.fromkeys(LAYER_METRICS, 0.0)
        for command, seconds in cli_seconds.items():
            out[f"cli.{command.replace('-', '_')}_s"] = seconds
        for _, _, name, start, end in self.spans:
            metric = _SPAN_METRIC.get(name)
            if metric is not None:
                out[metric] += end - start
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        if stub is not None:
            out["llm_client.http_connections"] = stub["connections"]
            out["llm_client.http_429"] = stub["replies_429"]
            out["llm_client.connections_per_request"] = stub["connections"] / max(stub["requests"], 1)
        if out["assembly.assemble_s"]:
            out["assembly.instances_per_s"] = out["assembly.instances"] / out["assembly.assemble_s"]
        if out["evaluation.match_s"]:
            out["evaluation.records_per_s"] = out["evaluation.records"] / out["evaluation.match_s"]
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

"""One benchmark round in its own process: ``python3 worker.py SPEC.json``.

The spec names the workload, input seed, shape, run directory and whether to
trace. The worker imports ``dived`` from the checkout's ``src/``, writes the
synthetic inputs, starts the stub when the workload needs one, then runs the
workload's commands through ``dived.cli.main`` in the order of the README
walkthrough. Only the CLI commands are timed; the benchmark's own steps
between them (planting duplicates, building gold and predictions) are not.
The round's figures go to ``result.json`` in the run directory.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

import inputs
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MOCK_SEED = "11"  # the program's own seed; the input seed only shapes the generated files

# CLI commands per round; an http_stub round also counts its backend requests
COMMANDS = {"forest": 10, "wide_tree": 6, "http_stub": 3}


class CommandFailed(Exception):
    pass


class Round:
    def __init__(self, cli_main, tracer):
        self.cli_main = cli_main
        self.tracer = tracer
        self.seconds: dict[str, float] = defaultdict(float)
        self.done = 0

    def cli(self, *argv: object) -> None:
        args = [str(a) for a in argv]
        start = time.perf_counter()
        code = self.cli_main(args)
        end = time.perf_counter()
        self.seconds[args[0]] += end - start
        if self.tracer is not None:
            self.tracer.cli_span(args[0], start, end)
        if code != 0:
            raise CommandFailed(f"dived {args[0]} exited {code}")
        self.done += 1


def _generation(r: Round, ontology: Path, out: Path, shape: dict, backend: list[str]) -> None:
    r.cli("curate-defs", "--ontology", ontology, *backend, "--out", out / "defs.jsonl")
    r.cli("curate-samples", "--dataset", out / "defs.jsonl", *backend, "--per-event", shape["per_event"],
          "--out", out / "samples.jsonl")
    r.cli("expand-defs", "--dataset", out / "samples.jsonl", *backend, "--count", shape["count"],
          "--out", out / "expanded.jsonl")


def _assemble(r: Round, out: Path, spec: dict, name: str, *extra: str) -> None:
    r.cli("assemble", "--dataset", out / "pruned.jsonl", "--events", spec["events"],
          "--definitions", spec["definitions"], "--samples", spec["samples"], "--negatives", spec["negatives"],
          "--hard-negatives", spec["hard_negatives"], "--ontology", "--seed", MOCK_SEED, *extra, "--out", out / name)


def run_forest(r: Round, inp: Path, out: Path, shape: dict, layout, seed: int, backend: list[str]) -> dict:
    r.cli("ingest", "--ontology", inp / "ontology.jsonl", "--heldout", layout.heldout, "--out", out / "filtered.jsonl")
    _generation(r, out / "filtered.jsonl", out, shape, backend)
    r.cli("prune", "--dataset", out / "expanded.jsonl", "--out", out / "pruned.jsonl", "--audit", out / "audit.jsonl")
    _assemble(r, out, shape["slice"], "train.jsonl")
    _assemble(r, out, shape["slice"], "train_nodef.jsonl", "--no-definition")
    inputs.write_gold(out / "train.jsonl", out / "gold.jsonl")
    planted = {
        "baseline": inputs.write_predictions(out / "train.jsonl", out / "pred.jsonl", seed, "baseline"),
        "ablated": inputs.write_predictions(out / "train_nodef.jsonl", out / "pred_nodef.jsonl", seed, "ablated"),
    }
    r.cli("score", "--gold", out / "gold.jsonl", "--pred", out / "pred.jsonl", "--out", out / "report.json")
    r.cli("score", "--gold", out / "gold.jsonl", "--pred", out / "pred_nodef.jsonl", "--out", out / "report_nodef.json")
    r.cli("ablate-report", "--baseline", out / "report.json", "--ablated", out / "report_nodef.json",
          "--out", out / "drops.json")
    return planted


def run_wide_tree(r: Round, inp: Path, out: Path, shape: dict, layout, seed: int, backend: list[str]) -> dict:
    _generation(r, inp / "ontology.jsonl", out, shape, backend)
    inputs.plant_duplicates(out / "expanded.jsonl", out / "expanded_planted.jsonl", layout.planted)
    r.cli("prune", "--dataset", out / "expanded_planted.jsonl", "--out", out / "pruned.jsonl",
          "--audit", out / "audit.jsonl")
    _assemble(r, out, shape["slice"], "train.jsonl")
    inputs.write_gold(out / "train.jsonl", out / "gold.jsonl")
    planted = {"baseline": inputs.write_predictions(out / "train.jsonl", out / "pred.jsonl", seed, "baseline")}
    r.cli("score", "--gold", out / "gold.jsonl", "--pred", out / "pred.jsonl", "--out", out / "report.json")
    return planted


def run_http_stub(r: Round, inp: Path, out: Path, shape: dict, layout, seed: int, backend: list[str]) -> dict:
    _generation(r, inp / "ontology.jsonl", out, shape, backend)
    return {}


RUNNERS = {"forest": run_forest, "wide_tree": run_wide_tree, "http_stub": run_http_stub}


def _peak_rss_kb() -> int:
    """This process's own high-water RSS. ``ru_maxrss`` would not do: Linux
    carries the parent's high-water mark across the exec that started us."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Stub:
    """The chat-completion stub as a child process of this worker."""

    def __init__(self, shape: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--latency-ms", str(shape["latency_ms"]),
             "--reject-every", str(shape["reject_every"])],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError("the stub did not report its port")
        self.url = f"http://127.0.0.1:{line.strip()}"

    def stats(self) -> dict:
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(f"{self.url}/stats", timeout=30) as resp:
            return json.load(resp)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from dived.cli import main as cli_main

    workload, seed, shape = spec["workload"], spec["seed"], spec["shape"]
    rundir = Path(spec["rundir"])
    inp, out = rundir / "in", rundir / "out"
    inp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    layout = inputs.layout_for(workload, seed, shape)
    layout.write(inp / "ontology.jsonl")

    backend = ["--backend", "mock", "--seed", MOCK_SEED]
    stub = None
    if workload == "http_stub":
        os.environ["DIVED_API_KEY"] = "benchmark-stub"
        os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        stub = Stub(shape)
        backend = ["--backend", "http", "--endpoint", f"{stub.url}/v1/chat/completions", "--model", "stub"]
    max_in_flight = spec.get("max_in_flight") or shape.get("max_in_flight")
    if max_in_flight:
        backend += ["--max-in-flight", str(max_in_flight)]

    try:
        tracer = None
        if spec["trace"]:
            tracer = Tracer()
            tracer.install()
        result: dict = {"first_stage": time.monotonic()}
        if not spec["setup_only"]:
            r = Round(cli_main, tracer)
            planted, error = {}, None
            try:
                planted = RUNNERS[workload](r, inp, out, shape, layout, seed, backend)
            except CommandFailed as exc:
                error = str(exc)
            peak_kb = _peak_rss_kb()
            stats = stub.stats() if stub is not None else None
            attempted = COMMANDS[workload]
            failed = attempted - r.done
            if stats is not None:
                requests = 2 * sum(1 for _, p in layout.rows if p is None) + len(layout.rows)
                attempted += requests
                failed += max(requests - stats["replies_200"], 0)
            result.update({
                "pipeline_s": sum(r.seconds.values()),
                "cli_s": r.seconds,
                "peak_rss_mb": peak_kb / 1024.0,
                "attempted": attempted,
                "failed": failed,
                "error": error,
                "planted": planted,
                "stub": stats,
            })
            if tracer is not None:
                result["layers"] = tracer.metrics(r.seconds, stats)
                result["request_ms"] = tracer.request_ms
                tracer.write_spans(rundir / "spans.jsonl")
    finally:
        if stub is not None:
            stub.stop()
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

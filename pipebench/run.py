"""Pipeline benchmark for dived: ``python3 pipebench/run.py [--workload NAME]``.

Run from the root of a checkout. With ``--workload`` it measures one
workload and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``. Without it, it runs every
workload, each in its own process, and prints each one's result.

A run first times a few set-ups alone, then repeats whole rounds of the
workload, each round in a fresh worker process (``worker.py``), until
``--seconds`` have passed. The first round's outputs are checked against
computations made apart from the program (``checks.py``); every later round
must reproduce them byte for byte. With ``--trace 1`` rounds alternate
between traced and untraced, and the run reports the layer metrics of the
traced rounds and the tracing overhead instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("forest", "wide_tree", "http_stub")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _spawn(rundir: Path, spec: dict) -> dict:
    """Run one worker; its set-up time runs from here to its first stage."""
    shutil.rmtree(rundir / "out", ignore_errors=True)
    (rundir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users import dived from cached bytecode
    log = rundir / "worker.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(rundir / "spec.json")],
                                cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the worker and its stub, if any
            proc.wait()
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        tail = log.read_text(errors="replace").splitlines()[-15:]
        raise BenchError(f"worker exited {code}:\n" + "\n".join(tail))
    result = json.loads((rundir / "result.json").read_text())
    result["setup_s"] = result["first_stage"] - start
    return result


def _digests(out: Path) -> dict[str, str]:
    """Digests of every output file except manifests, whose timestamps differ."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shape = inputs.SHAPES[workload]
    rundir = BENCH_DIR / ".runs" / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    layout = inputs.layout_for(workload, seed, shape)
    base = {"workload": workload, "seed": seed, "shape": shape, "rundir": str(rundir),
            "max_in_flight": None, "trace": False, "setup_only": True}

    _spawn(rundir, base)  # warm-up: bytecode caches and page cache, not counted
    setups = [_spawn(rundir, base)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds: list[dict] = []
    correct, reference = True, None
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 0
        result = _spawn(rundir, {**base, "trace": traced, "setup_only": False})
        rounds.append(result)
        if result["error"]:
            print(f"{workload}: {result['error']}", file=sys.stderr)
            correct = False
            continue
        digests = _digests(rundir / "out")
        if reference is None:
            reference = digests
            try:
                checks.check_round(workload, rundir, layout, shape, result)
            except checks.CheckError as exc:
                print(f"{workload}: check failed: {exc}", file=sys.stderr)
                correct = False
        elif digests != reference:
            changed = sorted(k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k))
            print(f"{workload}: round {len(rounds)} outputs differ from round 1: {changed}", file=sys.stderr)
            correct = False

    plain = [r for r in rounds if "layers" not in r]
    if trace:
        traced_rounds = [r for r in rounds if "layers" in r]
        samples = [ms for r in traced_rounds for ms in r["request_ms"]]
        values = {name: statistics.median(r["layers"][name] for r in traced_rounds) for name in LAYER_METRICS
                  if not name.startswith("trace.")}
        values["llm_client.request_samples"] = len(samples)
        if len(samples) > 1:
            values["llm_client.request_p50_ms"] = statistics.median(samples)
            values["llm_client.request_p99_ms"] = statistics.quantiles(samples, n=100, method="inclusive")[98]
        traced_s = statistics.median(r["pipeline_s"] for r in traced_rounds)
        values["trace.pipeline_s"] = traced_s
        values["trace.overhead_s"] = traced_s - statistics.median(r["pipeline_s"] for r in plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
            "pipeline_s": statistics.median(r["pipeline_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def _run_all(args: argparse.Namespace) -> int:
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark failed (exit {proc.returncode})")
            code = 1
            continue
        result = json.loads(lines[-1])
        figures = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}; {figures}")
        print(lines[-1])
        code |= 0 if result["correct"] and not result["failed"] else 1
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description="dived pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=30, help="how long to repeat rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report layer metrics")
    args = parser.parse_args()
    if not (ROOT / "src" / "dived" / "cli.py").is_file():
        print(f"error: no dived sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 1
    if args.workload is None:
        return _run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

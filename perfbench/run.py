"""Benchmark of the `codim` commands: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload step_stream --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout that has `src/codimgeo`; nothing is built
or installed.  A run is a sequence of passes, one after another and never
concurrent.  Each pass runs the workload's whole op list in a fresh
interpreter (perfbench/worker.py), so the library's caches start cold as they
do for a user, and the pass's checks decide which ops failed.  Passes repeat
while another one still fits in `--seconds`; each metric is the median over
passes, so set-up time too is the median over the passes' interpreters.
End-to-end times are stated at the fixed machine speed of reference.py,
because the host's own speed drifts by tens of percent within a run.

With `--trace 1` passes alternate between untraced and traced, and the
per-layer metrics (medians over traced passes) are reported instead, with
the tracing overhead.  Counters must agree exactly between traced passes.

Human-readable lines go to stderr.  Stdout gets one provenance record line
(`{"record": ...}`) and, last, the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))
from reference import REF_REP_S  # noqa: E402
from tracing import EXACT_COUNTERS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a run ends before this many seconds, whatever --seconds asks
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str], timeout: float) -> dict:
    """Run the worker once; its result plus the set-up time seen from here."""
    env = {k: v for k, v in os.environ.items() if k != "CODIM_MAX_N"}
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), *args],
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    result["pass_s"] = time.perf_counter() - started
    return result


def normalised(result: dict) -> list[float]:
    """Each op's time at the reference speed, by the mean of the reference bursts just before and after it."""
    ref = result["ref_rep_s"]
    return [t * REF_REP_S / ((a + b) / 2) for t, a, b in zip(result["op_s"], ref, ref[1:])]


def pass_metrics(result: dict) -> dict[str, float]:
    """End-to-end values of one pass: the program's time, not the checks'.

    Times are at the reference speed; set-up is scaled by the reference
    burst that follows the import.  The raw times stay in the record.
    """
    ref = result["ref_rep_s"]
    result["op_norm_s"] = normalised(result)
    wall = sum(result["op_norm_s"])
    return {
        "wall_s": wall,
        "setup_s": result["setup_s"] * REF_REP_S / ref[0],
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
        "ops_per_s": len(result["op_s"]) / wall,
        "raw_wall_s": sum(result["op_s"]),
        "raw_setup_s": result["setup_s"],
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree or git is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    work = ["--workload", args.workload, "--seed", str(args.seed)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        tracing = bool(args.trace) and len(traced) < len(plain)
        result = spawn(work + ["--trace"] * tracing, left())
        (traced if tracing else plain).append(result)
        if args.trace and not traced:
            continue
        longest = max(r["pass_s"] for r in plain + traced)
        if time.perf_counter() - started + longest > args.seconds or left() < longest:
            break

    failures = [f for r in plain + traced for f in r["failures"]]
    failed = len(failures)  # failed ops; a counter mismatch below fails the run, not an op
    attempted = sum(len(r["op_s"]) for r in plain + traced)
    passes = [pass_metrics(r) for r in plain]
    record = {
        **provenance(args),
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(plain[0]["op_s"]),
        "per_pass": passes,
        "failures": failures,
    }
    if args.trace:
        layers = [r["layers"] for r in traced]
        for name in EXACT_COUNTERS:
            if len({layer[name] for layer in layers}) != 1:
                failures.append(f"counter {name} differs between traced passes")
        metrics = {name: (statistics.median(l[name] for l in layers), unit) for name, unit in LAYER_METRICS.items()}
        # raw, as the layer times are; the overhead compares times at the reference speed
        metrics["trace.wall_s"] = (statistics.median(sum(r["op_s"]) for r in traced), "s")
        traced_wall = statistics.median(sum(normalised(r)) for r in traced)
        plain_wall = statistics.median(p["wall_s"] for p in passes)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        record["per_traced_pass"] = layers
    else:
        medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        # an op's latency is its median over the passes; percentiles run over ops
        op_ms = [statistics.median(times) * 1000 for times in zip(*(r["op_norm_s"] for r in plain))]
        deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
        medians.update(op_p50_ms=deciles[4], op_p90_ms=deciles[8])
        metrics = {name: (medians[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "codimgeo" / "cli.py").is_file():
        print(f"error: no codimgeo source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    rate = result["failed"] / result["attempted"]
    print(
        f"{args.workload} seed={args.seed}: {record['passes']} passes "
        f"({record['traced_passes']} traced), {result['attempted']} ops, error_rate {rate:g}",
        file=sys.stderr,
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

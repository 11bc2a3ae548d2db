"""Self-check of the benchmark: metric names, exact counters and layer coverage.

    python3 perfbench/selfcheck.py

For each workload it makes one untraced run and two traced runs with the
same seed, one after another, and fails (exit 1) when

- a run is not correct or an op failed;
- the metric names a run emits are not exactly the `end_to_end` (untraced)
  or `per_layer` (traced) names in BENCHMARK.json;
- an exact counter differs between the two traced runs;
- the layer self times of a traced run do not add up to within 10% of its
  traced wall time;
- on `step_stream`, the self time of `enumerate_chunk_preserving`
  (`greedy.enum_s`) is not larger than the rest of `greedy`'s self time and
  than every other layer's self time.

It also prints the tracing overhead and the largest self times per workload.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracing import EXACT_COUNTERS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 1
SELF_TIME_TOLERANCE = 0.10


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def enum_problem(run: dict) -> str | None:
    """Why `greedy.enum_s` is not the largest self time of a traced run, or None."""
    enum = run["greedy.enum_s"]
    others = {f"{layer}.self_s": run[f"{layer}.self_s"] for layer in LAYERS if layer != "greedy"}
    others["rest of greedy.self_s"] = run["greedy.self_s"] - enum
    name, largest = max(others.items(), key=lambda item: item[1])
    return None if enum > largest else f"greedy.enum_s {enum:.3f} s is not above {name} {largest:.3f} s"


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {key: [m["name"] for m in spec[key]] for key in ("end_to_end", "per_layer")}
    problems = []
    for workload in WORKLOADS:
        plain = bench(workload, 0)
        first, second = (bench(workload, 1) for _ in range(2))
        for label, result, key in (("untraced", plain, "end_to_end"), ("traced", first, "per_layer"),
                                   ("traced", second, "per_layer")):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {label} run failed {result['failed']} ops")
            if sorted(result["metrics"]) != sorted(names[key]):
                problems.append(f"{workload}: {label} metrics are not BENCHMARK.json's {key}")
        values = [{k: m["value"] for k, m in r["metrics"].items()} for r in (first, second)]
        for name in EXACT_COUNTERS:
            if values[0][name] != values[1][name]:
                problems.append(f"{workload}: {name} is {values[0][name]} then {values[1][name]}")
        for run in values:
            self_sum = sum(run[f"{layer}.self_s"] for layer in LAYERS)
            if abs(self_sum - run["trace.wall_s"]) > SELF_TIME_TOLERANCE * run["trace.wall_s"]:
                problems.append(f"{workload}: self times add to {self_sum:.3f} s of {run['trace.wall_s']:.3f} s")
            if workload == "step_stream" and (problem := enum_problem(run)) is not None:
                problems.append(f"{workload}: {problem}")
        run = values[0]
        top = sorted((f"{layer}.self_s" for layer in LAYERS), key=run.get, reverse=True)
        print(
            f"{workload}: traced wall {run['trace.wall_s']:.3f} s, overhead {run['trace.overhead_s']:+.3f} s, "
            f"greedy.enum_s {run['greedy.enum_s']:.3f}; "
            + ", ".join(f"{n} {run[n]:.3f}" for n in top[:4])
        )
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

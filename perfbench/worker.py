"""One pass of a workload in a fresh interpreter: import, run every op, check it.

Started by run.py as `python3 -I perfbench/worker.py ...`.  The first thing it
does is import `codimgeo.cli` from the checkout's `src/`, and the monotonic
clock reading right after that import is reported, so the parent can measure
set-up from process start.  Each op then calls `codimgeo.cli.main(argv)`
in-process from this single thread, with stdout and stderr captured and a
per-op timer; the op's time is the call alone, its check runs afterwards.

The host's speed drifts by tens of percent over seconds to minutes, so the
worker also times the reference kernel of reference.py: one burst right
after the import, and one after every op, sized to about a tenth of the
op's time.  run.py divides the times by these timings.
Prints one JSON object on stdout.
"""
import sys
import time
from os import path

HERE = path.dirname(path.abspath(__file__))
sys.path.insert(0, path.join(path.dirname(HERE), "src"))
import codimgeo.cli  # noqa: E402  (the import is what set-up measures)

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

sys.path.insert(0, HERE)
from reference import REF_REP_S, reference_burst  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout


REF_SHARE = 0.1  # reference time after an op, as a share of the op's time
REF_FIRST_REPS = 20  # reference reps right after the import


def run_op(op) -> tuple[float, str | None]:
    """Seconds spent in `cli.main`, and why the op failed (None if it did not)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, op.timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = codimgeo.cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return time.perf_counter() - start, f"timed out after {op.timeout_s} s"
    except Exception as exc:  # a crash fails this op; the pass goes on
        signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - start, f"raised {exc!r}"
    try:
        failure = op.check(code, out.getvalue())
    except (KeyError, TypeError, ValueError) as exc:  # output of the wrong shape
        failure = f"unexpected output ({exc!r})"
    if failure is not None and err.getvalue():
        failure += f"; stderr: {err.getvalue().strip()[:200]}"
    return elapsed, failure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    ops = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    times, failures = [], []
    ref = [reference_burst(REF_FIRST_REPS)]
    for index, op in enumerate(ops):
        elapsed, failure = run_op(op)
        times.append(elapsed)
        ref.append(reference_burst(max(1, round(REF_SHARE * elapsed / REF_REP_S))))
        if failure is not None:
            failures.append(f"op {index} ({' '.join(op.argv[:3])} ...): {failure}")
    result = {
        "imported_at": IMPORTED_AT,
        "op_s": times,
        "ref_rep_s": ref,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

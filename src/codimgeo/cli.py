"""Command-line surface: mahonian, bounds, crossover, verify, greedy, reduce.

Formats: human table (default), CSV (header always present, comma-delimited,
no quoting needed), and JSON.  Output is byte-deterministic; --meta prepends
provenance comment lines (a "meta" object in JSON).  Exit codes: 0 success,
1 verification or falsification failure, 2 usage or precondition error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import compare_bounds, crossover_n, report_csv_lines, report_json
from .errors import FalsificationError, ScaleError
from .greedy import annotated, chunk_stats, greedy_form_json, left_greedy_form
from .mahonian import (
    brute_force_row,
    mahonian_knuth,
    mahonian_row,
    row_csv_lines,
    row_json,
)
from .perm import parse_permutation, word_length
from .reduction import classic_step, main_closure, main_step, classic_closure, trace_json
from .verify import SUITES, check_request, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


def _emit(args, lines: list[str] | None, payload: dict | None, command: str) -> None:
    """Render the chosen format with optional provenance and write it out."""
    if args.format == "json":
        if payload is None:
            raise ValueError(f"{command}: no JSON payload to write")
        if args.meta:
            payload = {"meta": {"tool": "codimgeo", "version": __version__, "command": command}, **payload}
        text = json.dumps(payload, indent=2)
    else:
        if lines is None:
            raise ValueError(f"{command}: no {args.format} lines to write")
        prefix = []
        if args.meta:
            prefix = [f"# tool: codimgeo {__version__}", f"# command: {command}"]
        text = "\n".join(prefix + lines)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)


def _cmd_mahonian(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    row = mahonian_row(args.n)
    check_note = None
    if args.check:
        for k in range(0, args.n + 1):
            if mahonian_knuth(args.n, k) != row.coefficient(k):
                print(f"error: closed form disagrees at k={k}", file=sys.stderr)
                return EXIT_FAIL
        if args.n <= 8:
            if brute_force_row(args.n).coefficients != row.coefficients:
                print("error: brute-force histogram disagrees", file=sys.stderr)
                return EXIT_FAIL
            check_note = "check: OK (closed form k <= n; brute force)"
        else:
            check_note = "check: OK (closed form k <= n)"
    command = f"mahonian --n {args.n}" + (" --check" if args.check else "")
    if args.format == "csv":
        lines = ["n,k,count"] + row_csv_lines(row)
    else:
        lines = _render_table(
            ["k", "count"], [[str(k), str(c)] for k, c in enumerate(row.coefficients)]
        )
        if check_note:
            lines.append(check_note)
    payload = row_json(row)
    if args.check:
        payload["check"] = "ok"
    _emit(args, lines, payload, command)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = compare_bounds(args.d, args.n_max)
    command = f"bounds --d {args.d} --n-max {args.n_max}"
    csv_lines = report_csv_lines(report)
    if args.format == "csv":
        lines = csv_lines
    else:
        header = csv_lines[0].split(",")
        rows = [line.split(",") for line in csv_lines[1:]]
        lines = _render_table(header, rows)
    _emit(args, lines, report_json(report), command)
    return EXIT_OK


def _cmd_crossover(args) -> int:
    if args.d_max < 2:
        print("error: --d-max must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    pairs = [(d, crossover_n(d)) for d in range(2, args.d_max + 1)]
    command = f"crossover --d-max {args.d_max}"
    if args.format == "csv":
        lines = ["d,n"] + [f"{d},{n}" for d, n in pairs]
    else:
        lines = _render_table(["d", "n"], [[str(d), str(n)] for d, n in pairs])
    payload = {"rows": [{"d": d, "n": n} for d, n in pairs]}
    _emit(args, lines, payload, command)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = [s.strip() for s in args.suites.split(",")] if args.suites else list(SUITES)
    for name in names:
        check_request(name, args.n_max)  # reject a bad request before any work
    results = [run_suite(name, args.n_max) for name in names]
    command = "verify" + (f" --n-max {args.n_max}" if args.n_max is not None else "")
    if args.suites:
        command += f" --suites {args.suites}"
    rows = []
    failing = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failing = failing or not r.passed
        rows.append([r.name, str(r.n_max), str(r.checked), status])
    if args.format == "csv":
        lines = ["suite,n_max,checked,status"]
        for row in rows:
            lines.append(",".join(row))
    else:
        lines = _render_table(["suite", "n_max", "checked", "status"], rows)
        for r in results:
            for note in r.info:
                lines.append(f"  {r.name}: {note}")
            for failure in r.failures[:20]:
                lines.append(f"  {r.name} counterexample: {failure}")
    payload = {
        "suites": [
            {
                "name": r.name,
                "n_max": r.n_max,
                "checked": r.checked,
                "passed": r.passed,
                "failures": list(r.failures),
                "info": list(r.info),
            }
            for r in results
        ]
    }
    _emit(args, lines, payload, command)
    return EXIT_FAIL if failing else EXIT_OK


def _cmd_greedy(args) -> int:
    perm = parse_permutation(args.perm)
    form = left_greedy_form(perm)
    stats = chunk_stats(perm)
    command = f"greedy --perm {args.perm}"
    span_rows = []
    for idx, chunk in enumerate(form.chunks):
        gap = form.gaps[idx]
        if gap is not None:
            span_rows.append(["y", str(idx), str(gap.start), str(gap.end)])
        span_rows.append(["c", str(idx + 1), str(chunk.start), str(chunk.end)])
    if form.gaps[-1] is not None:
        last = form.gaps[-1]
        span_rows.append(["y", str(form.k), str(last.start), str(last.end)])
    if args.format == "csv":
        lines = ["kind,index,start,end"] + [",".join(r) for r in span_rows]
    else:
        lines = [f"word: {perm}", f"form: {annotated(form)}"]
        lines += _render_table(["kind", "index", "start", "end"], span_rows)
        lines.append(
            f"chunks: {stats.chunk_count}  chunk letters: {stats.total_chunk_length}  "
            f"word length: {stats.word_length}"
        )
    payload = greedy_form_json(form)
    payload["stats"] = {
        "chunk_count": stats.chunk_count,
        "total_chunk_length": stats.total_chunk_length,
        "word_length": stats.word_length,
    }
    _emit(args, lines, payload, command)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    if args.closure:
        if args.n is None or args.perm is not None:
            print("error: --closure takes --n, not --perm", file=sys.stderr)
            return EXIT_USAGE
        closure = classic_closure if args.mode == "classic" else main_closure
        trace = closure(args.n, args.d)
        command = f"reduce --n {args.n} --d {args.d} --mode {args.mode} --closure"
        summary = [
            ("sources", str(len(trace.sources))),
            ("visited", str(trace.visited)),
            ("max_depth", str(trace.max_depth)),
            ("terminal_size", str(len(trace.terminal_support))),
        ]
        if trace.complement_size is not None:
            summary.append(("complement_size", str(trace.complement_size)))
        if args.format == "csv":
            lines = ["key,value"] + [f"{k},{v}" for k, v in summary]
        else:
            lines = _render_table(["key", "value"], [[k, v] for k, v in summary])
        _emit(args, lines, trace_json(trace, summary_only=args.summary_only), command)
        return EXIT_OK
    if args.perm is None:
        print("error: need --perm for a single step (or --closure with --n)", file=sys.stderr)
        return EXIT_USAGE
    perm = parse_permutation(args.perm)
    step = classic_step if args.mode == "classic" else main_step
    children = step(perm, args.d)
    command = f"reduce --perm {args.perm} --d {args.d} --mode {args.mode}"
    rows = [[str(c), str(word_length(c))] for c in children]
    if args.format == "csv":
        lines = ["child,word_length"] + [",".join(r) for r in rows]
    else:
        lines = [f"parent: {perm}  |sigma| = {word_length(perm)}"]
        lines += _render_table(["child", "word_length"], rows)
    payload = {
        "mode": args.mode,
        "d": args.d,
        "parent": str(perm),
        "children": [{"perm": str(c), "word_length": word_length(c)} for c in children],
    }
    _emit(args, lines, payload, command)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--output", metavar="FILE", default=None)
    common.add_argument("--meta", action="store_true", help="add provenance headers")

    parser = argparse.ArgumentParser(
        prog="codim",
        description="Exact permutation geometry and spanning-set bound calculators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mahonian", parents=[common], help="inversion-count distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true", help="cross-validate the row")
    p.set_defaults(handler=_cmd_mahonian)

    p = sub.add_parser("bounds", parents=[common], help="bound comparison report")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("crossover", parents=[common], help="least n with (d-1)^(2n) < n!")
    p.add_argument("--d-max", type=int, required=True)
    p.set_defaults(handler=_cmd_crossover)

    p = sub.add_parser("verify", parents=[common], help="exhaustive property suites")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--suites", default=None, help="comma-separated suite names")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("greedy", parents=[common], help="left greedy form of a word")
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 1,3,2,4")
    p.set_defaults(handler=_cmd_greedy)

    p = sub.add_parser("reduce", parents=[common], help="rewrite steps and closures")
    p.add_argument("--perm", default=None, help="one-line notation for a single step")
    p.add_argument("--n", type=int, default=None, help="degree for --closure")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("classic", "main"), required=True)
    p.add_argument("--closure", action="store_true")
    p.add_argument("--summary-only", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

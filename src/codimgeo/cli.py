"""Command-line surface: mahonian, bounds, crossover, verify, greedy, reduce.

Each command's handler computes one Result and does no output; _render alone
writes it as a human table (default), CSV (header always present,
comma-delimited, no quoting needed) or JSON.  Output is byte-deterministic;
--meta prepends provenance comment lines (a "meta" object in JSON).  Exit
codes: 0 success, 1 verification or falsification failure, 2 usage or
precondition error (an unwritable --output included).  A --perm argument is
validated once, as a Permutation; everything past that takes its image tuple.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .bounds import compare_bounds, crossover_n
from .errors import FalsificationError, ScaleError
from .greedy import chunk_stats, left_greedy_form
from .mahonian import brute_force_row, mahonian_knuth, mahonian_row
from .perm import one_line, parse_permutation, word_length
from .reduction import classic_step, main_closure, main_step, classic_closure
from .verify import SUITES, check_request, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Result:
    """What one command produced, before it is rendered in the chosen format.

    Table and CSV show columns and rows (raw cell values, printed with str);
    JSON shows payload.  The table leaves out the first csv_only columns and
    adds the lines before and after it.  failed marks a falsified claim.
    """

    command: str
    columns: tuple[str, ...]
    rows: list[tuple]
    payload: dict
    before: tuple[str, ...] = ()
    after: tuple[str, ...] = ()
    csv_only: int = 0
    failed: bool = False


def _render(args, result: Result) -> None:
    """Write the result as a table, CSV or JSON, with optional provenance."""
    if args.format == "json":
        payload = result.payload
        if args.meta:
            meta = {"tool": "codimgeo", "version": __version__, "command": result.command}
            payload = {"meta": meta, **payload}
        text = json.dumps(payload, indent=2)
    else:
        lines = []
        if args.meta:
            lines += [f"# tool: codimgeo {__version__}", f"# command: {result.command}"]
        if args.format == "csv":
            lines.append(",".join(result.columns))
            lines += [",".join(map(str, row)) for row in result.rows]
        else:
            skip = result.csv_only
            cells = [result.columns[skip:]] + [[str(c) for c in row[skip:]] for row in result.rows]
            widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
            lines += result.before
            lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
            lines += result.after
        text = "\n".join(lines)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    else:
        print(text)


def _cmd_mahonian(args) -> Result:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    row = mahonian_row(args.n)
    after = ()
    if args.check:
        for k in range(0, args.n + 1):
            if mahonian_knuth(args.n, k) != row.coefficient(k):
                raise FalsificationError(f"closed form disagrees at k={k}")
        brute = args.n <= 8
        if brute and brute_force_row(args.n).coefficients != row.coefficients:
            raise FalsificationError("brute-force histogram disagrees")
        after = ("check: OK (closed form k <= n" + ("; brute force)" if brute else ")"),)
    counts = [str(c) for c in row.coefficients]
    payload = {"n": row.n, "coefficients": counts}
    if args.check:
        payload["check"] = "ok"
    return Result(
        command=f"mahonian --n {args.n}" + (" --check" if args.check else ""),
        columns=("n", "k", "count"),
        rows=[(row.n, k, c) for k, c in enumerate(counts)],
        payload=payload,
        after=after,
        csv_only=1,
    )


def _cmd_bounds(args) -> Result:
    report = compare_bounds(args.d, args.n_max)
    columns = ("n", "classic", "theorem", "phi", "factorial", "winner")
    rows = [
        (r.n, str(r.classic), str(r.theorem), str(r.phi), str(r.factorial), r.winner)
        for r in report.rows
    ]
    return Result(
        command=f"bounds --d {args.d} --n-max {args.n_max}",
        columns=columns,
        rows=rows,
        payload={"d": report.d, "rows": [dict(zip(columns, row)) for row in rows]},
    )


def _cmd_crossover(args) -> Result:
    if args.d_max < 2:
        raise ValueError("--d-max must be at least 2")
    columns = ("d", "n")
    rows = [(d, crossover_n(d)) for d in range(2, args.d_max + 1)]
    return Result(
        command=f"crossover --d-max {args.d_max}",
        columns=columns,
        rows=rows,
        payload={"rows": [dict(zip(columns, row)) for row in rows]},
    )


def _cmd_verify(args) -> Result:
    names = [s.strip() for s in args.suites.split(",")] if args.suites else list(SUITES)
    for name in names:
        check_request(name, args.n_max)  # reject a bad request before any work
    results = [run_suite(name, args.n_max) for name in names]
    command = "verify" + (f" --n-max {args.n_max}" if args.n_max is not None else "")
    if args.suites:
        command += f" --suites {args.suites}"
    after = []
    for r in results:
        after += [f"  {r.name}: {note}" for note in r.info]
        after += [f"  {r.name} counterexample: {failure}" for failure in r.failures[:20]]
    suites = [
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
    return Result(
        command=command,
        columns=("suite", "n_max", "checked", "status"),
        rows=[(r.name, r.n_max, r.checked, "PASS" if r.passed else "FAIL") for r in results],
        payload={"suites": suites},
        after=tuple(after),
        failed=not all(r.passed for r in results),
    )


def _cmd_greedy(args) -> Result:
    perm = parse_permutation(args.perm).image
    form = left_greedy_form(perm)
    stats = chunk_stats(perm)
    tiles = []  # (kind, index, span) in word order: y_0 c_1 y_1 ... c_k y_k
    for idx, gap in enumerate(form.gaps):
        if gap is not None:
            tiles.append(("y", idx, gap))
        if idx < form.k:
            tiles.append(("c", idx + 1, form.chunks[idx]))
    shown = []  # gaps in parentheses, chunks in brackets: "(1) [3 2] (4)"
    for kind, _, span in tiles:
        letters = " ".join(str(perm[i - 1]) for i in span.positions())
        shown.append(f"({letters})" if kind == "y" else f"[{letters}]")
    payload = {
        "perm": one_line(perm),
        "chunks": [[c.start, c.end] for c in form.chunks],
        "gaps": [None if g is None else [g.start, g.end] for g in form.gaps],
        "stats": asdict(stats),
    }
    return Result(
        command=f"greedy --perm {args.perm}",
        columns=("kind", "index", "start", "end"),
        rows=[(kind, idx, span.start, span.end) for kind, idx, span in tiles],
        payload=payload,
        before=(f"word: {one_line(perm)}", f"form: {' '.join(shown) or '()'}"),
        after=(
            f"chunks: {stats.chunk_count}  chunk letters: {stats.total_chunk_length}  "
            f"word length: {stats.word_length}",
        ),
    )


def _cmd_reduce(args) -> Result:
    if args.closure:
        if args.n is None or args.perm is not None:
            raise ValueError("--closure takes --n, not --perm")
        closure = classic_closure if args.mode == "classic" else main_closure
        trace = closure(args.n, args.d)
        rows = [
            ("sources", len(trace.sources)),
            ("visited", trace.visited),
            ("max_depth", trace.max_depth),
            ("terminal_size", len(trace.terminal_support)),
        ]
        if trace.complement_size is not None:
            rows.append(("complement_size", trace.complement_size))
        # the JSON summary has no source count; the full payload lists the sources
        payload = {"mode": trace.mode, "n": trace.n, "d": trace.d, "summary": dict(rows[1:])}
        if not args.summary_only:
            payload["sources"] = [one_line(p) for p in trace.sources]
            payload["steps"] = {
                one_line(parent): [one_line(c) for c in children]
                for parent, children in trace.steps
            }
            payload["terminal"] = sorted(one_line(p) for p in trace.terminal_support)
        return Result(
            command=f"reduce --n {args.n} --d {args.d} --mode {args.mode} --closure",
            columns=("key", "value"),
            rows=rows,
            payload=payload,
        )
    if args.perm is None:
        raise ValueError("need --perm for a single step (or --closure with --n)")
    perm = parse_permutation(args.perm).image
    step = classic_step if args.mode == "classic" else main_step
    rows = [(one_line(c), word_length(c)) for c in step(perm, args.d)]
    payload = {
        "mode": args.mode,
        "d": args.d,
        "parent": one_line(perm),
        "children": [{"perm": c, "word_length": length} for c, length in rows],
    }
    return Result(
        command=f"reduce --perm {args.perm} --d {args.d} --mode {args.mode}",
        columns=("child", "word_length"),
        rows=rows,
        payload=payload,
        before=(f"parent: {one_line(perm)}  |sigma| = {word_length(perm)}",),
    )


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
        result = args.handler(args)
        _render(args, result)
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_FAIL if result.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

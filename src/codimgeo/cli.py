"""Command-line surface: mahonian, bounds, crossover, verify, greedy, reduce.

Each command's handler computes one Result and does no output; _render alone
writes it as a human table (default), CSV (header always present,
comma-delimited, a cell holding a comma, a quote or a line break quoted,
one str.join per row; csv.writer's per-character scan took about six times
as long on the rows of mahonian --n 300) or JSON.  Output is
byte-deterministic; --meta prepends provenance comment lines (a "meta"
object in JSON).  Their command is rebuilt from the parsed arguments by
_command alone: flags in the parser's definition order, an abbreviation or
--flag=value form written out in full, values shell-quoted, and the output
flags (--format, --output, --meta) never recorded, so rerunning it with the
same output flags reproduces the output.  JSON is byte-identical to
json.dumps(payload, indent=2) but written by one stdlib writer
(_write_json, over _dump), since an indent sends json to its pure-Python
encoder.  A list of objects that share their keys (a step's children, the
bounds and crossover rows) is handed to it as a Table of keys and rows, the
rows Result.rows holds for table and CSV, and is written column by column:
each column's cells are rendered by one map and each row by one %-template
(_dump_table).
_render streams to one sink, stdout or the --output file opened once: table
and CSV lines are written as they are made, and JSON chunks are joined and
written whenever more than _JSON_BATCH are pending (a Table's rows, as
many as their dicts' chunks would be), so the whole text is never held.  A
reduce step prints each child's length from the step's block table and its
text joined from the blocks' text, in classic mode as in main mode, so it
counts, builds and renders no child.  A closure's word lists are rendered
only for JSON, the one format that prints them.
Exit codes: 0 success, 1 verification or falsification failure, 2 usage or
precondition error (a failed open, write or close of --output or stdout
included), 141 when the reader of stdout closed it early (as in
`codim ... | head`).
A --perm argument is validated once, as a Permutation; everything past
that takes its image tuple.  The parser is built on the first main() call
and reused for the rest of the process.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, TextIO

from . import __version__
from .bounds import compare_bounds, crossover_n
from .errors import FalsificationError
from .greedy import chunk_stats, left_greedy_form
from .mahonian import brute_force_row, mahonian_knuth, mahonian_row
from .perm import one_line, parse_permutation, word_length
from .reduction import _step_rows, classic_closure, main_closure
from .verify import SUITES, check_request, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

# mahonian --check also brute-forces rows up to this degree: brute_force_row
# takes about 0.06 s at n = 8 but 0.7 s at n = 9 (Python 3.11, 2-CPU Xeon), so
# the check stops one below mahonian.BRUTE_FORCE_MAX_N.
CHECK_BRUTE_FORCE_MAX_N = 8


@dataclass(frozen=True)
class Result:
    """What one command produced, before it is rendered in the chosen format.

    Table and CSV show columns and rows (raw cell values, printed with str);
    JSON shows payload, where a Table stands for its list of objects.  The
    table leaves out the first csv_only columns and adds the lines before
    and after it.  failed marks a falsified claim.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    payload: dict
    before: tuple[str, ...] = ()
    after: tuple[str, ...] = ()
    csv_only: int = 0
    failed: bool = False


@dataclass(frozen=True)
class Table:
    """A JSON list of objects given as its keys and rows: [dict(zip(keys, row)) ...].

    Each column holds only str or only exact int cells (_dump_table).
    """

    keys: tuple[str, ...]
    rows: list[tuple]


# _dump joins its pending chunks into one write once they pass this many, so
# a long payload is never held as one text (a chunk is a line or less).  It
# also keeps writes few: a sink that keeps each small write, such as an
# in-memory stdout, holds more when every chunk is written on its own (the
# bounds_scan benchmark's peak RSS went 34.0 -> 36.2-36.4 MiB that way;
# Python 3.11, 2-CPU shared host).
_JSON_BATCH = 1024


def _dump(obj, newline: str, out: list[str], write: Callable[[str], object]) -> None:
    """Append the chunks of json.dumps(obj, indent=2) to out, at indent newline.

    newline is "\n" and the current indent.  Strings are quoted by json's own
    escaper and exact ints by int.__repr__; a str list item goes out with its
    separator as one chunk, and a dict value after its key's chunk.  Any
    other scalar (bool, None, float) goes through json.dumps, so true, null,
    Infinity and NaN match by construction, a tuple renders as a list, and a
    Table as its list of objects (_dump_table).  A dict key must be a str:
    json would convert other keys, and no codim payload has one.  After each
    list item, more than _JSON_BATCH pending chunks are joined, passed to
    write and cleared.  Every long codim payload is a list or a Table or
    holds them, so a dict's own items go unchecked, which keeps small
    payloads cheap.
    """
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _dump(value, inner, out, write)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        sep = "[" + inner
        for item in obj:
            if isinstance(item, str):
                out.append(sep + _quote(item))
            else:
                out.append(sep)
                _dump(item, inner, out, write)
            sep = "," + inner
            if len(out) > _JSON_BATCH:
                write("".join(out))
                out.clear()
        out.append(newline + "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif isinstance(obj, Table):
        _dump_table(obj, newline, out, write)
    else:
        out.append(json.dumps(obj))


def _dump_table(
    table: Table, newline: str, out: list[str], write: Callable[[str], object]
) -> None:
    """Append the chunks of a Table's list of objects to out, at indent newline, column by column.

    Each column's cells are rendered in one C-level map: by json's escaper
    when all are str, by int.__repr__ when all are exact ints (so a bool is
    refused), else TypeError.  One %-template per table then formats each
    row.  As the dict form costs _dump a chunk per key and one more, every
    _JSON_BATCH // (keys + 1) rows are joined into one chunk and written with
    what is pending, so a table is held no longer at once than its list of
    objects would be.  A key must be a str, as in _dump, and each row
    as long as the keys (ValueError), since dict(zip(keys, row)) would drop
    cells.  No rows make [] whatever the keys, as the list of objects does.
    """
    if not table.rows:
        out.append("[]")
        return
    inner = newline + "  "
    cells = []
    fields = []
    for key, column in zip(table.keys, zip(*table.rows, strict=True), strict=True):
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        kinds = set(map(type, column))
        if kinds == {str}:
            cells.append(map(_quote, column))
        elif kinds == {int}:
            cells.append(map(int.__repr__, column))
        else:
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise TypeError(f"column {key!r} must be all str or all int, not {names}")
        fields.append(inner + "  " + _quote(key).replace("%", "%%") + ": %s")
    template = "{" + ",".join(fields) + inner + "}" if fields else "{}"
    rendered = map(template.__mod__, zip(*cells) if cells else repeat((), len(table.rows)))
    sep, joiner = "[" + inner, "," + inner
    size = _JSON_BATCH // (len(fields) + 1) or 1  # the rows _dump's batch of chunks holds
    while batch := list(islice(rendered, size)):
        out.append(sep + joiner.join(batch))
        sep = joiner
        if len(batch) == size:
            write("".join(out))
            out.clear()
    out.append(newline + "]")


def _write_json(obj, write: Callable[[str], object]) -> None:
    """Pass json.dumps(obj, indent=2) to write, a batch of _JSON_BATCH chunks or so at a time.

    Byte for byte json's text, without json's pure-Python encoder; a small
    payload is written in one piece.

    >>> _write_json({"a": [1, "b", None], "c": {}}, print)
    {
      "a": [
        1,
        "b",
        null
      ],
      "c": {}
    }
    """
    out: list[str] = []
    _dump(obj, "\n", out, write)
    write("".join(out))


# Namespace entries _command leaves out: the subcommand (written first), the
# handler, and the flags that choose how a result is written, not what it is.
_UNRECORDED = ("command", "handler", "format", "output", "meta")


def _command(args) -> str:
    """The codim command line that reproduces args, less its output flags.

    Each option not left at None or False becomes --flag, or --flag value,
    in the parser's definition order.

    >>> print(_command(argparse.Namespace(command="verify", n_max=0, suites="a, b", meta=True)))
    verify --n-max 0 --suites 'a, b'
    """
    import shlex  # here, not at the top: only a --meta run pays for the import

    words = [args.command]
    for dest, value in vars(args).items():
        if dest in _UNRECORDED or value is None or value is False:
            continue
        words.append("--" + dest.replace("_", "-"))
        if value is not True:
            words.append(str(value))
    return shlex.join(words)


def _csv_cell(value) -> str:
    r"""One CSV cell: str(value), quoted only if it holds a comma, a quote or a line break.

    A quote inside a quoted cell is doubled.  In a row of two or more cells
    these are the bytes of csv.writer(sink, lineterminator="\n"), except that
    it leaves a carriage return unquoted; no command prints one.

    >>> [_csv_cell(v) for v in (12, "a,b", 'a "b', "")]
    ['12', '"a,b"', '"a ""b"', '']
    """
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(args, result: Result, sink: TextIO) -> None:
    """Write the result to sink as a table, CSV or JSON, with optional provenance.

    Table and CSV lines go out one by one as they are made, JSON in batches
    (_JSON_BATCH), so the whole text is never held.
    """
    if args.format == "json":
        payload = result.payload
        if args.meta:
            meta = {"tool": "codimgeo", "version": __version__, "command": _command(args)}
            payload = {"meta": meta, **payload}
        _write_json(payload, sink.write)
        sink.write("\n")
        return
    if args.meta:
        sink.write(f"# tool: codimgeo {__version__}\n# command: {_command(args)}\n")
    if args.format == "csv":
        for row in chain([result.columns], result.rows):
            sink.write(",".join(map(_csv_cell, row)) + "\n")
        return
    skip = result.csv_only
    rows = [result.columns, *result.rows]
    widths = [max(len(str(row[i])) for row in rows) for i in range(skip, len(result.columns))]
    table = (
        "  ".join(str(c).ljust(w) for c, w in zip(row[skip:], widths)).rstrip() for row in rows
    )
    for line in chain(result.before, table, result.after):
        sink.write(line + "\n")


def _render(args, result: Result) -> None:
    """Write the result to stdout, or to the --output file, opened once.

    The file is opened, or stdout taken without closing it, in one with and
    flushed after the write, so a closed pipe or a full device raises inside
    the with, not at shutdown, and one handler serves both targets.  A failed
    open, write, flush or close is a usage error naming its target, except
    that a closed stdout pipe stays a BrokenPipeError for main.  After a
    failed write to stdout, its file descriptor points at devnull.
    """
    try:
        with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as sink:
            _write(args, result, sink)
            sink.flush()
    except OSError as exc:
        if not args.output:
            # the Python docs' "Note on SIGPIPE": send what stdout still buffers
            # to devnull, so the flush at shutdown stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                raise
        raise ValueError(f"cannot write {args.output or 'stdout'}: {exc.strerror or exc}") from exc


def _cmd_mahonian(args) -> Result:
    row = mahonian_row(args.n)
    after = ()
    if args.check:
        for k in range(0, args.n + 1):
            # I_n(k) = 0 past C(n,2), which the closed form must match at n <= 2
            if mahonian_knuth(args.n, k) != (row[k] if k < len(row) else 0):
                raise FalsificationError(f"closed form disagrees at k={k}")
        brute = args.n <= CHECK_BRUTE_FORCE_MAX_N  # past it the closed form checks alone
        if brute and brute_force_row(args.n) != row:
            raise FalsificationError("brute-force histogram disagrees")
        after = ("check: OK (closed form k <= n" + ("; brute force)" if brute else ")"),)
    decimal = {c: str(c) for c in set(row)}  # the row is a palindrome: half is a mirror
    counts = [decimal[c] for c in row]
    payload = {"n": args.n, "coefficients": counts}
    if args.check:
        payload["check"] = "ok"
    return Result(
        columns=("n", "k", "count"),
        rows=[(args.n, k, c) for k, c in enumerate(counts)],
        payload=payload,
        after=after,
        csv_only=1,
    )


def _cmd_bounds(args) -> Result:
    columns = ("n", "classic", "theorem", "phi", "factorial", "winner")
    rows = [
        (r.n, str(r.classic), str(r.theorem), str(r.phi), str(r.factorial), r.winner)
        for r in compare_bounds(args.d, args.n_max)
    ]
    return Result(
        columns=columns,
        rows=rows,
        payload={"d": args.d, "rows": Table(columns, rows)},
    )


def _cmd_crossover(args) -> Result:
    # the loop below calls crossover_n at no d under 2, and at d_max only after
    # every smaller degree has run, so d_max meets crossover_n's rules first
    crossover_n(args.d_max)
    columns = ("d", "n")
    rows = [(d, crossover_n(d)) for d in range(2, args.d_max + 1)]
    return Result(
        columns=columns,
        rows=rows,
        payload={"rows": Table(columns, rows)},
    )


def _cmd_verify(args) -> Result:
    names = list(SUITES) if args.suites is None else [s.strip() for s in args.suites.split(",")]
    for name in names:
        check_request(name, args.n_max)  # reject a bad request before any work
        if names.count(name) > 1:
            raise ValueError(f"suite {name!r} is named twice")
    results = [run_suite(name, args.n_max) for name in names]
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
            "failures": r.failures,
            "info": r.info,
        }
        for r in results
    ]
    return Result(
        columns=("suite", "n_max", "checked", "status"),
        rows=[(r.name, r.n_max, r.checked, "PASS" if r.passed else "FAIL") for r in results],
        payload={"suites": suites},
        after=tuple(after),
        failed=not all(r.passed for r in results),
    )


def _cmd_greedy(args) -> Result:
    perm = parse_permutation(args.perm).image
    chunks = left_greedy_form(perm)
    chunk_count, chunk_letters, length = chunk_stats(perm)
    # gap y_i lies between chunk i's end (0 for y_0) and chunk i + 1's start (n + 1 for y_k)
    ends = [0] + [end for _, end in chunks]
    starts = [start for start, _ in chunks] + [len(perm) + 1]
    gaps = [(end + 1, start - 1) if start - end > 1 else None for end, start in zip(ends, starts)]
    tiles = []  # (kind, index, start, end) in word order: y_0 c_1 y_1 ... c_k y_k
    for idx, gap in enumerate(gaps):
        if gap is not None:
            tiles.append(("y", idx, *gap))
        if idx < len(chunks):
            tiles.append(("c", idx + 1, *chunks[idx]))
    shown = []  # gaps in parentheses, chunks in brackets: "(1) [3 2] (4)"
    for kind, _, start, end in tiles:
        letters = " ".join(map(str, perm[start - 1:end]))
        shown.append(f"({letters})" if kind == "y" else f"[{letters}]")
    payload = {
        "perm": one_line(perm),
        "chunks": chunks,
        "gaps": gaps,
        "stats": {
            "chunk_count": chunk_count,
            "total_chunk_length": chunk_letters,
            "word_length": length,
        },
    }
    return Result(
        columns=("kind", "index", "start", "end"),
        rows=tiles,
        payload=payload,
        before=(f"word: {one_line(perm)}", f"form: {' '.join(shown) or '()'}"),
        after=(
            f"chunks: {chunk_count}  chunk letters: {chunk_letters}  word length: {length}",
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
        if not args.summary_only and args.format == "json":  # table and CSV print the summary
            # one string per word reached (each is a source or terminal), shared by all three
            names = {p: one_line(p) for p in chain(trace.sources, trace.terminal_support)}
            payload["sources"] = [names[p] for p in trace.sources]
            payload["steps"] = {
                names[parent]: [names[c] for c in children] for parent, children in trace.steps
            }
            payload["terminal"] = sorted(names[p] for p in trace.terminal_support)
        return Result(
            columns=("key", "value"),
            rows=rows,
            payload=payload,
        )
    if args.perm is None:
        raise ValueError("need --perm for a single step (or --closure with --n)")
    if args.n is not None or args.summary_only:
        raise ValueError("a single step takes --perm, not --n or --summary-only")
    perm = parse_permutation(args.perm).image
    rows = _step_rows(perm, args.d, args.mode)  # each child's text and length, from its blocks
    parent = one_line(perm)
    payload = {
        "mode": args.mode,
        "d": args.d,
        "parent": parent,
        "children": Table(("perm", "word_length"), rows),
    }
    return Result(
        columns=("child", "word_length"),
        rows=rows,
        payload=payload,
        before=(f"parent: {parent}  |sigma| = {word_length(perm)}",),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The codim parser, built once; parse_args leaves it unchanged."""
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
    except BrokenPipeError:  # _render has already silenced stdout
        return EXIT_BROKEN_PIPE
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_FAIL if result.failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

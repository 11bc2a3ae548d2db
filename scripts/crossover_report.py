#!/usr/bin/env python3
"""Emit the data behind the bound-comparison figures.

Two tables: the crossover column (least degree where n! overtakes the
classic bound, per alphabet ceiling d) and, for one chosen d, the full
per-degree comparison up to just past that crossover.  Output is CSV so
the results can be plotted or diffed directly.

    python3 scripts/crossover_report.py --d-max 8
    python3 scripts/crossover_report.py --detail-d 3 --output bounds_d3.csv
"""
import argparse
import sys

from codimgeo.bounds import compare_bounds, crossover_n


def crossover_lines(d_max):
    lines = ["d,crossover_n"]
    for d in range(2, d_max + 1):
        lines.append(f"{d},{crossover_n(d)}")
    return lines


def detail_lines(d):
    n_max = crossover_n(d) + 2
    lines = ["n,classic,theorem,phi,factorial,winner"]
    for r in compare_bounds(d, n_max):
        lines.append(f"{r.n},{r.classic},{r.theorem},{r.phi},{r.factorial},{r.winner}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d-max", type=int, default=10, help="largest d for the crossover column")
    parser.add_argument("--detail-d", type=int, default=None, help="also emit the per-n report for this d")
    parser.add_argument("--output", default=None, help="write CSV here instead of stdout")
    args = parser.parse_args(argv)

    lines = crossover_lines(args.d_max)
    if args.detail_d is not None:
        lines.append("")
        lines.extend(detail_lines(args.detail_d))

    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

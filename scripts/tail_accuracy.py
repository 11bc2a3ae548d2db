#!/usr/bin/env python3
"""Measure the tail estimate against exact inversion counts.

Prints estimate/exact ratios for the top of one Mahonian row, then the
signed lower bound phi(n, 3) next to 4^n over a degree range, showing
where the closed form overtakes the classic ceiling.

    python3 scripts/tail_accuracy.py --n 40 --k-max 10
    python3 scripts/tail_accuracy.py --phi-from 20 --phi-to 40
"""
import argparse
import math

from codimgeo.bounds import complement_lower_bound, mahonian_asymptotic, q_constant
from codimgeo.mahonian import mahonian_row


def ratio_table(n, k_max):
    q = q_constant()
    row = mahonian_row(n)
    print(f"# tail accuracy at n = {n} (q = {q:.13f})")
    print(f"{'k':>3}  {'exact':>24}  {'estimate':>14}  {'est/exact':>9}")
    for k in range(0, k_max + 1):
        exact = row[n - k]
        value, log2_value = mahonian_asymptotic(n, k)
        shown = f"2^{log2_value:.1f}" if math.isinf(value) else f"{value:.6e}"
        print(f"{k:>3}  {exact:>24}  {shown:>14}  {value / exact:>9.4f}")


def phi_table(start, stop):
    print(f"# phi(n, 3) against 4^n, n = {start}..{stop}")
    print(f"{'n':>3}  {'phi/4^n':>16}  {'1 - phi/n!':>11}")
    for n in range(start, stop + 1):
        phi = complement_lower_bound(n, 3)
        deficit = 1 - phi / math.factorial(n)
        print(f"{n:>3}  {phi / 4 ** n:>16.1f}  {deficit:>11.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=40, help="row degree for the ratio table")
    parser.add_argument("--k-max", type=int, default=10, help="largest distance from the top coefficient")
    parser.add_argument("--phi-from", type=int, default=20)
    parser.add_argument("--phi-to", type=int, default=40)
    args = parser.parse_args(argv)

    ratio_table(args.n, args.k_max)
    print()
    phi_table(args.phi_from, args.phi_to)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

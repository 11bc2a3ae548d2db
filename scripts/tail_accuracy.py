#!/usr/bin/env python3
"""Measure the tail estimate against exact inversion counts.

Prints estimate/exact ratios for the top of one Mahonian row, then the
signed lower bound phi(n, 3) next to 4^n over a degree range, showing
where the closed form overtakes the classic ceiling.

    python3 scripts/tail_accuracy.py --n 40 --k-max 10
    python3 scripts/tail_accuracy.py --phi-from 20 --phi-to 40

Arguments outside 3 <= n <= 400, 0 <= k-max <= n and
3 <= phi-from <= phi-to <= 200 exit 2 before anything is printed.
"""
import argparse
import math

from codimgeo.bounds import complement_lower_bound, mahonian_asymptotic, q_constant
from codimgeo.mahonian import ROW_MAX_N, mahonian_knuth

# I_n(n - k) at k = 0 lies inside the row only when n <= C(n, 2)
RATIO_MIN_N = 3
# phi(n, 3) / 4^n overflows a float past n = 231
PHI_MAX_N = 200


def ratio_table(n, k_max):
    q = q_constant()
    print(f"# tail accuracy at n = {n} (q = {q:.13f})")
    print(f"{'k':>3}  {'exact':>24}  {'estimate':>14}  {'est/exact':>9}")
    for k in range(0, k_max + 1):
        exact = mahonian_knuth(n, n - k)
        value, _ = mahonian_asymptotic(n, k)
        print(f"{k:>3}  {exact:>24}  {value:>14.6e}  {value / exact:>9.4f}")


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
    parser.add_argument(
        "--k-max", type=int, default=10, help="largest distance from the top coefficient"
    )
    parser.add_argument("--phi-from", type=int, default=20)
    parser.add_argument("--phi-to", type=int, default=40)
    args = parser.parse_args(argv)
    # mahonian_knuth has no cost guard of its own, so --n keeps a full row's cap
    if not RATIO_MIN_N <= args.n <= ROW_MAX_N:
        parser.error(f"--n must be in {RATIO_MIN_N}..{ROW_MAX_N}, got {args.n}")
    if not 0 <= args.k_max <= args.n:
        parser.error(f"--k-max must be in 0..{args.n} (the --n), got {args.k_max}")
    if not 3 <= args.phi_from <= args.phi_to <= PHI_MAX_N:
        parser.error(
            f"need 3 <= --phi-from <= --phi-to <= {PHI_MAX_N}, "
            f"got {args.phi_from} and {args.phi_to}"
        )

    ratio_table(args.n, args.k_max)
    print()
    phi_table(args.phi_from, args.phi_to)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

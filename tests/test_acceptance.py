"""Acceptance gate: ten go/no-go criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion states its scale and numeric tolerance inline; wall-clock budgets
are printed for the record rather than asserted, so machine load can never
flip a mathematically green criterion.  Criteria 3-8 run the `verify` suites
at a fixed degree cap and pin how many cases each checked; only the facts no
suite states are checked here.
"""
import math
import time

from codimgeo.bounds import (
    complement_lower_bound,
    crossover_n,
    mahonian_asymptotic,
    theorem_bound,
)
from codimgeo.mahonian import brute_force_row, mahonian_knuth, mahonian_row
from codimgeo.perm import count_d_good
from codimgeo.verify import run_suite


def report(number, name, ok, started, budget, detail=""):
    elapsed = time.monotonic() - started
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {name} [{elapsed:.1f}s, budget {budget}]"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def suite_problems(*runs):
    """Run each (suite, n_max, checked) and list its failures and count mismatch."""
    problems = []
    for name, n_max, checked in runs:
        result = run_suite(name, n_max)
        if result.checked != checked:
            problems.append(f"{name}@{n_max} checked {result.checked}, expected {checked}")
        problems += [f"{name}@{n_max}: {failure}" for failure in result.failures]
    return problems


def test_criterion_01_row_matches_brute_force():
    started = time.monotonic()
    bad = [n for n in range(1, 9) if mahonian_row(n) != brute_force_row(n)]
    assert report(1, "product rows equal brute-force histograms, n <= 8", not bad, started, "10s", f"mismatches: {bad}" if bad else "")


def test_criterion_02_closed_form_matches_product():
    started = time.monotonic()
    bad = [
        (n, k)
        for n in range(1, 31)
        for k in range(0, n + 1)
        if mahonian_knuth(n, k) != (mahonian_row(n) + (0,) * n)[k]
    ]
    assert report(2, "closed form equals product coefficients, n <= 30, k <= n", not bad, started, "5s", f"mismatches: {bad[:3]}" if bad else "")


def test_criterion_03_word_metric_equals_bfs():
    started = time.monotonic()
    bad = suite_problems(("metric", 6, 873), ("roundtrip", 7, 5913))
    assert report(3, "inversion count equals Cayley BFS distance, n <= 6; inversion sets round-trip, n <= 7", not bad, started, "30s", f"problems: {bad[:3]}" if bad else "")


def test_criterion_04_bad_words_are_long():
    started = time.monotonic()
    bad = suite_problems(("badsize", 8, 46233))
    assert report(4, "every d-bad word has at least d(d-1)/2 inversions, n <= 8", not bad, started, "2min", f"problems: {bad[:3]}" if bad else "")


def test_criterion_05_good_counts_under_ceiling():
    started = time.monotonic()
    bad = suite_problems(("dilworth", 8, 28))
    # the suite covers 2 <= d <= n; d = n + 1, n + 2 (all of n = 1) stay here
    bad += [
        f"n={n} d={d}: good count exceeds (d-1)^(2n)"
        for n in range(1, 9)
        for d in (n + 1, n + 2)
        if count_d_good(n, d) > (d - 1) ** (2 * n)
    ]
    assert report(5, "good-permutation counts stay under (d-1)^(2n), n <= 8", not bad, started, "2min", f"problems: {bad[:3]}" if bad else "")


def test_criterion_06_structural_suite():
    started = time.monotonic()
    bad = suite_problems(("lgf", 7, 5913), ("chunks", 7, 5913), ("growth", 6, 583))
    assert report(6, "greedy-form structure to n <= 7 and rearrangement growth, n <= 6", not bad, started, "5min", f"problems: {bad[:3]}" if bad else "")


def test_criterion_07_dictionary_descent_closure():
    started = time.monotonic()
    bad = suite_problems(("classic", 6, 4166))
    assert report(7, "descent closures terminate with d-good support, n <= 6, d in 2..n", not bad, started, "2min", f"problems: {bad[:3]}" if bad else "")


def test_criterion_08_ball_escape_closure_and_strict_bound():
    started = time.monotonic()
    bad = suite_problems(("main", 8, 8290))
    bad += [
        f"theorem_bound({n},{d}) not below {n}!"
        for d in range(2, 12)
        for n in range(d + 1, 13)
        if theorem_bound(n, d) >= math.factorial(n)
    ]
    assert report(8, "ball-escape closures falsification-free for n <= 8; bound < n! to 12", not bad, started, "5min", f"problems: {bad[:3]}" if bad else "")


def test_criterion_09_crossover_reproduction():
    started = time.monotonic()
    column = [crossover_n(d) for d in range(2, 11)]
    ok = crossover_n(2) == 2 and crossover_n(3) == 9 and column == sorted(column)
    assert report(9, "crossover values 2 and 9 reproduced; column monotone to d = 10", ok, started, "1s", f"column: {column}")


def test_criterion_10_asymptotic_bulk_regime():
    started = time.monotonic()
    rows = {n: mahonian_row(n) for n in (40, 64, 100)}

    def ratio(n, k):
        value, _ = mahonian_asymptotic(n, k)
        return value / rows[n][n - k]

    # The band applies where the estimate promises accuracy: k <= floor(sqrt(n)).
    outliers = []
    for n in (40, 100):
        for k in range(0, math.isqrt(n) + 1):
            r = ratio(n, k)
            print(f"n={n} k={k}: estimate/exact = {r:.6f}")
            if not (0.8 <= r <= 1.2):
                outliers.append((n, k, round(r, 4)))
    # k = 10 leaves that regime at n = 40; the estimate is asymptotic, so the
    # error there must shrink as n grows into the regime.
    edge = [(n, ratio(n, 10)) for n in (40, 64, 100)]
    errors = [abs(r - 1) for _, r in edge]
    converging = all(a > b for a, b in zip(errors, errors[1:]))
    phi_failures = [
        n_ for n_ in range(20, 61) if not complement_lower_bound(n_, 3) > 4 ** n_
    ]
    ok = not outliers and converging and not phi_failures
    edge_text = [(n, round(r, 4)) for n, r in edge]
    detail = f"ratio outliers: {outliers}; k = 10 ratios: {edge_text}; phi failures: {phi_failures}"
    assert report(10, "estimate/exact within [0.8, 1.2] for k <= floor(sqrt(n)) at n = 40, 100; k = 10 ratio converging; phi(n,3) > 4^n to 60", ok, started, "5s", detail), (
        f"estimate/exact outside [0.8, 1.2] at (n, k, ratio) {outliers}; "
        f"k = 10 ratio by n {edge_text} (|ratio - 1| must strictly decrease); "
        f"phi(n,3) <= 4^n at n = {phi_failures}"
    )

import functools
import itertools
import math
from fractions import Fraction

import pytest

from codimgeo import bounds
from codimgeo.bounds import (
    CROSSOVER_MAX_D,
    BoundRow,
    ball_radius,
    classic_bound,
    compare_bounds,
    complement_lower_bound,
    crossover_n,
    mahonian_asymptotic,
    q_constant,
    theorem_bound,
)
from codimgeo.errors import ScaleError
from codimgeo.mahonian import mahonian_row


def test_classic_bound_values():
    assert classic_bound(1, 2) == 1
    assert classic_bound(7, 2) == 1
    assert classic_bound(9, 3) == 262144
    assert classic_bound(2, 4) == 81
    with pytest.raises(ValueError):
        classic_bound(3, 1)


def test_ball_radius_is_exact():
    # a word length is below (n - d)/2 exactly when it is below the ceiling
    for d in range(2, 9):
        for n in range(d, 16):
            radius = ball_radius(n, d)
            assert isinstance(radius, int)
            assert all((k < Fraction(n - d, 2)) == (k < radius) for k in range(0, n * n))
    assert ball_radius(7, 4) == 2
    assert ball_radius(6, 4) == 1
    with pytest.raises(ValueError):
        ball_radius(3, 4)
    with pytest.raises(ValueError):
        ball_radius(3, 1)


def test_theorem_bound_values():
    assert theorem_bound(6, 4) == 719
    assert theorem_bound(7, 4) == 5033
    for d in range(2, 7):
        assert theorem_bound(d, d) == math.factorial(d)


def test_theorem_bound_below_factorial_above_diagonal():
    for d in range(2, 7):
        for n in range(d + 1, 13):
            assert theorem_bound(n, d) < math.factorial(n)


@functools.cache
def incremental_dominance_oracle(base):
    """Oracle for crossover_n's bisection: walk m = 1, 2, ... with exact products."""
    power = factorial = 1
    m = 0
    while True:
        m += 1
        power *= base
        factorial *= m
        if power < factorial:
            return m


def check_crossover_equals_incremental_oracle():
    for d in range(2, 61):
        assert crossover_n(d) == incremental_dominance_oracle((d - 1) ** 2)


def test_crossover_equals_incremental_oracle():
    check_crossover_equals_incremental_oracle()


@pytest.mark.parametrize("verdict", [True, False])
def test_crossover_ends_within_one_bisection_of_verdicts(monkeypatch, verdict):
    # a wrong but constant verdict still ends the search: at most
    # ceil(log2(2 base + 2)) comparisons, whatever they answer, each inside
    # _robbins_verdict's domain base < m <= 3 base + 2
    for d in range(2, 61):
        base = (d - 1) ** 2
        budget = (2 * base + 1).bit_length()  # ceil(log2(2 base + 2))
        calls = itertools.count(1)

        def constant(asked, m):
            assert asked == base < m <= 3 * base + 2, (d, asked, m)
            assert next(calls) <= budget, f"d = {d}: more than {budget} comparisons"
            return verdict

        monkeypatch.setattr(bounds, "_robbins_verdict", constant)
        crossover_n(d)


def test_crossover_falls_back_to_exact_integers(monkeypatch):
    # every comparison undecided; the budget turns a runaway step loop into a
    # failure, and each comparison stays inside _robbins_verdict's domain
    calls = itertools.count()

    def undecided(base, m):
        assert base < m <= 3 * base + 2, (base, m)
        assert next(calls) < 10_000, "the exact fallback never settles the comparison"
        return None

    monkeypatch.setattr(bounds, "_robbins_verdict", undecided)
    check_crossover_equals_incremental_oracle()


def test_robbins_verdict_agrees_with_exact_integers():
    # wherever the bracket decides, it decides base**m < m! correctly
    bases = [*range(1, 61), *((d - 1) ** 2 for d in range(9, CROSSOVER_MAX_D + 1, 10))]
    undecided = 0
    for base in bases:
        # every m up to the bracket 3 base + 2, or 40 either side of e base
        middle = int(math.e * base)
        start, stop = (1, 3 * base + 3) if base <= 60 else (middle - 40, middle + 41)
        power, factorial = base ** (start - 1), math.factorial(start - 1)
        for m in range(start, stop):
            power *= base
            factorial *= m
            verdict = bounds._robbins_verdict(base, m)
            if verdict is None:
                undecided += 1
            else:
                assert verdict == (power < factorial), (base, m)
    assert undecided <= 1  # 1**1 == 1!, the one tie


def test_crossover_cap():
    with pytest.raises(ScaleError, match=f"d <= {CROSSOVER_MAX_D}"):
        crossover_n(CROSSOVER_MAX_D + 1)


def test_crossover_values():
    assert crossover_n(2) == 2
    assert crossover_n(3) == 9
    assert crossover_n(4) == 22
    assert crossover_n(5) == 41


def test_crossover_is_sharp():
    for d in range(2, 9):
        n = crossover_n(d)
        assert (d - 1) ** (2 * n) < math.factorial(n)
        if n > 1:
            assert (d - 1) ** (2 * (n - 1)) >= math.factorial(n - 1)


def test_crossover_monotone():
    values = [crossover_n(d) for d in range(2, 12)]
    assert values == sorted(values)


def test_q_partial_products_decrease_toward_limit():
    # strict decrease holds for every term the constant actually consumes,
    # up to the first step below 1e-15; beyond that the factors sit within
    # one ulp of 1.0 and floats plateau
    previous = 1.0
    q = 1.0
    for j in itertools.count(1):
        q *= 1.0 - 2.0 ** -j
        assert q < previous
        assert q > 0.288
        if previous - q < 1e-15:
            break
        previous = q
    assert q == q_constant()
    assert abs(q - 0.2887880950866) < 1e-12


def test_asymptotic_estimate_structure():
    q = q_constant()
    for n, k in ((20, 0), (20, 5), (40, 10)):
        value, log2_value = mahonian_asymptotic(n, k)
        assert value == pytest.approx(2.0 ** (2 * n - k - 1) * q / math.sqrt(n * math.pi))
        assert log2_value == pytest.approx(math.log2(value))
        assert not math.isinf(value)


def test_asymptotic_estimate_overflow_flag():
    value, log2_value = mahonian_asymptotic(1000, 0)
    assert value == math.inf
    assert log2_value == pytest.approx(1999 + math.log2(q_constant()) - 0.5 * math.log2(1000 * math.pi))


def test_asymptotic_estimate_is_wrong_at_extreme_tail():
    # the estimate targets the bulk regime; at the far tail it is way off
    value, _ = mahonian_asymptotic(30, 30)
    assert mahonian_row(30)[0] == 1
    assert value > 1e6


def test_asymptotic_range_check():
    with pytest.raises(ValueError):
        mahonian_asymptotic(10, 11)
    with pytest.raises(ValueError):
        mahonian_asymptotic(10, -1)


def test_complement_lower_bound_values():
    assert complement_lower_bound(10, 4) == 3498240
    # explicit formula at n = d: K = 0
    for d in range(2, 8):
        assert complement_lower_bound(d, d) == math.factorial(d) - (2 ** (2 * d) - 2 ** (d - 1))
    assert complement_lower_bound(4, 4) < 0  # signed, never clamped


def test_complement_lower_bound_ratio_approaches_one():
    ratios = [
        Fraction(complement_lower_bound(n, 3), math.factorial(n)) for n in (20, 30, 40)
    ]
    assert all(r < 1 for r in ratios)
    assert ratios == sorted(ratios)
    assert ratios[-1] > Fraction(999999, 1000000)


def test_compare_bounds_report():
    rows = compare_bounds(3, 12)
    assert [r.n for r in rows] == list(range(3, 13))
    for r in rows:
        assert r.factorial == math.factorial(r.n)
        assert r.winner == ("theorem" if r.theorem < r.classic else "classic" if r.classic < r.theorem else "tie")
    # below the crossover the theorem bound is the informative one
    for r in rows:
        if 3 < r.n < 9:
            assert r.theorem < r.factorial
            assert r.classic >= r.factorial


def bound_row_oracle(n, d):
    """Oracle for compare_bounds: one row from the per-row bounds."""
    classic, theorem = classic_bound(n, d), theorem_bound(n, d)
    winner = "theorem" if theorem < classic else "classic" if classic < theorem else "tie"
    return BoundRow(n, classic, theorem, complement_lower_bound(n, d), math.factorial(n), winner)


def test_compare_bounds_equals_per_row_oracle():
    # the running head is truncated at the largest radius; short and long tables both
    for d in range(2, 9):
        oracle = [bound_row_oracle(n, d) for n in range(d, 201)]
        assert list(compare_bounds(d, 200)) == oracle
        for n_max in range(d, d + 12):
            assert list(compare_bounds(d, n_max)) == oracle[: n_max - d + 1]


def test_compare_bounds_boundary_row():
    rows = compare_bounds(4, 4)
    assert len(rows) == 1
    assert rows[0].theorem == 24


def test_theorem_wins_exactly_below_the_crossover():
    # the theorem bound beats (d - 1)^(2n) exactly when n < crossover_n(d), for n <= 400
    for d in range(3, 13):
        crossover = crossover_n(d)
        rows = compare_bounds(d, 400)
        expected = ["theorem" if row.n < crossover else "classic" for row in rows]
        assert [row.winner for row in rows] == expected, d

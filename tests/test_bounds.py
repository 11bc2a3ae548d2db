import math
from fractions import Fraction

import pytest

from codimgeo.bounds import (
    ball_radius,
    classic_bound,
    compare_bounds,
    complement_lower_bound,
    crossover_n,
    mahonian_asymptotic,
    q_constant,
    tensor_identity_degree,
    theorem_bound,
)
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


def test_tensor_identity_degree():
    assert tensor_identity_degree(2, 2) == 2
    assert tensor_identity_degree(2, 3) == 9
    assert tensor_identity_degree(3, 3) == 41
    for d in range(2, 8):
        assert tensor_identity_degree(d, 2) == crossover_n(d)
    with pytest.raises(ValueError):
        tensor_identity_degree(1, 3)


def test_q_constant_partial_products():
    one = q_constant(0.6)
    assert (one.q, one.terms) == (0.5, 1)
    two = q_constant(0.2)
    assert (two.q, two.terms) == (0.375, 2)
    full = q_constant(1e-15)
    assert abs(full.q - 0.2887880950866) < 1e-12
    assert 0.288 < full.q < 0.29
    with pytest.raises(ValueError):
        q_constant(0.0)


def test_q_partial_products_decrease_toward_limit():
    # strict decrease holds for every term the constant actually consumes;
    # beyond that the factors sit within one ulp of 1.0 and floats plateau
    terms = q_constant(1e-15).terms
    previous = 1.0
    q = 1.0
    for j in range(1, terms + 1):
        q *= 1.0 - 2.0 ** -j
        assert q < previous
        assert q > 0.288
        previous = q


def test_asymptotic_estimate_structure():
    q = q_constant(1e-15).q
    for n, k in ((20, 0), (20, 5), (40, 10)):
        est = mahonian_asymptotic(n, k)
        assert est.value == pytest.approx(2.0 ** (2 * n - k - 1) * q / math.sqrt(n * math.pi))
        assert est.log2_value == pytest.approx(math.log2(est.value))
        assert not est.overflow


def test_asymptotic_estimate_overflow_flag():
    est = mahonian_asymptotic(1000, 0)
    assert est.overflow
    assert est.value == math.inf
    assert est.log2_value == pytest.approx(1999 + math.log2(q_constant(1e-15).q) - 0.5 * math.log2(1000 * math.pi))


def test_asymptotic_estimate_is_wrong_at_extreme_tail():
    # the estimate targets the bulk regime; at the far tail it is way off
    est = mahonian_asymptotic(30, 30)
    assert mahonian_row(30).coefficient(0) == 1
    assert est.value > 1e6


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
    report = compare_bounds(3, 12)
    assert [r.n for r in report.rows] == list(range(3, 13))
    for r in report.rows:
        assert r.factorial == math.factorial(r.n)
        assert r.winner == ("theorem" if r.theorem < r.classic else "classic" if r.classic < r.theorem else "tie")
    # below the crossover the theorem bound is the informative one
    for r in report.rows:
        if 3 < r.n < 9:
            assert r.theorem < r.factorial
            assert r.classic >= r.factorial


def test_compare_bounds_boundary_row():
    report = compare_bounds(4, 4)
    assert len(report.rows) == 1
    assert report.rows[0].theorem == 24


def test_compare_bounds_classic_wins_eventually():
    report = compare_bounds(3, 15)
    assert report.rows[-1].winner == "classic"

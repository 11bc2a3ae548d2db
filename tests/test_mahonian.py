import math

import pytest
from hypothesis import example, given, settings, strategies as st

from codimgeo import mahonian
from codimgeo.bounds import ball_radius, theorem_bound
from codimgeo.errors import ScaleError
from codimgeo.mahonian import (
    ROW_MAX_N,
    ball_complement_count,
    ball_count,
    brute_force_row,
    mahonian_knuth,
    mahonian_row,
)

KNOWN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 2, 1),
    4: (1, 3, 5, 6, 5, 3, 1),
    5: (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1),
}


def full_row_oracle(n):
    """Oracle for the truncated kernel: the whole q-factorial, one window sum per entry."""
    coeffs = [1]
    for i in range(1, n):
        m = len(coeffs)
        prefix = [0]
        for c in coeffs:
            prefix.append(prefix[-1] + c)
        coeffs = [prefix[min(k, m - 1) + 1] - prefix[max(0, k - i)] for k in range(m + i)]
    return coeffs


def test_known_rows():
    for n, coeffs in KNOWN_ROWS.items():
        assert mahonian_row(n) == coeffs


def test_row_shape_and_symmetry():
    for n in range(1, 12):
        row = mahonian_row(n)
        assert len(row) == n * (n - 1) // 2 + 1
        assert sum(row) == math.factorial(n)
        assert row == row[::-1]
        assert row[0] == 1


def check_sliding_window_recurrence():
    # row n is row n-1 convolved with 1 + z + ... + z^(n-1)
    for n in range(2, 10):
        prev = mahonian_row(n - 1)
        window = [0] * (len(prev) + n - 1)
        for k, c in enumerate(prev):
            for shift in range(n):
                window[k + shift] += c
        assert tuple(window) == mahonian_row(n)


def check_brute_force_agrees():
    for n in range(1, 8):
        assert brute_force_row(n) == mahonian_row(n)


def test_sliding_window_recurrence():
    check_sliding_window_recurrence()


def test_brute_force_agrees():
    check_brute_force_agrees()


def test_checks_catch_a_dropped_last_coefficient(monkeypatch):
    # a kernel that loses the top of every head must fail both checks
    head = mahonian._head
    monkeypatch.setattr(mahonian, "_head", lambda n, length: head(n, length)[:-1])
    with pytest.raises(AssertionError):
        check_sliding_window_recurrence()
    with pytest.raises(AssertionError):
        check_brute_force_agrees()


def test_row_equals_full_row_oracle():
    for n in range(1, 40):
        assert list(mahonian_row(n)) == full_row_oracle(n)


def test_row_cap():
    with pytest.raises(ScaleError, match=f"n <= {ROW_MAX_N}"):
        mahonian_row(ROW_MAX_N + 1)


def test_brute_force_cap():
    with pytest.raises(ScaleError):
        brute_force_row(10)


def test_knuth_examples():
    assert mahonian_knuth(4, 3) == 6
    assert mahonian_knuth(5, 2) == 9
    assert mahonian_knuth(1, 0) == 1
    assert mahonian_knuth(1, 1) == 0  # beyond C(1,2); the formula vanishes


def test_knuth_range_check():
    with pytest.raises(ValueError):
        mahonian_knuth(4, 5)
    with pytest.raises(ValueError):
        mahonian_knuth(4, -1)


@given(st.integers(min_value=1, max_value=30))
@example(60)
@example(120)
@example(200)
@settings(max_examples=30, deadline=None)
def test_knuth_matches_product_formula(n):
    row = mahonian_row(n) + (0,) * n  # I_n(k) = 0 past C(n,2)
    for k in range(0, n + 1):
        assert mahonian_knuth(n, k) == row[k]


def test_ball_count_examples():
    assert ball_count(4, 3) == 9  # 1 + 3 + 5
    assert ball_count(4, 0) == 0
    assert ball_count(4, 1) == 1
    assert ball_count(4, 7) == 24


def test_ball_and_complement_partition_everything():
    for n in range(1, 8):
        top = n * (n - 1) // 2
        for radius in range(-1, top + 3):
            assert ball_count(n, radius) + ball_complement_count(n, radius) == math.factorial(n)


def test_complement_examples():
    assert ball_complement_count(4, 3) == 15
    assert ball_complement_count(6, 1) == 719
    assert ball_complement_count(4, 0) == 24
    # an integer radius keeps its own sphere: 24 - I_4(0) - I_4(1) = 20
    assert ball_complement_count(4, 2) == 20


def test_ball_counts_equal_prefix_and_tail_sums_of_the_full_row():
    for n in range(1, 21):
        row = full_row_oracle(n)
        for radius in range(-1, len(row) + 2):
            cut = max(radius, 0)
            assert ball_count(n, radius) == sum(row[:cut])
            assert ball_complement_count(n, radius) == sum(row[cut:])


def test_theorem_bound_equals_tail_sum_of_the_full_row():
    for n in range(2, 40):
        row = full_row_oracle(n)
        for d in range(2, min(n, 8) + 1):
            assert theorem_bound(n, d) == sum(row[ball_radius(n, d):])

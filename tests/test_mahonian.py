import math

import pytest
from hypothesis import given, settings, strategies as st

from codimgeo.errors import ScaleError
from codimgeo.mahonian import (
    ball_complement_count,
    ball_count,
    brute_force_row,
    mahonian_knuth,
    mahonian_row,
    pentagonal,
)

KNOWN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 2, 1),
    4: (1, 3, 5, 6, 5, 3, 1),
    5: (1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1),
}


def test_known_rows():
    for n, coeffs in KNOWN_ROWS.items():
        assert mahonian_row(n).coefficients == coeffs


def test_row_shape_and_symmetry():
    for n in range(1, 12):
        row = mahonian_row(n)
        assert len(row.coefficients) == row.max_inversions + 1
        assert sum(row.coefficients) == math.factorial(n)
        assert row.coefficients == row.coefficients[::-1]
        assert row.coefficients[0] == 1


def test_coefficient_out_of_range_is_zero():
    row = mahonian_row(3)
    assert row.coefficient(-1) == 0
    assert row.coefficient(4) == 0
    assert row.coefficient(3) == 1


def test_sliding_window_recurrence():
    # row n is row n-1 convolved with 1 + z + ... + z^(n-1)
    for n in range(2, 10):
        prev = mahonian_row(n - 1).coefficients
        window = [0] * (len(prev) + n - 1)
        for k, c in enumerate(prev):
            for shift in range(n):
                window[k + shift] += c
        assert tuple(window) == mahonian_row(n).coefficients


def test_brute_force_agrees():
    for n in range(1, 8):
        assert brute_force_row(n).coefficients == mahonian_row(n).coefficients


def test_brute_force_cap():
    with pytest.raises(ScaleError):
        brute_force_row(10)


def test_pentagonal_values():
    assert [pentagonal(j) for j in range(1, 6)] == [1, 5, 12, 22, 35]
    with pytest.raises(ValueError):
        pentagonal(0)


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
@settings(max_examples=30, deadline=None)
def test_knuth_matches_product_formula(n):
    row = mahonian_row(n)
    for k in range(0, n + 1):
        assert mahonian_knuth(n, k) == row.coefficient(k)


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

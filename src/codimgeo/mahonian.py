"""Mahonian counting: permutations of degree n with exactly k inversions.

The generating function is the q-factorial

    sum_k I_n(k) z^k = prod_{i=1}^{n-1} (1 + z + ... + z^i),

computed exactly by iterated sliding-window convolution.  A closed form due
to Knuth expresses I_n(k) as an alternating sum of binomials indexed by the
generalized pentagonal numbers.  Ball counts in the word metric reduce to
prefix and suffix sums of a row; radii may be half-integers, entering through
their ceiling.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import check_scale

BRUTE_FORCE_MAX_N = 9

Radius = int | Fraction


@dataclass(frozen=True)
class MahonianRow:
    """The coefficients I_n(0), ..., I_n(C(n,2)) for one degree n."""

    n: int
    coefficients: tuple[int, ...]

    @property
    def max_inversions(self) -> int:
        return self.n * (self.n - 1) // 2

    def coefficient(self, k: int) -> int:
        """I_n(k), with 0 outside the range 0 <= k <= C(n,2)."""
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        return 0


@lru_cache(maxsize=None)
def _row_coefficients(n: int) -> tuple[int, ...]:
    coeffs = [1]
    for i in range(1, n):
        # multiply by (1 + z + ... + z^i) via prefix sums
        m = len(coeffs)
        prefix = [0]
        for c in coeffs:
            prefix.append(prefix[-1] + c)
        coeffs = [
            prefix[min(k, m - 1) + 1] - prefix[max(0, k - i)]
            for k in range(m + i)
        ]
    return tuple(coeffs)


def mahonian_row(n: int) -> MahonianRow:
    """Exact inversion-count distribution for degree n.

    >>> mahonian_row(4).coefficients
    (1, 3, 5, 6, 5, 3, 1)
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    return MahonianRow(n, _row_coefficients(n))


def brute_force_row(n: int) -> MahonianRow:
    """Histogram of inversion counts over all n! permutations.  Capped at n <= 9."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_scale(n, BRUTE_FORCE_MAX_N, "brute_force_row")
    counts = [0] * (n * (n - 1) // 2 + 1)
    for image in itertools.permutations(range(n)):
        inv = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if image[b] < image[a]
        )
        counts[inv] += 1
    return MahonianRow(n, tuple(counts))


def pentagonal(j: int) -> int:
    """The pentagonal number j(3j - 1)/2 for j >= 1.

    >>> [pentagonal(j) for j in (1, 2, 3, 4)]
    [1, 5, 12, 22]
    """
    if j < 1:
        raise ValueError("pentagonal index starts at 1")
    return j * (3 * j - 1) // 2


def _binom(a: int, b: int) -> int:
    return math.comb(a, b) if b >= 0 else 0


def mahonian_knuth(n: int, k: int) -> int:
    """Closed form for I_n(k), valid for 0 <= k <= n.

    Alternating pentagonal-number sum; binomials with a negative lower index
    vanish, and the sum terminates once both offsets go negative.

    >>> mahonian_knuth(4, 3)
    6
    >>> mahonian_knuth(5, 2)
    9
    """
    if not (0 <= k <= n):
        raise ValueError(f"closed form requires 0 <= k <= n, got k = {k}, n = {n}")
    total = _binom(n + k - 1, k)
    j = 1
    while True:
        u = pentagonal(j)
        lower_far = k - u - j
        lower_near = k - u
        if lower_far < 0 and lower_near < 0:
            return total
        sign = -1 if j % 2 else 1
        total += sign * (
            _binom(n + lower_far - 1, lower_far) + _binom(n + lower_near - 1, lower_near)
        )
        j += 1


def ball_count(n: int, radius: Radius) -> int:
    """Number of permutations with word length strictly below the radius.

    #B(K) = sum_{k < K} I_n(k); half-integer radii enter via ceil(K) - 1.

    >>> ball_count(4, Fraction(5, 2))
    9
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    row = mahonian_row(n)
    top = math.ceil(radius) - 1
    return sum(row.coefficient(k) for k in range(0, top + 1))


def ball_complement_count(n: int, radius: Radius) -> int:
    """Number of permutations with word length at least ceil(K).

    Canonical form of the complement count:

        #B^(K) = sum_{k = ceil(K)}^{C(n,2)} I_n(k)

    >>> ball_complement_count(4, Fraction(5, 2))
    15
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    row = mahonian_row(n)
    lo = math.ceil(radius)
    return sum(row.coefficient(k) for k in range(max(lo, 0), row.max_inversions + 1))

"""Mahonian counting: permutations of degree n with exactly k inversions.

The generating function is the q-factorial

    sum_k I_n(k) z^k = prod_{i=1}^{n-1} (1 + z + ... + z^i).

One kernel computes its heads I_n(0..L-1) exactly, as the product truncated
mod z^L, for n = 1, 2, ... in turn: each factor is a sliding-window sum over
prefix sums, and since every partial product is a palindrome a step computes
only the coefficients up to half its degree and mirrors the rest.  A full
row, mahonian_row(n), is the head of length C(n,2) + 1 as a plain tuple
I_n(0..C(n,2)); a ball count needs only the head below its radius, in O(n L)
big-integer additions, and bounds.compare_bounds reads one head per degree
from the same sequence.  The brute-force histogram counts each word's
inversions on its own, over all n! words; it stays a test oracle, and
also backs codim mahonian --check at n <= 8 (cli.CHECK_BRUTE_FORCE_MAX_N).  A
closed form due to Knuth expresses I_n(k), for k <= n, as one signed sum of
binomials over Euler's generalized pentagonal numbers.  Radii are integers:
word lengths are, so a real radius K acts as ceil(K).
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from operator import gt, sub

from .errors import check_k_within, check_scale

BRUTE_FORCE_MAX_N = 9
# A full row costs O(n^3) additions of O(n log n)-bit integers: n = 400 takes
# about 1.4 s (Python 3.11, 2-CPU Xeon).  README times `codim mahonian --n 400`.
ROW_MAX_N = 400


def _heads(length: int) -> Iterator[list[int]]:
    """The heads I_n(0), ..., I_n(length - 1) for n = 1, 2, ...: one step per factor.

    Each head is the q-factorial truncated mod z^length and stops at
    I_n(C(n,2)), past which every coefficient is zero.  Callers must not
    mutate a yielded head.
    """
    row = [1][:length]
    degree = 0
    for i in itertools.count(1):
        yield row
        degree += i
        half = min(length, degree // 2 + 1)
        # times (1 + ... + z^i): new[k] = prefix[min(k, len(row) - 1) + 1] - prefix[max(k - i, 0)]
        prefix = list(itertools.accumulate(itertools.islice(row, half), initial=0))
        upper = prefix[1:] + [prefix[-1]] * (half - len(row))
        lower = ([0] * i + prefix)[:half]
        row = list(map(sub, upper, lower))
        # the product has degree 1 + ... + i and is a palindrome: new[k] = new[degree - k];
        # a head no longer than half the degree has nothing to mirror
        top = min(length, degree + 1)
        row += row[degree - top + 1 : degree - half + 1][::-1]


def _head(n: int, length: int) -> tuple[int, ...]:
    """I_n(0), ..., I_n(length - 1): the n-th head of _heads(length)."""
    if length <= 0:
        return ()
    return tuple(next(itertools.islice(_heads(length), n - 1, None)))


def mahonian_row(n: int) -> tuple[int, ...]:
    """The coefficients I_n(0), ..., I_n(C(n,2)), for degree n <= ROW_MAX_N.

    >>> mahonian_row(4)
    (1, 3, 5, 6, 5, 3, 1)
    """
    check_scale(n, ROW_MAX_N, "a full row")
    return _head(n, n * (n - 1) // 2 + 1)


def brute_force_row(n: int) -> tuple[int, ...]:
    """Histogram of inversion counts over all n! permutations.  Capped at n <= 9."""
    check_scale(n, BRUTE_FORCE_MAX_N, "brute_force_row")
    counts = [0] * (n * (n - 1) // 2 + 1)
    for image in itertools.permutations(range(n)):
        # every pair a < b of positions, compared on its own
        counts[sum(itertools.starmap(gt, itertools.combinations(image, 2)))] += 1
    return tuple(counts)


def mahonian_knuth(n: int, k: int) -> int:
    """Closed form for I_n(k), valid for 0 <= k <= n.

    Knuth's form (TAOCP vol. 3, 5.1.1): the q-factorial is
    prod_{i<=n} (1 - z^i) / (1 - z)^n, and up to z^n the product is Euler's
    pentagonal series sum_j (-1)^j z^{j(3j - 1)/2} over all integers j, so
    I_n(k) = sum (-1)^j C(n - 1 + k - g, n - 1) over every j with
    g = j(3j - 1)/2 <= k.

    >>> mahonian_knuth(4, 3)
    6
    >>> mahonian_knuth(5, 2)
    9
    """
    check_k_within(k, n)
    # g <= k exactly when |6j - 1| <= sqrt(24k + 1), so every such j lies in -m..m
    m = (math.isqrt(24 * k + 1) + 1) // 6
    total = 0
    for j in range(-m, m + 1):
        g = j * (3 * j - 1) // 2
        if g <= k:
            term = math.comb(n - 1 + k - g, n - 1)
            total += -term if j % 2 else term
    return total


def ball_count(n: int, radius: int) -> int:
    """Number of permutations with word length strictly below the radius.

    #B(K) = sum_{k < K} I_n(k), the sum of the head of length K.  A head
    costs at most a full row, so a ball count has the row's cap, ROW_MAX_N;
    ball_complement_count and bounds.theorem_bound are refused through it.

    >>> ball_count(4, 3)
    9
    """
    check_scale(n, ROW_MAX_N, "a ball count")
    return sum(_head(n, radius))


def ball_complement_count(n: int, radius: int) -> int:
    """Number of permutations with word length at least the radius.

    #B^(K) = n! - #B(K) = sum_{k = K}^{C(n,2)} I_n(k)

    >>> ball_complement_count(4, 3)
    15
    """
    inside = ball_count(n, radius)
    return math.factorial(n) - inside

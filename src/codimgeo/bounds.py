"""Spanning-set size bounds and where they cross the factorial.

Two upper bounds on the number of degree-n spanning monomials compete: the
classic bound (d - 1)^(2n) and the ball-complement bound counting only the
permutations at word-metric distance at least (n - d)/2.  Both eventually
fall below n!; the crossover degree records when.  A closed-form lower bound
on the complement count and a floating-point tail estimate for Mahonian
numbers round out the toolkit.  Results are plain values: compare_bounds
returns a tuple of BoundRow, one per degree, q_constant the float q, and
mahonian_asymptotic the pair (value, log2_value).

Every bound is an exact integer.  theorem_bound states the paper's bound
once; reduction.main_closure records it.  compare_bounds carries one Mahonian
head, truncated at its largest radius, across all its degrees instead of
calling theorem_bound per row.  crossover_n is one bisection on
base**m < m!, decided by Robbins' bracket on log m! and by exact integers
only inside its margin; its docstring proves the search.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import check_cap, check_d, check_d_within, check_degree, check_k_within
from .mahonian import _heads, ball_complement_count

WINNER_CLASSIC = "classic"
WINNER_THEOREM = "theorem"
WINNER_TIE = "tie"

# crossover_n(d) settles its comparisons by Robbins' bracket: `codim crossover
# --d-max 120` takes about 2.4 ms.  A comparison inside the bracket's margin
# falls back to integers of about e (d - 1)^2 log2((d - 1)^2) bits, about
# 0.05 s each at d = 120.
CROSSOVER_MAX_D = 120
# compare_bounds(d, n_max) steps one head of length about n_max/2 per degree,
# about n_max^2/2 big-integer additions: n_max = 400 takes about 0.02 s (0.04 s
# for `codim bounds --format csv`), 1000 about 0.15 s, and from n = 1559 on n!
# is too long for str().
BOUNDS_MAX_N = 400


def classic_bound(n: int, d: int) -> int:
    """The bound (d - 1)^(2n).

    >>> classic_bound(9, 3)
    262144
    """
    check_d(d)
    check_degree(n)
    return (d - 1) ** (2 * n)


def ball_radius(n: int, d: int) -> int:
    """The threshold K = (n - d)/2 as the integer ceil(K).

    Word lengths are integers, so a length is below K exactly when it is
    below ceil(K).

    >>> ball_radius(7, 4), ball_radius(6, 4)
    (2, 1)
    """
    check_d_within(d, n)
    return (n - d + 1) // 2


def theorem_bound(n: int, d: int) -> int:
    """Ball-complement bound: permutations of word length >= ceil((n - d)/2).

    n! minus the sum of the Mahonian head below the radius K = ceil((n - d)/2),
    so it costs O(n K) big-integer additions rather than a full O(n^3) row.
    It has the ball count's cap, n <= mahonian.ROW_MAX_N.

    >>> theorem_bound(6, 4)
    719
    """
    return ball_complement_count(n, ball_radius(n, d))


def _robbins_verdict(base: int, m: int) -> bool | None:
    """base**m < m! by Robbins' bracket on log m!, or None inside its margin.

    Its domain is crossover_n's bisection: base = (d - 1)^2 >= 1 and
    base < m <= 3 base + 2, so m >= 2.

    The predicate is m log(base) < log m!, and Robbins (Amer. Math. Monthly 62,
    1955) gives S + 1/(12m + 1) < log m! < S + 1/(12m) with
    S = log(2 pi m)/2 + m (log m - 1).  Let A = m log(base) + |S| + 1.  In
    doubles, with math.log within one ulp, the dozen roundings that build
    m log(base), S and the bracket each act on a value of size at most 2A, so
    they leave the computed comparison off by less than 1e-14 A.  A verdict is
    returned only when the bracket clears m log(base) by 1e-12 A, a hundredfold
    more; inside that margin the caller compares exact integers.
    """
    power = m * math.log(base)
    stirling = 0.5 * math.log(2 * math.pi * m) + m * (math.log(m) - 1)
    margin = 1e-12 * (power + abs(stirling) + 1)
    if power + margin < stirling + 1 / (12 * m + 1):
        return True
    if power - margin > stirling + 1 / (12 * m):
        return False
    return None


def crossover_n(d: int) -> int:
    """Least n with (d - 1)^(2n) < n!, for 2 <= d <= CROSSOVER_MAX_D.

    With base = (d - 1)^2 this is the least m >= 1 with base**m < m!.  The
    ratio m!/base**m starts at 1 for m = 0 and is multiplied by m/base at
    step m, so it does not rise while m <= base and rises strictly after.  So
    base**m < m! fails for every m <= base and, once it holds, holds for every
    larger m.  At m = 3 base + 2, m! > (m/e)^m > base**m.  So one bisection
    over (base, 3 base + 2], keeping the predicate false at lo and true at hi,
    ends at the least m after at most ceil(log2(2 base + 2)) comparisons.  Each
    comparison takes Robbins' verdict where it is certain and exact integers
    otherwise.

    >>> [crossover_n(d) for d in (2, 3, 4, 5)]
    [2, 9, 22, 41]
    """
    check_d(d)
    check_cap(d, CROSSOVER_MAX_D, "crossover", "d")
    base = (d - 1) ** 2
    lo, hi = base, 3 * base + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        below = _robbins_verdict(base, mid)
        if below is None:
            below = base**mid < math.factorial(mid)
        if below:
            hi = mid
        else:
            lo = mid
    return hi


def q_constant() -> float:
    """Evaluate q = prod_{j>=1} (1 - 2^-j) by partial products.

    Multiplies factors until the change drops below 1e-15.  The partial
    products decrease strictly and stay above 0.288.

    >>> round(q_constant(), 10)
    0.2887880951
    """
    q = 1.0
    j = 0
    while True:
        j += 1
        nxt = q * (1.0 - math.ldexp(1.0, -j))
        if q - nxt < 1e-15:
            return nxt
        q = nxt


def mahonian_asymptotic(n: int, k: int) -> tuple[float, float]:
    """Estimate I_n(n - k) as 2^(2n - k - 1) q / sqrt(n pi); returns (value, log2_value).

    q = prod_j (1 - 2^-j) is evaluated by q_constant(), about 5 us a call.
    Accurate in the bulk regime k = o(sqrt(n)); degrades toward the extreme
    tail.  For 40 <= n <= 100 and k <= floor(sqrt(n)) the ratio
    estimate/exact lies in [0.93, 1.07]; at n = 40, k = 10, outside that
    regime, it is 1.22.  When the power of two exceeds float range the value
    is math.inf; log2_value stays finite either way.
    """
    check_k_within(k, n)
    exponent = 2 * n - k - 1
    mantissa = q_constant() / math.sqrt(n * math.pi)
    log2_value = exponent + math.log2(mantissa)
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:  # ldexp raises rather than return inf
        value = math.inf
    return value, log2_value


def complement_lower_bound(n: int, d: int) -> int:
    """Closed-form lower bound n! - (2^(2n - K) - 2^(n - 1)), K = floor((n - d)/2).

    Exact integer arithmetic; may be negative for small n, where the subtracted
    inventory overshoots the factorial.

    >>> complement_lower_bound(10, 4)
    3498240
    """
    check_d_within(d, n)
    cutoff = (n - d) // 2
    return math.factorial(n) - ((1 << (2 * n - cutoff)) - (1 << (n - 1)))


@dataclass(frozen=True)
class BoundRow:
    n: int
    classic: int
    theorem: int
    phi: int
    factorial: int
    winner: str


def compare_bounds(d: int, n_max: int) -> tuple[BoundRow, ...]:
    """One row per degree d <= n <= n_max: both bounds, the closed-form lower bound, n!."""
    check_d(d)
    if n_max < d:
        raise ValueError(f"need n_max >= d, got n_max = {n_max}, d = {d}")
    check_cap(n_max, BOUNDS_MAX_N, "a bounds table", "n_max")
    radius = ball_radius(n_max, d)
    heads = itertools.islice(_heads(radius), d - 1, None)
    factorial = math.factorial(d - 1)
    rows = []
    for n, head in zip(range(d, n_max + 1), heads):
        factorial *= n
        classic = classic_bound(n, d)
        # theorem_bound(n, d), from the one head carried across every degree
        theorem = factorial - sum(head[: ball_radius(n, d)])
        if theorem < classic:
            winner = WINNER_THEOREM
        elif classic < theorem:
            winner = WINNER_CLASSIC
        else:
            winner = WINNER_TIE
        rows.append(
            BoundRow(
                n=n,
                classic=classic,
                theorem=theorem,
                phi=complement_lower_bound(n, d),
                factorial=factorial,
                winner=winner,
            )
        )
    return tuple(rows)

"""Spanning-set size bounds and where they cross the factorial.

Two upper bounds on the number of degree-n spanning monomials compete: the
classic bound (d - 1)^(2n) and the ball-complement bound counting only the
permutations at word-metric distance at least (n - d)/2.  Both eventually
fall below n!; the crossover degree records when.  A closed-form lower bound
on the complement count and a floating-point tail estimate for Mahonian
numbers round out the toolkit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .mahonian import ball_complement_count

WINNER_CLASSIC = "classic"
WINNER_THEOREM = "theorem"
WINNER_TIE = "tie"


def classic_bound(n: int, d: int) -> int:
    """The bound (d - 1)^(2n).

    >>> classic_bound(9, 3)
    262144
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    return (d - 1) ** (2 * n)


def ball_radius(n: int, d: int) -> int:
    """The threshold K = (n - d)/2 as the integer ceil(K).

    Word lengths are integers, so a length is below K exactly when it is
    below ceil(K).

    >>> ball_radius(7, 4), ball_radius(6, 4)
    (2, 1)
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n < d:
        raise ValueError(f"threshold needs n >= d, got n = {n}, d = {d}")
    return (n - d + 1) // 2


def theorem_bound(n: int, d: int) -> int:
    """Ball-complement bound: permutations of word length >= ceil((n - d)/2).

    >>> theorem_bound(6, 4)
    719
    """
    return ball_complement_count(n, ball_radius(n, d))


def _least_factorial_dominance(base: int) -> int:
    """Least m >= 1 with base**m < m!, by incremental exact iteration."""
    power = 1
    factorial = 1
    m = 0
    while True:
        m += 1
        power *= base
        factorial *= m
        if power < factorial:
            return m


def crossover_n(d: int) -> int:
    """Least n with (d - 1)^(2n) < n!.

    >>> [crossover_n(d) for d in (2, 3, 4, 5)]
    [2, 9, 22, 41]
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return _least_factorial_dominance((d - 1) ** 2)


def tensor_identity_degree(d1: int, d2: int) -> int:
    """Least m with ((d1 - 1)^2 (d2 - 1)^2)^m < m!.

    >>> tensor_identity_degree(3, 3)
    41
    """
    if d1 < 2 or d2 < 2:
        raise ValueError("both factors need d >= 2")
    return _least_factorial_dominance(((d1 - 1) * (d2 - 1)) ** 2)


@dataclass(frozen=True)
class AsymptoticConstants:
    """The infinite product q = prod_j (1 - 2^-j) and the terms used."""

    q: float
    terms: int


def q_constant(tolerance: float = 1e-15) -> AsymptoticConstants:
    """Evaluate prod_{j>=1} (1 - 2^-j) by partial products.

    Multiplies factors until the change drops below the tolerance.  The
    partial products decrease strictly and stay above 0.288.

    >>> round(q_constant(1e-15).q, 10)
    0.2887880951
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    q = 1.0
    terms = 0
    while True:
        terms += 1
        nxt = q * (1.0 - math.ldexp(1.0, -terms))
        converged = q - nxt < tolerance
        q = nxt
        if converged:
            return AsymptoticConstants(q=q, terms=terms)


@lru_cache(maxsize=None)
def _default_q() -> float:
    return q_constant(1e-15).q


@dataclass(frozen=True)
class TailEstimate:
    """Floating-point estimate of I_n(n - k) near the top of the range."""

    n: int
    k: int
    value: float
    log2_value: float
    overflow: bool


def mahonian_asymptotic(n: int, k: int, q: float | None = None) -> TailEstimate:
    """Estimate I_n(n - k) as 2^(2n - k - 1) q / sqrt(n pi).

    Accurate in the bulk regime k = o(sqrt(n)); degrades toward the extreme
    tail.  For 40 <= n <= 100 and k <= floor(sqrt(n)) the ratio
    estimate/exact lies in [0.93, 1.07]; at n = 40, k = 10, outside that
    regime, it is 1.22.  When the power of two exceeds float range the value
    is +inf with overflow flagged; log2_value stays finite either way.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not (0 <= k <= n):
        raise ValueError(f"estimate requires 0 <= k <= n, got k = {k}")
    if q is None:
        q = _default_q()
    exponent = 2 * n - k - 1
    mantissa = q / math.sqrt(n * math.pi)
    log2_value = exponent + math.log2(mantissa)
    try:
        value = math.ldexp(mantissa, exponent)
        overflow = math.isinf(value)
    except OverflowError:
        value = math.inf
        overflow = True
    return TailEstimate(n, k, value, log2_value, overflow)


def complement_lower_bound(n: int, d: int) -> int:
    """Closed-form lower bound n! - (2^(2n - K) - 2^(n - 1)), K = floor((n - d)/2).

    Exact integer arithmetic; may be negative for small n, where the subtracted
    inventory overshoots the factorial.

    >>> complement_lower_bound(10, 4)
    3498240
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n < d:
        raise ValueError(f"lower bound needs n >= d, got n = {n}, d = {d}")
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


@dataclass(frozen=True)
class BoundReport:
    """Side-by-side bound values for one d over a range of degrees."""

    d: int
    rows: tuple[BoundRow, ...]


def compare_bounds(d: int, n_max: int) -> BoundReport:
    """Tabulate both bounds, the closed-form lower bound, and n! for d <= n <= n_max."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n_max < d:
        raise ValueError(f"need n_max >= d, got n_max = {n_max}, d = {d}")
    rows = []
    for n in range(d, n_max + 1):
        classic = classic_bound(n, d)
        theorem = theorem_bound(n, d)
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
                factorial=math.factorial(n),
                winner=winner,
            )
        )
    return BoundReport(d, tuple(rows))

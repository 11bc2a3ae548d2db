"""Exhaustive property suites behind the verify command.

Each suite checks one cluster of structural claims exhaustively: the
word-metric identity, inversion-set round-trips, the d-bad length floor and
the increasing-run bound, the hook-length good count against one
longest-decreasing sweep, under its ceiling and strictly under the theorem
bound, greedy-form structure, chunk size accounting, rearrangement growth,
and the two rewriting closures.  A suite's runner checks one degree n and
returns (checked, failures, info); run_suite loops over the degrees
1..n_max.  A suite states one check: of one word (metric, roundtrip, lgf,
chunks), wrapped by _each_word; of one pair (n, d) (dilworth, classic,
main), wrapped by _each_d, which loops over 2 <= d <= n; or of one degree
(badsize, growth), which is its runner.  _total alone adds outcomes up, in
order.  Below its suite's first degree (Suite.min_n) a runner counts no
check, but may still report info there, and main's runner still works
there: at n = 2 it builds main_closure(2, 2), whose ball is empty, reports
its info line and runs the closure-wide depth and ball-plus-complement
checks, which can fail.  A per-word check maps an image tuple to its
failures.  badsize and dilworth instead read the one longest-decreasing
table per degree (perm.decreasing_table), which the classic closures share;
badsize reads each word's length from perm.length_table too, and calls no
word_length.  Failures are collected as printable counterexample strings,
never raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bounds import ball_radius, classic_bound, theorem_bound
from .errors import FalsificationError, check_cap
from .greedy import (
    chunk_preserving_cuts,
    chunk_stats,
    left_greedy_form,
    rearrangements,
)
from .perm import (
    CAYLEY_BFS_MAX_N,
    Image,
    all_permutations,
    cayley_distance_bfs,
    count_d_good,
    decreasing_histogram,
    decreasing_table,
    from_inversion_set,
    inversion_set,
    length_table,
    longest_decreasing,
    one_line,
    word_length,
)
from .reduction import (
    CLASSIC_CLOSURE_MAX_N,
    MAIN_CLOSURE_MAX_N,
    classic_closure,
    main_closure,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    n_max: int
    checked: int
    failures: tuple[str, ...]
    info: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


# What a suite's runner returns for one degree, and a pair check for one (n, d):
# (checked, failures, info).
_Outcome = tuple[int, list[str], list[str]]


def _total(outcomes: Iterable[_Outcome]) -> _Outcome:
    """The outcomes added up in order: the counts summed, the lists joined."""
    checked, failures, info = 0, [], []
    for more_checked, more_failures, more_info in outcomes:
        checked += more_checked
        failures += more_failures
        info += more_info
    return checked, failures, info


def _each_word(check: Callable[[Image], list[str]]) -> Callable[[int], _Outcome]:
    """A runner applying check to every permutation of degree n."""

    def run(n: int) -> _Outcome:
        words = list(all_permutations(n))
        return len(words), [f for p in words for f in check(p)], []

    return run


def _each_d(check: Callable[[int, int], _Outcome]) -> Callable[[int], _Outcome]:
    """A runner applying check to each pair (n, d), 2 <= d <= n, in order of d."""
    return lambda n: _total(check(n, d) for d in range(2, n + 1))


def _check_metric(p: Image) -> list[str]:
    if word_length(p) != cayley_distance_bfs(p):
        return [f"{one_line(p)}: word_length != BFS distance"]
    return []


def _check_roundtrip(p: Image) -> list[str]:
    r = inversion_set(p)
    try:
        rebuilt = from_inversion_set(len(p), r)  # validates the axioms first
    except ValueError as exc:
        return [f"{one_line(p)}: inversion set violates axioms ({exc})"]
    if rebuilt != p:
        return [f"{one_line(p)}: round-trip mismatch"]
    return []


def _run_badsize(n: int) -> _Outcome:
    """|sigma| >= L(L-1)/2 and I >= n - |sigma|, for L, I the longest decreasing, increasing runs.

    L letters in decreasing order hold C(L, 2) inversions, so the floor covers
    every d <= L.  Deleting one letter of each inversion leaves an increasing
    word, so I >= n - |sigma|.  Complementing values (v -> n + 1 - v) swaps
    decreasing and increasing runs and reverses dictionary order, so the
    increasing runs are decreasing_table(n) read backwards.  checked counts
    the words, each checked both ways.
    """
    decreasing = decreasing_table(n)
    failures = []
    for p, length, longest, increasing in zip(
        all_permutations(n), length_table(n), decreasing, reversed(decreasing)
    ):
        if length < longest * (longest - 1) // 2:
            failures.append(f"{one_line(p)}: length below the {longest}-bad floor")
        if increasing < n - length:
            failures.append(
                f"{one_line(p)}: longest increasing run {increasing} below n - |sigma| "
                f"= {n - length}"
            )
    return len(decreasing), failures, []


def _check_dilworth(n: int, d: int) -> _Outcome:
    """The d-good count, hook length against one sweep, below both bounds.

    It must stay under the classic ceiling (d-1)^(2n) and strictly under
    theorem_bound(n, d), the words outside the ball B((n - d)/2).  Proof of
    the second: a word's longest increasing run is at least n - |sigma|
    (deleting one letter of each inversion leaves an increasing word).  A
    word in the ball has |sigma| <= (n - d - 1)/2, so its increasing run is
    at least (n + d + 1)/2 >= d, and its reversal (positions read backwards)
    is d-bad.  Reversal is injective, so the ball has at most as many words
    as the d-bad set.  It misses reversal(d) followed by the identity, which
    is d-bad and the reversal of a word of length C(n, 2) - C(d, 2), at
    least n - d and so outside the ball.  So the ball is strictly smaller
    than the d-bad set, and good < theorem.  checked is 1 for each (n, d).
    """
    count = count_d_good(n, d)
    swept = sum(decreasing_histogram(n)[:d])
    ceiling = classic_bound(n, d)
    failures = []
    if count != swept:
        failures.append(f"n={n} d={d}: hook-length count {count} != swept count {swept}")
    if count > ceiling:
        failures.append(f"n={n} d={d}: {count} good exceeds {ceiling}")
    bound = theorem_bound(n, d)
    if count >= bound:
        failures.append(f"n={n} d={d}: {count} good not below the theorem bound {bound}")
    return 1, failures, [f"n={n} d={d} good={count} ceiling={ceiling}"]


def _check_lgf(p: Image) -> list[str]:
    chunks = left_greedy_form(p)
    ends = [0] + [pos for chunk in chunks for pos in chunk] + [len(p) + 1]
    # increasing, disjoint spans of length at least 2 inside 1..n
    if any(a >= b for a, b in zip(ends, ends[1:])):
        return [f"{one_line(p)}: chunks are not disjoint spans of length 2 or more"]
    chunk_of = {}
    for idx, (start, end) in enumerate(chunks):
        for pos in range(start, end + 1):
            chunk_of[pos] = idx
    failures = []
    for i, j in inversion_set(p):
        if i not in chunk_of:
            failures.append(f"{one_line(p)}: gap position {i} starts inversion ({i},{j})")
        elif j not in chunk_of or chunk_of[i] != chunk_of[j]:
            failures.append(f"{one_line(p)}: inversion ({i},{j}) crosses a chunk border")
    return failures


def _check_chunks(p: Image) -> list[str]:
    chunk_count, chunk_letters, length = chunk_stats(p)
    failures = []
    if chunk_count > length:
        failures.append(f"{one_line(p)}: more chunks than inversions")
    if chunk_letters > length + chunk_count:
        failures.append(f"{one_line(p)}: chunk letters exceed |sigma| + k")
    for i, j in inversion_set(p):
        if length < j - i:
            failures.append(f"{one_line(p)}: inversion ({i},{j}) longer than |sigma|")
    return failures


def _run_growth(n: int) -> _Outcome:
    checked = 0
    failures = []
    for p in all_permutations(n):
        if left_greedy_form(p) == ((1, n),):
            continue  # single-chunk words are outside the growth claim
        base = word_length(p)
        for pieces in range(2, n + 1):
            for cuts in chunk_preserving_cuts(p, pieces):
                checked += 1
                if any(word_length(c) <= base for c in rearrangements(p, cuts)):
                    failures.append(
                        f"{one_line(p)}: some rearrangement of {pieces} pieces fails to grow"
                    )
    return checked, failures, []


def _check_classic(n: int, d: int) -> _Outcome:
    """The classic closure's d-good terminals and descending steps, one check for each."""
    trace = classic_closure(n, d)
    info = [
        f"n={n} d={d} visited={trace.visited} "
        f"terminal={len(trace.terminal_support)} depth={trace.max_depth}"
    ]
    failures = [
        f"n={n} d={d}: terminal {one_line(p)} is {d}-bad"
        for p in trace.terminal_support
        if longest_decreasing(p) >= d
    ]
    expected = math.factorial(d) - 1
    for parent, children in trace.steps:
        if len(children) != expected or len(set(children)) != expected:
            failures.append(f"n={n} d={d}: {one_line(parent)} has wrong child count")
        if max(children) >= parent:
            failures.append(f"n={n} d={d}: {one_line(parent)} has non-descending child")
    if len(trace.terminal_support) > count_d_good(n, d):
        failures.append(f"n={n} d={d}: terminal support exceeds good count")
    return len(trace.terminal_support) + len(trace.steps), failures, info


def _check_main(n: int, d: int) -> _Outcome:
    """The main closure's terminals outside the ball and growing steps, one check for each."""
    radius = ball_radius(n, d)
    try:
        trace = main_closure(n, d)
    except FalsificationError as exc:  # a counterexample, reported as a failure
        return 0, [f"n={n} d={d}: closure raised {exc}"], []
    info = [
        f"n={n} d={d} sources={len(trace.sources)} visited={trace.visited} "
        f"terminal={len(trace.terminal_support)} depth={trace.max_depth}"
    ]
    failures = [
        f"n={n} d={d}: terminal {one_line(p)} is inside the ball"
        for p in trace.terminal_support
        if word_length(p) < radius
    ]
    expected = math.factorial(d) - 1
    for parent, children in trace.steps:
        if len(children) != expected or len(set(children)) != expected:
            failures.append(f"n={n} d={d}: {one_line(parent)} has wrong child count")
        base = word_length(parent)
        if any(word_length(c) <= base for c in children):
            failures.append(f"n={n} d={d}: {one_line(parent)} has non-growing child")
    if trace.max_depth > n * (n - 1) // 2:
        failures.append(f"n={n} d={d}: depth exceeds C(n,2)")
    if len(trace.sources) + trace.complement_size != math.factorial(n):
        failures.append(f"n={n} d={d}: ball and complement do not add up to n!")
    return len(trace.terminal_support) + len(trace.steps), failures, info


@dataclass(frozen=True)
class Suite:
    name: str
    min_n: int
    cap: int
    default_n: int
    runner: Callable[[int], _Outcome] = field(repr=False)  # checks one degree n


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite("metric", 1, CAYLEY_BFS_MAX_N, 6, _each_word(_check_metric)),
        Suite("roundtrip", 1, 7, 7, _each_word(_check_roundtrip)),
        Suite("badsize", 1, 8, 8, _run_badsize),
        Suite("dilworth", 2, 8, 8, _each_d(_check_dilworth)),
        Suite("lgf", 1, 7, 7, _each_word(_check_lgf)),
        Suite("chunks", 1, 7, 7, _each_word(_check_chunks)),
        Suite("growth", 2, 6, 6, _run_growth),
        Suite("classic", 2, CLASSIC_CLOSURE_MAX_N, 6, _each_d(_check_classic)),
        Suite("main", 3, MAIN_CLOSURE_MAX_N, 7, _each_d(_check_main)),
    )
}


def check_request(name: str, n_max: int | None = None) -> int:
    """The degree cap a run of suite name uses.

    ValueError for a bad request, and ScaleError past the suite's cap.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (known: {','.join(SUITES)})")
    suite = SUITES[name]
    if n_max is None:
        n_max = suite.default_n
    if n_max < suite.min_n:
        raise ValueError(f"suite {name} needs n_max at least {suite.min_n}, got {n_max}")
    check_cap(n_max, suite.cap, f"suite {name}")
    return n_max


def run_suite(name: str, n_max: int | None = None) -> SuiteResult:
    """Run one registered suite at every degree 1..n_max, its default or a requested cap.

    The counts, failures and info lines of the degrees add up in degree order.
    """
    n_max = check_request(name, n_max)
    checked, failures, info = _total(map(SUITES[name].runner, range(1, n_max + 1)))
    return SuiteResult(name, n_max, checked, tuple(failures), tuple(info))

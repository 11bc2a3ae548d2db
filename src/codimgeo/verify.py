"""Exhaustive property suites behind the verify command.

Each suite sweeps all cases up to a degree cap and checks one cluster of
structural claims: the word-metric identity, inversion-set round-trips, the
d-bad length floor, the good-count ceiling, greedy-form structure, chunk size
accounting, rearrangement growth, and the two rewriting closures.  The
per-permutation suites share one sweep and state only their check, which
maps an image tuple to its failures.  Failures are collected as printable
counterexample strings, never raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .bounds import ball_radius
from .errors import FalsificationError, effective_cap
from .greedy import (
    check_growth,
    chunk_stats,
    enumerate_chunk_preserving,
    left_greedy_form,
)
from .mahonian import ball_complement_count
from .perm import (
    Image,
    all_permutations,
    cayley_distance_bfs,
    count_d_good,
    from_inversion_set,
    inversion_set,
    is_d_good,
    longest_decreasing,
    one_line,
    validate_inversion_set,
    word_length,
)
from .reduction import classic_closure, main_closure


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


# What a suite's runner returns: (checked, failures, info).
_Outcome = tuple[int, list[str], list[str]]


def _sweep(check: Callable[[Image], list[str]]) -> Callable[[int], _Outcome]:
    """A runner applying check to every permutation of degree 1 through n_max."""

    def run(n_max: int) -> _Outcome:
        checked = 0
        failures: list[str] = []
        for n in range(1, n_max + 1):
            for p in all_permutations(n):
                checked += 1
                failures += check(p)
        return checked, failures, []

    return run


def _check_metric(p: Image) -> list[str]:
    if word_length(p) != cayley_distance_bfs(p):
        return [f"{one_line(p)}: word_length != BFS distance"]
    return []


def _check_roundtrip(p: Image) -> list[str]:
    r = inversion_set(p)
    try:
        validate_inversion_set(r)
    except ValueError as exc:
        return [f"{one_line(p)}: inversion set violates axioms ({exc})"]
    if from_inversion_set(r) != p:
        return [f"{one_line(p)}: round-trip mismatch"]
    return []


def _check_badsize(p: Image) -> list[str]:
    # |sigma| >= L(L-1)/2 for L the longest decreasing run covers every d <= L
    longest = longest_decreasing(p)
    if word_length(p) < longest * (longest - 1) // 2:
        return [f"{one_line(p)}: length below the {longest}-bad floor"]
    return []


def _run_dilworth(n_max: int) -> _Outcome:
    checked = 0
    failures = []
    info = []
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            checked += 1
            count = count_d_good(n, d)
            ceiling = (d - 1) ** (2 * n)
            info.append(f"n={n} d={d} good={count} ceiling={ceiling}")
            if count > ceiling:
                failures.append(f"n={n} d={d}: {count} good exceeds {ceiling}")
    return checked, failures, info


def _check_lgf(p: Image) -> list[str]:
    form = left_greedy_form(p)
    covered = []
    for idx, chunk in enumerate(form.chunks):
        gap = form.gaps[idx]
        if gap is not None:
            covered.extend(gap.positions())
        covered.extend(chunk.positions())
    if form.gaps[-1] is not None:
        covered.extend(form.gaps[-1].positions())
    if covered != list(range(1, len(p) + 1)):
        return [f"{one_line(p)}: spans do not tile the word"]
    chunk_of = {}
    for idx, chunk in enumerate(form.chunks):
        for pos in chunk.positions():
            chunk_of[pos] = idx
    failures = []
    for i, j in inversion_set(p).pairs:
        if i not in chunk_of:
            failures.append(f"{one_line(p)}: gap position {i} starts inversion ({i},{j})")
        elif j not in chunk_of or chunk_of[i] != chunk_of[j]:
            failures.append(f"{one_line(p)}: inversion ({i},{j}) crosses a chunk border")
    return failures


def _check_chunks(p: Image) -> list[str]:
    stats = chunk_stats(p)
    failures = []
    if stats.chunk_count > stats.word_length:
        failures.append(f"{one_line(p)}: more chunks than inversions")
    if stats.total_chunk_length > stats.word_length + stats.chunk_count:
        failures.append(f"{one_line(p)}: chunk letters exceed |sigma| + k")
    for i, j in inversion_set(p).pairs:
        if stats.word_length < j - i:
            failures.append(f"{one_line(p)}: inversion ({i},{j}) longer than |sigma|")
    return failures


def _run_growth(n_max: int) -> _Outcome:
    checked = 0
    failures = []
    for n in range(2, n_max + 1):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            if form.k == 1 and form.chunks[0].length == n:
                continue  # single-chunk words are outside the growth claim
            for pieces in range(2, n + 1):
                for dec in enumerate_chunk_preserving(form, pieces):
                    checked += 1
                    if not check_growth(dec):
                        failures.append(
                            f"{one_line(p)}: some rearrangement of {pieces} pieces fails to grow"
                        )
    return checked, failures, []


def _run_classic(n_max: int) -> _Outcome:
    checked = 0
    failures = []
    info = []
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            trace = classic_closure(n, d)
            info.append(
                f"n={n} d={d} visited={trace.visited} "
                f"terminal={len(trace.terminal_support)} depth={trace.max_depth}"
            )
            for p in trace.terminal_support:
                checked += 1
                if not is_d_good(p, d):
                    failures.append(f"n={n} d={d}: terminal {one_line(p)} is {d}-bad")
            expected = math.factorial(d) - 1
            for parent, children in trace.steps:
                checked += 1
                if len(children) != expected or len(set(children)) != expected:
                    failures.append(f"n={n} d={d}: {one_line(parent)} has wrong child count")
                if any(c >= parent for c in children):
                    failures.append(f"n={n} d={d}: {one_line(parent)} has non-descending child")
            if len(trace.terminal_support) > count_d_good(n, d):
                failures.append(f"n={n} d={d}: terminal support exceeds good count")
    return checked, failures, info


def _run_main(n_max: int) -> _Outcome:
    checked = 0
    failures = []
    info = []
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            radius = ball_radius(n, d)
            try:
                trace = main_closure(n, d)
            except FalsificationError as exc:  # a counterexample, reported as a failure
                failures.append(f"n={n} d={d}: closure raised {exc}")
                continue
            info.append(
                f"n={n} d={d} sources={len(trace.sources)} visited={trace.visited} "
                f"terminal={len(trace.terminal_support)} depth={trace.max_depth}"
            )
            for p in trace.terminal_support:
                checked += 1
                if word_length(p) < radius:
                    failures.append(f"n={n} d={d}: terminal {one_line(p)} is inside the ball")
            expected = math.factorial(d) - 1
            for parent, children in trace.steps:
                checked += 1
                if len(children) != expected:
                    failures.append(f"n={n} d={d}: {one_line(parent)} has wrong child count")
                base = word_length(parent)
                if any(word_length(c) <= base for c in children):
                    failures.append(f"n={n} d={d}: {one_line(parent)} has non-growing child")
            if len(trace.steps) != len(trace.sources):
                failures.append(f"n={n} d={d}: some ball member was not rewritten")
            if trace.max_depth > n * (n - 1) // 2:
                failures.append(f"n={n} d={d}: depth exceeds C(n,2)")
            if trace.complement_size != ball_complement_count(n, radius):
                failures.append(f"n={n} d={d}: complement cross-reference mismatch")
    return checked, failures, info


@dataclass(frozen=True)
class Suite:
    name: str
    description: str
    min_n: int
    hard_cap: int
    default_n: int
    runner: Callable[[int], _Outcome] = field(repr=False)

    @property
    def cap(self) -> int:
        return effective_cap(self.hard_cap)


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite("metric", "word length equals Cayley BFS distance", 1, 6, 6, _sweep(_check_metric)),
        Suite("roundtrip", "inversion-set reconstruction round-trips", 1, 7, 7, _sweep(_check_roundtrip)),
        Suite("badsize", "d-bad words have at least d(d-1)/2 inversions", 1, 8, 8, _sweep(_check_badsize)),
        Suite("dilworth", "d-good counts stay under (d-1)^(2n)", 2, 8, 8, _run_dilworth),
        Suite("lgf", "left greedy form tiles the word and traps inversions", 1, 7, 7, _sweep(_check_lgf)),
        Suite("chunks", "chunk counts and lengths respect the word length", 1, 7, 7, _sweep(_check_chunks)),
        Suite("growth", "nontrivial rearrangements strictly grow", 2, 6, 6, _run_growth),
        Suite("classic", "dictionary-descent closure ends d-good", 2, 7, 6, _run_classic),
        Suite("main", "ball-escape closure ends outside the ball", 2, 8, 7, _run_main),
    )
}


def check_request(name: str, n_max: int | None = None) -> int:
    """The degree cap a run of suite name uses; ValueError for a bad request."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (known: {','.join(SUITES)})")
    suite = SUITES[name]
    if n_max is None:
        n_max = min(suite.default_n, suite.cap)
    if n_max < suite.min_n:
        raise ValueError(f"suite {name} needs n_max at least {suite.min_n}, got {n_max}")
    if n_max > suite.cap:
        raise ValueError(f"suite {name} is capped at n <= {suite.cap}, got {n_max}")
    return n_max


def run_suite(name: str, n_max: int | None = None) -> SuiteResult:
    """Run one registered suite at its default or a requested degree cap."""
    n_max = check_request(name, n_max)
    checked, failures, info = SUITES[name].runner(n_max)
    return SuiteResult(name, n_max, checked, tuple(failures), tuple(info))

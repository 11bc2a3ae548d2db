"""Exhaustive property suites behind the verify command.

Each suite sweeps all permutations up to a degree cap and checks one cluster
of structural claims: the word-metric identity, inversion-set round-trips,
the d-bad length floor, the good-count ceiling, greedy-form structure, chunk
size accounting, rearrangement growth, and the two rewriting closures.
Failures are collected as printable counterexample strings, never raised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import effective_cap
from .greedy import (
    check_growth,
    chunk_stats,
    enumerate_chunk_preserving,
    left_greedy_form,
)
from .mahonian import ball_complement_count
from .perm import (
    all_permutations,
    cayley_distance_bfs,
    count_d_good,
    dictionary_compare,
    from_inversion_set,
    inversion_set,
    is_d_good,
    longest_decreasing,
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


def _run_metric(n_max: int) -> SuiteResult:
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for p in all_permutations(n):
            checked += 1
            if word_length(p) != cayley_distance_bfs(p):
                failures.append(f"{p}: word_length != BFS distance")
    return SuiteResult("metric", n_max, checked, tuple(failures))


def _run_roundtrip(n_max: int) -> SuiteResult:
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for p in all_permutations(n):
            checked += 1
            r = inversion_set(p)
            try:
                validate_inversion_set(r)
            except ValueError as exc:
                failures.append(f"{p}: inversion set violates axioms ({exc})")
                continue
            if from_inversion_set(r) != p:
                failures.append(f"{p}: round-trip mismatch")
    return SuiteResult("roundtrip", n_max, checked, tuple(failures))


def _run_badsize(n_max: int) -> SuiteResult:
    # |sigma| >= L(L-1)/2 for L the longest decreasing run covers every d <= L
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for p in all_permutations(n):
            checked += 1
            longest = longest_decreasing(p)
            if word_length(p) < longest * (longest - 1) // 2:
                failures.append(f"{p}: length below the {longest}-bad floor")
    return SuiteResult("badsize", n_max, checked, tuple(failures))


def _run_dilworth(n_max: int) -> SuiteResult:
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
    return SuiteResult("dilworth", n_max, checked, tuple(failures), tuple(info))


def _run_lgf(n_max: int) -> SuiteResult:
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for p in all_permutations(n):
            checked += 1
            form = left_greedy_form(p)
            covered = []
            for idx, chunk in enumerate(form.chunks):
                gap = form.gaps[idx]
                if gap is not None:
                    covered.extend(gap.positions())
                covered.extend(chunk.positions())
            if form.gaps[-1] is not None:
                covered.extend(form.gaps[-1].positions())
            if covered != list(range(1, n + 1)):
                failures.append(f"{p}: spans do not tile the word")
                continue
            pairs = inversion_set(p).pairs
            chunk_of = {}
            for idx, chunk in enumerate(form.chunks):
                for pos in chunk.positions():
                    chunk_of[pos] = idx
            for i, j in pairs:
                if i not in chunk_of:
                    failures.append(f"{p}: gap position {i} starts inversion ({i},{j})")
                elif j not in chunk_of or chunk_of[i] != chunk_of[j]:
                    failures.append(f"{p}: inversion ({i},{j}) crosses a chunk border")
    return SuiteResult("lgf", n_max, checked, tuple(failures))


def _run_chunks(n_max: int) -> SuiteResult:
    checked = 0
    failures = []
    for n in range(1, n_max + 1):
        for p in all_permutations(n):
            checked += 1
            stats = chunk_stats(p)
            if stats.chunk_count > stats.word_length:
                failures.append(f"{p}: more chunks than inversions")
            if stats.total_chunk_length > stats.word_length + stats.chunk_count:
                failures.append(f"{p}: chunk letters exceed |sigma| + k")
            for i, j in inversion_set(p).pairs:
                if stats.word_length < j - i:
                    failures.append(f"{p}: inversion ({i},{j}) longer than |sigma|")
    return SuiteResult("chunks", n_max, checked, tuple(failures))


def _run_growth(n_max: int) -> SuiteResult:
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
                            f"{p}: some rearrangement of {pieces} pieces fails to grow"
                        )
    return SuiteResult("growth", n_max, checked, tuple(failures))


def _run_classic(n_max: int) -> SuiteResult:
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
                    failures.append(f"n={n} d={d}: terminal {p} is {d}-bad")
            expected = math.factorial(d) - 1
            for parent, children in trace.steps:
                checked += 1
                if len(children) != expected or len(set(children)) != expected:
                    failures.append(f"n={n} d={d}: {parent} has wrong child count")
                if any(dictionary_compare(c, parent) >= 0 for c in children):
                    failures.append(f"n={n} d={d}: {parent} has non-descending child")
            if len(trace.terminal_support) > count_d_good(n, d):
                failures.append(f"n={n} d={d}: terminal support exceeds good count")
    return SuiteResult("classic", n_max, checked, tuple(failures), tuple(info))


def _run_main(n_max: int) -> SuiteResult:
    checked = 0
    failures = []
    info = []
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            threshold = Fraction(n - d, 2)
            try:
                trace = main_closure(n, d)
            except Exception as exc:  # falsification must surface, not crash
                failures.append(f"n={n} d={d}: closure raised {exc}")
                continue
            info.append(
                f"n={n} d={d} sources={len(trace.sources)} visited={trace.visited} "
                f"terminal={len(trace.terminal_support)} depth={trace.max_depth}"
            )
            for p in trace.terminal_support:
                checked += 1
                if word_length(p) < threshold:
                    failures.append(f"n={n} d={d}: terminal {p} is inside the ball")
            expected = math.factorial(d) - 1
            for parent, children in trace.steps:
                checked += 1
                if len(children) != expected:
                    failures.append(f"n={n} d={d}: {parent} has wrong child count")
                base = word_length(parent)
                if any(word_length(c) <= base for c in children):
                    failures.append(f"n={n} d={d}: {parent} has non-growing child")
            if trace.max_depth > n * (n - 1) // 2:
                failures.append(f"n={n} d={d}: depth exceeds C(n,2)")
            if trace.complement_size != ball_complement_count(n, threshold):
                failures.append(f"n={n} d={d}: complement cross-reference mismatch")
    return SuiteResult("main", n_max, checked, tuple(failures), tuple(info))


@dataclass(frozen=True)
class Suite:
    name: str
    description: str
    hard_cap: int
    default_n: int
    runner: Callable[[int], SuiteResult] = field(repr=False)

    @property
    def cap(self) -> int:
        return effective_cap(self.hard_cap)


SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite("metric", "word length equals Cayley BFS distance", 6, 6, _run_metric),
        Suite("roundtrip", "inversion-set reconstruction round-trips", 7, 7, _run_roundtrip),
        Suite("badsize", "d-bad words have at least d(d-1)/2 inversions", 8, 8, _run_badsize),
        Suite("dilworth", "d-good counts stay under (d-1)^(2n)", 8, 8, _run_dilworth),
        Suite("lgf", "left greedy form tiles the word and traps inversions", 7, 7, _run_lgf),
        Suite("chunks", "chunk counts and lengths respect the word length", 7, 7, _run_chunks),
        Suite("growth", "nontrivial rearrangements strictly grow", 6, 6, _run_growth),
        Suite("classic", "dictionary-descent closure ends d-good", 7, 6, _run_classic),
        Suite("main", "ball-escape closure ends outside the ball", 8, 7, _run_main),
    )
}


def run_suite(name: str, n_max: int | None = None) -> SuiteResult:
    """Run one registered suite at its default or a requested degree cap."""
    suite = SUITES[name]
    if n_max is None:
        n_max = min(suite.default_n, suite.cap)
    if n_max < 1:
        raise ValueError(f"suite {name} needs n_max at least 1, got {n_max}")
    if n_max > suite.cap:
        raise ValueError(f"suite {name} is capped at n <= {suite.cap}, got {n_max}")
    return suite.runner(n_max)

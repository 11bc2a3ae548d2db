"""Permutations in one-line notation and their inversion geometry.

Positions and values are 1-based throughout: a permutation of degree n is
the image tuple (sigma(1), ..., sigma(n)), and every function here takes and
returns such tuples.  Permutation validates one that comes from outside the
library; its .image is what gets passed in.  The inversion set of sigma is

    R(sigma) = {(i, j) : i < j and sigma(j) < sigma(i)},

a frozenset of position pairs, and the word metric |sigma| = #R(sigma)
equals the Cayley-graph distance from the identity with respect to the
adjacent transpositions.  ball_layers lists that graph's distance layers by
one breadth-first search, which uses no fact about inversions, so
cayley_distance_bfs reads its oracle for word_length off the same layers.
A permutation is d-good when it admits no strictly decreasing value
subsequence at d increasing positions, and d-bad otherwise.

The d-good words of degree n are counted without listing them.  By
Robinson-Schensted (Schensted 1961) a word's longest decreasing subsequence
is the number of rows of its tableau shape, so the count is the sum of
(f^lambda)^2 over the partitions lambda of n into at most d - 1 parts, and
the hook-length formula (Frame-Robinson-Thrall 1954) gives
f^lambda = n! / prod(hooks).  That costs O(n) exact multiplications per
partition, against the n! words of decreasing_histogram, the brute-force
oracle; both keep the cap COUNT_GOOD_MAX_N.

Two per-degree byte tables serve the exhaustive sweeps, one entry per word in
dictionary order and under the same cap: decreasing_table holds each word's
longest decreasing run, one patience sort per word, cached since several
sweeps share it, and length_table its word length, built in C from the
factorial-base recurrence on the words' Lehmer codes, with word_length as its
oracle; its one reader asks for each degree once, so it is not cached.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Set
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, permutations, starmap
from operator import gt

from .errors import InvalidInversionSetError, check_d, check_degree, check_scale

CAYLEY_BFS_MAX_N = 6
COUNT_GOOD_MAX_N = 9


Image = tuple[int, ...]


def one_line(image: Image) -> str:
    """Comma-separated one-line notation.

    >>> one_line((2, 1, 4, 3))
    '2,1,4,3'
    >>> one_line((1,))
    '1'
    >>> one_line([3, 1, 2])
    '3,1,2'
    """
    # one printf-style format renders about twice as fast as map(str)
    return ",".join(["%d"] * len(image)) % tuple(image)


@dataclass(frozen=True)
class Permutation:
    """A validated permutation of {1, ..., n}, for input from outside the library.

    >>> Permutation([2, 1, 4, 3]).image
    (2, 1, 4, 3)
    >>> str(Permutation((2, 1, 4, 3)))
    '2,1,4,3'
    """

    image: Image

    def __post_init__(self):
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        n = len(image)
        check_degree(n)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in image):
            raise ValueError(f"entries must be integers: {image}")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {image}")

    def __str__(self) -> str:
        return one_line(self.image)


def parse_permutation(text: str) -> Permutation:
    """Parse comma-separated one-line notation, e.g. "2,1,4,3".

    >>> parse_permutation("3,1,2").image
    (3, 1, 2)
    """
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"not comma-separated integers: {text!r}") from exc
    return Permutation(values)


def identity(n: int) -> Image:
    return tuple(range(1, n + 1))


def reversal(n: int) -> Image:
    """The order-reversing permutation, the unique longest element."""
    return tuple(range(n, 0, -1))


def all_permutations(n: int):
    """All n! permutations of degree n, in dictionary order."""
    return permutations(range(1, n + 1))


def ball_layers(n: int, radius: int) -> list[list[Image]]:
    """The words of each length l < radius, one dictionary-sorted layer per l.

    A breadth-first search of the Cayley graph of the n - 1 adjacent
    transpositions: layer 0 is the identity, and layer l + 1 is every
    neighbour of layer l that no earlier layer holds.  It stops at the radius
    or at the first empty layer.  The search uses no fact about inversions,
    since the metric oracle (cayley_distance_bfs) reads its layers.  It can
    hold all n! words, so it keeps the cap of perm's other tables of all
    words, COUNT_GOOD_MAX_N (n <= 9).

    >>> ball_layers(3, 3)
    [[(1, 2, 3)], [(1, 3, 2), (2, 1, 3)], [(2, 3, 1), (3, 1, 2)]]
    """
    check_scale(n, COUNT_GOOD_MAX_N, "ball_layers")
    layers = [[identity(n)]] if radius > 0 else []
    seen = {identity(n)}
    while len(layers) < radius:
        layer = sorted({
            p[:i] + (p[i + 1], p[i]) + p[i + 2:] for p in layers[-1] for i in range(n - 1)
        } - seen)
        if not layer:
            break
        layers.append(layer)
        seen.update(layer)
    return layers


def inversion_set(image: Image) -> frozenset[tuple[int, int]]:
    """All pairs of positions holding values out of order.

    >>> sorted(inversion_set((2, 1, 4, 3)))
    [(1, 2), (3, 4)]
    """
    positions = range(1, len(image) + 1)
    return frozenset(
        compress(combinations(positions, 2), starmap(gt, combinations(image, 2)))
    )


def word_length(image: Image) -> int:
    """The word metric |sigma| = number of inversions.

    >>> word_length(reversal(4))
    6
    """
    # Insertion count: each value adds one inversion per larger value before it.
    seen: list[int] = []
    total = 0
    for v in image:
        pos = bisect_left(seen, v)
        total += len(seen) - pos
        insort(seen, v)
    return total


@lru_cache(maxsize=None)
def _cayley_distances(n: int) -> dict[tuple[int, ...], int]:
    # n! bounds the number of layers without assuming the diameter
    layers = ball_layers(n, math.factorial(n))
    return {p: length for length, layer in enumerate(layers) for p in layer}


def cayley_distance_bfs(image: Image) -> int:
    """Distance to the identity in the adjacent-transposition Cayley graph.

    The BFS oracle for word_length, read off ball_layers' search, which uses
    no fact about inversions; exhaustive, so capped at n <= 6.
    """
    check_scale(len(image), CAYLEY_BFS_MAX_N, "cayley_distance_bfs")
    return _cayley_distances(len(image))[image]


def _axiom_rows(n: int, pairs: Set[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Range-check pairs, then check the two axioms on bit rows.

    rows[i] has bit j set for each pair (i, j), and below[j] counts the pairs
    ending at j.  Each position pair (i, j) is checked once, in dictionary
    order.  If (i, j) is a pair, only transitivity can fail there, at the k > j
    in rows[j] but not in rows[i]; otherwise only interpolation can, at the
    k > j in rows[i] but not in rows[j].  The least such k gives the same
    witness as a loop over the triples i < j < k in dictionary order.
    """
    check_degree(n)
    rows = [0] * (n + 1)
    below = [0] * (n + 1)
    for i, j in pairs:
        if not (1 <= i < j <= n):
            raise ValueError(f"pair {(i, j)} out of range for n = {n}")
        rows[i] |= 1 << j
        below[j] += 1
    for i in range(1, n - 1):
        row = rows[i]
        for j in range(i + 1, n):
            if row >> j & 1:
                axiom, bad = "transitivity", rows[j] & ~row
            else:
                axiom, bad = "interpolation", row & ~rows[j]
            bad >>= j + 1  # only the k > j; bit b stands for k = j + 1 + b
            if bad:
                raise InvalidInversionSetError(axiom, (i, j, j + (bad & -bad).bit_length()))
    return rows, below


def validate_inversion_set(n: int, pairs: Set[tuple[int, int]]) -> None:
    """Check that pairs is the inversion set of some permutation of degree n.

    Every pair (i, j) must satisfy 1 <= i < j <= n (ValueError otherwise).
    Then the two axioms characterizing inversion sets.  Transitivity: (i,j)
    and (j,k) present forces (i,k).  Interpolation: (i,k) present forces
    (i,j) or (j,k) for every i < j < k.  Raises InvalidInversionSetError
    naming the failing axiom and the dictionary-least witness triple (i, j, k).
    The pairs are held as one bit row per position, so the check takes
    O(n^2) word operations, not O(n^3) set lookups.

    >>> validate_inversion_set(3, {(1, 3)})
    Traceback (most recent call last):
    ...
    codimgeo.errors.InvalidInversionSetError: interpolation fails at positions (1, 2, 3)
    """
    _axiom_rows(n, pairs)


def from_inversion_set(n: int, pairs: Set[tuple[int, int]]) -> Image:
    """Reconstruct the unique permutation of degree n with inversion set pairs.

    pairs is any set of position pairs, validated first.  The value at
    position i is determined by counting, among the other positions, how
    many must hold smaller values:

        sigma(i) = 1 + #{j > i : (i,j) in R} + #{j < i : (j,i) not in R}

    The first count is the population count of the bit row of i, and the
    second is i - 1 less the pairs ending at i, both read off the rows the
    validation built.

    >>> from_inversion_set(3, {(1, 2)})
    (2, 1, 3)
    """
    rows, below = _axiom_rows(n, pairs)
    return tuple(i + rows[i].bit_count() - below[i] for i in range(1, n + 1))


def longest_decreasing(image: Image) -> int:
    """Length of the longest strictly decreasing value subsequence.

    Patience sorting from the right, O(n log n): a decreasing run read
    backwards is an increasing one.

    >>> longest_decreasing((4, 1, 3, 2))
    3
    """
    tails: list[int] = []
    for v in reversed(image):
        pos = bisect_left(tails, v)
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    return len(tails)


def is_d_good(image: Image, d: int) -> bool:
    """True when no strictly decreasing subsequence of length d exists.

    Any d > n is vacuously good; the empty word is refused like degree 0.
    """
    check_d(d)
    check_degree(len(image))
    return longest_decreasing(image) < d


def find_d_bad_witness(image: Image, d: int) -> tuple[int, ...] | None:
    """Dictionary-least increasing positions carrying strictly decreasing values.

    Returns None when the permutation is d-good.  Among all witnesses (i_1 < ... < i_d
    with sigma(i_1) > ... > sigma(i_d)) the returned tuple is least in the
    dictionary order on position tuples.

    >>> find_d_bad_witness((4, 1, 3, 2), 3)
    (1, 3, 4)
    """
    check_d(d)
    n = len(image)
    check_degree(n)
    # drop[i] = longest strictly decreasing subsequence starting at position i,
    # by patience sorting from the right: tails[m] is the least first value of
    # a decreasing run of length m + 1 among the positions after i.
    drop = [0] * n
    tails: list[int] = []
    for i in range(n - 1, -1, -1):
        v = image[i]
        pos = bisect_left(tails, v)
        drop[i] = pos + 1
        if pos == len(tails):
            tails.append(v)
        else:
            tails[pos] = v
    if len(tails) < d:  # every d > n too: n letters hold no longer run
        return None
    witness = []
    prev_value = n + 1
    start = 0
    for remaining in range(d, 0, -1):
        for i in range(start, n):
            if image[i] < prev_value and drop[i] >= remaining:
                witness.append(i + 1)
                prev_value = image[i]
                start = i + 1
                break
    return tuple(witness)


def _partitions(n: int, parts: int, largest: int):
    """The partitions of n into at most parts parts, none above largest."""
    if n == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, parts - 1, first):
            yield (first,) + rest


def _hook_product(shape: tuple[int, ...]) -> int:
    """The product of the hook lengths of a partition's cells."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    return math.prod(
        row - j + columns[j] - i - 1 for i, row in enumerate(shape) for j in range(row)
    )


def count_d_good(n: int, d: int) -> int:
    """Number of d-good permutations of degree n, by the hook-length formula.

    The sum of (n! / prod(hooks))^2 over the partitions of n into at most
    d - 1 parts, in exact integers; every d > n counts all n! words.  It
    keeps the cap of its brute-force oracle decreasing_histogram, n <= 9.
    At d = 3 the count is the Catalan number.

    >>> count_d_good(3, 2)
    1
    >>> count_d_good(4, 5)
    24
    >>> [count_d_good(n, 3) for n in range(1, 8)]
    [1, 2, 5, 14, 42, 132, 429]
    """
    check_d(d)
    check_scale(n, COUNT_GOOD_MAX_N, "count_d_good")
    factorial = math.factorial(n)
    return sum(
        (factorial // _hook_product(shape)) ** 2 for shape in _partitions(n, d - 1, n)
    )


@lru_cache(maxsize=None)
def decreasing_table(n: int) -> bytes:
    """longest_decreasing of every word of degree n, one byte each, in dictionary order.

    Built once per degree on first use and cached, so the sweeps that need
    it (the histogram, the classic closures' sources and the badsize suite)
    share one pass over the n! words.  Capped at n <= 9; a refused n raises on
    every call, since lru_cache does not cache exceptions.

    >>> list(decreasing_table(3))
    [1, 2, 2, 2, 2, 3]
    """
    check_scale(n, COUNT_GOOD_MAX_N, "decreasing_table")
    return bytes(map(longest_decreasing, all_permutations(n)))


def length_table(n: int) -> bytes:
    """word_length of every word of degree n, one byte each, in dictionary order.

    The r-th word's Lehmer code (its count of smaller letters after each
    position) is r written in the factorial base, and |sigma| is its digit
    sum.  A word starting with c + 1 has c inversions at its first letter and
    is followed by the words of degree n - 1 in dictionary order, so the table
    is n blocks, block c being length_table(n - 1) shifted up by c, each one
    bytes.translate.  Capped at n <= 9 like decreasing_table but not cached,
    as its one reader, the badsize suite, asks for each degree once;
    word_length is its exhaustive oracle.

    >>> list(length_table(3))
    [0, 1, 1, 2, 2, 3]
    """
    check_scale(n, COUNT_GOOD_MAX_N, "length_table")
    if n == 1:
        return b"\x00"
    rest = length_table(n - 1)
    # the translation maps x to x + c for x < 256 - c, and no length exceeds C(9, 2)
    return b"".join(rest.translate(bytes(range(c, 256)) + bytes(c)) for c in range(n))


def decreasing_histogram(n: int) -> tuple[int, ...]:
    """Count of the words of degree n by longest decreasing subsequence, 0..n.

    The brute-force oracle for count_d_good, whose value at d is the sum of
    the first d entries.  Counts decreasing_table(n), a sweep of all n!
    words, so capped at n <= 9.

    >>> decreasing_histogram(3)
    (0, 1, 4, 1)
    """
    table = decreasing_table(n)
    return tuple(table.count(k) for k in range(n + 1))

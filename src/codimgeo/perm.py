"""Permutations in one-line notation and their inversion geometry.

Positions and values are 1-based throughout: a permutation of degree n is
the image tuple (sigma(1), ..., sigma(n)), and every function here takes and
returns such tuples.  Permutation validates one that comes from outside the
library; its .image is what gets passed in.  The inversion set of sigma is

    R(sigma) = {(i, j) : i < j and sigma(j) < sigma(i)}

and the word metric |sigma| = #R(sigma) equals the Cayley-graph distance from
the identity with respect to the adjacent transpositions.  A permutation is
d-good when it admits no strictly decreasing value subsequence at d increasing
positions, and d-bad otherwise.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInversionSetError, check_scale

CAYLEY_BFS_MAX_N = 6
COUNT_GOOD_MAX_N = 9


Image = tuple[int, ...]


def one_line(image: Image) -> str:
    """Comma-separated one-line notation.

    >>> one_line((2, 1, 4, 3))
    '2,1,4,3'
    """
    return ",".join(map(str, image))


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
        if n < 1:
            raise ValueError("degree must be at least 1")
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
    return itertools.permutations(range(1, n + 1))


@dataclass(frozen=True)
class InversionSet:
    """A set of position pairs (i, j) with 1 <= i < j <= n."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be at least 1")
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for i, j in self.pairs:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"pair {(i, j)} out of range for n = {self.n}")


def inversion_set(image: Image) -> InversionSet:
    """All pairs of positions holding values out of order.

    >>> sorted(inversion_set((2, 1, 4, 3)).pairs)
    [(1, 2), (3, 4)]
    """
    n = len(image)
    pairs = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if image[j - 1] < image[i - 1]
    )
    return InversionSet(n, pairs)


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
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        image = queue.popleft()
        d = dist[image]
        for i in range(n - 1):
            swapped = image[:i] + (image[i + 1], image[i]) + image[i + 2:]
            if swapped not in dist:
                dist[swapped] = d + 1
                queue.append(swapped)
    return dist


def cayley_distance_bfs(image: Image) -> int:
    """Distance to the identity in the adjacent-transposition Cayley graph.

    Independent BFS oracle for word_length; exhaustive, so capped at n <= 6.
    """
    check_scale(len(image), CAYLEY_BFS_MAX_N, "cayley_distance_bfs")
    return _cayley_distances(len(image))[image]


def validate_inversion_set(candidate: InversionSet) -> None:
    """Check the two axioms characterizing inversion sets.

    Transitivity: (i,j) and (j,k) present forces (i,k).  Interpolation:
    (i,k) present forces (i,j) or (j,k) for every i < j < k.  Raises
    InvalidInversionSetError naming the failing axiom and a witness triple.
    """
    pairs = candidate.pairs
    n = candidate.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ij, jk, ik = (i, j) in pairs, (j, k) in pairs, (i, k) in pairs
                if ij and jk and not ik:
                    raise InvalidInversionSetError("transitivity", (i, j, k))
                if ik and not ij and not jk:
                    raise InvalidInversionSetError("interpolation", (i, j, k))


def from_inversion_set(candidate: InversionSet) -> Image:
    """Reconstruct the unique permutation with the given inversion set.

    The value at position i is determined by counting, among the other
    positions, how many must hold smaller values:

        sigma(i) = 1 + #{j > i : (i,j) in R} + #{j < i : (j,i) not in R}

    >>> from_inversion_set(InversionSet(3, frozenset({(1, 2)})))
    (2, 1, 3)
    """
    validate_inversion_set(candidate)
    n = candidate.n
    pairs = candidate.pairs
    image = []
    for i in range(1, n + 1):
        after = sum(1 for j in range(i + 1, n + 1) if (i, j) in pairs)
        before = sum(1 for j in range(1, i) if (j, i) not in pairs)
        image.append(1 + after + before)
    return tuple(image)


def longest_decreasing(image: Image) -> int:
    """Length of the longest strictly decreasing value subsequence.

    Patience sorting on negated values, O(n log n).

    >>> longest_decreasing((4, 1, 3, 2))
    3
    """
    tails: list[int] = []
    for v in image:
        pos = bisect_left(tails, -v)
        if pos == len(tails):
            tails.append(-v)
        else:
            tails[pos] = -v
    return len(tails)


def is_d_good(image: Image, d: int) -> bool:
    """True when no strictly decreasing subsequence of length d exists.

    Any d > n is vacuously good.  Requires d >= 2.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return longest_decreasing(image) < d


def find_d_bad_witness(image: Image, d: int) -> tuple[int, ...] | None:
    """Dictionary-least increasing positions carrying strictly decreasing values.

    Returns None when the permutation is d-good.  Among all witnesses (i_1 < ... < i_d
    with sigma(i_1) > ... > sigma(i_d)) the returned tuple is least in the
    dictionary order on position tuples.

    >>> find_d_bad_witness((4, 1, 3, 2), 3)
    (1, 3, 4)
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    n = len(image)
    if d > n:
        return None
    # drop[i] = longest strictly decreasing subsequence starting at position i.
    drop = [1] * n
    for i in range(n - 2, -1, -1):
        best = 0
        for j in range(i + 1, n):
            if image[j] < image[i] and drop[j] > best:
                best = drop[j]
        drop[i] = best + 1
    if max(drop) < d:
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


def count_d_good(n: int, d: int) -> int:
    """Exhaustive count of d-good permutations of degree n.  Capped at n <= 9.

    >>> count_d_good(3, 2)
    1
    >>> count_d_good(4, 5)
    24
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n < 1:
        raise ValueError("degree must be at least 1")
    check_scale(n, COUNT_GOOD_MAX_N, "count_d_good")
    return sum(1 for image in all_permutations(n) if longest_decreasing(image) < d)

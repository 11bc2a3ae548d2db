"""Left greedy form and chunk-preserving decompositions.

Reading a permutation's one-line word left to right, cut after position j
exactly when the first j letters are {1, ..., j}, that is when
max sigma(1..j) = j.  The blocks between cuts are the word's sum
(direct-sum) components; each block longer than one position is a chunk and
each single position is a gap letter.  Runs of gap letters form the gaps of

    w = y_0 c_1 y_1 c_2 ... c_k y_k

(the left greedy form; gaps may be empty).  The form is carried as its tuple
of chunk spans (start, end), 1-based and inclusive; the gaps are the positions
outside them.  Gap positions are never the left element of an inversion, and
every inversion lives inside a single chunk.

A decomposition of the word into consecutive nonempty pieces is
chunk-preserving when each piece either contains no chunk positions (a gap
piece) or starts exactly at some chunk's start and covers that chunk; only
the final piece may run on into later chunks, in which case it extends to the
end of the word.  A decomposition into p pieces is its tuple of cuts
1 <= c_1 < ... < c_{p-1} <= n - 1: piece i ends at position c_i and the last
piece ends at n.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .perm import Image, word_length


def left_greedy_form(perm: Image) -> tuple[tuple[int, int], ...]:
    """The chunks (start, end): cut where max sigma(1..j) = j, keep longer blocks.

    >>> left_greedy_form((2, 1, 4, 3))
    ((1, 2), (3, 4))
    >>> left_greedy_form((1, 3, 2, 4))
    ((2, 3),)
    """
    chunks = []
    block = 1  # first position of the current sum component
    high = 0
    for j, value in enumerate(perm, 1):
        high = max(high, value)
        if high == j:
            if j > block:
                chunks.append((block, j))
            block = j + 1
    return tuple(chunks)


def _chunk_preserving(chunks: tuple[tuple[int, int], ...], cuts: tuple[int, ...]) -> bool:
    """Are the pieces ending at cuts[0], cuts[1], ... and n chunk-preserving?

    The cuts must be strictly increasing inside 1..n-1.  No cut falls
    strictly inside a chunk, a piece holding a chunk start begins at one, and
    only the last piece may hold two or more.
    """
    t = 0  # next chunk not yet covered
    begin = 1
    for end in cuts:
        # a piece that also holds chunk t + 1's start leaves that chunk
        # starting before the next piece, which fails below or at the return
        if t < len(chunks) and chunks[t][0] <= end:
            if chunks[t][0] != begin or end < chunks[t][1]:
                return False
            t += 1
        begin = end + 1
    return t == len(chunks) or chunks[t][0] == begin


def enumerate_chunk_preserving(perm: Image, pieces: int) -> list[tuple[int, ...]]:
    """The cut tuples of all chunk-preserving decompositions into p pieces.

    Ordered lexicographically.  Counting each gap position and each chunk as
    one atom, the list is nonempty iff low <= p <= (number of atoms), where
    low is 1 if the word starts with a chunk or has none, else 2.  So
    reversal(3), a single chunk, has no decomposition into 2 pieces.
    first_chunk_preserving builds element [0] directly; this full listing
    serves the growth checks and is its oracle.

    >>> enumerate_chunk_preserving((1, 3, 2, 4), 3)
    [(1, 3)]
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    chunks = left_greedy_form(perm)
    return [
        cuts
        for cuts in itertools.combinations(range(1, len(perm)), pieces - 1)
        if _chunk_preserving(chunks, cuts)
    ]


def first_chunk_preserving(perm: Image, pieces: int) -> tuple[int, ...] | None:
    """The first cut tuple enumerate_chunk_preserving would list, or None.

    Builds it in O(n + p) steps instead of trying all C(n-1, p-1) cut sets.
    Count atoms: each gap position is one atom and each chunk is one.  The
    suffix starting at position s (never strictly inside a chunk) splits into
    exactly r chunk-preserving pieces iff low(s) <= r <= atoms(s), where
    atoms(s) counts the atoms in [s, n] and low(s) is 1 when s starts a chunk
    or no chunk lies ahead, else 2.  Each piece takes its smallest legal end
    that leaves a feasible suffix, which yields the least cut tuple.

    >>> first_chunk_preserving((1, 3, 2, 4, 6, 5, 7), 3)
    (1, 4)
    >>> first_chunk_preserving((3, 2, 1), 2) is None
    True
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    n = len(perm)
    chunk_end = dict(left_greedy_form(perm))
    atoms = [0] * (n + 2)
    low = [0] * (n + 2)
    chunk_ahead = False
    for s in range(n, 0, -1):
        if s in chunk_end:
            chunk_ahead = True
            atoms[s] = 1 + atoms[chunk_end[s] + 1]
            low[s] = 1
        else:
            atoms[s] = 1 + atoms[s + 1]
            low[s] = 2 if chunk_ahead else 1
    if not low[1] <= pieces <= atoms[1]:
        return None
    cuts: list[int] = []
    s = 1
    for left in range(pieces - 1, 0, -1):  # pieces still to place after this one
        # a chunk piece ends no earlier than its chunk, a gap piece at s or later;
        # the first feasible end never reaches past the next chunk's start
        end = chunk_end.get(s, s)
        while not low[end + 1] <= left <= atoms[end + 1]:
            end += 1
        cuts.append(end)
        s = end + 1
    return tuple(cuts)


def nonidentity_orders(p: int):
    """The p! - 1 nontrivial 0-based orders of p pieces, in dictionary order.

    >>> list(nonidentity_orders(2))
    [(1, 0)]
    """
    return itertools.islice(itertools.permutations(range(p)), 1, None)


def apply_rearrangement(perm: Image, cuts: tuple[int, ...], order: tuple[int, ...]) -> Image:
    """Cut the word after each position in cuts; piece order[i] lands in slot i.

    >>> apply_rearrangement((1, 3, 2, 4), (1, 3), (1, 2, 0))
    (3, 2, 4, 1)
    """
    bounds = (0, *cuts, len(perm))
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"cuts must increase strictly inside 1..{len(perm) - 1}, got {cuts}")
    if sorted(order) != list(range(len(bounds) - 1)):
        raise ValueError(f"order must permute the {len(bounds) - 1} pieces, got {order}")
    out: list[int] = []
    for t in order:
        out.extend(perm[bounds[t]:bounds[t + 1]])
    return tuple(out)


def check_growth(perm: Image, cuts: tuple[int, ...]) -> bool:
    """Does every nonidentity rearrangement strictly increase word length?

    Requires cuts to be a chunk-preserving decomposition into at least two
    pieces.
    """
    if not cuts or not _chunk_preserving(left_greedy_form(perm), cuts):
        raise ValueError(f"{cuts} is not a chunk-preserving cut tuple of at least two pieces")
    base = word_length(perm)
    return all(
        word_length(apply_rearrangement(perm, cuts, order)) > base
        for order in nonidentity_orders(len(cuts) + 1)
    )


@dataclass(frozen=True)
class ChunkStats:
    """Chunk count, total chunk length, and word length for one permutation."""

    chunk_count: int
    total_chunk_length: int
    word_length: int


def chunk_stats(perm: Image) -> ChunkStats:
    """Summary triple (k, sum of chunk lengths, |sigma|).

    >>> chunk_stats((2, 1, 4, 3))
    ChunkStats(chunk_count=2, total_chunk_length=4, word_length=2)
    """
    chunks = left_greedy_form(perm)
    total = sum(end - start + 1 for start, end in chunks)
    return ChunkStats(len(chunks), total, word_length(perm))

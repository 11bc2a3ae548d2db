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
piece ends at n.  chunk_preserving_cuts is the one statement of this rule:
the main step rearranges its first tuple, and the growth suite checks that
every listed tuple's rearrangements are longer.  Both spanning steps replace
a word by the nonidentity reorderings of consecutive blocks; _orders lists
those orders once, and _reorder builds the children in them for both.  The
classic closure also reorders the positions range(n) with it, once per
witness, and reads each child off its parent through those maps.

A reordering's length follows from the parent's.  With
cross(a, b) = #{x in B_a, y in B_b : x > y}, and so
cross(b, a) = |B_a| |B_b| - cross(a, b), a child's length is |sigma| plus
|B_a| |B_b| - 2 cross(a, b) for each block pair a < b that it puts in
reverse order; the head before the blocks never moves.  _reorder_lengths
measures every child of a step from one table of those pair weights: each
main step's, and a single CLI step's in either mode.  It lists the lengths
in _orders' order without walking the orders: the orders of a block set are,
for each x in it ascending, x first and then the orders of the rest, so the
lengths of every subset's orders are built once, smallest subsets first,
each as a C-level map over a smaller subset's lengths.  A child's one-line
text is likewise its blocks' text in the child's order: _reorder_text
renders the head and each block once and joins them per child, so a single
CLI step builds and renders no child tuple.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_right

from .errors import check_cap
from .perm import Image, one_line, word_length

# A reordering of d blocks builds d! - 1 children: main_step(identity(40), 8)
# takes about 0.15 s, d = 9 about 1.5 s (Python 3.11, 2-CPU shared host).
# Every closure at its cap needs d <= 8.
STEP_MAX_D = 8


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


def chunk_preserving_cuts(perm: Image, pieces: int):
    """Yield the cut tuples of the chunk-preserving decompositions into p pieces.

    In lexicographic order.  Count atoms: each gap position is one atom and
    each chunk is one.  The suffix starting at position s (never strictly
    inside a chunk) splits into exactly r chunk-preserving pieces iff
    low(s) <= r <= atoms(s), where atoms(s) counts the atoms in [s, n] and
    low(s) is 1 when s starts a chunk or no chunk lies ahead, else 2.  So
    reversal(3), a single chunk, has no decomposition into 2 pieces.  A
    depth-first search tries each piece's legal ends in increasing order and
    keeps only those leaving a feasible suffix, so every branch yields and
    the first tuple costs O(n + p) steps.

    >>> list(chunk_preserving_cuts((1, 3, 2, 4), 3))
    [(1, 3)]
    >>> next(chunk_preserving_cuts((1, 3, 2, 4, 6, 5, 7), 3))
    (1, 4)
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    n = len(perm)
    chunk_end = dict(left_greedy_form(perm))
    last = max(chunk_end, default=0)  # the last chunk's start
    atoms = [0] * (n + 2)
    for s in range(n, 0, -1):
        atoms[s] = 1 + atoms[chunk_end.get(s, s) + 1]

    def feasible(s: int, r: int) -> bool:  # low(s) <= r <= atoms(s)
        return r <= atoms[s] and (r > 1 or s in chunk_end or s > last)

    cuts: list[int] = []

    def place(s: int, left: int):
        # the piece starting at s, with left pieces still to place after it
        if not left:
            yield tuple(cuts)
            return
        # a chunk piece ends no earlier than its chunk, a gap piece at s or
        # later; neither reaches past the next chunk's start
        for end in range(chunk_end.get(s, s), n):
            if feasible(end + 1, left):
                cuts.append(end)
                yield from place(end + 1, left - 1)
                cuts.pop()
            if end + 1 in chunk_end:
                break

    if feasible(1, pieces):
        yield from place(1, pieces - 1)


def _orders(items):
    """Every nonidentity order of items, by position in dictionary order.

    The one source of a step's order: _reorder and _reorder_text draw from
    it, and _reorder_lengths builds the same dictionary order subset by
    subset, so their children line up.

    >>> list(_orders("ab"))
    [('b', 'a')]
    """
    orders = itertools.permutations(items)
    next(orders)  # the identity order
    return orders


def _reorder(head: Image, blocks: list[Image]) -> tuple[Image, ...]:
    """head and then the blocks, in each nonidentity order (dictionary order)."""
    return tuple(sum(order, head) for order in _orders(blocks))


def _reorder_text(head: Image, blocks: list[Image]) -> tuple[str, ...]:
    """one_line of each of _reorder's children, in the same order.

    Joined from the head's and each block's text, each rendered once, so a
    child costs one join instead of building and rendering its tuple.

    >>> _reorder_text((10,), [(3, 2), (11,)])
    ('10,11,3,2',)
    """
    lead = one_line(head) + "," if head else ""
    return tuple(lead + text for text in map(",".join, _orders(list(map(one_line, blocks)))))


def _reorder_lengths(length: int, blocks: list[Image]) -> tuple[int, ...]:
    """The word length of each of _reorder's children, in the same order.

    length is |sigma| of the parent, a fixed head followed by the blocks.  A
    child's length is length + w(a, b) for each block pair a < b that it
    reverses, with w(a, b) = |B_a| |B_b| - 2 cross(a, b), whether or not the
    cuts are sum cuts.  The orders of a block set S, in dictionary order, are
    for each x in S ascending: x first, then the orders of S less x; putting
    x first reverses it against every a < x in S.  So the lengths of S's
    orders are, for each x, those of S less x plus the sum of w(a, x) over
    those a, read from S's row of weight sums.  Each subset, a bit mask, is
    built once from smaller ones: O(d 2^d) Python steps and about e d!
    C-level additions, instead of an O(n log n) count per child.  Its
    users: the main step prices its chunk-preserving pieces, and a single
    classic CLI step (reduction._step_rows) prices the blocks cut at a d-bad
    witness, where a child may be shorter.

    >>> _reorder_lengths(1, [(1,), (3, 2), (4,)])
    (3, 3, 4, 4, 6)
    >>> _reorder_lengths(1, [(2,), (1,)])  # not a sum cut: the child is shorter
    (0,)
    """
    d = len(blocks)
    ranked = [sorted(block) for block in blocks]
    weight = [[0] * d for _ in blocks]  # weight[a][x] = w(a, x) for a < x, else 0
    for a, x in itertools.combinations(range(d), 2):
        size = len(blocks[a]) * len(blocks[x])
        # the pairs y in B_a, z in B_x with y < z; the rest are cross(a, x)
        cross = size - sum(map(bisect_right, itertools.repeat(ranked[a]), blocks[x]))
        weight[a][x] = size - 2 * cross
    bits = list(enumerate(1 << x for x in range(d)))
    sums = [[0] * d]  # sums[S][x]: w(a, x) summed over the a < x in S
    lengths = [[length]]  # lengths[S]: the lengths of S's orders, identity first
    for subset in range(1, 1 << d):
        low = subset & -subset
        row = list(map(operator.add, sums[subset ^ low], weight[low.bit_length() - 1]))
        sums.append(row)
        out = []
        for x, bit in bits:
            if subset & bit:
                out += map(row[x].__add__, lengths[subset ^ bit])
        lengths.append(out)
    return tuple(lengths[-1][1:])


def _pieces(perm: Image, cuts: tuple[int, ...]) -> list[Image]:
    """The pieces of the word cut after each position in cuts."""
    bounds = (0, *cuts, len(perm))
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"cuts must increase strictly inside 1..{len(perm) - 1}, got {cuts}")
    return [perm[a:b] for a, b in zip(bounds, bounds[1:])]


def rearrangements(perm: Image, cuts: tuple[int, ...]) -> tuple[Image, ...]:
    """Cut the word after each position in cuts; every nonidentity order of the pieces.

    Capped at STEP_MAX_D pieces, as a step is.

    >>> rearrangements((1, 3, 2, 4), (1, 3))
    ((1, 4, 3, 2), (3, 2, 1, 4), (3, 2, 4, 1), (4, 1, 3, 2), (4, 3, 2, 1))
    """
    check_cap(len(cuts) + 1, STEP_MAX_D, "rearrangements", "pieces")
    return _reorder((), _pieces(perm, cuts))


def chunk_stats(perm: Image) -> tuple[int, int, int]:
    """The plain triple (chunk_count, total_chunk_length, word_length).

    That is k, the sum of the chunk lengths, and |sigma|.

    >>> chunk_stats((2, 1, 4, 3))
    (2, 4, 2)
    """
    chunks = left_greedy_form(perm)
    total = sum(end - start + 1 for start, end in chunks)
    return len(chunks), total, word_length(perm)

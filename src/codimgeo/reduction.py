"""Support-level rewriting closures for the two spanning mechanisms.

The classic step rewrites a d-bad monomial as the d! - 1 block rearrangements
at its dictionary-least witness; every child is strictly dictionary-smaller,
so iterating terminates with d-good support.  The main step decomposes a word
of length below the threshold K = (n - d)/2 (for integer lengths, below
ceil(K)) into d chunk-preserving pieces and rearranges; every child is
strictly longer, so iterating drives all support out of the ball B(K).  Its
growth check prices each child without building it: the parent's length
plus |P_a| |P_b| - 2 cross(a, b) for each piece pair a < b the child
reverses, where cross(a, b) counts the inversions between pieces a and b
(greedy._reorder_lengths: one table per step, and the lengths of every
subset of the pieces' orders built from smaller subsets', about e C-level
additions a child).
Both steps build their children with greedy's one block-reordering kernel,
and both return bare children.  A single CLI step (_step_rows), in either
mode, builds no child: it joins each child's text from its blocks' text
(greedy._reorder_text), as it prices the length from the blocks' table; a
classic child may also be shorter, since witness cuts need not be sum
cuts.  main_step and _step_rows share one function for the main step's
checks (_main_pieces).

A closure's sources are every rewritable word, and it rewrites each once.
The main closure records bounds.theorem_bound(n, d), the paper's bound, as
its complement size; verify's main suite checks it against the ball that
the closure searched.
The classic sources are the words whose longest decreasing subsequence is
at least d, read off perm.decreasing_table(n), one table for every d.  The
classic closure builds classic_step's children from position maps: a child
of p is p read through the same child of range(n) cut at p's witness, so
_reorder lists each witness's maps once per closure, and a step is one
itemgetter call per child.  Single steps keep the block sums, since listing
the maps costs more than one step's sums.
Traces record every expansion edge, and the recorded depth is the longest
rewrite chain, bounded by C(n,2) in main mode (word length ascends) and by
the dictionary order in classic mode (images descend).  A step builds d! - 1
children, so its d has greedy's cap on the pieces of a reordering, STEP_MAX_D.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from .bounds import ball_radius, theorem_bound
from .errors import FalsificationError, check_cap, check_d_within, check_scale
from .greedy import (
    STEP_MAX_D, _pieces, _reorder, _reorder_lengths, _reorder_text, chunk_preserving_cuts
)
from .perm import (
    Image,
    all_permutations,
    ball_layers,
    decreasing_table,
    find_d_bad_witness,
    one_line,
    word_length,
)

MODE_CLASSIC = "classic"
MODE_MAIN = "main"

CLASSIC_CLOSURE_MAX_N = 7
MAIN_CLOSURE_MAX_N = 8


@dataclass(frozen=True)
class ReductionTrace:
    """A finished closure run: every expansion edge plus summary counts."""

    mode: str
    n: int
    d: int
    sources: tuple[Image, ...]
    steps: tuple[tuple[Image, tuple[Image, ...]], ...]
    visited: int
    max_depth: int
    terminal_support: frozenset[Image]
    complement_size: int | None = None


def _check_step_degree(n: int, d: int) -> None:
    check_d_within(d, n)
    check_cap(d, STEP_MAX_D, "a step", "d")


def _witness(p: Image, d: int) -> tuple[int, ...]:
    """The dictionary-least d-bad witness of p, which must be d-bad."""
    _check_step_degree(len(p), d)
    witness = find_d_bad_witness(p, d)
    if witness is None:
        raise ValueError(f"permutation {one_line(p)} is {d}-good; nothing to rewrite")
    return witness


def _cut(p: Image, witness: tuple[int, ...]) -> tuple[Image, list[Image]]:
    """The fixed head and the d blocks of p cut at the witness positions."""
    starts = (*witness, len(p) + 1)
    return p[: witness[0] - 1], [p[a - 1 : b - 1] for a, b in zip(starts, starts[1:])]


def classic_step(p: Image, d: int) -> tuple[Image, ...]:
    """Rearrange the d blocks cut at the dictionary-least d-bad witness.

    With witness positions i_1 < ... < i_d, the blocks are w_0 = [1, i_1 - 1],
    w_j = [i_j, i_{j+1} - 1], w_d = [i_d, n].  The d! - 1 children keep w_0
    fixed and permute w_1 .. w_d; each is strictly dictionary-smaller than p.
    It measures and renders no child; a single CLI step does both (_step_rows).

    >>> classic_step((2, 1), 2)
    ((1, 2),)
    """
    return _reorder(*_cut(p, _witness(p, d)))


def main_step(p: Image, d: int) -> tuple[Image, ...]:
    """Rearrange the lexicographically first d-piece chunk-preserving decomposition.

    Returns the d! - 1 children, each checked to be strictly longer than p
    by its length priced from one table of piece-pair weights
    (greedy._reorder_lengths), not by counting the child.  Requires
    word_length(p) < ball_radius(n, d).  A missing decomposition or a
    non-increasing child is a falsification event, raised as
    FalsificationError rather than ignored.

    The decomposition exists for every word with |sigma| <= n - d, a wider
    range than the ball: a chunk of c letters holds at least c - 1
    inversions, so the word has at least n - |sigma| atoms (its gap letters
    and chunks, as in greedy.chunk_preserving_cuts), and d atoms suffice.
    That range is sharp: the cycle (2, 3, ..., m, 1) followed by the
    identity, with m = n - d + 2, has n - d + 1 inversions and only d - 1
    atoms, so it has none.

    >>> main_step((1, 2, 3), 2)
    ((2, 3, 1),)
    """
    pieces, _ = _main_pieces(p, d)
    return _reorder((), pieces)


def _main_pieces(p: Image, d: int) -> tuple[list[Image], tuple[int, ...]]:
    """A main step's d pieces and its children's lengths, once every check has passed.

    The degree, radius, decomposition and growth checks of main_step, which
    builds the children from the pieces; a single CLI step renders them
    instead (_step_rows).  Only a failing child is built here, for its message.
    """
    n = len(p)
    _check_step_degree(n, d)
    radius = ball_radius(n, d)
    base = word_length(p)
    if base >= radius:
        raise ValueError(
            f"word length {base} is not below the threshold {radius}; "
            "the rewrite only applies inside the ball"
        )
    cuts = next(chunk_preserving_cuts(p, d), None)
    if cuts is None:
        raise FalsificationError(
            f"no chunk-preserving decomposition of {one_line(p)} into {d} pieces; "
            "existence is claimed for every word inside the ball"
        )
    pieces = _pieces(p, cuts)
    lengths = _reorder_lengths(base, pieces)
    if min(lengths) <= base:
        index, length = next((i, k) for i, k in enumerate(lengths) if k <= base)
        raise FalsificationError(
            f"rearrangement of {one_line(p)} produced {one_line(_reorder((), pieces)[index])} "
            f"with word length {length} <= {base}; growth is claimed for every "
            "nontrivial rearrangement"
        )
    return pieces, lengths


def _step_rows(p: Image, d: int, mode: str) -> list[tuple[str, int]]:
    """A single step's children in the step's order, each as (one-line text, word length).

    The text is joined from the blocks' text (greedy._reorder_text) and the
    length priced from their pair table (greedy._reorder_lengths), so no
    child is built, rendered or counted.  The classic witness cuts need not
    be sum cuts, so a classic child may be shorter than p.  Only the CLI's
    single step calls it; the closures and the suites never do.

    >>> _step_rows((2, 1), 2, MODE_CLASSIC)
    [('1,2', 0)]
    """
    if mode == MODE_MAIN:
        head = ()
        blocks, lengths = _main_pieces(p, d)
    else:
        head, blocks = _cut(p, _witness(p, d))
        lengths = _reorder_lengths(word_length(p), blocks)
    return list(zip(_reorder_text(head, blocks), lengths))


def _close(
    mode: str,
    n: int,
    d: int,
    sources: list[Image],
    step,
    complement_size: int | None,
) -> ReductionTrace:
    """Rewrite each source once, recording every edge and the longest chain.

    The sources must be every rewritable word of degree n, each listed after
    all of its rewritable children; the descent that ends each closure gives
    such an order.  Every word reached is held as one tuple, shared by the
    sources, the children and the terminal support: a step builds fresh
    child tuples, and words.setdefault swaps each for the first one seen.
    """
    words: dict[Image, Image] = {}  # every word reached, mapped to its one tuple
    steps: dict[Image, tuple[Image, ...]] = {}
    chain: dict[Image, int] = {}  # longest rewrite chain starting at a source
    for p in sources:
        p = words.setdefault(p, p)
        children = step(p, d)
        children = steps[p] = tuple(map(words.setdefault, children, children))
        chain[p] = 1 + max(map(chain.get, children, repeat(0)))
    ordered = tuple(sorted(steps.items()))
    return ReductionTrace(
        mode=mode,
        n=n,
        d=d,
        sources=tuple(p for p, _ in ordered),
        steps=ordered,
        visited=len(words),
        max_depth=max(chain.values(), default=0),
        terminal_support=frozenset(words.keys() - steps.keys()),
        complement_size=complement_size,
    )


def classic_closure(n: int, d: int) -> ReductionTrace:
    """Rewrite every d-bad permutation of degree n down to d-good support.

    Terminates by strict dictionary descent.  Capped at n <= 7.  The d-bad
    words go in dictionary order, and every child is dictionary-smaller.
    Each step equals classic_step, children and order, but a child depends
    on its parent only through the witness: its letter at place j is
    p[idx[j]], where idx is that child of range(n) cut at the same witness.
    So _reorder lists each witness's position maps once per call, as one
    itemgetter per child, and a step applies them.  At n = 7 a closure meets
    at most C(7, 3) = 35 witnesses and holds at most 5,039 maps, at d = 7;
    they are freed when it returns.  A step calls find_d_bad_witness
    directly, not classic_step's checked _witness: 2 <= d <= n <= 7 is
    checked here, below STEP_MAX_D, and every source is d-bad by
    decreasing_table, so none of _witness's refusals could fire.
    """
    check_d_within(d, n)
    check_scale(n, CLASSIC_CLOSURE_MAX_N, "classic_closure")
    sources = [p for p, longest in zip(all_permutations(n), decreasing_table(n)) if longest >= d]
    positions = tuple(range(n))
    getters: dict[tuple[int, ...], list[itemgetter]] = {}  # witness -> one per child

    def step(p: Image, d: int) -> list[Image]:
        witness = find_d_bad_witness(p, d)
        if witness not in getters:
            getters[witness] = [itemgetter(*idx) for idx in _reorder(*_cut(positions, witness))]
        return [child(p) for child in getters[witness]]

    return _close(MODE_CLASSIC, n, d, sources, step, complement_size=None)


def main_closure(n: int, d: int) -> ReductionTrace:
    """Rewrite every permutation inside the ball B((n - d)/2) out of the ball.

    Terminates because word length strictly increases, bounded by C(n,2).
    Records theorem_bound(n, d), the paper's count of the ball's complement,
    as complement_size.  Capped at n <= 8.  The ball goes longest layer
    first, and every child is longer than its parent.
    """
    check_d_within(d, n)
    check_scale(n, MAIN_CLOSURE_MAX_N, "main_closure")
    radius = ball_radius(n, d)
    sources = [p for layer in reversed(ball_layers(n, radius)) for p in layer]
    return _close(MODE_MAIN, n, d, sources, main_step, theorem_bound(n, d))

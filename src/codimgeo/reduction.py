"""Support-level rewriting closures for the two spanning mechanisms.

The classic step rewrites a d-bad monomial as the d! - 1 block rearrangements
at its dictionary-least witness; every child is strictly dictionary-smaller,
so iterating terminates with d-good support.  The main step decomposes a word
of length below the threshold K = (n - d)/2 (for integer lengths, below
ceil(K)) into d chunk-preserving pieces and rearranges; every child is
strictly longer, so iterating drives all support out of the ball B(K).

Both closures are memoized multi-source worklists.  Traces record every
expansion edge, and the recorded depth is the longest rewrite chain in the
trace, bounded by C(n,2) in main mode (word length ascends) and by the
dictionary order in classic mode (images descend).
"""
from __future__ import annotations

from dataclasses import dataclass

from .bounds import ball_radius
from .errors import FalsificationError, check_scale
from .greedy import (
    apply_rearrangement,
    first_chunk_preserving,
    left_greedy_form,
    nonidentity_orders,
)
from .mahonian import ball_complement_count
from .perm import (
    Image,
    all_permutations,
    find_d_bad_witness,
    is_d_good,
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


def classic_step(p: Image, d: int) -> tuple[Image, ...]:
    """Rearrange the d blocks cut at the dictionary-least d-bad witness.

    With witness positions i_1 < ... < i_d, the blocks are w_0 = [1, i_1 - 1],
    w_j = [i_j, i_{j+1} - 1], w_d = [i_d, n].  The d! - 1 children keep w_0
    fixed and permute w_1 .. w_d; each is strictly dictionary-smaller than p.

    >>> classic_step((2, 1), 2)
    ((1, 2),)
    """
    n = len(p)
    if not (2 <= d <= n):
        raise ValueError(f"need 2 <= d <= n, got d = {d}, n = {n}")
    witness = find_d_bad_witness(p, d)
    if witness is None:
        raise ValueError(f"permutation {one_line(p)} is {d}-good; nothing to rewrite")
    prefix = p[: witness[0] - 1]
    cuts = list(witness) + [n + 1]
    blocks = [p[cuts[t] - 1 : cuts[t + 1] - 1] for t in range(d)]
    children = []
    for order in nonidentity_orders(d):
        out = prefix
        for t in order:
            out += blocks[t]
        children.append(out)
    return tuple(children)


def main_step(p: Image, d: int) -> tuple[Image, ...]:
    """Rearrange the lexicographically first d-piece chunk-preserving decomposition.

    Requires word_length(p) < ball_radius(n, d).  Each of the d! - 1 children
    must be strictly longer; a missing decomposition or a non-increasing child
    is a falsification event, raised as FalsificationError rather than ignored.
    """
    n = len(p)
    if not (2 <= d <= n):
        raise ValueError(f"need 2 <= d <= n, got d = {d}, n = {n}")
    radius = ball_radius(n, d)
    base = word_length(p)
    if base >= radius:
        raise ValueError(
            f"word length {base} is not below the threshold {radius}; "
            "the rewrite only applies inside the ball"
        )
    first = first_chunk_preserving(left_greedy_form(p), d)
    if first is None:
        raise FalsificationError(
            f"no chunk-preserving decomposition of {one_line(p)} into {d} pieces; "
            "existence is claimed for every word inside the ball"
        )
    children = []
    for order in nonidentity_orders(d):
        child = apply_rearrangement(p, first, order)
        length = word_length(child)
        if length <= base:
            raise FalsificationError(
                f"rearrangement of {one_line(p)} produced {one_line(child)} with word "
                f"length {length} <= {base}; growth is claimed for every "
                "nontrivial rearrangement"
            )
        children.append(child)
    return tuple(children)


def _close(
    mode: str,
    n: int,
    d: int,
    sources: list[Image],
    expandable,
    step,
    complement_size: int | None,
) -> ReductionTrace:
    """Memoized worklist closure; expandable nodes are rewritten exactly once."""
    visited: set[Image] = set(sources)
    steps: dict[Image, tuple[Image, ...]] = {}
    worklist = list(sources)
    while worklist:
        node = worklist.pop()
        if not expandable(node) or node in steps:
            continue
        children = step(node, d)
        steps[node] = children
        for child in children:
            if child not in visited:
                visited.add(child)
                worklist.append(child)
    terminal = frozenset(p for p in visited if not expandable(p))

    # longest rewrite chain: process parents after all their children
    if mode == MODE_CLASSIC:
        topo = sorted(steps)  # children are smaller
    else:
        topo = sorted(steps, key=lambda p: (word_length(p), p), reverse=True)
    chain: dict[Image, int] = {}
    for node in topo:
        chain[node] = 1 + max((chain.get(c, 0) for c in steps[node]), default=0)
    max_depth = max(chain.values(), default=0)

    ordered_steps = tuple(sorted(steps.items()))
    return ReductionTrace(
        mode=mode,
        n=n,
        d=d,
        sources=tuple(sorted(sources)),
        steps=ordered_steps,
        visited=len(visited),
        max_depth=max_depth,
        terminal_support=terminal,
        complement_size=complement_size,
    )


def classic_closure(n: int, d: int) -> ReductionTrace:
    """Rewrite every d-bad permutation of degree n down to d-good support.

    Terminates by strict dictionary descent.  Capped at n <= 7.
    """
    if not (2 <= d <= n):
        raise ValueError(f"need 2 <= d <= n, got d = {d}, n = {n}")
    check_scale(n, CLASSIC_CLOSURE_MAX_N, "classic_closure")
    sources = [p for p in all_permutations(n) if not is_d_good(p, d)]
    return _close(
        MODE_CLASSIC,
        n,
        d,
        sources,
        expandable=lambda p: not is_d_good(p, d),
        step=classic_step,
        complement_size=None,
    )


def main_closure(n: int, d: int) -> ReductionTrace:
    """Rewrite every permutation inside the ball B((n - d)/2) out of the ball.

    Terminates because word length strictly increases, bounded by C(n,2).
    Records the complement count for cross-reference.  Capped at n <= 8.
    """
    if not (2 <= d <= n):
        raise ValueError(f"need 2 <= d <= n, got d = {d}, n = {n}")
    check_scale(n, MAIN_CLOSURE_MAX_N, "main_closure")
    radius = ball_radius(n, d)
    sources = [p for p in all_permutations(n) if word_length(p) < radius]
    return _close(
        MODE_MAIN,
        n,
        d,
        sources,
        expandable=lambda p: word_length(p) < radius,
        step=main_step,
        complement_size=ball_complement_count(n, radius),
    )

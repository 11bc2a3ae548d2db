import re
from itertools import chain

import pytest

from codimgeo import mahonian
from codimgeo.bounds import ball_radius
from codimgeo.errors import FalsificationError, ScaleError
from codimgeo.greedy import _reorder_lengths, chunk_preserving_cuts, chunk_stats
from codimgeo.mahonian import ball_complement_count
from codimgeo.perm import (
    all_permutations,
    identity,
    is_d_good,
    one_line,
    reversal,
    word_length,
)
from codimgeo.reduction import (
    ReductionTrace,
    MODE_CLASSIC,
    MODE_MAIN,
    _step_rows,
    classic_closure,
    classic_step,
    main_closure,
    main_step,
)
from codimgeo.verify import run_suite


def test_classic_step_on_reversal():
    children = classic_step(reversal(3), 3)
    assert len(children) == 5
    assert len(set(children)) == 5
    for child in children:
        assert child < reversal(3)
    assert identity(3) in children


def test_classic_step_d2_swaps_blocks():
    assert classic_step((2, 1), 2) == ((1, 2),)
    assert classic_step((2, 1, 3), 2) == ((1, 3, 2),)


def test_classic_step_uses_least_witness():
    # witness (1, 3, 4): blocks split at positions 1, 3, 4
    children = classic_step((4, 1, 3, 2), 3)
    assert len(children) == 5
    assert (3, 2, 4, 1) in children  # blocks reordered 2,3,1
    for child in children:
        assert child < (4, 1, 3, 2)


def test_classic_step_keeps_prefix_fixed():
    # witness starts at position 2; position 1 never moves
    p = (1, 4, 3, 2)
    for child in classic_step(p, 3):
        assert child[0] == 1


def test_classic_step_rejects_good_input():
    with pytest.raises(ValueError):
        classic_step(identity(3), 2)
    with pytest.raises(ValueError):
        classic_step((2, 1), 3)


def test_classic_step_lengths_match_a_recount():
    # every d-bad word with n <= 6: classic_step's children in its order, each
    # with its counted length; witness cuts need not be sum cuts, so some shrink
    shorter = 0
    for n in range(2, 7):
        for d in range(2, n + 1):
            for p in all_permutations(n):
                if is_d_good(p, d):
                    continue
                measured = _step_rows(p, d, MODE_CLASSIC)
                expected = [(one_line(c), word_length(c)) for c in classic_step(p, d)]
                assert measured == expected, (p, d)
                shorter += sum(length < word_length(p) for _, length in measured)
    assert shorter > 0
    assert _step_rows((2, 1), 2, MODE_CLASSIC) == [("1,2", 0)]
    assert _step_rows((3, 2, 1), 3, MODE_CLASSIC)[-1] == ("1,2,3", 0)


def test_classic_closure_small():
    trace = classic_closure(3, 2)
    assert trace.mode == "classic"
    assert len(trace.sources) == 5  # every permutation with an inversion
    assert trace.terminal_support == frozenset({identity(3)})
    assert trace.visited == 6
    for parent, children in trace.steps:
        for child in children:
            assert child < parent


def test_classic_closure_diagonal_reversal():
    # at d = n only the reversal rewrites; one step reaches everything else
    trace = classic_closure(4, 4)
    assert trace.sources == (reversal(4),)
    assert len(trace.steps) == 1
    assert trace.max_depth == 1
    assert len(trace.terminal_support) == 23


def test_classic_closure_rejects_out_of_range():
    with pytest.raises(ValueError):
        classic_closure(3, 4)  # d beyond n
    with pytest.raises(ScaleError):
        classic_closure(8, 3)


def test_main_step_inside_ball():
    p = (1, 3, 2, 4, 5, 6)
    assert word_length(p) == 1
    children = main_step(p, 3)
    assert len(children) == 5
    # the lengths the growth check priced, each equal to the child's counted length
    assert _step_rows(p, 3, MODE_MAIN) == [(one_line(c), word_length(c)) for c in children]
    assert all(word_length(child) >= 2 for child in children)


def test_main_step_identity_gap_pieces():
    (child,) = main_step(identity(5), 2)
    assert _step_rows(identity(5), 2, MODE_MAIN) == [(one_line(child), word_length(child))]
    assert word_length(child) > 0


def test_main_step_domain_errors():
    with pytest.raises(ValueError):
        main_step((2, 1, 4, 3, 5, 6), 3)  # |sigma| = 2 >= ceil(1.5)
    with pytest.raises(ValueError):
        main_step(identity(4), 4)  # threshold 0: nothing is inside the ball
    with pytest.raises(ValueError):
        main_step(identity(4), 5)  # d beyond n


def test_main_step_rejects_a_child_of_equal_length(monkeypatch):
    # a kernel that measures the second child at |sigma| reports a child that does not grow
    def shrunk(length, blocks):
        first, _, *rest = _reorder_lengths(length, blocks)
        return (first, length, *rest)

    monkeypatch.setattr("codimgeo.reduction._reorder_lengths", shrunk)
    message = (
        "rearrangement of 1,3,2,4,5,6 produced 3,2,1,4,5,6 with word length 1 <= 1; "
        "growth is claimed for every nontrivial rearrangement"
    )
    with pytest.raises(FalsificationError, match=f"^{re.escape(message)}$"):
        main_step((1, 3, 2, 4, 5, 6), 3)


def test_main_step_rejects_a_missing_decomposition(monkeypatch):
    monkeypatch.setattr("codimgeo.reduction.chunk_preserving_cuts", lambda p, d: iter(()))
    message = (
        "no chunk-preserving decomposition of 1,3,2,4,5,6 into 3 pieces; "
        "existence is claimed for every word inside the ball"
    )
    with pytest.raises(FalsificationError, match=f"^{re.escape(message)}$"):
        main_step((1, 3, 2, 4, 5, 6), 3)


def test_main_closure_small():
    trace = main_closure(6, 4)
    assert trace.mode == "main"
    assert trace.sources == (identity(6),)
    assert trace.max_depth == 1
    assert trace.complement_size == ball_complement_count(6, 1) == 719
    for p in trace.terminal_support:
        assert word_length(p) >= 1


def test_main_closure_empty_ball():
    trace = main_closure(5, 5)
    assert trace.sources == ()
    assert trace.steps == ()
    assert trace.visited == 0
    assert trace.max_depth == 0
    assert trace.terminal_support == frozenset()


def test_main_closure_drives_ball_out():
    trace = main_closure(7, 3)
    threshold = ball_radius(7, 3)
    assert len(trace.sources) == 7  # identity plus the six adjacent swaps
    assert all(word_length(p) >= threshold for p in trace.terminal_support)
    assert all(word_length(p) < threshold for p in trace.sources)
    for parent, children in trace.steps:
        base = word_length(parent)
        assert len(children) == 5
        for child in children:
            assert word_length(child) > base
    assert trace.max_depth <= 7 * 6 // 2
    assert trace.complement_size == ball_complement_count(7, threshold)


def test_main_suite_catches_a_wrong_complement_count(monkeypatch):
    # count the complement from one radius too far; the suite must not compare
    # the closure's count with a second call that shares the same fault
    monkeypatch.setattr(
        "codimgeo.reduction.theorem_bound",
        lambda n, d: ball_complement_count(n, ball_radius(n, d) + 1),
    )
    result = run_suite("main", 6)
    assert not result.passed
    assert result.failures[0].startswith("n=2 d=2:")


def test_main_suite_catches_a_wrong_ball_count(monkeypatch):
    # the complement count is n! minus the ball count; a fault there must show too
    count = mahonian.ball_count
    monkeypatch.setattr(mahonian, "ball_count", lambda n, radius: count(n, radius) + 1)
    result = run_suite("main", 6)
    assert not result.passed
    assert result.failures[0].startswith("n=2 d=2:")


def test_main_suite_catches_a_repeated_child(monkeypatch):
    # a step that returns its first child again in place of its last
    step = main_step

    def repeated(p, d):
        children = step(p, d)
        return (*children[:-1], children[0])

    monkeypatch.setattr("codimgeo.reduction.main_step", repeated)
    result = run_suite("main", 5)
    assert not result.passed
    assert result.failures[0].endswith("has wrong child count")


def test_main_closure_rejects_out_of_range():
    with pytest.raises(ScaleError):
        main_closure(9, 3)
    with pytest.raises(ValueError):
        main_closure(4, 1)


def test_closure_is_deterministic():
    a = main_closure(6, 3)
    b = main_closure(6, 3)
    assert a == b
    c = classic_closure(4, 3)
    d = classic_closure(4, 3)
    assert c == d


def main_step_children(p, d):
    """main_step's children, each priced length (_step_rows) checked against the child first."""
    children = main_step(p, d)
    assert _step_rows(p, d, MODE_MAIN) == [(one_line(c), word_length(c)) for c in children]
    return children


def worklist_closure(mode, n, d):
    """Oracle: a memoized worklist search from the words an n! filter marks rewritable.

    It discovers the reachable words instead of assuming they are the sources,
    and orders the depth pass by sorting rather than by the source order.
    """
    if mode == "classic":
        step, complement = classic_step, None
    else:
        radius = ball_radius(n, d)
        step, complement = main_step_children, ball_complement_count(n, radius)

    def expandable(p):
        return not is_d_good(p, d) if mode == "classic" else word_length(p) < radius

    sources = [p for p in all_permutations(n) if expandable(p)]
    visited = set(sources)
    steps = {}
    worklist = list(sources)
    while worklist:
        node = worklist.pop()
        if not expandable(node) or node in steps:
            continue
        steps[node] = step(node, d)
        for child in steps[node]:
            if child not in visited:
                visited.add(child)
                worklist.append(child)
    # longest rewrite chain: process parents after all their children
    if mode == "classic":
        topo = sorted(steps)  # children are smaller
    else:
        topo = sorted(steps, key=lambda p: (word_length(p), p), reverse=True)
    chain = {}
    for node in topo:
        chain[node] = 1 + max((chain.get(c, 0) for c in steps[node]), default=0)
    return ReductionTrace(
        mode=mode,
        n=n,
        d=d,
        sources=tuple(sorted(sources)),
        steps=tuple(sorted(steps.items())),
        visited=len(visited),
        max_depth=max(chain.values(), default=0),
        terminal_support=frozenset(p for p in visited if not expandable(p)),
        complement_size=complement,
    )


@pytest.mark.parametrize("mode, closure", [("classic", classic_closure), ("main", main_closure)])
def test_closure_equals_worklist_oracle(mode, closure):
    for n in range(2, 7):
        for d in range(2, n + 1):
            assert closure(n, d) == worklist_closure(mode, n, d), (n, d)


def test_classic_closure_children_equal_classic_step():
    # the closure reads children through per-witness position maps; classic_step sums blocks
    for d in range(2, 8):
        for parent, children in classic_closure(7, d).steps:
            assert children == classic_step(parent, d), (parent, d)


@pytest.mark.parametrize("closure, n", [(classic_closure, 7), (main_closure, 8)])
def test_closures_share_their_words(closure, n):
    for d in range(2, n + 1):
        trace = closure(n, d)
        one = {p: p for p in chain(trace.sources, trace.terminal_support)}
        ids = set(map(id, chain(trace.sources, trace.terminal_support)))
        for parent, children in trace.steps:
            assert parent is one[parent]
            assert all(child is one[child] for child in children), (d, parent)
            ids.update(map(id, children))
        assert len(ids) == trace.visited, d
        # oracle: every word reached is a parent or a child
        reached = set(dict(trace.steps)).union(*(children for _, children in trace.steps))
        assert trace.visited == len(reached), d
        assert trace.terminal_support == reached - set(trace.sources), d


def test_every_word_within_n_minus_d_decomposes():
    # at least n - |p| atoms (gap letters plus chunks), and d atoms suffice
    for n in range(2, 8):
        for p in all_permutations(n):
            chunks, chunk_letters, length = chunk_stats(p)
            assert n - chunk_letters + chunks >= n - length
            for d in range(2, n - length + 1):
                assert next(chunk_preserving_cuts(p, d), None) is not None, (p, d)


@pytest.mark.parametrize("n", [8, 50, 200])
def test_the_decomposition_range_is_sharp(n):
    for d in range(2, 9):
        m = n - d + 2
        cycle = (*range(2, m + 1), 1, *range(m + 1, n + 1))
        assert word_length(cycle) == n - d + 1
        chunks, chunk_letters, _ = chunk_stats(cycle)
        assert n - chunk_letters + chunks == d - 1  # atoms
        assert next(chunk_preserving_cuts(cycle, d), None) is None

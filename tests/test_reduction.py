import math

import pytest
from hypothesis import given, settings, strategies as st

from codimgeo.bounds import ball_radius
from codimgeo.errors import FalsificationError, ScaleError
from codimgeo.mahonian import ball_complement_count
from codimgeo.perm import (
    all_permutations,
    identity,
    is_d_good,
    reversal,
    word_length,
)
from codimgeo.reduction import (
    classic_closure,
    classic_step,
    main_closure,
    main_step,
)


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


@given(st.permutations(tuple(range(1, 7))), st.integers(min_value=2, max_value=6))
@settings(max_examples=200, deadline=None)
def test_classic_step_properties(image, d):
    p = tuple(image)
    if is_d_good(p, d):
        return
    children = classic_step(p, d)
    assert len(children) == math.factorial(d) - 1
    assert len(set(children)) == len(children)
    for child in children:
        assert child < p


def test_classic_closure_small():
    trace = classic_closure(3, 2)
    assert trace.mode == "classic"
    assert len(trace.sources) == 5  # every permutation with an inversion
    assert trace.terminal_support == frozenset({identity(3)})
    assert trace.visited == 6
    for parent, children in trace.steps:
        for child in children:
            assert child < parent


def test_classic_closure_terminal_is_good():
    for n in range(2, 6):
        for d in range(2, n + 1):
            trace = classic_closure(n, d)
            assert all(is_d_good(p, d) for p in trace.terminal_support)
            assert trace.max_depth <= math.factorial(n)


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
    for child in children:
        assert word_length(child) >= 2


def test_main_step_identity_gap_pieces():
    children = main_step(identity(5), 2)
    assert len(children) == 1
    assert word_length(children[0]) > 0


def test_main_step_domain_errors():
    with pytest.raises(ValueError):
        main_step((2, 1, 4, 3, 5, 6), 3)  # |sigma| = 2 >= ceil(1.5)
    with pytest.raises(ValueError):
        main_step(identity(4), 4)  # threshold 0: nothing is inside the ball
    with pytest.raises(ValueError):
        main_step(identity(4), 5)  # d beyond n


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


def test_every_ball_member_rewrites_without_falsification():
    for n in range(2, 8):
        for d in range(2, n + 1):
            threshold = ball_radius(n, d)
            for p in all_permutations(n):
                if word_length(p) >= threshold:
                    continue
                children = main_step(p, d)  # would raise on falsification
                assert len(children) == math.factorial(d) - 1

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from codimgeo.greedy import (
    _reorder,
    _reorder_lengths,
    _reorder_text,
    chunk_preserving_cuts,
    chunk_stats,
    left_greedy_form,
    rearrangements,
)
from codimgeo.perm import (
    all_permutations,
    identity,
    one_line,
    reversal,
    word_length,
)


@st.composite
def permutations(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(tuple(range(1, n + 1)))))


def _fixpoint_form(perm):
    """Oracle for left_greedy_form: close each chunk under inversion partners.

    From the dictionary-least inversion pair (i, j) of the remaining suffix,
    extend the right end while some position of the block has an inversion
    partner beyond it; repeat on the rest of the word.  Returns the chunk pairs.
    """
    image, n = perm, len(perm)
    chunks = []
    cursor = 1
    while True:
        pair = next(
            ((i, j) for i in range(cursor, n + 1) for j in range(i + 1, n + 1)
             if image[j - 1] < image[i - 1]),
            None,
        )
        if pair is None:
            break
        start, end = pair
        while True:
            furthest = max(
                [j for i in range(start, end + 1) for j in range(end + 1, n + 1)
                 if image[j - 1] < image[i - 1]],
                default=end,
            )
            if furthest == end:
                break
            end = furthest
        chunks.append((start, end))
        cursor = end + 1
    return tuple(chunks)


def _listed(p, pieces):
    return list(chunk_preserving_cuts(p, pieces))


def _is_chunk_preserving(p, cuts):
    """The definition restated, for cuts strictly increasing inside 1..n-1.

    A piece holding no chunk start is a gap piece and holds no chunk position;
    one holding a chunk start begins at the first it holds and covers that
    chunk; only the last piece may hold two starts.
    """
    chunks = left_greedy_form(p)
    in_chunk = {pos for start, end in chunks for pos in range(start, end + 1)}
    bounds = (0, *cuts, len(p))
    for idx in range(len(cuts) + 1):
        start, end = bounds[idx] + 1, bounds[idx + 1]
        held = [c for c in chunks if start <= c[0] <= end]
        if not held:
            if in_chunk & set(range(start, end + 1)):
                return False
        elif held[0][0] != start or end < held[0][1] or (len(held) > 1 and idx < len(cuts)):
            return False
    return True


def _definition_filter(p, pieces):
    """Oracle for chunk_preserving_cuts: every cut set, filtered by the definition."""
    return [cuts for cuts in combinations(range(1, len(p)), pieces - 1) if _is_chunk_preserving(p, cuts)]


def test_left_greedy_form_examples():
    assert left_greedy_form((2, 1, 4, 3)) == ((1, 2), (3, 4))
    assert left_greedy_form((1, 3, 2, 4)) == ((2, 3),)
    assert left_greedy_form(identity(3)) == ()
    assert left_greedy_form(reversal(4)) == ((1, 4),)


def test_left_greedy_form_equals_fixpoint_oracle_exhaustively():
    for n in range(1, 8):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            assert form == _fixpoint_form(p), p
            assert all(type(pos) is int for chunk in form for pos in chunk), p


def test_enumerate_identity_all_gap_splits():
    p = identity(3)
    assert _listed(p, 1) == [()]
    assert _listed(p, 2) == [(1,), (2,)]
    assert _listed(p, 3) == [(1, 2)]


def test_enumerate_respects_chunks():
    p = (1, 3, 2, 4)
    assert _listed(p, 2) == [(1,)]  # gap [1,1], then chunk [2,4]
    assert _listed(p, 3) == [(1, 3)]  # gap, chunk [2,3], gap
    assert _listed(p, 5) == []


def test_enumerate_absorbing_tail():
    # two chunks; a final piece may swallow the second one
    p = (2, 1, 4, 3)
    assert len(left_greedy_form(p)) == 2
    assert _listed(p, 1) == [()]
    assert _listed(p, 2) == [(2,)]


def test_enumerate_ordering_is_lexicographic_by_boundaries():
    p = identity(4)
    assert _listed(p, 2) == [(1,), (2,), (3,)]
    cut_tuples = _listed(p, 3)
    assert cut_tuples == sorted(cut_tuples) == [(1, 2), (1, 3), (2, 3)]


def test_enumeration_is_nonempty_exactly_between_low_and_atoms():
    # one atom per gap position and per chunk; low is 2 when a gap leads into a chunk
    assert _listed(reversal(3), 2) == []
    for n in range(1, 8):
        for p in all_permutations(n):
            chunks = left_greedy_form(p)
            atoms = n - sum(end - start + 1 for start, end in chunks) + len(chunks)
            low = 1 if not chunks or chunks[0][0] == 1 else 2
            for pieces in range(1, n + 1):
                found = bool(_listed(p, pieces))
                assert found == (low <= pieces <= atoms), (p, pieces)


def test_chunk_preserving_cuts_examples():
    # gap [1,1], chunk [2,4] with its trailing gap letter, chunk [5,7]
    assert next(chunk_preserving_cuts((1, 3, 2, 4, 6, 5, 7), 3)) == (1, 4)
    assert _listed(reversal(3), 2) == []
    assert _listed(identity(3), 4) == []
    with pytest.raises(ValueError):
        _listed(identity(3), 0)


def test_chunk_preserving_cuts_equal_definition_filter_exhaustively():
    for n in range(1, 8):
        for p in all_permutations(n):
            for pieces in range(1, n + 1):
                assert _listed(p, pieces) == _definition_filter(p, pieces), (p, pieces)


def test_every_branch_of_the_cut_search_yields():
    # each place frame the search enters holds one prefix of a yielded cut tuple
    for n in range(1, 7):
        for p in all_permutations(n):
            for pieces in range(1, n + 1):
                frames = set()  # held, so that no frame's id is reused

                def trace(frame, event, arg):
                    if event == "call" and frame.f_code.co_name == "place":
                        frames.add(frame)

                previous = sys.gettrace()
                sys.settrace(trace)
                try:
                    listed = _listed(p, pieces)
                finally:
                    sys.settrace(previous)
                prefixes = {cuts[:k] for cuts in listed for k in range(len(cuts) + 1)}
                assert len(frames) == len(prefixes), (p, pieces)


def test_rearrangements_example():
    p = (1, 3, 2, 4)
    children = rearrangements(p, (1, 3))
    assert children[2] == (3, 2, 4, 1)  # pieces in the order (1, 2, 0)
    assert len(children) == 5 and p not in children


def test_decomposition_must_tile():
    # cuts increase strictly inside 1..n-1, so every piece is nonempty
    p = (2, 1, 3)
    for cuts in [(0,), (3,), (2, 1), (1, 1)]:
        with pytest.raises(ValueError):
            rearrangements(p, cuts)


def test_rearrangements_skip_only_the_identity():
    # single-letter pieces of the identity: each child spells its order
    children = rearrangements(identity(3), (1, 2))
    assert list(children) == sorted(children)
    assert len(set(children)) == 5 and identity(3) not in children
    assert rearrangements(identity(3), ()) == ()


def test_transposing_pieces_can_reverse_word():
    assert rearrangements((1, 3, 2, 4), (1, 3))[-1] == (4, 3, 2, 1)


def test_reorder_lengths_match_word_length():
    # every head and every split of the rest into 2 or more blocks, sum cuts or not;
    # word_length stays the oracle, counted once per word and looked up per child
    lengths = {q: word_length(q) for n in range(2, 7) for q in all_permutations(n)}
    assert len(lengths) == 872
    checked = 0
    for n in range(2, 7):
        for p in all_permutations(n):
            length = lengths[p]
            for head in range(n - 1):
                inner = range(head + 1, n)
                for count in range(1, n - head):
                    for cuts in combinations(inner, count):
                        bounds = (head, *cuts, n)
                        blocks = [p[a:b] for a, b in zip(bounds, bounds[1:])]
                        children = _reorder(p[:head], blocks)
                        expected = tuple(map(lengths.__getitem__, children))
                        assert _reorder_lengths(length, blocks) == expected, (p, head, cuts)
                        checked += len(children)
    assert checked == 1_399_466


def test_reorder_lengths_past_the_exhaustive_range():
    # 7 and 8 blocks, which the sweep above never reaches: a seeded word, head and
    # split per degree 9 <= n <= 14, each child counted by word_length
    rng = random.Random(28)
    checked = 0
    for n in range(9, 15):
        p = tuple(rng.sample(range(1, n + 1), n))
        for count in (7, 8):
            head = rng.randrange(n - count + 1)
            cuts = sorted(rng.sample(range(head + 1, n), count - 1))
            bounds = (head, *cuts, n)
            blocks = [p[a:b] for a, b in zip(bounds, bounds[1:])]
            expected = tuple(map(word_length, _reorder(p[:head], blocks)))
            assert _reorder_lengths(word_length(p), blocks) == expected, (p, head, cuts)
            checked += len(expected)
    assert checked == 6 * (5039 + 40319)
    # no block, or one, has no nonidentity order
    assert _reorder_lengths(3, []) == _reorder_lengths(3, [(2, 1)]) == ()


def test_reorder_text_matches_one_line():
    # every head and every split of the rest into 2 or more blocks, n <= 5
    checked = 0
    for n in range(2, 6):
        for p in all_permutations(n):
            for head in range(n - 1):
                for count in range(1, n - head):
                    for cuts in combinations(range(head + 1, n), count):
                        bounds = (head, *cuts, n)
                        blocks = [p[a:b] for a, b in zip(bounds, bounds[1:])]
                        expected = tuple(map(one_line, _reorder(p[:head], blocks)))
                        assert _reorder_text(p[:head], blocks) == expected, (p, head, cuts)
                        checked += len(expected)
    assert checked == 36_506
    # two-digit letters behind a nonempty head, up to 5 blocks
    rng = random.Random(25)
    for n in range(12, 33):
        p = tuple(rng.sample(range(1, n + 1), n))
        head = rng.randrange(1, n - 1)
        cuts = sorted(rng.sample(range(head + 1, n), rng.randrange(1, min(5, n - head))))
        bounds = (head, *cuts, n)
        blocks = [p[a:b] for a, b in zip(bounds, bounds[1:])]
        expected = tuple(map(one_line, _reorder(p[:head], blocks)))
        assert _reorder_text(p[:head], blocks) == expected, (p, head, cuts)


def test_chunk_stats_examples():
    assert chunk_stats((2, 1, 4, 3)) == (2, 4, 2)
    assert chunk_stats(reversal(4)) == (1, 4, 6)


def test_every_cut_is_a_sum_cut():
    # no inversion crosses a cut, so a rearrangement's length is structural
    cut_tuples = [
        (p, cuts)
        for n in range(1, 8)
        for p in all_permutations(n)
        for pieces in range(1, n + 1)
        for cuts in chunk_preserving_cuts(p, pieces)
    ]
    assert len(cut_tuples) == 8270
    assert all(max(p[:c]) == c for p, cuts in cut_tuples for c in cuts)


@given(permutations(max_n=6))
def test_word_length_of_reversal_dominates(p):
    # any rearrangement of single letters is bounded by the reversal length
    assert word_length(p) <= len(p) * (len(p) - 1) // 2

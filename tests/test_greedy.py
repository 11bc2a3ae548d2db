import pytest
from hypothesis import given, strategies as st

from codimgeo.greedy import (
    Piece,
    PieceDecomposition,
    Span,
    apply_rearrangement,
    check_growth,
    chunk_stats,
    enumerate_chunk_preserving,
    first_chunk_preserving,
    left_greedy_form,
    nonidentity_orders,
)
from codimgeo.perm import (
    all_permutations,
    identity,
    inversion_set,
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
    partner beyond it; repeat on the rest of the word.  Returns (chunks, gaps).
    """
    image, n = perm, len(perm)
    chunks, gaps = [], []
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
        gaps.append(Span(cursor, start - 1) if start > cursor else None)
        chunks.append(Span(start, end))
        cursor = end + 1
    gaps.append(Span(cursor, n) if cursor <= n else None)
    return tuple(chunks), tuple(gaps)


def test_span_validation():
    with pytest.raises(ValueError):
        Span(3, 2)
    with pytest.raises(ValueError):
        Span(0, 1)
    assert Span(2, 5).length == 4


def test_left_greedy_form_examples():
    form = left_greedy_form((2, 1, 4, 3))
    assert form.chunks == (Span(1, 2), Span(3, 4))
    assert form.gaps == (None, None, None)

    form = left_greedy_form((1, 3, 2, 4))
    assert form.chunks == (Span(2, 3),)
    assert form.gaps == (Span(1, 1), Span(4, 4))

    form = left_greedy_form(identity(3))
    assert form.chunks == ()
    assert form.gaps == (Span(1, 3),)


def test_left_greedy_form_equals_fixpoint_oracle_exhaustively():
    for n in range(1, 8):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            assert (form.chunks, form.gaps) == _fixpoint_form(p), p


@given(permutations())
def test_greedy_form_tiles_word(p):
    form = left_greedy_form(p)
    covered = []
    for idx, chunk in enumerate(form.chunks):
        if form.gaps[idx] is not None:
            covered.extend(form.gaps[idx].positions())
        covered.extend(chunk.positions())
    if form.gaps[-1] is not None:
        covered.extend(form.gaps[-1].positions())
    assert covered == list(range(1, len(p) + 1))


@given(permutations())
def test_inversions_live_inside_single_chunks(p):
    form = left_greedy_form(p)
    owner = {}
    for idx, chunk in enumerate(form.chunks):
        for pos in chunk.positions():
            owner[pos] = idx
    for i, j in inversion_set(p).pairs:
        assert i in owner, "gap positions never start an inversion"
        assert owner.get(j) == owner[i], "inversions never cross chunk borders"


@given(permutations())
def test_greedy_form_is_canonical_under_recomputation(p):
    form = left_greedy_form(p)
    again = left_greedy_form(p)
    assert form.chunks == again.chunks and form.gaps == again.gaps


def test_piece_validation():
    with pytest.raises(ValueError):
        Piece(Span(1, 2), "x")
    with pytest.raises(ValueError):
        Piece(Span(1, 2), "c")  # chunk pieces carry their index
    with pytest.raises(ValueError):
        Piece(Span(1, 2), "y", chunk_index=1)


def test_decomposition_must_tile():
    p = (2, 1, 3)
    with pytest.raises(ValueError):
        PieceDecomposition(p, (Piece(Span(1, 2), "c", 1),))
    with pytest.raises(ValueError):
        PieceDecomposition(p, (Piece(Span(2, 3), "y"), Piece(Span(1, 1), "y")))


def test_enumerate_identity_all_gap_splits():
    form = left_greedy_form(identity(3))
    assert len(enumerate_chunk_preserving(form, 1)) == 1
    assert len(enumerate_chunk_preserving(form, 2)) == 2
    decs = enumerate_chunk_preserving(form, 3)
    assert len(decs) == 1
    assert all(piece.kind == "y" for piece in decs[0].pieces)


def test_enumerate_respects_chunks():
    form = left_greedy_form((1, 3, 2, 4))
    two = enumerate_chunk_preserving(form, 2)
    assert [[(pc.span.start, pc.span.end, pc.kind) for pc in d.pieces] for d in two] == [
        [(1, 1, "y"), (2, 4, "c")]
    ]
    three = enumerate_chunk_preserving(form, 3)
    assert [[(pc.span.start, pc.span.end, pc.kind) for pc in d.pieces] for d in three] == [
        [(1, 1, "y"), (2, 3, "c"), (4, 4, "y")]
    ]
    assert enumerate_chunk_preserving(form, 5) == []


def test_enumerate_absorbing_tail():
    # two chunks; a final piece may swallow the second one
    form = left_greedy_form((2, 1, 4, 3))
    assert form.k == 2
    one = enumerate_chunk_preserving(form, 1)
    assert len(one) == 1
    piece = one[0].pieces[0]
    assert piece.kind == "c" and piece.span == Span(1, 4)
    two = enumerate_chunk_preserving(form, 2)
    assert [[(pc.span.start, pc.span.end) for pc in d.pieces] for d in two] == [
        [(1, 2), (3, 4)]
    ]


def test_enumerate_ordering_is_lexicographic_by_boundaries():
    form = left_greedy_form(identity(4))
    boundary_lists = [
        tuple(piece.span.end for piece in dec.pieces[:-1])
        for dec in enumerate_chunk_preserving(form, 2)
    ]
    assert boundary_lists == sorted(boundary_lists) == [(1,), (2,), (3,)]


@given(permutations(max_n=6), st.integers(min_value=1, max_value=6))
def test_enumerated_decompositions_are_chunk_preserving(p, pieces):
    form = left_greedy_form(p)
    chunk_spans = set(form.chunks)
    for dec in enumerate_chunk_preserving(form, pieces):
        assert dec.p == pieces
        starts = {c.start: c for c in form.chunks}
        for idx, piece in enumerate(dec.pieces):
            held = [
                c for c in chunk_spans
                if piece.span.start <= c.start <= piece.span.end
            ]
            if piece.kind == "y":
                assert not held
            else:
                lead = starts.get(piece.span.start)
                assert lead is not None and piece.span.end >= lead.end
                if len(held) > 1:
                    assert piece is dec.pieces[-1]
                    assert piece.span.end == len(p)


def test_enumeration_is_nonempty_exactly_between_low_and_atoms():
    # one atom per gap position and per chunk; low is 2 when a gap leads into a chunk
    assert enumerate_chunk_preserving(left_greedy_form(reversal(3)), 2) == []
    for n in range(1, 8):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            atoms = n - sum(chunk.length for chunk in form.chunks) + form.k
            low = 1 if form.k == 0 or form.chunks[0].start == 1 else 2
            for pieces in range(1, n + 1):
                found = bool(enumerate_chunk_preserving(form, pieces))
                assert found == (low <= pieces <= atoms), (p, pieces)


def test_first_chunk_preserving_examples():
    form = left_greedy_form((1, 3, 2, 4, 6, 5, 7))
    first = first_chunk_preserving(form, 3)
    assert [(pc.span.start, pc.span.end, pc.kind, pc.chunk_index) for pc in first.pieces] == [
        (1, 1, "y", None), (2, 4, "c", 1), (5, 7, "c", 2)
    ]
    assert first_chunk_preserving(left_greedy_form(reversal(3)), 2) is None
    assert first_chunk_preserving(left_greedy_form(identity(3)), 4) is None
    with pytest.raises(ValueError):
        first_chunk_preserving(left_greedy_form(identity(3)), 0)


def test_first_chunk_preserving_equals_first_enumerated_exhaustively():
    for n in range(1, 8):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            for pieces in range(1, n + 1):
                enum = enumerate_chunk_preserving(form, pieces)
                expected = enum[0] if enum else None
                assert first_chunk_preserving(form, pieces) == expected, (p, pieces)


def test_apply_rearrangement_example():
    form = left_greedy_form((1, 3, 2, 4))
    dec = enumerate_chunk_preserving(form, 3)[0]
    assert apply_rearrangement(dec, (1, 2, 0)) == (3, 2, 4, 1)
    assert apply_rearrangement(dec, (0, 1, 2)) == dec.perm
    with pytest.raises(ValueError):
        apply_rearrangement(dec, (0, 1))
    with pytest.raises(ValueError):
        apply_rearrangement(dec, (0, 0, 1))


def test_nonidentity_orders_skip_only_the_identity():
    orders = list(nonidentity_orders(3))
    assert orders == sorted(orders)
    assert len(set(orders)) == 5 and (0, 1, 2) not in orders
    assert list(nonidentity_orders(1)) == []


def test_transposing_pieces_can_reverse_word():
    form = left_greedy_form((1, 3, 2, 4))
    dec = enumerate_chunk_preserving(form, 3)[0]
    assert apply_rearrangement(dec, (2, 1, 0)) == (4, 3, 2, 1)


def test_check_growth_examples():
    form = left_greedy_form((1, 3, 2, 4))
    dec = enumerate_chunk_preserving(form, 3)[0]
    assert check_growth(dec)
    two_letters = enumerate_chunk_preserving(left_greedy_form(identity(2)), 2)[0]
    assert check_growth(two_letters)


def test_check_growth_preconditions():
    whole = enumerate_chunk_preserving(left_greedy_form(reversal(3)), 1)[0]
    with pytest.raises(ValueError):
        check_growth(whole)  # fewer than two pieces
    fake = PieceDecomposition(
        (2, 1), (Piece(Span(1, 1), "y"), Piece(Span(2, 2), "y"))
    )
    with pytest.raises(ValueError):
        check_growth(fake)  # the whole word is one chunk
    split = enumerate_chunk_preserving(left_greedy_form((2, 1, 3)), 2)
    assert split and check_growth(split[0])


def test_chunk_stats_examples():
    stats = chunk_stats((2, 1, 4, 3))
    assert (stats.chunk_count, stats.total_chunk_length, stats.word_length) == (2, 4, 2)
    stats = chunk_stats(reversal(4))
    assert (stats.chunk_count, stats.total_chunk_length, stats.word_length) == (1, 4, 6)


@given(permutations())
def test_chunk_accounting_inequalities(p):
    stats = chunk_stats(p)
    assert stats.chunk_count <= stats.word_length
    assert stats.total_chunk_length <= stats.word_length + stats.chunk_count


def test_growth_holds_exhaustively_for_small_degrees():
    for n in range(2, 5):
        for p in all_permutations(n):
            form = left_greedy_form(p)
            if form.k == 1 and form.chunks[0].length == n:
                continue
            for pieces in range(2, n + 1):
                for dec in enumerate_chunk_preserving(form, pieces):
                    assert check_growth(dec), (p, pieces)


@given(permutations(max_n=6))
def test_word_length_of_reversal_dominates(p):
    # any rearrangement of single letters is bounded by the reversal length
    assert word_length(p) <= len(p) * (len(p) - 1) // 2

"""Left greedy form and chunk-preserving decompositions.

Reading a permutation's one-line word left to right, cut after position j
exactly when the first j letters are {1, ..., j}, that is when
max sigma(1..j) = j.  The blocks between cuts are the word's sum
(direct-sum) components; each block longer than one position is a chunk and
each single position is a gap letter.  Runs of gap letters form the gaps of

    w = y_0 c_1 y_1 c_2 ... c_k y_k

(the left greedy form; gaps may be empty).  Gap positions are never the left
element of an inversion, and every inversion lives inside a single chunk.

A decomposition of the word into consecutive nonempty pieces is
chunk-preserving when each piece either contains no chunk positions (a gap
piece) or starts exactly at some chunk's start and covers that chunk; only
the final piece may run on into later chunks, in which case it extends to the
end of the word.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .perm import Permutation, word_length

GAP = "y"
CHUNK = "c"


@dataclass(frozen=True)
class Span:
    """A 1-based inclusive interval of positions."""

    start: int
    end: int

    def __post_init__(self):
        if not (1 <= self.start <= self.end):
            raise ValueError(f"bad span [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def positions(self) -> range:
        return range(self.start, self.end + 1)

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


@dataclass(frozen=True)
class GreedyForm:
    """The tiling w = y_0 c_1 y_1 ... c_k y_k; gaps[i] is None when empty."""

    perm: Permutation
    chunks: tuple[Span, ...]
    gaps: tuple[Span | None, ...]

    def __post_init__(self):
        if len(self.gaps) != len(self.chunks) + 1:
            raise ValueError("need exactly one gap slot around each chunk")

    @property
    def k(self) -> int:
        return len(self.chunks)


def initial_chunk(perm: Permutation) -> tuple[Span | None, Span | None, Span | None]:
    """Split the word as (leading gap, initial chunk, remaining suffix).

    For the identity the whole word is a gap: (Span(1, n), None, None).

    >>> initial_chunk(Permutation((1, 3, 2, 4)))
    (Span(start=1, end=1), Span(start=2, end=3), Span(start=4, end=4))
    """
    form = left_greedy_form(perm)
    if not form.chunks:
        return (Span(1, perm.n), None, None)
    chunk = form.chunks[0]
    after = Span(chunk.end + 1, perm.n) if chunk.end < perm.n else None
    return (form.gaps[0], chunk, after)


def left_greedy_form(perm: Permutation) -> GreedyForm:
    """Cut the word where max sigma(1..j) = j; longer blocks are the chunks.

    >>> gf = left_greedy_form(Permutation((2, 1, 4, 3)))
    >>> gf.chunks
    (Span(start=1, end=2), Span(start=3, end=4))
    >>> gf.gaps
    (None, None, None)
    """
    n = perm.n
    chunks: list[Span] = []
    gaps: list[Span | None] = []
    cursor = 1  # first position not yet in a chunk or a gap
    block = 1  # first position of the current sum component
    high = 0
    for j, value in enumerate(perm.image, 1):
        high = max(high, value)
        if high == j:
            if j > block:
                gaps.append(Span(cursor, block - 1) if block > cursor else None)
                chunks.append(Span(block, j))
                cursor = j + 1
            block = j + 1
    gaps.append(Span(cursor, n) if cursor <= n else None)
    return GreedyForm(perm, tuple(chunks), tuple(gaps))


@dataclass(frozen=True)
class Piece:
    """One consecutive piece of a decomposition; chunk pieces carry their index."""

    span: Span
    kind: str
    chunk_index: int | None = None

    def __post_init__(self):
        if self.kind not in (GAP, CHUNK):
            raise ValueError(f"kind must be {GAP!r} or {CHUNK!r}")
        if (self.kind == CHUNK) != (self.chunk_index is not None):
            raise ValueError("chunk pieces and only chunk pieces carry an index")


@dataclass(frozen=True)
class PieceDecomposition:
    """A tiling of the word into consecutive nonempty pieces."""

    perm: Permutation
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        cursor = 1
        for piece in self.pieces:
            if piece.span.start != cursor:
                raise ValueError("pieces must tile the word consecutively")
            cursor = piece.span.end + 1
        if cursor != self.perm.n + 1:
            raise ValueError("pieces must cover every position")

    @property
    def p(self) -> int:
        return len(self.pieces)

    @property
    def chunk_piece_count(self) -> int:
        return sum(1 for piece in self.pieces if piece.kind == CHUNK)


def _classify_pieces(form: GreedyForm, spans: list[Span]) -> tuple[Piece, ...] | None:
    """Label spans as gap or chunk pieces, or None if not chunk-preserving."""
    chunks = form.chunks
    k = len(chunks)
    n = form.perm.n
    pieces: list[Piece] = []
    t = 0  # next chunk not yet covered
    for span in spans:
        if t < k and span.end >= chunks[t].start:
            # span contains chunk t's start, so it must be the chunk piece
            if span.start != chunks[t].start or span.end < chunks[t].end:
                return None
            if t + 1 < k and span.end >= chunks[t + 1].start:
                # runs into a later chunk: only legal as the final piece
                if span.end != n:
                    return None
                pieces.append(Piece(span, CHUNK, t + 1))
                t = k
            else:
                pieces.append(Piece(span, CHUNK, t + 1))
                t += 1
        else:
            pieces.append(Piece(span, GAP))
    return tuple(pieces)


def enumerate_chunk_preserving(form: GreedyForm, pieces: int) -> list[PieceDecomposition]:
    """All chunk-preserving decompositions into the given number of pieces.

    Ordered lexicographically by the tuple of piece boundaries.  Counting each
    gap position and each chunk as one atom, the list is nonempty iff
    low <= p <= (number of atoms), where low is 1 if the word starts with a
    chunk or has none, else 2.  So reversal(3), a single chunk, has no
    decomposition into 2 pieces.  first_chunk_preserving builds element [0]
    directly; this full listing serves the growth checks and is its oracle.

    >>> form = left_greedy_form(Permutation((1, 3, 2, 4)))
    >>> [len(d.pieces) for d in enumerate_chunk_preserving(form, 3)]
    [3]
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    n = form.perm.n
    if pieces > n:
        return []
    found: list[PieceDecomposition] = []
    for boundaries in itertools.combinations(range(1, n), pieces - 1):
        ends = list(boundaries) + [n]
        spans = []
        cursor = 1
        for end in ends:
            spans.append(Span(cursor, end))
            cursor = end + 1
        labeled = _classify_pieces(form, spans)
        if labeled is not None:
            found.append(PieceDecomposition(form.perm, labeled))
    return found


def first_chunk_preserving(form: GreedyForm, pieces: int) -> PieceDecomposition | None:
    """The first decomposition enumerate_chunk_preserving would list, or None.

    Builds it in O(n + p) steps instead of trying all C(n-1, p-1) boundary
    sets.  Count atoms: each gap position is one atom and each chunk is one.
    The suffix starting at position s (never strictly inside a chunk) splits
    into exactly r chunk-preserving pieces iff low(s) <= r <= atoms(s), where
    atoms(s) counts the atoms in [s, n] and low(s) is 1 when s starts a chunk
    or no chunk lies ahead, else 2.  Each piece takes its smallest legal end
    that leaves a feasible suffix, which yields the lexicographically least
    boundary tuple.

    >>> first_chunk_preserving(left_greedy_form(Permutation((1, 3, 2, 4))), 3).p
    3
    >>> first_chunk_preserving(left_greedy_form(Permutation((3, 2, 1))), 2) is None
    True
    """
    if pieces < 1:
        raise ValueError(f"need at least one piece, got {pieces}")
    n = form.perm.n
    chunk_at = {chunk.start: (index, chunk.end) for index, chunk in enumerate(form.chunks, 1)}
    atoms = [0] * (n + 2)
    low = [0] * (n + 2)
    chunk_ahead = False
    for s in range(n, 0, -1):
        if s in chunk_at:
            chunk_ahead = True
            atoms[s] = 1 + atoms[chunk_at[s][1] + 1]
            low[s] = 1
        else:
            atoms[s] = 1 + atoms[s + 1]
            low[s] = 2 if chunk_ahead else 1
    if not low[1] <= pieces <= atoms[1]:
        return None
    out: list[Piece] = []
    s = 1
    for left in range(pieces - 1, -1, -1):  # pieces still to place after this one
        # a chunk piece ends no earlier than its chunk, a gap piece at s or later
        index, end = chunk_at.get(s, (None, s))
        if left == 0:
            end = n  # the last piece may run on through later chunks
        else:
            # the first feasible end never reaches past the next chunk's start
            while not low[end + 1] <= left <= atoms[end + 1]:
                end += 1
        out.append(Piece(Span(s, end), GAP if index is None else CHUNK, index))
        s = end + 1
    return PieceDecomposition(form.perm, tuple(out))


def apply_rearrangement(dec: PieceDecomposition, tau: Permutation) -> Permutation:
    """Concatenate the pieces in the order tau: piece tau(i) lands in slot i.

    >>> form = left_greedy_form(Permutation((1, 3, 2, 4)))
    >>> dec = enumerate_chunk_preserving(form, 3)[0]
    >>> apply_rearrangement(dec, Permutation((2, 3, 1))).image
    (3, 2, 4, 1)
    """
    if tau.n != dec.p:
        raise ValueError(f"tau must permute {dec.p} pieces, got degree {tau.n}")
    image = dec.perm.image
    out: list[int] = []
    for slot in range(1, tau.n + 1):
        span = dec.pieces[tau.value_at(slot) - 1].span
        out.extend(image[span.start - 1:span.end])
    return Permutation(tuple(out))


def check_growth(dec: PieceDecomposition) -> bool:
    """Does every nonidentity rearrangement strictly increase word length?

    Requires at least two pieces and a word that is not one single chunk.
    """
    if dec.p < 2:
        raise ValueError("growth needs at least two pieces")
    form = left_greedy_form(dec.perm)
    if form.k == 1 and form.chunks[0].length == dec.perm.n:
        raise ValueError("word is a single chunk; growth does not apply")
    base = word_length(dec.perm)
    slots = range(1, dec.p + 1)
    for images in itertools.permutations(slots):
        tau = Permutation(images)
        if tau.image == tuple(slots):
            continue
        if word_length(apply_rearrangement(dec, tau)) <= base:
            return False
    return True


@dataclass(frozen=True)
class ChunkStats:
    """Chunk count, total chunk length, and word length for one permutation."""

    chunk_count: int
    total_chunk_length: int
    word_length: int


def chunk_stats(perm: Permutation) -> ChunkStats:
    """Summary triple (k, sum of chunk lengths, |sigma|).

    >>> chunk_stats(Permutation((2, 1, 4, 3)))
    ChunkStats(chunk_count=2, total_chunk_length=4, word_length=2)
    """
    form = left_greedy_form(perm)
    total = sum(chunk.length for chunk in form.chunks)
    return ChunkStats(form.k, total, word_length(perm))

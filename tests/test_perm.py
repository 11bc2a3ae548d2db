import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from codimgeo.errors import InvalidInversionSetError, ScaleError
from codimgeo.mahonian import mahonian_row
from codimgeo.perm import (
    Permutation,
    all_permutations,
    ball_layers,
    cayley_distance_bfs,
    count_d_good,
    decreasing_histogram,
    decreasing_table,
    find_d_bad_witness,
    from_inversion_set,
    identity,
    inversion_set,
    is_d_good,
    length_table,
    longest_decreasing,
    parse_permutation,
    reversal,
    validate_inversion_set,
    word_length,
)


@st.composite
def permutations(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(tuple(range(1, n + 1)))))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())
    # entries that merely compare equal to 1..n are not integers
    with pytest.raises(ValueError):
        Permutation((1.0, 2.0))
    with pytest.raises(ValueError):
        Permutation((True, 2))
    # any sequence is accepted, and stored as a hashable tuple
    listed = Permutation([2, 1])
    assert listed.image == (2, 1)
    assert hash(listed) == hash(Permutation((2, 1)))


def test_parse_roundtrip():
    assert parse_permutation("2,1,4,3").image == (2, 1, 4, 3)
    assert str(parse_permutation("3,1,2")) == "3,1,2"
    with pytest.raises(ValueError):
        parse_permutation("1,two,3")


def test_identity_and_reversal_lengths():
    for n in range(1, 8):
        assert word_length(identity(n)) == 0
        assert word_length(reversal(n)) == n * (n - 1) // 2


def test_inversion_set_example():
    r = inversion_set((3, 1, 2))
    assert isinstance(r, frozenset)
    assert sorted(r) == [(1, 2), (1, 3)]


def test_bfs_scale_cap():
    with pytest.raises(ScaleError):
        cayley_distance_bfs(identity(7))


def test_plain_set_roundtrip():
    # any set of pairs is accepted, not only the frozenset inversion_set returns
    for n in range(1, 7):
        for p in all_permutations(n):
            assert from_inversion_set(n, set(inversion_set(p))) == p


def test_interpolation_violation_reported():
    with pytest.raises(InvalidInversionSetError) as err:
        from_inversion_set(3, frozenset({(1, 3)}))
    assert err.value.axiom == "interpolation"
    assert err.value.witness == (1, 2, 3)


def test_transitivity_violation_reported():
    with pytest.raises(InvalidInversionSetError) as err:
        from_inversion_set(3, frozenset({(1, 2), (2, 3)}))
    assert err.value.axiom == "transitivity"
    assert err.value.witness == (1, 2, 3)


def test_inversion_set_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match=r"pair \(2, 2\) out of range for n = 3"):
        validate_inversion_set(3, {(2, 2)})
    with pytest.raises(ValueError, match=r"pair \(1, 4\) out of range for n = 3"):
        validate_inversion_set(3, {(1, 4)})
    with pytest.raises(ValueError, match="degree must be at least 1"):
        validate_inversion_set(0, set())
    # range is checked before the axioms, and by the round trip too
    with pytest.raises(ValueError, match="out of range"):
        from_inversion_set(2, {(1, 3)})


def test_longest_decreasing_known_values():
    assert longest_decreasing(identity(5)) == 1
    assert longest_decreasing(reversal(5)) == 5
    assert longest_decreasing((4, 1, 3, 2)) == 3


@given(permutations())
def test_goodness_matches_decreasing_run(p):
    longest = longest_decreasing(p)
    for d in range(2, len(p) + 2):
        assert is_d_good(p, d) == (longest < d)


def test_d_above_degree_is_always_good():
    assert is_d_good((3, 2, 1), 4)
    assert find_d_bad_witness((3, 2, 1), 4) is None


def test_witness_examples():
    assert find_d_bad_witness((4, 1, 3, 2), 3) == (1, 3, 4)
    assert find_d_bad_witness((2, 1), 2) == (1, 2)
    assert find_d_bad_witness(identity(4), 2) is None


@given(permutations(), st.integers(min_value=2, max_value=8))
def test_witness_is_decreasing_and_least(p, d):
    witness = find_d_bad_witness(p, d)
    if witness is None:
        assert is_d_good(p, d)
        return
    assert len(witness) == d
    values = [p[i - 1] for i in witness]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert list(witness) == sorted(witness)
    # dictionary-least among all witnesses, by direct enumeration
    if len(p) <= 6:
        best = min(
            positions
            for positions in combinations(range(1, len(p) + 1), d)
            if all(
                p[a - 1] > p[b - 1]
                for a, b in zip(positions, positions[1:])
            )
        )
        assert witness == best


def test_witness_rejects_small_d():
    with pytest.raises(ValueError):
        find_d_bad_witness(identity(3), 1)
    with pytest.raises(ValueError):
        is_d_good(identity(3), 1)


def test_count_d_good_known_values():
    assert count_d_good(3, 2) == 1
    assert count_d_good(4, 5) == 24
    assert count_d_good(4, 3) == 14  # 321-avoiding, the Catalan number
    assert count_d_good(7, 3) == 429


def test_count_d_good_cap():
    with pytest.raises(ScaleError):
        count_d_good(10, 3)
    with pytest.raises(ScaleError):
        decreasing_histogram(10)


def test_count_d_good_equals_histogram_prefix():
    for n in range(1, 9):
        histogram = decreasing_histogram(n)
        assert len(histogram) == n + 1
        assert sum(histogram) == math.factorial(n)
        for d in range(2, 11):
            assert count_d_good(n, d) == sum(histogram[:d]), (n, d)


def test_count_d_good_past_the_degree_is_everything():
    for n in range(1, 10):
        for d in range(n + 1, n + 4):
            assert count_d_good(n, d) == math.factorial(n), (n, d)


def test_all_permutations_in_dictionary_order():
    perms = list(all_permutations(3))
    assert len(perms) == 6
    assert perms[0] == identity(3)
    assert perms == sorted(perms)


def test_ball_layers_equal_the_length_filter():
    # the n! filter is the oracle; the layer sizes are the Mahonian row
    for n in range(1, 8):
        top = n * (n - 1) // 2
        by_length = [[] for _ in range(top + 1)]
        for p in all_permutations(n):
            by_length[word_length(p)].append(p)  # dictionary order within a length
        assert [len(layer) for layer in by_length] == list(mahonian_row(n))
        for radius in range(top + 2):
            assert ball_layers(n, radius) == by_length[:radius]


def test_ball_layers_stop_at_the_longest_word():
    # no word of degree 3 is longer than 3, so a larger radius adds no layer
    assert ball_layers(3, 10**9) == ball_layers(3, 4)


def test_ball_layers_rejects_bad_degree():
    with pytest.raises(ValueError):
        ball_layers(0, 1)


# ---- the pair-loop kernels the bit-row and patience versions replaced, as oracles


def triple_loop_rebuild(n, pairs):
    """Range check, the O(n^3) axiom loop, then the counting rebuild."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    for i, j in pairs:
        if not (1 <= i < j <= n):
            raise ValueError(f"pair {(i, j)} out of range for n = {n}")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ij, jk, ik = (i, j) in pairs, (j, k) in pairs, (i, k) in pairs
                if ij and jk and not ik:
                    raise InvalidInversionSetError("transitivity", (i, j, k))
                if ik and not ij and not jk:
                    raise InvalidInversionSetError("interpolation", (i, j, k))
    return tuple(
        1
        + sum(1 for j in range(i + 1, n + 1) if (i, j) in pairs)
        + sum(1 for j in range(1, i) if (j, i) not in pairs)
        for i in range(1, n + 1)
    )


def nested_inversion_set(image):
    n = len(image)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if image[j - 1] < image[i - 1]
    )


def quadratic_drop(image):
    """drop[i] = longest strictly decreasing run starting at position i, O(n^2)."""
    n = len(image)
    drop = [1] * n
    for i in range(n - 2, -1, -1):
        best = 0
        for j in range(i + 1, n):
            if image[j] < image[i] and drop[j] > best:
                best = drop[j]
        drop[i] = best + 1
    return drop


def quadratic_witness(image, d):
    drop = quadratic_drop(image)
    if d > len(image) or max(drop) < d:
        return None
    witness = []
    prev_value = len(image) + 1
    start = 0
    for remaining in range(d, 0, -1):
        for i in range(start, len(image)):
            if image[i] < prev_value and drop[i] >= remaining:
                witness.append(i + 1)
                prev_value = image[i]
                start = i + 1
                break
    return tuple(witness)


def outcome(rebuild, n, pairs):
    """What rebuild returns, or the axiom and witness, or the ValueError text."""
    try:
        return ("value", rebuild(n, pairs))
    except InvalidInversionSetError as exc:
        return ("axiom", exc.axiom, exc.witness)
    except ValueError as exc:
        return ("error", str(exc))


def test_bit_rows_match_the_triple_loop_on_every_pair_set():
    cases = 0
    for n in range(1, 6):
        all_pairs = list(combinations(range(1, n + 1), 2))
        for r in range(len(all_pairs) + 1):
            for subset in combinations(all_pairs, r):
                cases += 1
                pairs = set(subset)
                expected = outcome(triple_loop_rebuild, n, pairs)
                assert outcome(from_inversion_set, n, pairs) == expected, (n, subset)
                validated = ("value", None) if expected[0] == "value" else expected
                assert outcome(validate_inversion_set, n, pairs) == validated
                # an out-of-range pair is reported before any axiom is checked
                for bad in ((0, 1), (n, n), (2, 1), (1, n + 1)):
                    assert outcome(from_inversion_set, n, pairs | {bad}) == outcome(
                        triple_loop_rebuild, n, pairs | {bad}
                    )
    assert cases == 1099
    assert outcome(from_inversion_set, 0, set()) == outcome(triple_loop_rebuild, 0, set())


def test_inversion_set_matches_the_nested_comprehension():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert inversion_set(p) == nested_inversion_set(p), p


def test_patience_kernels_match_the_quadratic_drop():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert longest_decreasing(p) == max(quadratic_drop(p)), p
            for d in range(2, n + 3):
                assert find_d_bad_witness(p, d) == quadratic_witness(p, d), (p, d)


def test_decreasing_table_is_the_per_word_sweep():
    for n in range(1, 9):
        table = decreasing_table(n)
        assert isinstance(table, bytes)
        assert list(table) == list(map(longest_decreasing, all_permutations(n)))
        assert decreasing_table(n) is table  # built once per degree
    with pytest.raises(ScaleError):
        decreasing_table(10)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        decreasing_table(0)


def test_length_table_is_the_per_word_sweep():
    for n in range(1, 9):
        table = length_table(n)
        assert isinstance(table, bytes)
        assert list(table) == [word_length(p) for p in all_permutations(n)]

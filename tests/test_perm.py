import pytest
from hypothesis import given, strategies as st

from codimgeo.errors import InvalidInversionSetError, ScaleError
from codimgeo.perm import (
    InversionSet,
    Permutation,
    all_permutations,
    cayley_distance_bfs,
    count_d_good,
    find_d_bad_witness,
    from_inversion_set,
    identity,
    inversion_set,
    is_d_good,
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
    assert sorted(r.pairs) == [(1, 2), (1, 3)]


@given(permutations(max_n=6))
def test_word_length_matches_bfs(p):
    assert word_length(p) == cayley_distance_bfs(p)


def test_bfs_scale_cap():
    with pytest.raises(ScaleError):
        cayley_distance_bfs(identity(7))


@given(permutations())
def test_inversion_roundtrip(p):
    r = inversion_set(p)
    validate_inversion_set(r)
    assert from_inversion_set(r) == p


def test_interpolation_violation_reported():
    with pytest.raises(InvalidInversionSetError) as err:
        from_inversion_set(InversionSet(3, frozenset({(1, 3)})))
    assert err.value.axiom == "interpolation"
    assert err.value.witness == (1, 2, 3)


def test_transitivity_violation_reported():
    with pytest.raises(InvalidInversionSetError) as err:
        from_inversion_set(InversionSet(3, frozenset({(1, 2), (2, 3)})))
    assert err.value.axiom == "transitivity"
    assert err.value.witness == (1, 2, 3)


def test_inversion_set_rejects_out_of_range_pairs():
    with pytest.raises(ValueError):
        InversionSet(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        InversionSet(3, frozenset({(1, 4)}))


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
        from itertools import combinations

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


def test_all_permutations_in_dictionary_order():
    perms = list(all_permutations(3))
    assert len(perms) == 6
    assert perms[0] == identity(3)
    assert perms == sorted(perms)

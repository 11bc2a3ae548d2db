"""P_n modulo one multilinear identity: an exact certificate for s_4 at n = 5."""
import itertools

from codimgeo.bounds import ball_radius
from codimgeo.perm import all_permutations, count_d_good, identity, is_d_good, word_length

# A linear functional on P_5, word sigma (one-line notation) standing for the
# monomial x_sigma(1) ... x_sigma(5); every word not listed maps to 0.
CERTIFICATE = {
    (1, 2, 3, 4, 5): -1,
    (1, 5, 4, 3, 2): 1,
    (4, 3, 2, 1, 5): 1,
    (4, 5, 3, 2, 1): 1,
    (5, 3, 4, 2, 1): 1,
    (5, 4, 2, 3, 1): 1,
    (5, 4, 3, 1, 2): 1,
    (5, 4, 3, 2, 1): 3,
}


def sign(order):
    return -1 if sum(a > b for a, b in itertools.combinations(order, 2)) % 2 else 1


def standard_consequences(n, d):
    """Each distinct u s_d(v_1, ..., v_d) w in P_n, as a set of (word, coefficient).

    s_d is the standard polynomial, the sum of sign(pi) x_pi(1) ... x_pi(d)
    over S_d; the v_i are nonempty, u and w may be empty, and the letters of
    u v_1 ... v_d w are 1..n once each.
    """
    found = set()
    for word in itertools.permutations(range(1, n + 1)):
        for cuts in itertools.combinations(range(n + 1), d + 1):
            u, w = word[: cuts[0]], word[cuts[-1] :]
            v = [word[a:b] for a, b in zip(cuts, cuts[1:])]
            found.add(
                frozenset(
                    (u + sum((v[i] for i in order), ()) + w, sign(order))
                    for order in itertools.permutations(range(d))
                )
            )
    return found


def test_good_words_outside_the_ball_need_not_span_modulo_one_identity():
    # lambda vanishes on every consequence of s_4 and on every 4-good word
    # outside the ball, but not on e: so modulo s_4 those words miss e
    n, d = 5, 4
    consequences = standard_consequences(n, d)
    assert len(consequences) == 60
    for f in consequences:
        assert sum(CERTIFICATE.get(word, 0) * c for word, c in f) == 0, sorted(f)
    assert all(p == identity(n) or not is_d_good(p, d) for p in CERTIFICATE)
    radius = ball_radius(n, d)  # the ball B(1) is {e}
    outside = [p for p in all_permutations(n) if is_d_good(p, d) and word_length(p) >= radius]
    assert len(outside) == count_d_good(n, d) - 1 == 102
    assert CERTIFICATE[identity(n)] == -1

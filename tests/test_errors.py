"""The argument rules and the cap rule: one statement each in errors, one table each."""
import re
from pathlib import Path

import pytest

import codimgeo
from codimgeo.bounds import (
    BOUNDS_MAX_N,
    CROSSOVER_MAX_D,
    ball_radius,
    classic_bound,
    compare_bounds,
    complement_lower_bound,
    crossover_n,
    mahonian_asymptotic,
    theorem_bound,
)
from codimgeo.errors import ScaleError
from codimgeo.greedy import rearrangements
from codimgeo.mahonian import (
    BRUTE_FORCE_MAX_N,
    ROW_MAX_N,
    ball_complement_count,
    ball_count,
    brute_force_row,
    mahonian_knuth,
    mahonian_row,
)
from codimgeo.perm import (
    CAYLEY_BFS_MAX_N,
    COUNT_GOOD_MAX_N,
    Permutation,
    ball_layers,
    cayley_distance_bfs,
    count_d_good,
    decreasing_histogram,
    decreasing_table,
    find_d_bad_witness,
    from_inversion_set,
    is_d_good,
    length_table,
    validate_inversion_set,
)
from codimgeo.reduction import (
    CLASSIC_CLOSURE_MAX_N,
    MAIN_CLOSURE_MAX_N,
    STEP_MAX_D,
    classic_closure,
    classic_step,
    main_closure,
    main_step,
)
from codimgeo.verify import SUITES, check_request

DEGREE = "degree must be at least 1"


def d_rule(d):
    return f"d must be at least 2, got {d}"


def within(d, n):
    return f"need 2 <= d <= n, got d = {d}, n = {n}"


def k_within(k, n):
    return f"need 0 <= k <= n, got k = {k}, n = {n}"


# (call, exact message): n = 0 and d = 1 wherever a function takes n or d,
# d = n + 1 where it requires d <= n, and k = -1 and k = n + 1 where it
# requires 0 <= k <= n.  A function taking a word reads n as its length, so
# the empty word is refused as degree 0.
PRECONDITIONS = {
    # bounds
    "classic_bound n=0": (lambda: classic_bound(0, 2), DEGREE),
    "classic_bound d=1": (lambda: classic_bound(5, 1), d_rule(1)),
    "classic_bound d rule first": (lambda: classic_bound(0, 1), d_rule(1)),
    "ball_radius n=0": (lambda: ball_radius(0, 2), within(2, 0)),
    "ball_radius d=1": (lambda: ball_radius(5, 1), within(1, 5)),
    "ball_radius d=n+1": (lambda: ball_radius(5, 6), within(6, 5)),
    "theorem_bound n=0": (lambda: theorem_bound(0, 2), within(2, 0)),
    "theorem_bound d=1": (lambda: theorem_bound(5, 1), within(1, 5)),
    "theorem_bound d=n+1": (lambda: theorem_bound(5, 6), within(6, 5)),
    "crossover_n d=1": (lambda: crossover_n(1), d_rule(1)),
    "mahonian_asymptotic n=0": (lambda: mahonian_asymptotic(0, 0), DEGREE),
    "mahonian_asymptotic k=-1": (lambda: mahonian_asymptotic(10, -1), k_within(-1, 10)),
    "mahonian_asymptotic k=n+1": (lambda: mahonian_asymptotic(10, 11), k_within(11, 10)),
    "complement_lower_bound n=0": (lambda: complement_lower_bound(0, 2), within(2, 0)),
    "complement_lower_bound d=1": (lambda: complement_lower_bound(5, 1), within(1, 5)),
    "complement_lower_bound d=n+1": (lambda: complement_lower_bound(5, 6), within(6, 5)),
    "compare_bounds n_max=0": (
        lambda: compare_bounds(2, 0),
        "need n_max >= d, got n_max = 0, d = 2",
    ),
    "compare_bounds d=1": (lambda: compare_bounds(1, 5), d_rule(1)),
    "compare_bounds d=n_max+1": (
        lambda: compare_bounds(6, 5),
        "need n_max >= d, got n_max = 5, d = 6",
    ),
    # mahonian
    "mahonian_row n=0": (lambda: mahonian_row(0), DEGREE),
    "brute_force_row n=0": (lambda: brute_force_row(0), DEGREE),
    "mahonian_knuth n=0": (lambda: mahonian_knuth(0, 0), DEGREE),
    "mahonian_knuth k=-1": (lambda: mahonian_knuth(4, -1), k_within(-1, 4)),
    "mahonian_knuth k=n+1": (lambda: mahonian_knuth(4, 5), k_within(5, 4)),
    "ball_count n=0": (lambda: ball_count(0, 1), DEGREE),
    "ball_complement_count n=0": (lambda: ball_complement_count(0, 1), DEGREE),
    # perm
    "Permutation n=0": (lambda: Permutation(()), DEGREE),
    "ball_layers n=0": (lambda: ball_layers(0, 1), DEGREE),
    "validate_inversion_set n=0": (lambda: validate_inversion_set(0, set()), DEGREE),
    "from_inversion_set n=0": (lambda: from_inversion_set(0, set()), DEGREE),
    "is_d_good n=0": (lambda: is_d_good((), 2), DEGREE),
    "is_d_good d=1": (lambda: is_d_good((1, 2, 3), 1), d_rule(1)),
    "is_d_good d rule first": (lambda: is_d_good((), 1), d_rule(1)),
    "find_d_bad_witness n=0": (lambda: find_d_bad_witness((), 2), DEGREE),
    "find_d_bad_witness d=1": (lambda: find_d_bad_witness((1, 2, 3), 1), d_rule(1)),
    "find_d_bad_witness d rule first": (lambda: find_d_bad_witness((), 1), d_rule(1)),
    "count_d_good n=0": (lambda: count_d_good(0, 2), DEGREE),
    "count_d_good d=1": (lambda: count_d_good(3, 1), d_rule(1)),
    "count_d_good d rule first": (lambda: count_d_good(0, 1), d_rule(1)),
    "decreasing_table n=0": (lambda: decreasing_table(0), DEGREE),
    "decreasing_histogram n=0": (lambda: decreasing_histogram(0), DEGREE),
    "length_table n=0": (lambda: length_table(0), DEGREE),
    "cayley_distance_bfs n=0": (lambda: cayley_distance_bfs(()), DEGREE),
    # reduction
    "classic_step n=0": (lambda: classic_step((), 2), within(2, 0)),
    "classic_step d=1": (lambda: classic_step((3, 2, 1), 1), within(1, 3)),
    "classic_step d=n+1": (lambda: classic_step((2, 1), 3), within(3, 2)),
    "main_step n=0": (lambda: main_step((), 2), within(2, 0)),
    "main_step d=1": (lambda: main_step((1, 2, 3), 1), within(1, 3)),
    "main_step d=n+1": (lambda: main_step((1, 2), 3), within(3, 2)),
    "classic_closure n=0": (lambda: classic_closure(0, 2), within(2, 0)),
    "classic_closure d=1": (lambda: classic_closure(3, 1), within(1, 3)),
    "classic_closure d=n+1": (lambda: classic_closure(3, 4), within(4, 3)),
    "main_closure n=0": (lambda: main_closure(0, 2), within(2, 0)),
    "main_closure d=1": (lambda: main_closure(3, 1), within(1, 3)),
    "main_closure d=n+1": (lambda: main_closure(3, 4), within(4, 3)),
}


@pytest.mark.parametrize("case", PRECONDITIONS)
def test_precondition_table(case):
    call, message = PRECONDITIONS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError  # a rule, not a ScaleError
    assert str(info.value) == message


def capped(operation, cap, name="n"):
    return f"{operation} is capped at {name} <= {cap}, got {name} = {cap + 1}"


def word(n):
    return tuple(range(1, n + 1))


# (call, exact message): every capped entry point one past its cap, with
# arguments that pass every rule, so only the cap can refuse it.
CAPS = {
    # perm
    "ball_layers": (
        lambda: ball_layers(COUNT_GOOD_MAX_N + 1, 1),
        capped("ball_layers", COUNT_GOOD_MAX_N),
    ),
    "cayley_distance_bfs": (
        lambda: cayley_distance_bfs(word(CAYLEY_BFS_MAX_N + 1)),
        capped("cayley_distance_bfs", CAYLEY_BFS_MAX_N),
    ),
    "count_d_good": (
        lambda: count_d_good(COUNT_GOOD_MAX_N + 1, 3),
        capped("count_d_good", COUNT_GOOD_MAX_N),
    ),
    "decreasing_table": (
        lambda: decreasing_table(COUNT_GOOD_MAX_N + 1),
        capped("decreasing_table", COUNT_GOOD_MAX_N),
    ),
    # the histogram refuses through its table
    "decreasing_histogram": (
        lambda: decreasing_histogram(COUNT_GOOD_MAX_N + 1),
        capped("decreasing_table", COUNT_GOOD_MAX_N),
    ),
    "length_table": (
        lambda: length_table(COUNT_GOOD_MAX_N + 1),
        capped("length_table", COUNT_GOOD_MAX_N),
    ),
    # mahonian
    "brute_force_row": (
        lambda: brute_force_row(BRUTE_FORCE_MAX_N + 1),
        capped("brute_force_row", BRUTE_FORCE_MAX_N),
    ),
    "mahonian_row": (lambda: mahonian_row(ROW_MAX_N + 1), capped("a full row", ROW_MAX_N)),
    "ball_count": (lambda: ball_count(ROW_MAX_N + 1, 1), capped("a ball count", ROW_MAX_N)),
    # the complement and the theorem bound refuse through the ball count
    "ball_complement_count": (
        lambda: ball_complement_count(ROW_MAX_N + 1, 1),
        capped("a ball count", ROW_MAX_N),
    ),
    # bounds
    "theorem_bound": (
        lambda: theorem_bound(ROW_MAX_N + 1, 3),
        capped("a ball count", ROW_MAX_N),
    ),
    "compare_bounds": (
        lambda: compare_bounds(3, BOUNDS_MAX_N + 1),
        capped("a bounds table", BOUNDS_MAX_N, "n_max"),
    ),
    "crossover_n": (
        lambda: crossover_n(CROSSOVER_MAX_D + 1),
        capped("crossover", CROSSOVER_MAX_D, "d"),
    ),
    # greedy
    "rearrangements": (
        lambda: rearrangements(word(40), tuple(range(1, STEP_MAX_D + 1))),
        capped("rearrangements", STEP_MAX_D, "pieces"),
    ),
    # reduction
    "classic_closure": (
        lambda: classic_closure(CLASSIC_CLOSURE_MAX_N + 1, 3),
        capped("classic_closure", CLASSIC_CLOSURE_MAX_N),
    ),
    "main_closure": (
        lambda: main_closure(MAIN_CLOSURE_MAX_N + 1, 3),
        capped("main_closure", MAIN_CLOSURE_MAX_N),
    ),
    "classic_step": (
        lambda: classic_step(word(40)[::-1], STEP_MAX_D + 1),
        capped("a step", STEP_MAX_D, "d"),
    ),
    "main_step": (
        lambda: main_step(word(40), STEP_MAX_D + 1),
        capped("a step", STEP_MAX_D, "d"),
    ),
    # verify
    "check_request": (
        lambda: check_request("metric", SUITES["metric"].cap + 1),
        capped("suite metric", SUITES["metric"].cap),
    ),
}


@pytest.mark.parametrize("case", CAPS)
def test_cap_table(case):
    call, message = CAPS[case]
    with pytest.raises(ScaleError) as info:
        call()
    assert type(info.value) is ScaleError
    assert str(info.value) == message


def test_d_past_n_is_accepted_where_no_rule_needs_d_within_n():
    assert is_d_good((1, 2, 3), 4)
    assert find_d_bad_witness((3, 2, 1), 4) is None
    assert count_d_good(3, 4) == 6
    assert classic_bound(3, 4) == 3**6


RULE_MESSAGES = (
    DEGREE,
    "d must be at least 2, got",
    "need 2 <= d <= n, got",
    "need 0 <= k <= n, got",
    "is capped at",
)
# n or d against its rule's bound, bare or as an attribute (args.n < 1), and suffixed in
# the one-sided rules (args.d_max < 2); n_max < d is compare_bounds' own rule
N, D = (rf"(?:\w+\.)*{name}(?:_\w+)?" for name in "nd")
HAND_GUARD = re.compile(
    rf"\bif\s+(?:{N}\s*<\s*1\b|{D}\s*<\s*2\b|(?:\w+\.)*n\s*<\s*(?:\w+\.)*d\b"
    rf"|not\s*\(\s*2\s*<=\s*{D}\s*<=\s*{N}\s*\))"
)
# an if that compares with a cap (a *_MAX_* constant or a name cap) and then raises
HAND_CAP = re.compile(r"\bif\b[^\n]*(?:\w_MAX_\w|\bcap\b)[^\n]*:\s*(?:#[^\n]*\s*)*raise\b")


def test_each_rule_is_stated_once_in_errors():
    sources = {p.name: p.read_text() for p in Path(codimgeo.__file__).parent.glob("*.py")}
    for message in RULE_MESSAGES:
        found = {name: text.count(message) for name, text in sources.items() if message in text}
        assert found == {"errors.py": 1}, message
    for name, text in sources.items():
        if name != "errors.py":
            assert not HAND_GUARD.search(text), name
            assert not HAND_CAP.search(text), name

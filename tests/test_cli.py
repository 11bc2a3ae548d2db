import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import codimgeo
from codimgeo.bounds import BOUNDS_MAX_N, CROSSOVER_MAX_D, ball_radius, compare_bounds
from codimgeo.cli import _JSON_BATCH, Result, Table, _write, _write_json, main
from codimgeo.errors import FalsificationError
from codimgeo.greedy import _reorder_lengths, chunk_stats, left_greedy_form, rearrangements
from codimgeo.mahonian import ROW_MAX_N, mahonian_knuth
from codimgeo.perm import (
    cayley_distance_bfs,
    count_d_good,
    decreasing_table,
    inversion_set,
    is_d_good,
    length_table,
    one_line,
    reversal,
    word_length,
)
from codimgeo.reduction import STEP_MAX_D, classic_closure, classic_step, main_closure, main_step
from codimgeo.verify import SUITES, check_request, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(code, **popen):
    """A fresh interpreter running code, with this checkout's codimgeo importable.

    Its stdout is block-buffered, as a user's is, even under PYTHONUNBUFFERED.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(codimgeo.__file__).resolve().parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-c", code], env=env, **popen)


def test_mahonian_csv(capsys):
    code, out, _ = run(capsys, "mahonian", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,count"
    assert lines[1] == "4,0,1"
    assert lines[-1] == "4,6,1"
    assert len(lines) == 8


def test_mahonian_degree_one(capsys):
    code, out, _ = run(capsys, "mahonian", "--n", "1")
    assert code == 0
    assert "1" in out
    assert len(out.strip().splitlines()) == 2  # header plus the single coefficient


def test_mahonian_check_passes(capsys):
    code, out, _ = run(capsys, "mahonian", "--n", "6", "--check")
    assert code == 0
    assert "check: OK" in out


def test_mahonian_json(capsys):
    code, out, _ = run(capsys, "mahonian", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "coefficients": ["1", "2", "2", "1"]}


def test_mahonian_check_disagreement(capsys, monkeypatch):
    def wrong_at_3(n, k):
        return mahonian_knuth(n, k) + (k == 3)

    monkeypatch.setattr("codimgeo.cli.mahonian_knuth", wrong_at_3)
    code, out, err = run(capsys, "mahonian", "--n", "6", "--check")
    assert (code, out) == (1, "")
    assert err == "falsification: closed form disagrees at k=3\n"


def test_mahonian_check_sees_a_nonzero_closed_form_past_the_row(capsys, monkeypatch):
    # the n = 2 row ends at k = 1, so --check compares k = 2 against 0
    monkeypatch.setattr("codimgeo.cli.mahonian_knuth", lambda n, k: mahonian_knuth(n, k) + (k == 2))
    code, out, err = run(capsys, "mahonian", "--n", "2", "--check")
    assert (code, out) == (1, "")
    assert err == "falsification: closed form disagrees at k=2\n"


def test_mahonian_check_brute_force_disagreement(capsys, monkeypatch):
    monkeypatch.setattr("codimgeo.cli.brute_force_row", lambda n: [0])
    code, out, err = run(capsys, "mahonian", "--n", "6", "--check")
    assert (code, out) == (1, "")
    assert err == "falsification: brute-force histogram disagrees\n"


def test_mahonian_row_limit(capsys):
    assert run(capsys, "mahonian", "--n", "6")[0] == 0
    code, out, err = run(capsys, "mahonian", "--n", str(ROW_MAX_N + 1))
    assert (code, out) == (2, "")
    assert err == f"error: a full row is capped at n <= {ROW_MAX_N}, got n = {ROW_MAX_N + 1}\n"


def test_bounds_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "3", "--n-max", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,classic,theorem,phi,factorial,winner"
    assert len(lines) == 11
    for line in lines[1:]:
        n, classic, theorem, phi, factorial, winner = line.split(",")
        assert int(classic) == 4 ** int(n)
        assert int(factorial) == math.factorial(int(n))
        assert winner in ("classic", "theorem", "tie")


def test_bounds_classic_column_trivial_for_d2(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--n-max", "3", "--format", "csv")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split(",")[1] == "1"


def test_bounds_boundary_row(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4", "--n-max", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "24"


def test_bounds_output_matches_report(capsys):
    rows = compare_bounds(3, 9)
    argv = ("bounds", "--d", "3", "--n-max", "9", "--format")
    lines = run(capsys, *argv, "csv")[1].splitlines()
    payload = json.loads(run(capsys, *argv, "json")[1])
    assert lines[0] == "n,classic,theorem,phi,factorial,winner"
    assert payload["d"] == 3
    for line, entry, row in zip(lines[1:], payload["rows"], rows, strict=True):
        values = (row.n, row.classic, row.theorem, row.phi, row.factorial, row.winner)
        assert line == ",".join(map(str, values))
        assert entry == {
            "n": row.n,
            "classic": str(row.classic),
            "theorem": str(row.theorem),
            "phi": str(row.phi),
            "factorial": str(row.factorial),
            "winner": row.winner,
        }


# Each refusal of a command, with its exact stderr; a new refusal is a row here, not a new test.
@pytest.mark.parametrize(
    "argv, err",
    [
        ("reduce --perm 1,2,3 --d 1 --mode classic", "need 2 <= d <= n, got d = 1, n = 3"),
        ("reduce --perm 1,2 --d 3 --mode main", "need 2 <= d <= n, got d = 3, n = 2"),
        ("reduce --n 3 --d 4 --mode classic --closure", "need 2 <= d <= n, got d = 4, n = 3"),
        ("reduce --n 3 --d 1 --mode main --closure", "need 2 <= d <= n, got d = 1, n = 3"),
        ("bounds --d 1 --n-max 5", "d must be at least 2, got 1"),
        ("bounds --d 5 --n-max 3", "need n_max >= d, got n_max = 3, d = 5"),
        ("mahonian --n 0", "degree must be at least 1"),
        ("crossover --d-max 1", "d must be at least 2, got 1"),
        ("verify --n-max 0", "suite metric needs n_max at least 1, got 0"),
        ("reduce --d 2 --mode main", "need --perm for a single step (or --closure with --n)"),
        ("reduce --perm 1,2,3 --d 2 --mode classic", "permutation 1,2,3 is 2-good; nothing to rewrite"),
        (
            "reduce --perm 2,1,4,3,5,6 --d 3 --mode main",
            "word length 2 is not below the threshold 2; the rewrite only applies inside the ball",
        ),
        ("reduce --perm 2,1 --d 2 --mode classic --closure", "--closure takes --n, not --perm"),
        ("greedy --perm 1,2,x", "not comma-separated integers: '1,2,x'"),
    ],
)
def test_guard_paths_pin_stderr(capsys, argv, err):
    assert run(capsys, *argv.split()) == (2, "", f"error: {err}\n")


def test_bounds_degree_limit(capsys, monkeypatch):
    # refused before any row is computed: each function compare_bounds builds its rows from fails
    for target in (
        "codimgeo.bounds._heads",
        "codimgeo.bounds.classic_bound",
        "codimgeo.bounds.complement_lower_bound",
    ):
        monkeypatch.setattr(target, lambda *args, target=target: pytest.fail(f"ran {target}"))
    n_max = BOUNDS_MAX_N + 1
    code, out, err = run(capsys, "bounds", "--d", "3", "--n-max", str(n_max))
    assert (code, out) == (2, "")
    assert err == f"error: a bounds table is capped at n_max <= {BOUNDS_MAX_N}, got n_max = {n_max}\n"


def test_crossover_table(capsys):
    code, out, _ = run(capsys, "crossover", "--d-max", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 2 and values[1] == 9
    assert values == sorted(values)


def test_crossover_degree_limit(capsys, monkeypatch):
    # refused before any comparison of a crossover search runs
    monkeypatch.setattr(
        "codimgeo.bounds._robbins_verdict", lambda base, m: pytest.fail(f"compared at m = {m}")
    )
    d_max = CROSSOVER_MAX_D + 1
    code, out, err = run(capsys, "crossover", "--d-max", str(d_max))
    assert (code, out) == (2, "")
    assert err == f"error: crossover is capped at d <= {CROSSOVER_MAX_D}, got d = {d_max}\n"


def test_verify_selected_suites(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--suites", "lgf,growth")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nosuch")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("suites", ["", "metric,"])
def test_verify_rejects_an_empty_suite_name(capsys, suites):
    # an explicit empty list is not "all suites"
    code, out, err = run(capsys, "verify", "--n-max", "2", "--suites", suites)
    assert (code, out) == (2, "")
    assert "unknown suite ''" in err


def test_verify_rejects_a_repeated_suite(capsys, monkeypatch):
    monkeypatch.setattr("codimgeo.cli.run_suite", lambda *a: pytest.fail("a suite ran"))
    code, out, err = run(capsys, "verify", "--suites", "metric,metric", "--n-max", "3")
    assert (code, out) == (2, "")
    assert err == "error: suite 'metric' is named twice\n"


@pytest.mark.parametrize("name", list(SUITES))
def test_every_suite_checks_something_at_its_first_degree(name):
    assert run_suite(name, SUITES[name].min_n).checked > 0


@pytest.mark.parametrize("name", list(SUITES))
def test_a_runner_checks_nothing_below_its_first_degree(name):
    for n in range(1, SUITES[name].min_n):
        checked, failures, _ = SUITES[name].runner(n)
        assert (checked, failures) == (0, [])


# checked at every n_max from a suite's first degree to one below its cap
# (the acceptance criteria pin the caps)
CHECKED_BELOW_CAP = {
    "metric": (1, 3, 9, 33, 153),
    "roundtrip": (1, 3, 9, 33, 153, 873),
    "badsize": (1, 3, 9, 33, 153, 873, 5913),
    "dilworth": (1, 3, 6, 10, 15, 21),
    "lgf": (1, 3, 9, 33, 153, 873),
    "chunks": (1, 3, 9, 33, 153, 873),
    "growth": (1, 6, 27, 120),
    "classic": (2, 14, 86, 566, 4166),
    "main": (2, 10, 50, 238, 1312),
}


# the degree a suite runs at when no --n-max is given
DEFAULT_N = {
    "metric": 6,
    "roundtrip": 7,
    "badsize": 8,
    "dilworth": 8,
    "lgf": 7,
    "chunks": 7,
    "growth": 6,
    "classic": 6,
    "main": 7,
}


@pytest.mark.parametrize("name", list(SUITES))
def test_checked_counts_below_each_cap(name):
    suite = SUITES[name]
    degrees = range(suite.min_n, suite.cap)
    assert tuple(run_suite(name, n).checked for n in degrees) == CHECKED_BELOW_CAP[name]
    assert check_request(name) == suite.default_n == DEFAULT_N[name]
    assert suite.min_n <= suite.default_n <= suite.cap


def test_main_reports_its_empty_ball_at_degree_two():
    assert run_suite("main", 3).info == (
        "n=2 d=2 sources=0 visited=0 terminal=0 depth=0",
        "n=3 d=2 sources=1 visited=2 terminal=1 depth=1",
        "n=3 d=3 sources=0 visited=0 terminal=0 depth=0",
    )


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--n-max", "8", "--suites", "metric")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize(
    "suite, n_max, first",
    [
        ("metric", "0", 1),
        ("metric", "-3", 1),
        ("dilworth", "1", 2),
        ("growth", "1", 2),
        ("classic", "1", 2),
        ("main", "1", 3),
        ("main", "2", 3),
    ],
    ids=["0", "-3", "dilworth-1", "growth-1", "classic-1", "main-1", "main-2"],
)
def test_verify_rejects_degree_below_one(capsys, suite, n_max, first):
    code, out, err = run(capsys, "verify", "--n-max", n_max, "--suites", suite)
    assert code == 2
    assert out == ""
    assert f"at least {first}" in err


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--suites", "dilworth", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    suite = payload["suites"][0]
    assert suite["name"] == "dilworth"
    assert suite["passed"] is True
    assert suite["info"]


def test_verify_main_propagates_other_errors(monkeypatch):
    # a programming error is not a counterexample
    def broken(p, d):
        raise TypeError("broken step")

    monkeypatch.setattr("codimgeo.reduction.main_step", broken)
    with pytest.raises(TypeError, match="broken step"):
        main(["verify", "--n-max", "4", "--suites", "main"])


def _only_at(word, fake, real):
    """real, except that at the image tuple word it returns fake instead."""
    return lambda p: fake if p == word else real(p)


def _edited(closure, **edits):
    """closure with each named field of its trace replaced by edits[field](trace)."""

    def edited(n, d):
        trace = closure(n, d)
        return dataclasses.replace(trace, **{key: edit(trace) for key, edit in edits.items()})

    return edited


def _grown(p):
    _, letters, length = chunk_stats(p)
    return length + 1, letters, length  # one chunk more than inversions


def _inflated(p):
    chunk_count, _, length = chunk_stats(p)
    return chunk_count, length + chunk_count + 1, length  # one chunk letter past |sigma| + k


def _falsified(n, d):
    raise FalsificationError(f"no decomposition of {one_line(tuple(range(1, n + 1)))}")


# Each failure branch of each suite, forced by replacing one name verify imports:
# (suite, n_max, name, fake, checked, failures).  checked is the suite's count
# under the fake, as its table row prints it.  A new failure branch is a row
# here, not a new test.
FAILURE_BRANCHES = {
    "metric": (
        "metric", 2, "cayley_distance_bfs", _only_at((2, 1), 0, cayley_distance_bfs), 3,
        ("2,1: word_length != BFS distance",),
    ),
    "roundtrip-axioms": (
        # {(1, n)} alone breaks interpolation at (1, 2, n) once n >= 3
        "roundtrip", 3, "inversion_set",
        lambda p: frozenset({(1, len(p))}) if len(p) >= 3 else inversion_set(p), 9,
        tuple(
            f"{word}: inversion set violates axioms (interpolation fails at positions (1, 2, 3))"
            for word in ("1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2", "3,2,1")
        ),
    ),
    "roundtrip-mismatch": (
        "roundtrip", 3, "from_inversion_set", lambda n, r: reversal(n), 9,
        tuple(
            f"{word}: round-trip mismatch"
            for word in ("1,2", "1,2,3", "1,3,2", "2,1,3", "2,3,1", "3,1,2")
        ),
    ),
    "badsize-increasing": (
        # every run one short: the increasing bound fails where it is tight, on the words
        # whose inversions share no letter, and the floor nowhere
        "badsize", 4, "decreasing_table",
        lambda n: bytes(x - 1 for x in decreasing_table(n)), 33,
        (
            "1: longest increasing run 0 below n - |sigma| = 1",
            "1,2: longest increasing run 1 below n - |sigma| = 2",
            "2,1: longest increasing run 0 below n - |sigma| = 1",
            "1,2,3: longest increasing run 2 below n - |sigma| = 3",
            "1,3,2: longest increasing run 1 below n - |sigma| = 2",
            "2,1,3: longest increasing run 1 below n - |sigma| = 2",
            "1,2,3,4: longest increasing run 3 below n - |sigma| = 4",
            "1,2,4,3: longest increasing run 2 below n - |sigma| = 3",
            "1,3,2,4: longest increasing run 2 below n - |sigma| = 3",
            "2,1,3,4: longest increasing run 2 below n - |sigma| = 3",
            "2,1,4,3: longest increasing run 1 below n - |sigma| = 2",
        ),
    ),
    "badsize-floor": (
        # one inversion short: the floor fails where it is tight, and so does the increasing bound
        "badsize", 4, "length_table", lambda n: [x - 1 for x in length_table(n)], 33,
        (
            "1: length below the 1-bad floor",
            "1: longest increasing run 1 below n - |sigma| = 2",
            "1,2: length below the 1-bad floor",
            "1,2: longest increasing run 2 below n - |sigma| = 3",
            "2,1: length below the 2-bad floor",
            "2,1: longest increasing run 1 below n - |sigma| = 2",
            "1,2,3: length below the 1-bad floor",
            "1,2,3: longest increasing run 3 below n - |sigma| = 4",
            "1,3,2: length below the 2-bad floor",
            "1,3,2: longest increasing run 2 below n - |sigma| = 3",
            "2,1,3: length below the 2-bad floor",
            "2,1,3: longest increasing run 2 below n - |sigma| = 3",
            "3,2,1: length below the 3-bad floor",
            "1,2,3,4: length below the 1-bad floor",
            "1,2,3,4: longest increasing run 4 below n - |sigma| = 5",
            "1,2,4,3: length below the 2-bad floor",
            "1,2,4,3: longest increasing run 3 below n - |sigma| = 4",
            "1,3,2,4: length below the 2-bad floor",
            "1,3,2,4: longest increasing run 3 below n - |sigma| = 4",
            "1,4,3,2: length below the 3-bad floor",
            "2,1,3,4: length below the 2-bad floor",
            "2,1,3,4: longest increasing run 3 below n - |sigma| = 4",
            "2,1,4,3: longest increasing run 2 below n - |sigma| = 3",
            "3,2,1,4: length below the 3-bad floor",
            "4,3,2,1: length below the 4-bad floor",
        ),
    ),
    "dilworth-ceiling": (
        # a ceiling one below the good count is exceeded at every (n, d)
        "dilworth", 3, "classic_bound", lambda n, d: count_d_good(n, d) - 1, 3,
        ("n=2 d=2: 1 good exceeds 0", "n=3 d=2: 1 good exceeds 0", "n=3 d=3: 5 good exceeds 4"),
    ),
    "dilworth-theorem": (
        # a theorem bound equal to the good count: good < bound fails at every (n, d), alone
        "dilworth", 4, "theorem_bound", count_d_good, 6,
        tuple(
            f"n={n} d={d}: {count_d_good(n, d)} good not below the theorem bound "
            f"{count_d_good(n, d)}"
            for n in range(2, 5)
            for d in range(2, n + 1)
        ),
    ),
    "dilworth-count": (
        # one good word too many: it also exceeds the d = 2 ceiling, and reaches the
        # theorem bound wherever the bound is n!
        "dilworth", 4, "count_d_good", lambda n, d: count_d_good(n, d) + 1, 6,
        (
            "n=2 d=2: hook-length count 2 != swept count 1",
            "n=2 d=2: 2 good exceeds 1",
            "n=2 d=2: 2 good not below the theorem bound 2",
            "n=3 d=2: hook-length count 2 != swept count 1",
            "n=3 d=2: 2 good exceeds 1",
            "n=3 d=3: hook-length count 6 != swept count 5",
            "n=3 d=3: 6 good not below the theorem bound 6",
            "n=4 d=2: hook-length count 2 != swept count 1",
            "n=4 d=2: 2 good exceeds 1",
            "n=4 d=3: hook-length count 15 != swept count 14",
            "n=4 d=4: hook-length count 24 != swept count 23",
            "n=4 d=4: 24 good not below the theorem bound 24",
        ),
    ),
    "lgf-spans": (
        "lgf", 2, "left_greedy_form", _only_at((2, 1), ((1, 1),), left_greedy_form), 3,
        ("2,1: chunks are not disjoint spans of length 2 or more",),
    ),
    "lgf-gap": (
        "lgf", 2, "left_greedy_form", _only_at((2, 1), (), left_greedy_form), 3,
        ("2,1: gap position 1 starts inversion (1,2)",),
    ),
    "lgf-outside": (
        "lgf", 3, "left_greedy_form", _only_at((1, 3, 2), ((1, 2),), left_greedy_form), 9,
        ("1,3,2: inversion (2,3) crosses a chunk border",),
    ),
    "lgf-between": (
        "lgf", 4, "inversion_set",
        _only_at((2, 1, 4, 3), ((1, 2), (2, 3), (3, 4)), inversion_set), 33,
        ("2,1,4,3: inversion (2,3) crosses a chunk border",),
    ),
    "chunks-count": (
        "chunks", 2, "chunk_stats", _grown, 3,
        tuple(f"{word}: more chunks than inversions" for word in ("1", "1,2", "2,1")),
    ),
    "chunks-letters": (
        "chunks", 2, "chunk_stats", _inflated, 3,
        tuple(f"{word}: chunk letters exceed |sigma| + k" for word in ("1", "1,2", "2,1")),
    ),
    "chunks-span": (
        "chunks", 3, "inversion_set", _only_at((1, 2, 3), ((1, 3),), inversion_set), 9,
        ("1,2,3: inversion (1,3) longer than |sigma|",),
    ),
    "growth": (
        # listing the parent among its rearrangements adds a child that does not grow
        "growth", 2, "rearrangements", lambda p, cuts: (*rearrangements(p, cuts), p), 1,
        ("1,2: some rearrangement of 2 pieces fails to grow",),
    ),
    "classic-bad": (
        "classic", 2, "longest_decreasing", lambda p: 2, 2,
        ("n=2 d=2: terminal 1,2 is 2-bad",),
    ),
    "classic-count": (
        "classic", 2, "classic_closure",
        _edited(classic_closure, steps=lambda t: tuple((p, cs + cs) for p, cs in t.steps)), 2,
        ("n=2 d=2: 2,1 has wrong child count",),
    ),
    "classic-descent": (
        "classic", 2, "classic_closure",
        _edited(classic_closure, steps=lambda t: tuple((p, (p,)) for p, _ in t.steps)), 2,
        ("n=2 d=2: 2,1 has non-descending child",),
    ),
    "classic-support": (
        "classic", 2, "count_d_good", lambda n, d: 0, 2,
        ("n=2 d=2: terminal support exceeds good count",),
    ),
    "main-raised": (
        # a closure that raised checks nothing
        "main", 4, "main_closure", _falsified, 0,
        tuple(
            f"n={n} d={d}: closure raised no decomposition of {','.join(map(str, range(1, n + 1)))}"
            for n in range(2, 5)
            for d in range(2, n + 1)
        ),
    ),
    "main-ball": (
        "main", 3, "ball_radius", lambda n, d: ball_radius(n, d) + n * n, 2,
        ("n=3 d=2: terminal 2,3,1 is inside the ball",),
    ),
    "main-count": (
        "main", 3, "main_closure",
        _edited(main_closure, steps=lambda t: tuple((p, cs + cs) for p, cs in t.steps)), 2,
        ("n=3 d=2: 1,2,3 has wrong child count",),
    ),
    "main-growth": (
        "main", 3, "main_closure",
        _edited(main_closure, steps=lambda t: tuple((p, (p,)) for p, _ in t.steps)), 2,
        ("n=3 d=2: 1,2,3 has non-growing child",),
    ),
    "main-depth": (
        "main", 3, "main_closure",
        _edited(main_closure, max_depth=lambda t: t.n * (t.n - 1) // 2 + 1), 2,
        # the runner builds the closure below the suite's first degree too
        tuple(f"n={n} d={d}: depth exceeds C(n,2)" for n, d in ((2, 2), (3, 2), (3, 3))),
    ),
    "main-complement": (
        "main", 3, "main_closure",
        _edited(main_closure, complement_size=lambda t: t.complement_size + 1), 2,
        tuple(
            f"n={n} d={d}: ball and complement do not add up to n!"
            for n, d in ((2, 2), (3, 2), (3, 3))
        ),
    ),
}


@pytest.mark.parametrize("case", list(FAILURE_BRANCHES))
def test_failure_branches_pin_counterexamples(capsys, monkeypatch, case):
    suite, n_max, name, fake, checked, expected = FAILURE_BRANCHES[case]
    monkeypatch.setattr(f"codimgeo.verify.{name}", fake)
    result = run_suite(suite, n_max)
    assert (result.checked, result.failures) == (checked, expected)
    code, out, _ = run(capsys, "verify", "--n-max", str(n_max), "--suites", suite)
    assert code == 1
    assert out.splitlines()[1].split() == [suite, str(n_max), str(checked), "FAIL"]
    assert f"  {suite} counterexample: {expected[0]}\n" in out


def test_greedy_annotation(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,3,2,4")
    assert code == 0
    assert "(1) [3 2] (4)" in out


def test_greedy_no_chunks(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,2,3")
    assert code == 0
    assert "form: (1 2 3)" in out and "chunks: 0" in out


def test_greedy_single_chunk(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "4,3,2,1")
    assert code == 0
    assert "[4 3 2 1]" in out


def test_greedy_json(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,3,2,4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["perm"] == "1,3,2,4"
    assert payload["chunks"] == [[2, 3]]
    assert payload["gaps"] == [[1, 1], [4, 4]]
    assert payload["stats"]["word_length"] == 1


def test_reduce_classic_step(capsys):
    code, out, _ = run(capsys, "reduce", "--perm", "3,2,1", "--d", "3", "--mode", "classic")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("parent: 3,2,1")
    assert len(lines) == 7  # parent, header, five children


def test_reduce_main_step_json(capsys):
    code, out, _ = run(
        capsys, "reduce", "--perm", "1,3,2,4,5,6", "--d", "3", "--mode", "main",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["children"]) == 5
    assert all(child["word_length"] >= 2 for child in payload["children"])


def test_reduce_main_step_at_large_degree(capsys):
    # listing every cut set would try C(63, 4) = 595,665 of them
    ident = ",".join(str(v) for v in range(1, 65))
    code, out, _ = run(
        capsys, "reduce", "--perm", ident, "--d", "5", "--mode", "main", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    children = payload["children"]
    assert len({child["perm"] for child in children}) == len(children) == 119
    assert all(child["word_length"] > 0 for child in children)


@pytest.mark.parametrize("mode", ["classic", "main"])
def test_reduce_step_degree_limit(capsys, monkeypatch, mode):
    # refused before any child is built, priced or rendered, and before any order is listed
    for kernel in (
        "codimgeo.greedy._orders",
        "codimgeo.greedy._reorder",
        "codimgeo.reduction._reorder",
        "codimgeo.reduction._reorder_lengths",
        "codimgeo.reduction._reorder_text",
    ):
        monkeypatch.setattr(kernel, lambda *args, kernel=kernel: pytest.fail(f"ran {kernel}"))
    perm = ",".join(map(str, range(40, 0, -1) if mode == "classic" else range(1, 41)))
    code, out, err = run(capsys, "reduce", "--perm", perm, "--d", str(STEP_MAX_D + 1), "--mode", mode)
    assert (code, out) == (2, "")
    assert err == f"error: a step is capped at d <= {STEP_MAX_D}, got d = {STEP_MAX_D + 1}\n"


def test_reduce_closure_summary(capsys):
    code, out, _ = run(capsys, "reduce", "--n", "6", "--d", "4", "--mode", "main", "--closure")
    assert code == 0
    assert "sources" in out
    assert "complement_size" in out and "719" in out
    assert "terminal_size" in out and "23" in out


def test_reduce_closure_json_summary_only(capsys):
    code, out, _ = run(
        capsys, "reduce", "--n", "6", "--d", "4", "--mode", "main", "--closure",
        "--summary-only", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert "steps" not in payload
    assert payload["summary"]["complement_size"] == 719


def test_reduce_closure_json_shapes(capsys):
    trace = main_closure(6, 4)
    argv = ("reduce", "--n", "6", "--d", "4", "--mode", "main", "--closure", "--format", "json")
    full = json.loads(run(capsys, *argv)[1])
    assert (full["mode"], full["n"], full["d"]) == ("main", 6, 4)
    assert full["summary"] == {
        "visited": trace.visited,
        "max_depth": trace.max_depth,
        "terminal_size": len(trace.terminal_support),
        "complement_size": 719,
    }
    assert full["sources"] == ["1,2,3,4,5,6"]
    assert list(full["steps"]) == ["1,2,3,4,5,6"]
    assert len(full["steps"]["1,2,3,4,5,6"]) == 23
    assert full["terminal"] == sorted(one_line(p) for p in trace.terminal_support)
    summary = json.loads(run(capsys, *argv, "--summary-only")[1])
    assert summary == {key: full[key] for key in ("mode", "n", "d", "summary")}

    argv = ("reduce", "--n", "3", "--d", "2", "--mode", "classic", "--closure", "--format", "json")
    classic = json.loads(run(capsys, *argv)[1])
    assert "complement_size" not in classic["summary"]
    assert classic["terminal"] == ["1,2,3"]


@pytest.mark.parametrize("flag", [("--n", "3"), ("--summary-only",)])
def test_reduce_step_rejects_closure_flags(capsys, flag):
    code, out, err = run(capsys, "reduce", "--perm", "1,2,3", "--d", "2", "--mode", "main", *flag)
    assert (code, out) == (2, "")
    assert err == "error: a single step takes --perm, not --n or --summary-only\n"


def test_missing_required_argument(capsys):
    code, _, _ = run(capsys, "bounds", "--d", "3")
    assert code == 2


def test_output_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run(capsys, "mahonian", "--n", "4", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "n,k,count" and lines[1] == "4,0,1"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "row.csv"
    code, out, err = run(capsys, "mahonian", "--n", "3", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("n", ["5", "200"])
@pytest.mark.parametrize("target", ["stdout", "/dev/full"])
def test_a_failed_write_is_a_usage_error(n, target):
    # /dev/full refuses every write; the short row fails at the flush, the long one mid-stream
    argv = ["mahonian", "--n", n] + ([] if target == "stdout" else ["--output", target])
    with open("/dev/full", "w") as full:
        proc = python(
            f"import sys; from codimgeo.cli import main; sys.exit(main({argv!r}))",
            stdout=full,
            stderr=subprocess.PIPE,
        )
        _, err = proc.communicate(timeout=60)
    expected = f"error: cannot write {target}: No space left on device\n"
    assert (proc.returncode, err.decode()) == (2, expected)


# sha256 of each output, recorded from a writer that built the whole text first
STREAMED = {
    ("mahonian", "--n", "200", "--check"): {
        "table": "sha256:354410f1f9f3b679",
        "csv": "sha256:054a8afa31ecec65",
        "json": "sha256:1efc339b8dc02229",
    },
    ("reduce", "--n", "7", "--d", "3", "--mode", "classic", "--closure"): {
        "table": "sha256:9230ad79686fb157",
        "csv": "sha256:7c985f38930b1139",
        "json": "sha256:86b754d7b1c7a3d4",
    },
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("argv", list(STREAMED), ids=" ".join)
def test_streamed_output_is_the_same_bytes(capsys, tmp_path, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    target = tmp_path / "out"
    assert run(capsys, *argv, "--format", fmt, "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    assert _digest(out) == STREAMED[argv][fmt]


def test_meta_adds_comment_headers(capsys):
    code, out, _ = run(capsys, "crossover", "--d-max", "3", "--format", "csv", "--meta")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# tool: codimgeo")
    assert lines[1] == "# command: crossover --d-max 3"
    assert lines[2] == "d,n"


def test_meta_in_json(capsys):
    code, out, _ = run(capsys, "mahonian", "--n", "2", "--format", "json", "--meta")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "mahonian --n 2"


def test_deterministic_output(capsys):
    first = run(capsys, "bounds", "--d", "3", "--n-max", "10", "--format", "json")
    second = run(capsys, "bounds", "--d", "3", "--n-max", "10", "--format", "json")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("mahonian", "--n", "6", "--check"),
        ("verify", "--suites", "badsize"),
        ("reduce", "--n", "7", "--d", "3", "--mode", "classic", "--closure", "--summary-only"),
    ],
)
def test_output_does_not_depend_on_the_environment(capsys, monkeypatch, argv):
    # a result depends on its arguments alone, whatever the environment holds
    unset = run(capsys, *argv)
    monkeypatch.setenv("CODIM_MAX_N", "5")
    assert run(capsys, *argv) == unset
    assert unset[0] == 0


def test_closed_pipe_exits_quietly():
    # the row is about 1.2 MB, far past a pipe's buffer, so the writer meets the closed end
    proc = python(
        "import sys; from codimgeo.cli import main; sys.exit(main(['mahonian', '--n', '120']))",
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20) == b"k     count\n0     1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# A fresh interpreter that runs each command in a child and prints the children's
# (exit code, ru_maxrss in KiB).  Linux carries a process's peak RSS across
# exec into the child it spawns, so this small launcher, not the far larger
# test process, must spawn them, and it reads none of their output.
PEAK_LAUNCHER = """
import json, os, subprocess, sys
peaks = []
for argv in {commands!r}:
    code = f"import sys; from codimgeo.cli import main; sys.exit(main({{argv!r}}))"
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    peaks.append((os.waitstatus_to_exitcode(status), usage.ru_maxrss))
print(json.dumps(peaks))
"""

# MiB a command may use above `mahonian --n 2`; a writer that holds each output
# whole takes about 33, 32, 26 (table, CSV, JSON) and 12
PEAK_BOUNDS_MIB = {
    **{("mahonian", "--n", "200", "--format", fmt): 20 for fmt in ("table", "csv", "json")},
    ("verify", "--suites", "classic", "--n-max", "7"): 7,
}


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss as KiB, as Linux reports it")
def test_peak_memory_over_a_baseline():
    commands = [["mahonian", "--n", "2"], *map(list, PEAK_BOUNDS_MIB)]
    proc = python(PEAK_LAUNCHER.format(commands=commands), stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    (base_code, base), *peaks = json.loads(out)
    assert base_code == 0
    for argv, (code, peak) in zip(PEAK_BOUNDS_MIB, peaks):
        assert code == 0, argv
        assert (peak - base) / 1024 < PEAK_BOUNDS_MIB[argv], argv


def test_main_step_measures_each_child_once(capsys, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return word_length(p)

    monkeypatch.setattr("codimgeo.cli.word_length", counted)
    monkeypatch.setattr("codimgeo.reduction.word_length", counted)
    ident = ",".join(str(v) for v in range(1, 13))
    code, out, _ = run(
        capsys, "reduce", "--perm", ident, "--d", "4", "--mode", "main", "--format", "json"
    )
    assert code == 0
    children = json.loads(out)["children"]
    assert len({child["perm"] for child in children}) == len(children) == 23
    assert len(calls) <= 2  # the step's base and the parent line; children come from the table
    for child in children:
        image = [int(v) for v in child["perm"].split(",")]
        inversions = sum(a > b for i, a in enumerate(image) for b in image[i + 1:])
        assert child["word_length"] == inversions, child


def test_classic_step_measures_each_child_once(capsys, monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return word_length(p)

    monkeypatch.setattr("codimgeo.cli.word_length", counted)
    monkeypatch.setattr("codimgeo.reduction.word_length", counted)
    word = "12,11,10,1,2,3,4,5,6,7,8,9"
    code, out, _ = run(
        capsys, "reduce", "--perm", word, "--d", "4", "--mode", "classic", "--format", "json"
    )
    assert code == 0
    children = json.loads(out)["children"]
    assert len(children) == 23
    assert len(calls) <= 2  # the step's base and the parent line; children come from the table
    for child in children:
        image = tuple(int(v) for v in child["perm"].split(","))
        assert child["word_length"] == word_length(image), child
    # witness cuts need not be sum cuts, so a classic child may be shorter
    code, out, _ = run(
        capsys, "reduce", "--perm", "2,1", "--d", "2", "--mode", "classic", "--format", "csv"
    )
    assert (code, out) == (0, 'child,word_length\n"1,2",0\n')


def test_reduce_main_step_reports_a_child_that_does_not_grow(capsys, monkeypatch):
    # a kernel that prices the second child at |sigma|: exit 1, no output, the child named
    def shrunk(length, blocks):
        first, _, *rest = _reorder_lengths(length, blocks)
        return (first, length, *rest)

    monkeypatch.setattr("codimgeo.reduction._reorder_lengths", shrunk)
    code, out, err = run(capsys, "reduce", "--perm", "1,3,2,4,5,6", "--d", "3", "--mode", "main")
    assert (code, out) == (1, "")
    assert err == (
        "falsification: rearrangement of 1,3,2,4,5,6 produced 3,2,1,4,5,6 with word length "
        "1 <= 1; growth is claimed for every nontrivial rearrangement\n"
    )


@pytest.mark.parametrize(
    "mode, word, d",
    [
        ("classic", ",".join(map(str, (20, 25, 24, 23, 22, 21, *range(1, 20)))), 5),
        ("main", ",".join(map(str, (1, 3, 2, *range(4, 23)))), 5),
    ],
)
def test_reduce_step_renders_blocks_not_children(capsys, monkeypatch, mode, word, d):
    calls = []

    def counted(image):
        calls.append(image)
        return one_line(image)

    for module in ("cli", "greedy", "reduction"):
        monkeypatch.setattr(f"codimgeo.{module}.one_line", counted)
    monkeypatch.setattr("codimgeo.reduction._reorder", lambda *args: pytest.fail("built children"))
    code, out, _ = run(
        capsys, "reduce", "--perm", word, "--d", str(d), "--mode", mode, "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["children"]) == math.factorial(d) - 1
    assert len(calls) <= d + 2  # the head, the d blocks and the parent; no child


def test_reduce_step_children_match_the_library(capsys):
    # seeded words shaped like the benchmark's single steps, main d = 3..5 and classic d = 4
    rng = random.Random(25)
    for n in range(12, 33, 5):
        for mode, d in [("main", 3), ("main", 4), ("main", 5), ("classic", 4)]:
            if mode == "main":
                word = list(range(1, n + 1))
                for _ in range(rng.randrange(math.ceil(ball_radius(n, d)))):
                    i = rng.choice([i for i in range(n - 1) if word[i] < word[i + 1]])
                    word[i], word[i + 1] = word[i + 1], word[i]
                children = main_step(tuple(word), d)
            else:
                word = rng.sample(range(1, n + 1), n)
                while is_d_good(tuple(word), d):
                    word = rng.sample(range(1, n + 1), n)
                children = classic_step(tuple(word), d)
            argv = ("--perm", ",".join(map(str, word)), "--d", str(d), "--mode", mode)
            code, out, _ = run(capsys, "reduce", *argv, "--format", "json")
            assert code == 0
            rows = [(c["perm"], c["word_length"]) for c in json.loads(out)["children"]]
            assert rows == [(one_line(c), word_length(c)) for c in children], argv


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_reduce_closure_renders_words_only_for_json(capsys, monkeypatch, fmt):
    # table and CSV print only the summary, so no word is rendered for them
    monkeypatch.setattr("codimgeo.cli.one_line", lambda image: pytest.fail("rendered a word"))
    argv = ("reduce", "--n", "5", "--d", "3", "--mode", "classic", "--closure", "--format", fmt)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "visited" in out


def test_closures_and_suites_measure_no_classic_child(capsys, monkeypatch):
    calls = []

    def counted(length, blocks):
        calls.append(len(blocks))
        return _reorder_lengths(length, blocks)

    monkeypatch.setattr("codimgeo.reduction._reorder_lengths", counted)
    assert classic_closure(7, 3).visited == 5040
    assert run(capsys, "verify", "--suites", "classic", "--n-max", "6")[0] == 0
    assert calls == []
    assert run(capsys, "reduce", "--perm", "4,3,2,1", "--d", "3", "--mode", "classic")[0] == 0
    assert calls == [3]  # the counter does see a single step


# One argument vector per command shape; each runs in all three formats.
GOLDEN_SHAPES = {
    "mahonian": ("mahonian", "--n", "4"),
    "mahonian-check": ("mahonian", "--n", "6", "--check"),
    "mahonian-check-closed": ("mahonian", "--n", "9", "--check"),
    "bounds": ("bounds", "--d", "3", "--n-max", "9"),
    "crossover": ("crossover", "--d-max", "6"),
    "verify": ("verify", "--n-max", "5", "--suites", "metric,lgf"),
    "verify-info": ("verify", "--n-max", "4", "--suites", "dilworth,main"),
    "greedy-gaps": ("greedy", "--perm", "1,3,2,4,6,5,7"),
    "greedy-no-chunks": ("greedy", "--perm", "1,2,3"),
    "greedy-one-chunk": ("greedy", "--perm", "4,3,2,1"),
    "reduce-classic": ("reduce", "--perm", "3,2,1", "--d", "3", "--mode", "classic"),
    "reduce-main": ("reduce", "--perm", "1,3,2,4,5,6", "--d", "3", "--mode", "main"),
    # the witness starts at position 2: the head "10" stays put in every child
    "reduce-classic-head": (
        "reduce", "--perm", "10,13,12,11,1,2,3,4,5,6,7,8,9", "--d", "3", "--mode", "classic",
    ),
    "reduce-main-wide": (
        "reduce", "--perm", "1,2,4,3,5,6,7,8,9,10,11,12", "--d", "3", "--mode", "main",
    ),
    "closure-classic": ("reduce", "--n", "4", "--d", "3", "--mode", "classic", "--closure"),
    "closure-main": ("reduce", "--n", "6", "--d", "4", "--mode", "main", "--closure"),
    "closure-summary": (
        "reduce", "--n", "6", "--d", "4", "--mode", "main", "--closure", "--summary-only",
    ),
}

# Expected stdout per (shape, format[, extra flag]); "sha256:" pins a long output
# by the first 16 hex digits of its digest.
GOLDEN = {
    ("mahonian", "table"): (
        "k  count\n"
        "0  1\n"
        "1  3\n"
        "2  5\n"
        "3  6\n"
        "4  5\n"
        "5  3\n"
        "6  1\n"
    ),
    ("mahonian", "csv"): (
        "n,k,count\n"
        "4,0,1\n"
        "4,1,3\n"
        "4,2,5\n"
        "4,3,6\n"
        "4,4,5\n"
        "4,5,3\n"
        "4,6,1\n"
    ),
    ("mahonian", "json"): (
        "{\n"
        '  "n": 4,\n'
        '  "coefficients": [\n'
        '    "1",\n'
        '    "3",\n'
        '    "5",\n'
        '    "6",\n'
        '    "5",\n'
        '    "3",\n'
        '    "1"\n'
        "  ]\n"
        "}\n"
    ),
    ("mahonian-check", "table"): "sha256:adf0e5d7d21ea3ad",
    ("mahonian-check", "csv"): "sha256:f9209ab59fc55fbf",
    ("mahonian-check", "json"): "sha256:168ae18da23fe548",
    ("mahonian-check-closed", "table"): "sha256:1d82bcba88baeb02",
    ("mahonian-check-closed", "csv"): "sha256:e4ef4b8a3501f199",
    ("mahonian-check-closed", "json"): "sha256:fc63203180ebb492",
    ("bounds", "table"): (
        "n  classic  theorem  phi     factorial  winner\n"
        "3  64       6        -54     6          theorem\n"
        "4  256      23       -224    24         theorem\n"
        "5  1024     119      -376    120        theorem\n"
        "6  4096     714      -1296   720        theorem\n"
        "7  16384    5033     1008    5040       theorem\n"
        "8  65536    40285    24064   40320      theorem\n"
        "9  262144   362836   330368  362880     classic\n"
    ),
    ("bounds", "csv"): (
        "n,classic,theorem,phi,factorial,winner\n"
        "3,64,6,-54,6,theorem\n"
        "4,256,23,-224,24,theorem\n"
        "5,1024,119,-376,120,theorem\n"
        "6,4096,714,-1296,720,theorem\n"
        "7,16384,5033,1008,5040,theorem\n"
        "8,65536,40285,24064,40320,theorem\n"
        "9,262144,362836,330368,362880,classic\n"
    ),
    ("bounds", "json"): "sha256:a80065357f1d9c63",
    ("crossover", "table"): (
        "d  n\n"
        "2  2\n"
        "3  9\n"
        "4  22\n"
        "5  41\n"
        "6  65\n"
    ),
    ("crossover", "csv"): (
        "d,n\n"
        "2,2\n"
        "3,9\n"
        "4,22\n"
        "5,41\n"
        "6,65\n"
    ),
    ("crossover", "json"): "sha256:89ce6e23cb5823b5",
    ("verify", "table"): (
        "suite   n_max  checked  status\n"
        "metric  5      153      PASS\n"
        "lgf     5      153      PASS\n"
    ),
    ("verify", "csv"): (
        "suite,n_max,checked,status\n"
        "metric,5,153,PASS\n"
        "lgf,5,153,PASS\n"
    ),
    ("verify", "json"): "sha256:d17ece9ae5262128",
    ("verify-info", "table"): "sha256:2d7f013f874cc214",
    ("verify-info", "csv"): (
        "suite,n_max,checked,status\n"
        "dilworth,4,6,PASS\n"
        "main,4,10,PASS\n"
    ),
    ("verify-info", "json"): "sha256:569748fcc6fa502c",
    ("greedy-gaps", "table"): (
        "word: 1,3,2,4,6,5,7\n"
        "form: (1) [3 2] (4) [6 5] (7)\n"
        "kind  index  start  end\n"
        "y     0      1      1\n"
        "c     1      2      3\n"
        "y     1      4      4\n"
        "c     2      5      6\n"
        "y     2      7      7\n"
        "chunks: 2  chunk letters: 4  word length: 2\n"
    ),
    ("greedy-gaps", "csv"): (
        "kind,index,start,end\n"
        "y,0,1,1\n"
        "c,1,2,3\n"
        "y,1,4,4\n"
        "c,2,5,6\n"
        "y,2,7,7\n"
    ),
    ("greedy-gaps", "json"): "sha256:48dbaf77878b42bc",
    ("greedy-no-chunks", "table"): (
        "word: 1,2,3\n"
        "form: (1 2 3)\n"
        "kind  index  start  end\n"
        "y     0      1      3\n"
        "chunks: 0  chunk letters: 0  word length: 0\n"
    ),
    ("greedy-no-chunks", "csv"): (
        "kind,index,start,end\n"
        "y,0,1,3\n"
    ),
    ("greedy-no-chunks", "json"): "sha256:935afaef76fb2358",
    ("greedy-one-chunk", "table"): (
        "word: 4,3,2,1\n"
        "form: [4 3 2 1]\n"
        "kind  index  start  end\n"
        "c     1      1      4\n"
        "chunks: 1  chunk letters: 4  word length: 6\n"
    ),
    ("greedy-one-chunk", "csv"): (
        "kind,index,start,end\n"
        "c,1,1,4\n"
    ),
    ("greedy-one-chunk", "json"): "sha256:49cccc51ea33184e",
    ("reduce-classic", "table"): (
        "parent: 3,2,1  |sigma| = 3\n"
        "child  word_length\n"
        "3,1,2  2\n"
        "2,3,1  2\n"
        "2,1,3  1\n"
        "1,3,2  1\n"
        "1,2,3  0\n"
    ),
    ("reduce-classic", "csv"): (
        "child,word_length\n"
        '"3,1,2",2\n'
        '"2,3,1",2\n'
        '"2,1,3",1\n'
        '"1,3,2",1\n'
        '"1,2,3",0\n'
    ),
    ("reduce-classic", "json"): "sha256:5e0c7e6e69570b5d",
    ("reduce-main", "table"): (
        "parent: 1,3,2,4,5,6  |sigma| = 1\n"
        "child        word_length\n"
        "1,4,5,6,3,2  7\n"
        "3,2,1,4,5,6  3\n"
        "3,2,4,5,6,1  6\n"
        "4,5,6,1,3,2  10\n"
        "4,5,6,3,2,1  12\n"
    ),
    ("reduce-main", "csv"): (
        "child,word_length\n"
        '"1,4,5,6,3,2",7\n'
        '"3,2,1,4,5,6",3\n'
        '"3,2,4,5,6,1",6\n'
        '"4,5,6,1,3,2",10\n'
        '"4,5,6,3,2,1",12\n'
    ),
    ("reduce-main", "json"): "sha256:4f564f25798efd7e",
    ("reduce-classic-head", "table"): (
        "parent: 10,13,12,11,1,2,3,4,5,6,7,8,9  |sigma| = 39\n"
        "child                          word_length\n"
        "10,13,11,1,2,3,4,5,6,7,8,9,12  29\n"
        "10,12,13,11,1,2,3,4,5,6,7,8,9  38\n"
        "10,12,11,1,2,3,4,5,6,7,8,9,13  28\n"
        "10,11,1,2,3,4,5,6,7,8,9,13,12  19\n"
        "10,11,1,2,3,4,5,6,7,8,9,12,13  18\n"
    ),
    ("reduce-classic-head", "csv"): (
        "child,word_length\n"
        '"10,13,11,1,2,3,4,5,6,7,8,9,12",29\n'
        '"10,12,13,11,1,2,3,4,5,6,7,8,9",38\n'
        '"10,12,11,1,2,3,4,5,6,7,8,9,13",28\n'
        '"10,11,1,2,3,4,5,6,7,8,9,13,12",19\n'
        '"10,11,1,2,3,4,5,6,7,8,9,12,13",18\n'
    ),
    ("reduce-classic-head", "json"): "sha256:62fa836beee55fdc",
    ("reduce-main-wide", "table"): (
        "parent: 1,2,4,3,5,6,7,8,9,10,11,12  |sigma| = 1\n"
        "child                       word_length\n"
        "1,4,3,5,6,7,8,9,10,11,12,2  11\n"
        "2,1,4,3,5,6,7,8,9,10,11,12  2\n"
        "2,4,3,5,6,7,8,9,10,11,12,1  12\n"
        "4,3,5,6,7,8,9,10,11,12,1,2  21\n"
        "4,3,5,6,7,8,9,10,11,12,2,1  22\n"
    ),
    ("reduce-main-wide", "csv"): (
        "child,word_length\n"
        '"1,4,3,5,6,7,8,9,10,11,12,2",11\n'
        '"2,1,4,3,5,6,7,8,9,10,11,12",2\n'
        '"2,4,3,5,6,7,8,9,10,11,12,1",12\n'
        '"4,3,5,6,7,8,9,10,11,12,1,2",21\n'
        '"4,3,5,6,7,8,9,10,11,12,2,1",22\n'
    ),
    ("reduce-main-wide", "json"): "sha256:9e0e7aff5bd8b38f",
    ("closure-classic", "table"): (
        "key            value\n"
        "sources        10\n"
        "visited        24\n"
        "max_depth      5\n"
        "terminal_size  14\n"
    ),
    ("closure-classic", "csv"): (
        "key,value\n"
        "sources,10\n"
        "visited,24\n"
        "max_depth,5\n"
        "terminal_size,14\n"
    ),
    ("closure-classic", "json"): "sha256:8e2319a06df9c05d",
    ("closure-main", "table"): (
        "key              value\n"
        "sources          1\n"
        "visited          24\n"
        "max_depth        1\n"
        "terminal_size    23\n"
        "complement_size  719\n"
    ),
    ("closure-main", "csv"): (
        "key,value\n"
        "sources,1\n"
        "visited,24\n"
        "max_depth,1\n"
        "terminal_size,23\n"
        "complement_size,719\n"
    ),
    ("closure-main", "json"): "sha256:ce7ecfb9bf4a543b",
    ("closure-summary", "table"): (
        "key              value\n"
        "sources          1\n"
        "visited          24\n"
        "max_depth        1\n"
        "terminal_size    23\n"
        "complement_size  719\n"
    ),
    ("closure-summary", "csv"): (
        "key,value\n"
        "sources,1\n"
        "visited,24\n"
        "max_depth,1\n"
        "terminal_size,23\n"
        "complement_size,719\n"
    ),
    ("closure-summary", "json"): (
        "{\n"
        '  "mode": "main",\n'
        '  "n": 6,\n'
        '  "d": 4,\n'
        '  "summary": {\n'
        '    "visited": 24,\n'
        '    "max_depth": 1,\n'
        '    "terminal_size": 23,\n'
        '    "complement_size": 719\n'
        "  }\n"
        "}\n"
    ),
    ("mahonian-check", "json", "--meta"): "sha256:9318de8ff9422f6d",
    ("crossover", "csv", "--meta"): (
        "# tool: codimgeo 0.1.0\n"
        "# command: crossover --d-max 6\n"
        "d,n\n"
        "2,2\n"
        "3,9\n"
        "4,22\n"
        "5,41\n"
        "6,65\n"
    ),
    ("bounds", "csv", "--output"): "sha256:79209fbca0b581a3",
    ("reduce-main", "table", "--meta"): (
        "# tool: codimgeo 0.1.0\n"
        "# command: reduce --perm 1,3,2,4,5,6 --d 3 --mode main\n"
        "parent: 1,3,2,4,5,6  |sigma| = 1\n"
        "child        word_length\n"
        "1,4,5,6,3,2  7\n"
        "3,2,1,4,5,6  3\n"
        "3,2,4,5,6,1  6\n"
        "4,5,6,1,3,2  10\n"
        "4,5,6,3,2,1  12\n"
    ),
    ("closure-summary", "table", "--meta"): (
        "# tool: codimgeo 0.1.0\n"
        "# command: reduce --n 6 --d 4 --mode main --closure --summary-only\n"
        "key              value\n"
        "sources          1\n"
        "visited          24\n"
        "max_depth        1\n"
        "terminal_size    23\n"
        "complement_size  719\n"
    ),
}


def _digest(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _golden_run(capsys, tmp_path, key):
    """The output of one golden case, read back from the file under --output."""
    shape, fmt, *extra = key
    target = tmp_path / "out"
    argv = [*GOLDEN_SHAPES[shape], "--format", fmt, *extra]
    if extra == ["--output"]:
        argv.append(str(target))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if extra == ["--output"]:
        assert out == ""
        out = target.read_text()
    return out


@pytest.mark.parametrize("key", list(GOLDEN), ids="-".join)
def test_golden_output(capsys, tmp_path, key):
    out = _golden_run(capsys, tmp_path, key)
    expected = GOLDEN[key]
    assert (_digest(out) if expected.startswith("sha256:") else out) == expected


@pytest.mark.parametrize("shape", list(GOLDEN_SHAPES))
def test_meta_command_is_the_argument_vector(capsys, shape):
    code, out, _ = run(capsys, *GOLDEN_SHAPES[shape], "--format", "json", "--meta")
    assert code == 0
    assert shlex.split(json.loads(out)["meta"]["command"]) == list(GOLDEN_SHAPES[shape])


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        "verify --n-m 4 --suites metric",
        "verify --n-max=4 --suites metric",
        "reduce --summary-only --closure --mode main --d 4 --n 6",
        "verify --suites 'metric, lgf' --n-max 3",
        "greedy --perm ' 2,1,4,3'",
    ],
)
def test_meta_command_replays(capsys, argv, fmt):
    # rerunning the recorded command gives the same output, less the provenance
    code, out, _ = run(capsys, *shlex.split(argv), "--format", fmt, "--meta")
    if fmt == "json":
        payload = json.loads(out)
        command = payload.pop("meta")["command"]
        out = json.dumps(payload, indent=2) + "\n"
    else:
        tool, command, out = out.split("\n", 2)
        assert tool.startswith("# tool: codimgeo ")
        command = command.removeprefix("# command: ")
    assert run(capsys, *shlex.split(command), "--format", fmt) == (code, out, "")


def test_parser_survives_a_usage_error_and_help(capsys, tmp_path, monkeypatch):
    assert run(capsys, "bounds", "--d", "3")[0] == 2  # also builds the parser, if not yet built
    built = []
    construct = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: codim ")
    key = ("reduce-main", "table", "--meta")
    assert _golden_run(capsys, tmp_path, key) == GOLDEN[key]
    assert built == []


def test_import_builds_no_parser():
    proc = python(
        "import argparse\n"
        "built = []\n"
        "construct = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    construct(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import codimgeo.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    codimgeo.cli.main(['crossover', '--d-max', '2', '--format', 'csv'])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n",
        stdout=subprocess.PIPE,
        text=True,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    counts = out.splitlines()[-1]
    imported, first, second = json.loads(counts)
    assert imported == 0  # importing the CLI costs no parser
    assert first == second > 0  # the second call reuses the first call's parser


def test_csv_rows_are_as_wide_as_their_header(capsys, tmp_path):
    for key in (key for key in GOLDEN if key[1] == "csv"):
        lines = _golden_run(capsys, tmp_path, key).splitlines()
        header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
        assert rows and all(len(row) == len(header) for row in rows), key


def test_csv_is_what_csv_writer_writes(capsys, monkeypatch):
    results = []
    monkeypatch.setattr("codimgeo.cli._render", lambda _, result: results.append(result))
    for argv in GOLDEN_SHAPES.values():
        assert run(capsys, *argv, "--format", "csv")[0] == 0
    assert len(results) == len(GOLDEN_SHAPES)
    odd = Result(("a,b", "c"), [("x,y", 'say "hi"'), ("", '"'), ('a,"b"', "")], {})
    for result in [*results, odd]:
        ours, theirs = io.StringIO(), io.StringIO()
        _write(argparse.Namespace(format="csv", meta=False), result, ours)
        csv.writer(theirs, lineterminator="\n").writerows([result.columns, *result.rows])
        assert ours.getvalue() == theirs.getvalue(), result.columns


_JSON_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é€😀\u2028", 'a"b\\c']),
    st.integers(),
    st.sampled_from([10**300, -(2**100), 0, -1]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


def _json_text(obj) -> str:
    """The whole text _write_json passes to its sink."""
    pieces: list[str] = []
    _write_json(obj, pieces.append)
    return "".join(pieces)


@given(_JSON_VALUES)
@example({"": [], "a": {}, "b": (), "c": [[], {}, ((),)]})
@example([float("inf"), float("-inf"), float("nan"), -0.0, 1e16, True, False, None])
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def test_json_writer_writes_in_batches():
    # more chunks than one batch, in a list inside a dict and a dict inside a list
    obj = {
        "rows": [str(i) for i in range(3 * _JSON_BATCH)],
        "nested": [{"k": list(range(_JSON_BATCH))}, {f"k{i}": [i] for i in range(_JSON_BATCH)}],
    }
    pieces = []
    _write_json(obj, pieces.append)
    expected = json.dumps(obj, indent=2)
    assert "".join(pieces) == expected
    assert len(pieces) > 4 and max(map(len, pieces)) < len(expected) // 4


def test_json_writer_rejects_a_non_str_key():
    for key in (1, 1.5, True, None, (1,)):
        with pytest.raises(TypeError, match="^keys must be str"):
            _json_text({"a": [{key: 0}]})


def test_no_cli_payload_has_a_non_str_key(capsys, monkeypatch):
    # the writer raises on a non-str key; no payload of any command shape has one
    tables = []

    def keys(obj):
        if isinstance(obj, Table):  # the keys of each of its objects
            tables.append(obj)
            yield from obj.keys
            obj = obj.rows
        if isinstance(obj, dict):
            yield from obj
            obj = list(obj.values())
        if isinstance(obj, (list, tuple)):
            for item in obj:
                yield from keys(item)

    payloads = []
    monkeypatch.setattr("codimgeo.cli._render", lambda _, result: payloads.append(result.payload))
    for argv in GOLDEN_SHAPES.values():
        assert run(capsys, *argv, "--format", "json")[0] == 0
    assert len(payloads) == len(GOLDEN_SHAPES)
    assert all(isinstance(key, str) for payload in payloads for key in keys(payload))
    # bounds, crossover and the four single steps
    assert sorted(table.keys for table in tables) == sorted(
        [("n", "classic", "theorem", "phi", "factorial", "winner"), ("d", "n")]
        + [("perm", "word_length")] * 4
    )


_TABLE_STRS = st.one_of(
    st.text(),
    st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f\n\t", "é€😀\u2028", 'a"b\\c', "%s", "%%", "%(k)s"]
    ),
)
_TABLE_INTS = st.one_of(
    st.integers(min_value=-(2**100), max_value=10**300),
    st.sampled_from([-(2**100), 10**300, 0, -1]),
)


@st.composite
def _tables(draw):
    keys = draw(st.lists(_TABLE_STRS, max_size=4, unique=True))
    columns = [draw(st.sampled_from([_TABLE_STRS, _TABLE_INTS])) for _ in keys]
    return Table(tuple(keys), draw(st.lists(st.tuples(*columns), max_size=5)))


@given(_tables())
@example(Table(("perm", "word_length"), []))
@example(Table(("perm", "word_length"), [("3,1,2", 2)]))
@example(Table((), [(), ()]))
def test_table_writer_matches_json_dumps_of_its_dicts(table):
    dicts = [dict(zip(table.keys, row)) for row in table.rows]
    assert _json_text(table) == json.dumps(dicts, indent=2)
    assert _json_text({"a": [table, 1], "b": table}) == json.dumps(
        {"a": [dicts, 1], "b": dicts}, indent=2
    )


def test_table_writer_writes_in_batches():
    # a row of three keys counts as the four chunks of its dict: more than _JSON_BATCH
    # rows, four full batches and five more, make five writes, the last with the brackets
    size = _JSON_BATCH // 4
    rows = [(f'"{i}"\\%s', i * 10**40, "é") for i in range(4 * size + 5)]
    table = Table(("perm", "length", "note"), rows)
    pieces = []
    _write_json({"rows": table}, pieces.append)
    expected = json.dumps({"rows": [dict(zip(table.keys, row)) for row in rows]}, indent=2)
    assert "".join(pieces) == expected
    assert len(rows) > _JSON_BATCH
    assert [piece.count('"perm": ') for piece in pieces] == [size] * 4 + [5]


@pytest.mark.parametrize(
    "column, kinds",
    [
        ([True, False], "bool"),
        ([1, True], "bool, int"),
        ([1.5, 2], "float, int"),
        ([None], "NoneType"),
        (["1", 1], "int, str"),
    ],
    ids=["bool", "bool-and-int", "float", "none", "str-and-int"],
)
def test_table_writer_refuses_a_column_of_other_cells(column, kinds):
    table = Table(("perm", "word_length"), [("1", cell) for cell in column])
    with pytest.raises(TypeError) as raised:
        _json_text(table)
    assert str(raised.value) == f"column 'word_length' must be all str or all int, not {kinds}"


def test_table_writer_refuses_a_non_str_key_or_a_malformed_row():
    with pytest.raises(TypeError) as raised:
        _json_text(Table(("perm", 1), [("1", 0)]))
    assert str(raised.value) == "keys must be str, not int"
    # dict(zip(keys, row)) would drop the cells or keys past the shorter one
    with pytest.raises(ValueError):
        _json_text(Table(("perm", "word_length"), [("1", 0), ("2",)]))
    with pytest.raises(ValueError):
        _json_text(Table(("perm",), [("1", 0)]))


def test_json_output_needs_no_pure_python_encoder(capsys, tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refused)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)  # the patch does reach json.dumps
    keys = [key for key in GOLDEN if key[1] == "json"]
    assert ("mahonian-check", "json", "--meta") in keys
    for key in keys:
        expected = GOLDEN[key]
        variants = [key] if len(key) > 2 else [key, (*key, "--output")]
        for variant in variants:
            out = _golden_run(capsys, tmp_path, variant)
            assert (_digest(out) if expected.startswith("sha256:") else out) == expected, variant

import hashlib
import json
import math

import pytest

from codimgeo.bounds import compare_bounds
from codimgeo.cli import main
from codimgeo.errors import FalsificationError
from codimgeo.mahonian import mahonian_knuth
from codimgeo.perm import one_line
from codimgeo.reduction import main_closure


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_mahonian_rejects_bad_degree(capsys):
    code, _, err = run(capsys, "mahonian", "--n", "0")
    assert code == 2
    assert "error" in err


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
    report = compare_bounds(3, 9)
    argv = ("bounds", "--d", "3", "--n-max", "9", "--format")
    lines = run(capsys, *argv, "csv")[1].splitlines()
    payload = json.loads(run(capsys, *argv, "json")[1])
    assert lines[0] == "n,classic,theorem,phi,factorial,winner"
    assert payload["d"] == 3
    for line, entry, row in zip(lines[1:], payload["rows"], report.rows, strict=True):
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


def test_bounds_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--d", "4", "--n-max", "3")
    assert code == 2
    assert "error" in err


def test_crossover_table(capsys):
    code, out, _ = run(capsys, "crossover", "--d-max", "10", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,n"
    values = [int(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 2 and values[1] == 9
    assert values == sorted(values)


def test_verify_selected_suites(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--suites", "lgf,growth")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suites", "nosuch")
    assert code == 2
    assert "unknown suite" in err


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
        ("main", "1", 2),
    ],
    ids=["0", "-3", "dilworth-1", "growth-1", "classic-1", "main-1"],
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


def test_verify_main_reports_falsification(capsys, monkeypatch):
    def falsified(p, d):
        raise FalsificationError(f"no decomposition of {one_line(p)}")

    monkeypatch.setattr("codimgeo.reduction.main_step", falsified)
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--suites", "main")
    assert code == 1
    assert "FAIL" in out
    assert "  main counterexample: n=3 d=2: closure raised no decomposition of 1,2,3\n" in out


def test_verify_main_propagates_other_errors(monkeypatch):
    # a programming error is not a counterexample
    def broken(p, d):
        raise TypeError("broken step")

    monkeypatch.setattr("codimgeo.reduction.main_step", broken)
    with pytest.raises(TypeError, match="broken step"):
        main(["verify", "--n-max", "4", "--suites", "main"])


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


def test_greedy_parse_failure(capsys):
    code, _, err = run(capsys, "greedy", "--perm", "1,2,x")
    assert code == 2
    assert "error" in err


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


def test_reduce_precondition_exit(capsys):
    code, _, err = run(capsys, "reduce", "--perm", "1,2,3", "--d", "2", "--mode", "classic")
    assert code == 2
    assert "2-good" in err


def test_reduce_main_outside_ball_exit(capsys):
    code, _, err = run(capsys, "reduce", "--perm", "2,1,4,3,5,6", "--d", "3", "--mode", "main")
    assert code == 2
    assert "threshold" in err


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


def test_reduce_closure_requires_n(capsys):
    code, _, err = run(capsys, "reduce", "--perm", "2,1", "--d", "2", "--mode", "classic", "--closure")
    assert code == 2
    assert "--closure" in err


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


def test_env_cap_lowers_limits(capsys, monkeypatch):
    monkeypatch.setenv("CODIM_MAX_N", "5")
    code, _, err = run(capsys, "verify", "--n-max", "6", "--suites", "metric")
    assert code == 2
    assert "capped" in err
    code, _, _ = run(capsys, "verify", "--n-max", "5", "--suites", "metric")
    assert code == 0
    # a default lowered below a suite's first degree would check nothing
    monkeypatch.setenv("CODIM_MAX_N", "1")
    code, out, err = run(capsys, "verify", "--suites", "main")
    assert code == 2 and out == ""
    assert "at least 2" in err


def test_env_cap_cannot_raise_limits(capsys, monkeypatch):
    monkeypatch.setenv("CODIM_MAX_N", "50")
    code, _, err = run(capsys, "verify", "--n-max", "8", "--suites", "metric")
    assert code == 2


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
        "3,1,2,2\n"
        "2,3,1,2\n"
        "2,1,3,1\n"
        "1,3,2,1\n"
        "1,2,3,0\n"
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
        "1,4,5,6,3,2,7\n"
        "3,2,1,4,5,6,3\n"
        "3,2,4,5,6,1,6\n"
        "4,5,6,1,3,2,10\n"
        "4,5,6,3,2,1,12\n"
    ),
    ("reduce-main", "json"): "sha256:4f564f25798efd7e",
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
}


def _digest(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("key", list(GOLDEN), ids="-".join)
def test_golden_output(capsys, tmp_path, key):
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
    expected = GOLDEN[key]
    assert (_digest(out) if expected.startswith("sha256:") else out) == expected

import argparse
import json
import math

import pytest

from codimgeo.cli import _emit, main


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


def test_greedy_annotation(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,3,2,4")
    assert code == 0
    assert "(1) [3 2] (4)" in out


def test_greedy_no_chunks(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,2,3")
    assert code == 0
    assert "chunks: 0" in out


def test_greedy_single_chunk(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "4,3,2,1")
    assert code == 0
    assert "[4 3 2 1]" in out


def test_greedy_json(capsys):
    code, out, _ = run(capsys, "greedy", "--perm", "1,3,2,4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chunks"] == [[2, 3]]
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


@pytest.mark.parametrize("fmt, lines, payload", [("json", ["x"], None), ("table", None, {})])
def test_emit_rejects_missing_output(fmt, lines, payload):
    # explicit checks, so they hold under python -O as well
    args = argparse.Namespace(format=fmt, meta=False, output=None)
    with pytest.raises(ValueError):
        _emit(args, lines, payload, "cmd")

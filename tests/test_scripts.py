"""The experiment script runs end to end on small arguments and refuses bad ones."""
import importlib.util
from pathlib import Path

import pytest

from codimgeo.mahonian import mahonian_row

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tail_accuracy(capsys):
    argv = ["--n", "16", "--k-max", "4", "--phi-from", "20", "--phi-to", "22"]
    assert load("tail_accuracy").main(argv) == 0
    ratios, phis = capsys.readouterr().out.split("\n\n")
    ratios, phis = ratios.splitlines(), phis.splitlines()
    assert ratios[0].startswith("# tail accuracy at n = 16")
    row = mahonian_row(16)
    assert [line.split()[:2] for line in ratios[2:]] == [
        [str(k), str(row[16 - k])] for k in range(5)
    ]
    assert phis[0] == "# phi(n, 3) against 4^n, n = 20..22"
    assert [line.split()[0] for line in phis[2:]] == ["20", "21", "22"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0"], "--n must be in 3..400, got 0"),
        (["--n", "2", "--k-max", "0"], "--n must be in 3..400, got 2"),
        (["--n", "401"], "--n must be in 3..400, got 401"),
        (["--n", "5", "--k-max", "6"], "--k-max must be in 0..5 (the --n), got 6"),
        (["--k-max", "-1"], "--k-max must be in 0..40 (the --n), got -1"),
        (["--phi-from", "2"], "need 3 <= --phi-from <= --phi-to <= 200, got 2 and 40"),
        (["--phi-from", "30", "--phi-to", "20"], "need 3 <= --phi-from <= --phi-to <= 200, got 30 and 20"),
        (["--phi-to", "201"], "need 3 <= --phi-from <= --phi-to <= 200, got 20 and 201"),
    ],
)
def test_tail_accuracy_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load("tail_accuracy").main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and err.endswith(f": error: {message}\n")


def test_tail_accuracy_smallest_arguments(capsys):
    # the whole row of degree 3, k = n included, and a one-degree phi range
    assert load("tail_accuracy").main(["--n", "3", "--k-max", "3", "--phi-from", "3", "--phi-to", "3"]) == 0
    ratios, phis = capsys.readouterr().out.split("\n\n")
    assert [line.split()[:2] for line in ratios.splitlines()[2:]] == [["0", "1"], ["1", "2"], ["2", "2"], ["3", "1"]]
    assert [line.split()[0] for line in phis.splitlines()[2:]] == ["3"]


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a comment does not make a line code


class Point:
    """Class docstring."""

    # a comment line
    x = 1


def f(a,
      b):
    """Function docstring.

    It spans lines.
    """
    text = """a string that is not a docstring
spans lines and counts on each"""
    return text
'''


def test_code_lines_counts_a_fixture(tmp_path, capsys):
    # code lines: import, class, x =, def f (two lines), text = (two lines), return
    module = load("code_lines")
    assert module.code_lines(CODE_LINES_FIXTURE) == 8
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE)
    assert module.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == "     8  fixture.py\n     8  fixture.py\n    16  total\n"


def test_code_lines_defaults_to_the_package(capsys):
    assert load("code_lines").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[1] for line in lines[:-1]]
    assert names == sorted(p.name for p in (SCRIPTS.parent / "src" / "codimgeo").glob("*.py"))
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])


def test_mutant_list_matches_the_tree():
    # each pinned mutation's text occurs once, and each recorded first failure is a test
    assert load("mutants").list_problems() == []

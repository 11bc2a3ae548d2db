"""The experiment script runs end to end on small arguments."""
import importlib.util
from pathlib import Path

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

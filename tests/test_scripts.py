"""The experiment scripts run end to end on small arguments."""
import importlib.util
from pathlib import Path

from codimgeo.mahonian import mahonian_row

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_crossover_report(capsys):
    assert load("crossover_report").main(["--d-max", "5", "--detail-d", "3"]) == 0
    assert capsys.readouterr().out == (
        "d,crossover_n\n"
        "2,2\n"
        "3,9\n"
        "4,22\n"
        "5,41\n"
        "\n"
        "n,classic,theorem,phi,factorial,winner\n"
        "3,64,6,-54,6,theorem\n"
        "4,256,23,-224,24,theorem\n"
        "5,1024,119,-376,120,theorem\n"
        "6,4096,714,-1296,720,theorem\n"
        "7,16384,5033,1008,5040,theorem\n"
        "8,65536,40285,24064,40320,theorem\n"
        "9,262144,362836,330368,362880,classic\n"
        "10,1048576,3628591,3498240,3628800,classic\n"
        "11,4194304,39916526,39655680,39916800,classic\n"
    )


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

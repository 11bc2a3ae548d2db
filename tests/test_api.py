"""The public surface, and where validated Permutation objects are built."""
import re
from pathlib import Path

import codimgeo
from codimgeo.cli import main
from codimgeo.perm import Permutation
from codimgeo.reduction import main_closure
from codimgeo.verify import run_suite

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in codimgeo.__all__ if not hasattr(codimgeo, name)]
    assert not missing
    assert len(set(codimgeo.__all__)) == len(codimgeo.__all__)


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    commented = [
        re.search(r"#\s*(\d+)", line).group(1)
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert printed == commented == ["2", "2", "5033", "719"]


def test_only_the_cli_boundary_builds_permutations(monkeypatch, capsys):
    built = []
    validate = Permutation.__post_init__

    def counted(self):
        validate(self)
        built.append(self.image)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    for name, n_max in (("main", 6), ("classic", 5), ("growth", 5)):
        assert run_suite(name, n_max).passed
    main_closure(7, 3)
    assert built == []

    assert main(["reduce", "--perm", "1,3,2,4,5,6", "--d", "3", "--mode", "main"]) == 0
    assert built == [(1, 3, 2, 4, 5, 6)]
    capsys.readouterr()

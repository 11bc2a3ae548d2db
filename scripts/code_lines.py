"""Count code lines in Python files: lines holding code, not comments or docstrings.

A line counts when a token other than a comment, NL, NEWLINE, INDENT or
DEDENT lies on it (a string spanning lines lies on each of them), and it is
not part of a module, class or function docstring.  Prints each file's count
and the total; with no arguments it counts src/codimgeo/*.py.

    python scripts/code_lines.py [FILE ...]
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT = sorted((Path(__file__).resolve().parent.parent / "src" / "codimgeo").glob("*.py"))
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of source hold code.

    >>> code_lines('\"\"\"Doc.\"\"\"\\n# note\\n\\nx = (1,\\n     2)  # two\\n')
    2
    """
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="default: src/codimgeo/*.py")
    paths = parser.parse_args(argv).files or DEFAULT
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:>6}  {path.name}")
    print(f"{total:>6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Statements of ``src/guiloc`` that a test run never executes.

Runs pytest in this process under a ``sys.settrace`` line tracer that
follows only the files of ``src/guiloc``, then prints each statement that
no test reached as ``path:line: text``, skipping docstrings. Code that runs
in a subprocess is not traced, so a statement only a subprocess reaches is
listed too. Needs only the standard library besides pytest.

Usage, from the root of a checkout; any arguments go to pytest::

    python tests/uncovered.py                       # the whole suite
    python tests/uncovered.py tests/test_index.py   # one file's tests

The exit code is pytest's. When it is neither 0 nor 1, as on a collection
error, some tests never ran, so the listing is incomplete and nothing is listed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "guiloc"


def _code_lines(code) -> set[int]:
    """The lines that `code` and the code nested in it start instructions on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _statements(source: str, filename: str) -> list[tuple[int, set[int]]]:
    """Each statement's first line and the executable lines it owns, in line order.

    A statement owns the lines of its extent that no statement nested in it
    holds: all of a simple statement, the header of a compound one. Docstrings
    and statements that own no executable line are left out.
    """
    tree = ast.parse(source, filename)
    executable = _code_lines(compile(source, filename, "exec")) - _docstring_lines(tree)
    statements = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        owned = set(range(node.lineno, node.end_lineno + 1)) & executable
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                owned -= set(range(child.lineno, child.end_lineno + 1))
        if owned:
            statements.append((node.lineno, owned))
    return sorted(statements, key=lambda s: s[0])


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code not in (0, 1):
        print(f"pytest exited with {int(code)}: some tests never ran, so the listing is incomplete")
        return int(code)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = executed.get(str(path), set())
        for line, owned in _statements(source, str(path)):
            if not owned & seen:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} statements under {PACKAGE.relative_to(ROOT)} never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

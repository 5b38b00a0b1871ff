"""Every module of the package parses with the oldest Python that pyproject.toml allows,
and uses every name it imports and any module-level logger it defines."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "guiloc").glob("*.py"))


def _oldest_python() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', pyproject).groups()
    return int(major), int(minor)


def test_the_oldest_python_is_3_10():
    assert _oldest_python() == (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_parses_with_the_oldest_python(path):
    # only the grammar is checked; a library call new in a later version still passes
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_oldest_python())


CHECKED = [p for p in MODULES if p.name != "__init__.py"]  # __init__ imports only to export


@pytest.mark.parametrize("path", CHECKED, ids=[p.name for p in CHECKED])
def test_module_uses_its_imports_and_its_logger(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - used) == [], "imported and never used"
    has_logger = any(
        isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "logger" for t in node.targets)
        for node in tree.body
    )
    assert not has_logger or "logger" in used, "a module-level logger that nothing calls"

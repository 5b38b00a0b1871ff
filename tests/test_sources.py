"""Every module of the package parses with the oldest Python that pyproject.toml allows."""

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

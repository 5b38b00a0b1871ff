"""The pinned outputs of tests/golden.py, which `python tests/golden.py --check` also compares."""
from __future__ import annotations

import json
import platform
import sys

import golden


def test_every_pinned_output_is_unchanged():
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.differences(expected, golden.outputs()) == []


def test_check_runs_again_under_each_python_named(capsys, tmp_path):
    missing = str(tmp_path / "no-python")
    assert golden.main(["--check", sys.executable, missing]) == 1
    here, again, failed = capsys.readouterr().out.splitlines()
    assert here == again and here.startswith(f"Python {platform.python_version()}: ")
    assert here.endswith(" outputs match golden.json")
    assert failed.startswith(f"{missing}: cannot run: ")

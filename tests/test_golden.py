"""The pinned outputs of tests/golden.py, which `python tests/golden.py --check` also compares."""
from __future__ import annotations

import json

import golden


def test_every_pinned_output_is_unchanged():
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.differences(expected, golden.outputs()) == []

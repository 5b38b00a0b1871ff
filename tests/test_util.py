from __future__ import annotations

import os

import pytest

from guiloc.errors import InputError
from guiloc.util import atomic_write_text, load_json_file


def test_atomic_write_leaves_other_files_alone(tmp_path):
    target = tmp_path / "out.json"
    bystander = tmp_path / "out.json.tmp"
    bystander.write_text("not ours")
    atomic_write_text(target, "first\n")
    atomic_write_text(target, "second\n")
    assert target.read_text() == "second\n"
    assert bystander.read_text() == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp"]
    # the mode a plain write gives, not the temp file's 0600
    assert target.stat().st_mode == bystander.stat().st_mode


def test_atomic_write_failure_removes_its_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):  # a lone surrogate has no UTF-8 form
        atomic_write_text(tmp_path / "out.txt", "\ud800")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "text", ["1" * 5000, "[" * 100000 + "]" * 100000], ids=["long-integer", "deep-nesting"]
)
def test_load_json_file_rejects_what_json_cannot_read(tmp_path, text):
    path = tmp_path / "data.json"
    path.write_text(text)
    with pytest.raises(InputError, match="malformed JSON"):
        load_json_file(path)

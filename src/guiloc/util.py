"""Small shared helpers."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

from .errors import InputError

# read once at import: reading the umask means setting it, which races other threads
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path via a fresh temp file in the same directory, then rename.

    The file gets the mode a plain write would give it, not mkstemp's 0600.
    An OSError becomes an InputError that names `path`.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # its file name would be the temp file's
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def stable_json_dumps(data: Any) -> str:
    """Serialize with sorted keys so repeated runs produce identical bytes."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def save_format_file(path: str | Path, fmt: str, version: int, payload: dict) -> None:
    """Write `payload` under a format header as sorted compact JSON, which ``json`` encodes in C."""
    data = {"format": fmt, "version": version, **payload}
    atomic_write_text(path, json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def load_json_file(path: str | Path):
    """Parse a JSON file, raising InputError with line context on failure."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, or nesting too deep
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def load_format_file(path: str | Path, fmt: str, version: int, spec: dict) -> list:
    """The `spec` fields (see :func:`json_fields`) of a `fmt` file at `version`."""
    data = load_json_file(path)
    if not isinstance(data, dict) or data.get("format") != fmt:
        raise InputError(f"{path} is not a {fmt} file")
    if data.get("version") != version:
        raise InputError(
            f"unsupported {fmt.removeprefix('guiloc-')} version {data.get('version')!r} in {path}; "
            f"this build reads version {version}"
        )
    return json_fields(data, spec, str(path))


NULL = type(None)

_KIND_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "true or false", NULL: "null"}


def json_fields(data: Any, spec: dict[str, tuple[type, ...]], where: str) -> list:
    """The values of the JSON object `data` at the keys of `spec`, in its order.

    Each value's type must be one of its key's types exactly, so a bool is
    not an int; a missing key reads as None, which passes only where `NULL`
    is listed. Anything else raises InputError naming `where` and the key.
    """
    if type(data) is not dict:
        raise InputError(f"{where} must be an object, got {_kind(data)}")
    values = []
    for key, kinds in spec.items():
        value = data.get(key)
        if type(value) not in kinds:
            if key not in data:
                raise InputError(f"{where}: missing {key!r}")
            expected = " or ".join(_KIND_NAMES[k] for k in kinds)
            raise InputError(f"{where}: {key!r} must be {expected}, got {_kind(value)}")
        values.append(value)
    return values


def _kind(value: Any) -> str:
    return _KIND_NAMES.get(type(value), type(value).__name__)

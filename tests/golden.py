"""Pinned outputs of every command on the test fixtures.

Runs the commands through ``guiloc.cli.run`` in this process and records,
for each output, its sha256, the exit code and the stderr lines:

- the index file of ``tests/fixtures/app``
- ``localize --top 30`` for each fixture report, scorer, query strategy and
  re-rank strategy
- ``evaluate`` with the default configuration
- the CSV of ``sweep`` with its default grid
- the model file of every fixture trace
- ``lint-report --model`` for each fixture report and ``lint/r11.json``

Usage, from the root of a checkout, with any supported Python and only the
standard library::

    python tests/golden.py --check   # print each key that differs, exit 1 if any
    python tests/golden.py --check /path/to/python3.10 /path/to/python3.13
                                     # the same check, then again under each Python named
    python tests/golden.py --write   # record the outputs in fixtures/golden.json

A change that alters an output on purpose rewrites the file and names each
changed key.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = FIXTURES / "golden.json"

SCORERS = ("bm25", "rvsm")
QUERIES = ("base", "expand", "replace")
RERANKS = ("none", "filter", "boost", "filter-boost")


def _run(argv: list[str], out_file: Path | None, tmp: Path) -> dict:
    """One command's record: the sha256 of `out_file`, or of stdout, its exit code and stderr."""
    from guiloc.cli import run

    stdout, stderr = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root = logging.getLogger()
    # with a handler in place, run()'s basicConfig adds none of its own
    saved = root.handlers[:], root.level
    root.handlers[:] = [handler]
    root.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
    finally:
        root.handlers[:], level = saved
        root.setLevel(level)
    data = out_file.read_bytes() if out_file else stdout.getvalue().encode("utf-8")
    lines = stderr.getvalue().replace(str(tmp), "<tmp>").replace(str(FIXTURES), "<fixtures>")
    return {"sha256": hashlib.sha256(data).hexdigest(), "exit": code, "stderr": lines.splitlines()}


def outputs() -> dict[str, dict]:
    """Every pinned output's record, by key."""
    reports = sorted((FIXTURES / "reports").glob("*.json"))
    traces = sorted((FIXTURES / "traces").glob("*.json"))
    dataset = ["--reports", str(FIXTURES / "reports"), "--traces", str(FIXTURES / "traces")]
    records = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        index, model, csv = tmp / "index.json", tmp / "model.json", tmp / "sweep.csv"
        records["index"] = _run(
            ["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)], index, tmp
        )
        for report in reports:
            trace = FIXTURES / "traces" / report.name
            for scorer in SCORERS:
                for query in QUERIES:
                    for rerank in RERANKS:
                        records[f"localize {report.stem} {scorer} {query} {rerank}"] = _run(
                            ["localize", "--index", str(index), "--report", str(report),
                             "--trace", str(trace), "--top", "30", "--scorer", scorer,
                             "--query", query, "--rerank", rerank],
                            None, tmp,
                        )
        records["evaluate"] = _run(["evaluate", "--index", str(index), *dataset], None, tmp)
        records["sweep"] = _run(
            ["sweep", "--index", str(index), *dataset, "--out", str(csv)], csv, tmp
        )
        records["model"] = _run(
            ["build-model", "--out", str(model), *(f for t in traces for f in ("--trace", str(t)))],
            model, tmp,
        )
        for report in [*reports, FIXTURES / "lint" / "r11.json"]:
            records[f"lint-report {report.stem}"] = _run(
                ["lint-report", "--report", str(report), "--model", str(model)], None, tmp
            )
    return records


def differences(expected: dict, actual: dict) -> list[str]:
    """The keys whose records differ, or which only one side holds, in sorted order."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def check_under(python: str) -> int:
    """Run ``--check`` under the interpreter `python`, printing its output; its exit code."""
    try:
        done = subprocess.run(
            [python, str(Path(__file__).resolve()), "--check"], capture_output=True, text=True
        )
    except OSError as exc:
        print(f"{python}: cannot run: {exc}")
        return 1
    print(done.stdout, end="")
    if done.returncode and not done.stdout:  # it failed before it compared anything
        last = done.stderr.strip().splitlines()[-1:]
        print(f"{python}: exit {done.returncode}: {''.join(last)}")
    return done.returncode


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help=f"record the outputs in {GOLDEN.name}")
    mode.add_argument(
        "--check", nargs="*", metavar="PYTHON",
        help=f"compare them with {GOLDEN.name}, here and under each other Python named",
    )
    args = ap.parse_args(argv)
    actual = outputs()
    if args.write:
        GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(actual)} records to {GOLDEN}")
        return 0
    changed = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), actual)
    for key in changed:
        print(f"differs: {key}")
    print(
        f"Python {platform.python_version()}: "
        f"{len(actual) - len(changed)} of {len(actual)} outputs match {GOLDEN.name}"
    )
    codes = [check_under(python) for python in args.check]
    return 1 if changed or any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded fuzzing of the JSON inputs at the CLI boundary.

Each mutant of the fixture's index, model, report, trace or config file
goes through ``cli.run``, which must return 0, 1 or 2 and raise nothing.
A mutation drops a key or a list item, swaps a value for one of a few
JSON values of other types, or puts a non-object where an object belongs.
Boundary mutants, which pass every field's type check but break a rule of
the format, must exit 1 with one ERROR line.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from conftest import FIXTURES, repack_postings, unpack_postings
from guiloc.cli import run

SEED = 8
MUTANTS_PER_INPUT = 40
HUGE = 10**400  # more digits than a float holds
SWAPS = (None, True, 0, -1, 2.5, HUGE, "x", "\ud800", [], {})  # a lone surrogate, as JSON escapes it
NON_OBJECTS = (None, True, 0, 2.5, "x", [])
CONFIG = {
    "scorer": "rvsm",
    "query_strategy": "expand",
    "rerank_strategy": "filter_boost",
    "window": 2,
    "term_sources": ["activity", "component_id"],
    "expansion_weight": 1.5,
    "top_k": 5,
}


def mutate(data, rng: random.Random):
    """One random mutation of `data` in place; returns the mutant and what was done.

    The target is found by a random walk down from the root, which stops at
    each level with probability 1/4, so deep and shallow values both get hit.
    """
    objects = [(None, None)] if type(data) is dict else []  # (parent, key) of each object passed
    node, path = data, []
    while True:
        key = rng.choice(list(node) if type(node) is dict else range(len(node)))
        child = node[key]
        if type(child) is dict:
            objects.append((node, key))
        if type(child) not in (dict, list) or not child or rng.random() < 0.25:
            break
        node = child
        path.append(key)
    op = rng.choice(("drop", "swap", "non-object") if objects else ("drop", "swap"))
    if op == "drop":
        del node[key]
        return data, f"drop {path + [key]}"
    if op == "swap":
        node[key] = rng.choice(SWAPS)
        return data, f"set {path + [key]} to {_short(node[key])}"
    parent, key = rng.choice(objects)
    value = rng.choice(NON_OBJECTS)
    if parent is None:
        return value, f"replace the whole file with {_short(value)}"
    parent[key] = value
    return data, f"replace an object at {key!r} with {_short(value)}"


def _short(value) -> str:
    return "10**400" if value is HUGE else json.dumps(value)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    index, model, config = root / "index.json", root / "model.json", root / "config.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)]) == 0
    traces = sorted((FIXTURES / "traces").glob("*.json"))
    trace_flags = [flag for t in traces for flag in ("--trace", str(t))]
    assert run(["build-model", "--out", str(model), *trace_flags]) == 0
    config.write_text(json.dumps(CONFIG))
    return {
        "root": root,
        "index": index,
        "model": model,
        "config": config,
        "report": FIXTURES / "reports" / "r01.json",
        "trace": FIXTURES / "traces" / "r01.json",
    }


def _commands(kind: str, mutant: str, inputs) -> list[list[str]]:
    files = dict(inputs, **{kind: mutant})
    localize = [
        "localize",
        "--index", str(files["index"]),
        "--report", str(files["report"]),
        "--trace", str(files["trace"]),
        "--config", str(files["config"]),
        "--out", str(inputs["root"] / "out.json"),
    ]
    lint = [
        "lint-report",
        "--report", str(files["report"]),
        "--model", str(files["model"]),
        "--out", str(inputs["root"] / "out.json"),
    ]
    if kind == "model":
        return [lint]
    if kind == "report":
        reports = inputs["root"] / "reports"
        reports.mkdir(exist_ok=True)
        (reports / "r01.json").write_text(Path(mutant).read_text())
        evaluate = [
            "evaluate",
            "--index", str(inputs["index"]),
            "--reports", str(reports),
            "--traces", str(FIXTURES / "traces"),
            "--out", str(inputs["root"] / "out.json"),
        ]
        return [lint, localize, evaluate]
    if kind == "trace":
        build = ["build-model", "--trace", mutant, "--out", str(inputs["root"] / "out.json")]
        return [localize, build]
    return [localize]


@pytest.mark.parametrize("kind", ["index", "model", "report", "trace", "config"])
def test_mutated_input_exits_cleanly(inputs, caplog, kind):
    rng = random.Random(f"{SEED}-{kind}")
    original = json.loads(inputs[kind].read_text())
    mutant_path = str(inputs["root"] / f"mutant-{kind}.json")
    failures = []
    for i in range(MUTANTS_PER_INPUT):
        mutant, what = mutate(json.loads(json.dumps(original)), rng)
        with open(mutant_path, "w") as f:
            json.dump(mutant, f)
        for argv in _commands(kind, mutant_path, inputs):
            try:
                code = run(argv)
            except Exception as exc:  # the failure under test: a traceback
                failures.append(f"{kind} mutant {i} ({what}), {argv[0]}: {exc!r}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"{kind} mutant {i} ({what}), {argv[0]}: exit {code}")
        caplog.clear()
    assert not failures, "\n".join(failures)


BOUNDARY_MUTANTS = 10


def _copy_a_path(index, rng: random.Random) -> str:
    docs = index["documents"]
    src, dst = rng.sample(range(len(docs)), 2)
    docs[dst][0] = docs[src][0]  # each document is a [path, refs, norm] row
    return f"copy document {src}'s path onto document {dst}"


def _break_a_posting(index, rng: random.Random) -> str:
    body = unpack_postings(index)
    gaps, counts, offsets = body.gaps, body.counts, body.offsets
    term = rng.randrange(len(index["terms"]))
    lo, hi = offsets[term], offsets[term + 1]
    rule = rng.choice(("repeat an id", "zero count", "id past the end"))
    if rule == "repeat an id" and hi - lo > 1:
        gaps[rng.randrange(lo + 1, hi)] = 0
    elif rule == "id past the end":
        gaps[hi - 1] += len(index["documents"]) - sum(gaps[lo:hi]) + 1
    else:
        rule = "zero count"
        counts[rng.randrange(lo, hi)] = 0
    repack_postings(index, body)
    return f"{rule} in the postings of {index['terms'][term]!r}"


def _slash_in_report_id(report, rng: random.Random) -> str:
    report_id = report["report_id"]
    cut = rng.randrange(len(report_id) + 1)
    report["report_id"] = f"{report_id[:cut]}/{report_id[cut:]}"
    return f"report_id {report['report_id']!r}"


def _break_the_graph(model, rng: random.Random) -> str:
    edges = model["edges"]
    i = rng.randrange(len(edges))
    if rng.random() < 0.5:
        edges.insert(rng.randrange(i + 1, len(edges) + 1), dict(edges[i]))
        return f"edge {i} listed twice"
    edges[i]["action"] = rng.choice(("fly", "", edges[i]["action"].upper()))
    return f"edge {i}'s action {edges[i]['action']!r}"


@pytest.mark.parametrize(
    "kind, edit",
    [
        ("index", _copy_a_path),
        ("index", _break_a_posting),
        ("report", _slash_in_report_id),
        ("model", _break_the_graph),
    ],
)
def test_seeded_boundary_mutation_exits_one(inputs, caplog, kind, edit):
    """Mutants that every field's type check passes: a path two documents share, a posting that
    breaks a rule of the packed body, a report id with a '/', a model edge listed
    twice or with an unknown action."""
    rng = random.Random(f"{SEED}-{kind}-boundary")
    original = json.loads(inputs[kind].read_text())
    mutant_path = str(inputs["root"] / f"boundary-{kind}.json")
    failures = []
    for i in range(BOUNDARY_MUTANTS):
        mutant = json.loads(json.dumps(original))
        what = edit(mutant, rng)
        with open(mutant_path, "w") as f:
            json.dump(mutant, f)
        commands = _commands(kind, mutant_path, inputs)
        if kind == "report":  # only evaluate opens a file named by the report id
            commands = [argv for argv in commands if argv[0] == "evaluate"]
        for argv in commands:
            caplog.clear()
            code = run(argv)
            errors = [r for r in caplog.records if r.levelname == "ERROR"]
            if code != 1 or len(errors) != 1:
                failures.append(f"{kind} mutant {i} ({what}), {argv[0]}: {code=}, {len(errors)} errors")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("value", [v for v in SWAPS if type(v) is not str], ids=_short)
def test_trace_id_of_another_type_exits_one(inputs, caplog, value):
    """The swap mutation on the trace's id, for every swapped value that is not a string."""
    mutant = json.loads(inputs["trace"].read_text())
    mutant["trace_id"] = value
    path = inputs["root"] / "mutant-trace-id.json"
    path.write_text(json.dumps(mutant))
    for argv in _commands("trace", str(path), inputs):
        assert run(argv) == 1, argv[0]
        assert "'trace_id'" in caplog.text
        caplog.clear()

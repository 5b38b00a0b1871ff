"""The schema of every committed benchmark record, BENCH_*.json at the repository root.

Only names and shapes are checked, never timings: a record must say what ran
where, name a claim that BENCHMARK.json declares, and give each side's median
and quartiles for every end-to-end metric of each workload it ran.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


def _is_number(value):
    return type(value) in (int, float)


def _check_sides(metric, where):
    for side in ("parent", "change"):
        stats = metric[side]
        assert all(_is_number(stats[k]) for k in ("median", "q1", "q3")), f"{where} {side}"
        assert stats["q1"] <= stats["median"] <= stats["q3"], f"{where} {side}"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("what", "host", "python", "change"):
        assert record[key], key
    assert type(record["parent"]["commit"]) is str and record["parent"]["commit"]

    claim = record["claim"]
    assert claim["metric"] in END_TO_END
    assert claim["workload"] in WORKLOADS

    untraced = set()
    for run in record["workloads"]:
        where = f"{run['workload']} seed {run['seed']} trace {run['trace']}"
        assert run["workload"] in WORKLOADS, where
        assert run["pairs"] >= 1, where
        metrics = run["metrics"]
        if run["trace"] == 0:
            untraced.add(run["workload"])
            assert set(metrics) == END_TO_END, where
        else:
            assert set(metrics) <= PER_LAYER, where
        for name, metric in metrics.items():
            _check_sides(metric, f"{where} {name}")
    assert untraced == WORKLOADS

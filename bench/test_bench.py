"""Self-check of the benchmark at a tiny size.

Runs every workload, untraced and traced, through every output check, and
asserts the result's shape: metric names and units as BENCHMARK.json lists
them, never timings.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from synth import Spec  # noqa: E402

TINY = {
    "triage": Spec(files=40, screens=6, components=5, tokens=30, vocab=150,
                   reports=4, trace_len=5, model_traces=0, omit=1, listeners=1),
    "sweep": Spec(files=24, screens=4, components=5, tokens=30, vocab=100,
                  reports=2, trace_len=5, model_traces=0, omit=1, listeners=1),
    "lint": Spec(files=30, screens=8, components=6, tokens=20, vocab=100,
                 reports=4, trace_len=7, model_traces=10, omit=2, listeners=1),
}


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_benchmark_file_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.SPECS)
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == {k: unit for k, (unit, _) in workloads.PER_LAYER.items()}


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run(workload, traced, tmp_path):
    result = workloads.run_workload(workload, 7, 0.2, traced, tmp_path, spec=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _declared("per_layer" if traced else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if not traced)
    if traced:
        spans = json.loads((tmp_path / f"spans-{workload}-7.json").read_text(encoding="utf-8"))
        assert spans["spans"] and set(spans["self_time_s"]) >= {"corpus", "index", "mapping"}


def test_generator_is_seeded(tmp_path):
    from synth import generate

    spec = TINY["lint"]
    a = generate(3, spec, tmp_path / "a")
    b = generate(3, spec, tmp_path / "b")
    c = generate(4, spec, tmp_path / "c")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    assert all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes() for f in files)
    assert a.reports[0].sentences == b.reports[0].sentences != c.reports[0].sentences


def test_checks_reject_wrong_outputs(tmp_path):
    """The reference checks fail on a perturbed ranking and a dropped gap."""
    run = workloads.Run("lint", 5, False, tmp_path, TINY["lint"])
    run.setup()
    run.op_index_build()
    run.op_index_load()
    run.op_model_build()
    for _ in range(len(run.pairs)):
        run.op_localize()
        run.op_lint()
    run.check_localize()
    run.check_lint()

    ranked = run.kept_rankings[0][3]
    ranked.entries[0] = replace(ranked.entries[0], score=ranked.entries[0].score * (1 + 1e-6))
    with pytest.raises(oracle.CheckFailed):
        run.check_localize()

    rid, out = next((r, o) for r, o in run.kept_lints.items() if o["gaps"])
    out["gaps"] = out["gaps"][1:]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_lint(out, run.truth[rid], oracle.model_shape(run.model_traces)[1], rid)

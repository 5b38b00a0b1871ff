from __future__ import annotations

import base64
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import warnings
from array import array
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import guiloc
from guiloc.cli import _CONFIG_FILE_KEYS, main, run
from guiloc.corpus import Preprocessor
from guiloc.index import ScoringParams, load_index
from guiloc.pipeline import PipelineConfig
from guiloc.traces import load_model

from conftest import FIXTURES, repack_postings, unpack_postings

REPORT = {
    "report_id": "r1",
    "title": "Editor crash on save",
    "body": "Click the open editor button. Tap the save button. The app crashes instead of saving.",
    "ground_truth": ["ui/EditorActivity.java"],
}

TRACE = {
    "trace_id": "r1",
    "screens": [
        {
            "activity_name": "com.app.MainActivity",
            "window_name": "",
            "components": [
                {
                    "resource_id": "open_editor",
                    "type": "Button",
                    "text": "Open editor",
                    "content_desc": "",
                    "exercised": True,
                    "action": "click",
                },
            ],
        },
        {
            "activity_name": "com.app.EditorActivity",
            "window_name": "",
            "components": [
                {
                    "resource_id": "save_button",
                    "type": "Button",
                    "text": "Save",
                    "content_desc": "",
                    "exercised": False,
                    "action": None,
                },
            ],
        },
    ],
}

SOURCES = {
    "ui/EditorActivity.java": (
        "public class EditorActivity {\n"
        "    void onCreate() {\n"
        "        findViewById(R.id.open_editor);\n"
        "        findViewById(R.id.save_button);\n"
        "        saveNote();\n"
        "    }\n"
        "}\n"
    ),
    "net/SyncService.java": (
        "public class SyncService {\n"
        "    void uploadNotes() { syncAll(); saveRemote(); }\n"
        "}\n"
    ),
    "util/Logger.java": (
        "public class Logger {\n"
        "    void log(String message) { write(message); }\n"
        "}\n"
    ),
}


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "corpus"
    for rel, text in SOURCES.items():
        path = corpus / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    reports = tmp_path / "reports"
    traces = tmp_path / "traces"
    reports.mkdir()
    traces.mkdir()
    (reports / "r1.json").write_text(json.dumps(REPORT))
    (traces / "r1.json").write_text(json.dumps(TRACE))
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    return tmp_path


def test_index_writes_loadable_file(workspace):
    data = json.loads((workspace / "index.json").read_text())
    assert data["format"] == "guiloc-index"
    assert len(data["documents"]) == 3


def test_localize_stdout_and_exit_code(workspace, capsys):
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--query", "expand",
            "--rerank", "filter-boost",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report_id"] == "r1"
    assert payload["config"]["rerank_strategy"] == "filter_boost"
    assert payload["ranking"][0]["path"] == "ui/EditorActivity.java"
    assert payload["ranking"][0]["rank"] == 1
    assert "activity" in payload["ranking"][0]["gui_flags"]


def test_localize_output_file_is_reproducible(workspace):
    argv = [
        "localize",
        "--index", str(workspace / "index.json"),
        "--report", str(workspace / "reports" / "r1.json"),
        "--trace", str(workspace / "traces" / "r1.json"),
        "--out", str(workspace / "ranking.json"),
    ]
    assert run(argv) == 0
    first = (workspace / "ranking.json").read_bytes()
    assert run(argv) == 0
    assert (workspace / "ranking.json").read_bytes() == first


def test_localize_dump_context(workspace):
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--out", str(workspace / "ranking.json"),
            "--dump-context", str(workspace / "context.json"),
        ]
    )
    assert code == 0
    ctx = json.loads((workspace / "context.json").read_text())
    assert "ui/EditorActivity.java" in ctx["activity_files"]
    assert "ui/EditorActivity.java" in ctx["listener_files"]


def test_localize_dump_context_computes_the_context_once(workspace, monkeypatch):
    calls = []

    def counted(fn):
        def inner(*args, **kwargs):
            calls.append(args[:2])
            return fn(*args, **kwargs)
        return inner

    monkeypatch.setattr(guiloc.pipeline, "gui_context", counted(guiloc.pipeline.gui_context))
    argv = [
        "localize",
        "--index", str(workspace / "index.json"),
        "--report", str(workspace / "reports" / "r1.json"),
        "--trace", str(workspace / "traces" / "r1.json"),
        "--query", "expand", "--rerank", "boost",
        "--out", str(workspace / "plain.json"),
    ]
    assert run(argv) == 0
    assert len(calls) == 1
    calls.clear()
    argv[-1] = str(workspace / "dumped.json")
    assert run([*argv, "--dump-context", str(workspace / "context.json")]) == 0
    assert len(calls) == 1
    # the dumped context is the one the ranking used, and the ranking is the same
    assert (workspace / "dumped.json").read_bytes() == (workspace / "plain.json").read_bytes()
    ctx = json.loads((workspace / "context.json").read_text())
    assert ctx["window_used"] == 3 and "ui/EditorActivity.java" in ctx["boosted"]


def test_config_file_with_flag_precedence(workspace, capsys):
    cfg = workspace / "cfg.json"
    cfg.write_text(
        json.dumps({"query_strategy": "expand", "rerank_strategy": "boost", "expansion_weight": 2})
    )
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--config", str(cfg),
            "--query", "base",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["config"]["query_strategy"] == "base"
    assert payload["config"]["rerank_strategy"] == "boost"
    # an integer weight is reported as the float it is applied as
    assert '"expansion_weight": 2.0,' in out


def test_bad_flag_value_exits_two(workspace, capsys):
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--rerank", "bogus",
        ]
    )
    assert code == 2
    capsys.readouterr()


def test_config_error_exits_two(workspace):
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--window", "0",
        ]
    )
    assert code == 2


def _localize_argv(workspace, *extra):
    return [
        "localize",
        "--index", str(workspace / "index.json"),
        "--report", str(workspace / "reports" / "r1.json"),
        "--trace", str(workspace / "traces" / "r1.json"),
        *extra,
    ]


def _sweep_argv(workspace, *extra):
    return [
        "sweep",
        "--index", str(workspace / "index.json"),
        "--reports", str(workspace / "reports"),
        "--traces", str(workspace / "traces"),
        "--out", str(workspace / "sweep.csv"),
        *extra,
    ]


def _errors(caplog):
    return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]


@pytest.mark.parametrize(
    "key, value",
    [
        ("window", "abc"),
        ("window", [1]),
        ("window", True),
        ("term_sources", 5),
        ("expansion_weight", "nan"),
        ("top_k", 2.7),
    ],
    ids=["window-string", "window-list", "window-bool", "sources-int", "weight-string", "top-float"],
)
def test_config_file_value_of_wrong_type_exits_two(workspace, caplog, key, value):
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run(_localize_argv(workspace, "--config", str(cfg))) == 2
    [error] = _errors(caplog)
    assert repr(key) in error


def test_index_without_flags_writes_the_default_settings(workspace):
    data = json.loads((workspace / "index.json").read_text())
    assert data["params"] == asdict(ScoringParams())
    assert data["preprocess"] == Preprocessor().config()


@pytest.mark.parametrize(
    "config",
    [None, {}, {"term_sources": None}, {"term_sources": []}, {"term_sources": ""}],
    ids=["no-config", "empty-config", "null-sources", "empty-list-sources", "empty-string-sources"],
)
def test_localize_without_settings_prints_the_default_config(workspace, capsys, config):
    extra = []
    if config is not None:
        (workspace / "cfg.json").write_text(json.dumps(config))
        extra = ["--config", str(workspace / "cfg.json")]
    assert run(_localize_argv(workspace, *extra)) == 0
    default = json.loads(json.dumps(PipelineConfig().to_json()))
    assert json.loads(capsys.readouterr().out)["config"] == default


@pytest.mark.parametrize("command, with_top", [("localize", True), ("evaluate", False)])
def test_help_names_each_config_flags_value_by_the_flag(command, with_top, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"]) == 0
    listed = [re.split(r"\s{2,}", line.strip())[0]
              for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
    want = ["--query {base,expand,replace}", "--rerank {none,filter,boost,filter-boost}",
            "--sources SOURCES", "--weight WEIGHT"] + ["--top TOP"] * with_top
    assert [flag for flag in listed if flag.split()[0] in ("--query", "--rerank", "--sources",
                                                           "--weight", "--top")] == want


def test_config_file_keys_are_the_settable_config_fields():
    assert {f.name for f in fields(PipelineConfig) if f.init} == set(_CONFIG_FILE_KEYS)


def test_config_file_keys_that_nothing_reads_exit_two(workspace, caplog):
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"windw": 1, "component_threshold": 0.1, "window": 2}))
    assert run(_localize_argv(workspace, "--config", str(cfg))) == 2
    [error] = _errors(caplog)
    assert "'component_threshold'" in error and "'windw'" in error and "'window'" not in error


@pytest.mark.parametrize(
    "flags",
    [
        ["--k1", "nan"], ["--k1", "inf"], ["--k1", "-1"],
        ["--b", "5"], ["--b", "-0.1"], ["--b", "nan"],
    ],
    ids=["k1-nan", "k1-inf", "k1-negative", "b-above-one", "b-negative", "b-nan"],
)
def test_index_bm25_parameter_out_of_range_exits_two(workspace, caplog, flags):
    out = workspace / "bad-index.json"
    assert run(["index", "--corpus", str(workspace / "corpus"), "--out", str(out), *flags]) == 2
    [error] = _errors(caplog)
    assert error.startswith(f"bm25_{flags[0][2:]} must be")
    assert not out.exists()


@pytest.mark.parametrize("weight", ["nan", "inf", "1e30", "1e308"])
def test_non_finite_weight_flag_exits_two(workspace, caplog, weight):
    assert run(_localize_argv(workspace, "--query", "expand", "--weight", weight)) == 2
    [error] = _errors(caplog)
    assert error.startswith("expansion_weight must be")


def test_fractional_weight_changes_the_ranking(tmp_path, capsys):
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)]) == 0
    argv = [
        "localize", "--index", str(index), "--scorer", "rvsm",
        "--report", str(FIXTURES / "reports" / "r01.json"),
        "--trace", str(FIXTURES / "traces" / "r01.json"),
    ]
    capsys.readouterr()
    rankings = []
    for query in (["--query", "base"], ["--query", "expand", "--weight", "0.4"]):
        assert run(argv + query) == 0
        rankings.append([e["path"] for e in json.loads(capsys.readouterr().out)["ranking"]])
    assert rankings[0] != rankings[1]


def test_sweep_windows_not_a_number_exits_two(workspace, caplog):
    assert run(_sweep_argv(workspace, "--windows", "abc")) == 2
    [error] = _errors(caplog)
    assert "--windows" in error


@pytest.mark.parametrize("weight", ["nan", "inf", "1e30", "1e308"])
def test_sweep_skips_non_finite_weights(workspace, caplog, weight):
    argv = _sweep_argv(
        workspace,
        "--scorers", "bm25",
        "--queries", "expand",
        "--reranks", "none",
        "--windows", "1",
        "--weights", f"1,{weight}",
    )
    assert run(argv) == 0
    rows = (workspace / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5] for row in rows] == ["1"]
    assert any("skipping invalid configuration" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize(
    "flag, axis",
    [
        ("--scorers", "scorers"),
        ("--queries", "query_strategies"),
        ("--reranks", "rerank_strategies"),
        ("--windows", "windows"),
        ("--sources-sets", "term_sources"),
        ("--weights", "expansion_weights"),
    ],
)
def test_sweep_with_an_empty_axis_exits_two_before_reading_the_output(workspace, caplog, flag, axis):
    out = workspace / "sweep.csv"
    out.mkdir()  # an output that is read first exits 1
    assert run(_sweep_argv(workspace, flag, "")) == 2
    (error,) = _errors(caplog)
    assert error == f"the sweep grid is empty: no {axis} given"


def test_missing_input_exits_one(workspace):
    code = run(
        [
            "localize",
            "--index", str(workspace / "missing.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
        ]
    )
    assert code == 1


_LOCALIZE = ["localize", "--index", "index.json", "--report", "reports/r1.json", "--trace", "traces/r1.json"]
_DATASET = ["--index", "index.json", "--reports", "reports", "--traces", "traces"]
# an argv run in the workspace, whose output is one of its inputs -> the one error it logs
_OVERWRITES = {
    "index": (
        ["index", "--corpus", "corpus", "--out", "corpus/net/Index.java"],
        "--out corpus/net/Index.java is read from the input --corpus corpus",
    ),
    "localize": (
        [*_LOCALIZE, "--out", "index.json"],
        "--out index.json would write over the input --index index.json",
    ),
    "localize-link": (
        [*_LOCALIZE, "--out", "link.json"],
        "--out link.json would write over the input --index index.json",
    ),
    "localize-dump-context": (
        [*_LOCALIZE, "--dump-context", "traces/r1.json"],
        "--dump-context traces/r1.json would write over the input --trace traces/r1.json",
    ),
    "localize-two-outputs": (
        [*_LOCALIZE, "--out", "ranking.json", "--dump-context", "ranking.json"],
        "--dump-context ranking.json would write over the output --out ranking.json",
    ),
    "localize-two-outputs-spelled-apart": (
        [*_LOCALIZE, "--out", "ranking.json", "--dump-context", "reports/../ranking.json"],
        "--dump-context reports/../ranking.json would write over the output --out ranking.json",
    ),
    "build-model": (
        ["build-model", "--trace", "traces/r1.json", "--out", "traces/r1.json"],
        "--out traces/r1.json would write over the input --trace traces/r1.json",
    ),
    "lint-report": (
        ["lint-report", "--report", "reports/r1.json", "--out", "reports/r1.json"],
        "--out reports/r1.json would write over the input --report reports/r1.json",
    ),
    "evaluate": (
        ["evaluate", *_DATASET, "--out", "reports/r2.json"],
        "--out reports/r2.json is read from the input --reports reports",
    ),
    "sweep": (
        ["sweep", *_DATASET, "--out", "index.json"],
        "--out index.json would write over the input --index index.json",
    ),
    "sweep-meta": (
        ["sweep", "--index", "sweep.csv.meta.json", "--reports", "reports", "--traces", "traces",
         "--out", "sweep.csv"],
        "--out's meta file sweep.csv.meta.json would write over the input --index sweep.csv.meta.json",
    ),
}


@pytest.mark.parametrize("case", list(_OVERWRITES))
def test_an_output_that_is_an_input_exits_one_before_any_work(workspace, caplog, monkeypatch, case):
    monkeypatch.chdir(workspace)
    (workspace / "link.json").symlink_to("index.json")
    shutil.copy("index.json", "sweep.csv.meta.json")
    before = {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()}
    argv, error = _OVERWRITES[case]
    assert run(argv) == 1
    assert _errors(caplog) == [error]
    assert {p: p.read_bytes() for p in workspace.rglob("*") if p.is_file()} == before


def test_an_output_beside_an_input_directory_is_written(workspace, monkeypatch):
    monkeypatch.chdir(workspace)
    (workspace / "reports" / "nested").mkdir()
    assert run(["index", "--corpus", "corpus", "--out", "corpus/index.json"]) == 0  # not scanned
    assert run(["index", "--corpus", "corpus", "--out", "corpus.java"]) == 0
    assert run(["evaluate", *_DATASET, "--out", "reports/nested/metrics.json"]) == 0
    assert run(["sweep", *_DATASET, "--out", "traces.csv"]) == 0
    assert run(["index", "--corpus", "corpus", "--out", "index.json"]) == 0  # the old index


def test_build_model_and_lint_report(workspace):
    model_path = workspace / "model.json"
    code = run(
        [
            "build-model",
            "--trace", str(workspace / "traces" / "r1.json"),
            "--trace", str(workspace / "traces" / "r1.json"),
            "--out", str(model_path),
        ]
    )
    assert code == 0
    model = json.loads(model_path.read_text())
    assert model["format"] == "guiloc-model" and model["version"] == 3
    assert "nodes" not in model
    assert len({fp for e in model["edges"] for fp in (e["src"], e["dst"])} | set(model["entries"])) == 2
    assert len(model["edges"]) == 1

    out = workspace / "lint.json"
    code = run(
        [
            "lint-report",
            "--report", str(workspace / "reports" / "r1.json"),
            "--model", str(model_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [s["tag"] for s in payload["sentences"]] == ["S2R", "S2R", "OB"]
    assert len(payload["steps"]) == 2
    assert payload["steps"][0]["action"] == "click"
    assert payload["unparsed_steps"] == []
    statuses = [m["status"] for m in payload["step_matches"]]
    assert statuses[0] == "matched"
    assert payload["step_matches"][0]["edge"]["resource_id"] == "open_editor"
    assert "missing_steps" in payload


def test_sweep_over_a_file_name_that_is_not_utf8_exits_zero(workspace):
    """The scan keeps the name's byte 0xE9 as the lone surrogate U+DCE9, which the digest hashes."""
    corpus = workspace / "corpus"
    Path(os.fsdecode(bytes(corpus / "ui") + b"/Caf\xe9Activity.java")).write_text(
        "public class CafeActivity { void save() {} }\n"
    )
    assert run(["index", "--corpus", str(corpus), "--out", str(workspace / "index.json")]) == 0
    assert "ui/Caf\udce9Activity.java" in load_index(workspace / "index.json").paths
    assert run(_sweep_argv(workspace, "--scorers", "bm25", "--queries", "base")) == 0
    assert len((workspace / "sweep.csv").read_text().splitlines()) == 1 + 8


def test_build_model_on_an_activity_name_with_a_lone_surrogate_exits_zero(workspace):
    trace = json.loads(json.dumps(TRACE))
    trace["screens"][0]["activity_name"] = "\ud800"
    path, model = workspace / "odd_trace.json", workspace / "model.json"
    path.write_text(json.dumps(trace))  # as the escape \ud800
    assert run(["build-model", "--trace", str(path), "--out", str(model)]) == 0
    assert len(load_model(model).edges) == 1


def test_lint_report_remote_without_url_exits_two(workspace, monkeypatch):
    monkeypatch.delenv("GUILOC_CLASSIFIER_URL", raising=False)
    code = run(
        [
            "lint-report",
            "--report", str(workspace / "reports" / "r1.json"),
            "--classifier", "remote",
            "--out", str(workspace / "lint.json"),
        ]
    )
    assert code == 2


def test_lint_report_remote_unreachable_falls_back(workspace, monkeypatch):
    monkeypatch.setenv("GUILOC_CLASSIFIER_URL", "http://127.0.0.1:9/classify")
    monkeypatch.setenv("GUILOC_CLASSIFIER_TIMEOUT", "0.2")
    out = workspace / "lint.json"
    code = run(
        [
            "lint-report",
            "--report", str(workspace / "reports" / "r1.json"),
            "--classifier", "remote",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [s["tag"] for s in payload["sentences"]] == ["S2R", "S2R", "OB"]


def test_evaluate_writes_metrics(workspace):
    out = workspace / "eval.json"
    code = run(
        [
            "evaluate",
            "--index", str(workspace / "index.json"),
            "--reports", str(workspace / "reports"),
            "--traces", str(workspace / "traces"),
            "--query", "expand",
            "--rerank", "filter-boost",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reports"] == 1
    assert payload["hits_at"]["1"] == 1.0
    assert payload["mrr"] == 1.0


def test_sweep_csv_and_resume(workspace):
    out = workspace / "sweep.csv"
    argv = [
        "sweep",
        "--index", str(workspace / "index.json"),
        "--reports", str(workspace / "reports"),
        "--traces", str(workspace / "traces"),
        "--out", str(out),
        "--scorers", "bm25",
        "--queries", "base,expand",
        "--reranks", "none,filter-boost",
        "--windows", "1,3",
    ]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scorer,query_strategy,rerank_strategy,window")
    assert len(lines) == 1 + 8
    assert any(",filter_boost," in line for line in lines[1:])
    first = out.read_bytes()
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_sweep_sources_sets_syntax(workspace):
    out = workspace / "sweep.csv"
    code = run(
        [
            "sweep",
            "--index", str(workspace / "index.json"),
            "--reports", str(workspace / "reports"),
            "--traces", str(workspace / "traces"),
            "--out", str(out),
            "--scorers", "bm25",
            "--queries", "base",
            "--reranks", "none",
            "--windows", "1",
            "--sources-sets", "activity+component_id;all",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2
    assert "activity+component_id" in lines[1]


def test_evaluate_string_ground_truth_exits_one(workspace, caplog):
    bad = dict(REPORT, ground_truth="ui/EditorActivity.java")
    (workspace / "reports" / "r1.json").write_text(json.dumps(bad))
    code = run(
        [
            "evaluate",
            "--index", str(workspace / "index.json"),
            "--reports", str(workspace / "reports"),
            "--traces", str(workspace / "traces"),
        ]
    )
    assert code == 1
    assert "ground_truth must be a list" in caplog.text


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_report_id_that_is_not_a_file_name_exits_one(workspace, caplog, command, where):
    """A report id names its trace file inside --traces, and nothing outside it."""
    elsewhere = workspace / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "r1.json").write_text(json.dumps(TRACE))
    report_id = "../elsewhere/r1" if where == "parent" else str(elsewhere / "r1")
    report = workspace / "reports" / "r1.json"
    report.write_text(json.dumps(dict(REPORT, report_id=report_id)))
    argv = [
        command,
        "--index", str(workspace / "index.json"),
        "--reports", str(workspace / "reports"),
        "--traces", str(workspace / "traces"),
        "--out", str(workspace / "out"),
    ]
    assert run(argv) == 1
    (error,) = _errors(caplog)
    assert str(report) in error and "not a plain file name" in error


def _edit_postings(edit):
    def edit_data(data):
        body = unpack_postings(data)
        edit(data, body)
        repack_postings(data, body)
    return edit_data


def _repeated_doc_id(data, body):
    # the second gap of the first term held by two documents
    starts = body.offsets
    (start,) = [lo for lo, hi in zip(starts, starts[1:]) if hi - lo > 1][:1]
    body.gaps[start + 1] = 0


def test_localize_index_with_swapped_doc_ids_exits_one(workspace, caplog):
    """A term's doc ids must strictly increase; a zero gap repeats one."""
    path = workspace / "index.json"
    data = json.loads(path.read_text())
    _edit_postings(_repeated_doc_id)(data)
    path.write_text(json.dumps(data))
    assert run(_localize_argv(workspace)) == 1
    assert "ids must be strictly increasing" in caplog.text


def _drop(key):
    def edit(data):
        del data[key]
    return edit


def _set(key, value):
    def edit(data):
        data[key] = value
    return edit


def _first_document(value):
    def edit(data):
        data["documents"][0] = value
    return edit


def _k1(value):
    def edit(data):
        data["params"]["bm25_k1"] = value
    return edit


def _b(value):
    def edit(data):
        data["params"]["bm25_b"] = value
    return edit


def _first_norm(value):
    def edit(data):
        data["documents"][0][2] = value
    return edit


def _no_norms(data):
    for row in data["documents"]:
        row.pop()


def _one_norm_too_few(data):
    data["documents"][-1].pop()


def _duplicate_path(data):
    data["documents"][1][0] = data["documents"][0][0]


def _terms(edit):
    def edit_data(data):
        edit(data["terms"])
    return edit_data


def _swap_first_two(items):
    items[0], items[1] = items[1], items[0]


def _stream(edit):
    def edit_data(data):
        data["postings"] = base64.b64encode(edit(base64.b64decode(data["postings"]))).decode()
    return edit_data


def _flip_checksum(stream):
    return stream[:-1] + bytes([stream[-1] ^ 1])


def _id_past_the_last_document(data, body):
    body.gaps[0] = len(data["documents"]) + 1  # the first term's first id is n


def _zero_count(data, body):
    body.counts[0] = 0


def _body_with_extra_bytes(data):
    repack_postings(data, unpack_postings(data), extra=bytes(8))


def _df(term, value):
    def edit(data, body):
        body.dfs[term] = value(body.dfs[term], len(data["documents"]))
    return edit


def _every_df_the_document_count(data, body):
    # the gaps and counts would then need about terms x documents x 8 bytes
    body.dfs = array("I", [len(data["documents"])] * len(body.dfs))


def _move_the_last_df_to_the_first(data, body):
    # the body keeps the size the dfs need, so the df check must see it
    body.dfs[0] += body.dfs[-1]
    body.dfs[-1] = 0


def _drop_the_first_df(data, body):
    del body.dfs[0]


def _head_short(data, body):
    # the body ends one word before the end of the lengths
    del body.lengths[-1]
    body.gaps, body.counts = array("I"), array("I")


def _lengths_off_the_count_total(data, body):
    body.lengths[0] += 1


MALFORMED_INDEXES = {
    "no-params": _drop("params"),
    "no-preprocess": _drop("preprocess"),
    "no-documents": _drop("documents"),
    "params-not-object": _set("params", [1.2, 0.75]),
    "document-not-object": _first_document(7),
    "string-term-count": _edit_postings(_df(0, lambda df, n: 2**32 - 1)),
    "huge-length": _edit_postings(_every_df_the_document_count),
    "length-not-term-total": _edit_postings(_df(-1, lambda df, n: df + 1)),
    "huge-k1": _k1(10**400),
    "negative-k1": _k1(-1),
    "nan-k1": _k1(float("nan")),  # json writes NaN, and reads it back
    "b-above-one": _b(1.5),
    "no-norms": _no_norms,
    "norms-not-list": _first_norm({"0": 1.0}),
    "one-norm-too-few": _one_norm_too_few,
    "string-norm": _first_norm("1.0"),
    "negative-norm": _first_norm(-1.0),
    "nan-norm": _first_norm(float("nan")),
    "infinite-norm": _first_norm(float("inf")),  # json writes Infinity, and reads it back
    "true-norm": _first_norm(True),
    "duplicate-path": _duplicate_path,
    "postings-not-base64": _set("postings", "not base64!"),
    "postings-not-zlib": _stream(lambda stream: stream[2:]),
    "postings-truncated": _stream(lambda stream: stream[:-10]),
    "postings-bad-checksum": _stream(_flip_checksum),
    "postings-data-after-stream": _stream(lambda stream: stream + b"x"),
    "body-longer-than-offsets": _body_with_extra_bytes,
    "offsets-not-from-zero": _edit_postings(_df(0, lambda df, n: df + 1)),
    "offsets-not-increasing": _edit_postings(_move_the_last_df_to_the_first),
    "offsets-one-short": _edit_postings(_drop_the_first_df),
    "df-zero": _edit_postings(_df(0, lambda df, n: 0)),
    "df-above-the-document-count": _edit_postings(_df(0, lambda df, n: n + 1)),
    "head-short": _edit_postings(_head_short),
    "lengths-off-the-count-total": _edit_postings(_lengths_off_the_count_total),
    "terms-unsorted": _terms(_swap_first_two),
    "terms-duplicated": _terms(lambda terms: terms.__setitem__(1, terms[0])),
    "term-not-string": _terms(lambda terms: terms.__setitem__(0, 7)),
    "repeated-doc-id": _edit_postings(_repeated_doc_id),
    "doc-id-past-the-last": _edit_postings(_id_past_the_last_document),
    "zero-count": _edit_postings(_zero_count),
    "min-term-len-below-one": lambda data: data["preprocess"].update(min_term_len=-3),
}


@pytest.mark.parametrize("edit", MALFORMED_INDEXES.values(), ids=MALFORMED_INDEXES)
def test_localize_malformed_index_exits_one(workspace, caplog, edit):
    path = workspace / "index.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = run(_localize_argv(workspace))
    assert code == 1
    (error,) = _errors(caplog)
    assert str(path) in error


def _old_index_exits_one(workspace, caplog, version):
    path = workspace / "index.json"
    data = json.loads(path.read_text())
    data["version"] = version
    path.write_text(json.dumps(data))
    assert run(_localize_argv(workspace)) == 1
    (error,) = _errors(caplog)
    assert f"unsupported index version {version} in {path}; this build reads version 5" in error


def test_index_min_term_len_below_one_exits_two_before_scanning(tmp_path, caplog, monkeypatch):
    import guiloc.cli as cli

    def unused(*args, **kwargs):
        raise AssertionError("the corpus was scanned")

    monkeypatch.setattr(cli, "scan_corpus", unused)
    out = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(out), "--min-term-len", "-3"]) == 2
    (error,) = _errors(caplog)
    assert error == "min_term_len must be >= 1, got -3"
    assert not out.exists()


def test_localize_version_one_index_exits_one(workspace, caplog):
    _old_index_exits_one(workspace, caplog, 1)


def test_localize_version_two_index_exits_one(workspace, caplog):
    _old_index_exits_one(workspace, caplog, 2)


def test_localize_version_three_index_exits_one(workspace, caplog):
    _old_index_exits_one(workspace, caplog, 3)


def test_localize_version_four_index_exits_one(workspace, caplog):
    _old_index_exits_one(workspace, caplog, 4)


def _index_argv(workspace, *extra):
    corpus, out = workspace / "corpus", workspace / "other.json"
    return ["index", "--corpus", str(corpus), "--out", str(out), *extra]


def test_index_with_a_missing_stopword_file_exits_one(workspace, caplog):
    missing = workspace / "missing.txt"
    assert run(_index_argv(workspace, "--stopwords", str(missing))) == 1
    assert _errors(caplog) == [f"stopword file not found: {missing}"]
    assert not (workspace / "other.json").exists()


def test_index_with_no_file_extension_exits_one(workspace, caplog):
    assert run(_index_argv(workspace, "--ext", "")) == 1
    assert _errors(caplog) == ["at least one file extension is required"]
    assert not (workspace / "other.json").exists()


def _first_row_cell(cell, value):
    def edit(data):
        data["documents"][0][cell] = value
    return edit


INDEX_VALUES_OF_THE_WRONG_TYPE = {
    "stopword-not-string": (lambda data: data["preprocess"]["stopwords"].__setitem__(0, 7),
                            "preprocess: 'stopwords' must be a list of strings"),
    "path-not-string": (_first_row_cell(0, 7), "document 0: path must be a string"),
    "ref-not-string": (_first_row_cell(1, [7]),
                       "document 0: resource_id_refs must be a list of strings"),
}


@pytest.mark.parametrize("edit, message", INDEX_VALUES_OF_THE_WRONG_TYPE.values(),
                         ids=INDEX_VALUES_OF_THE_WRONG_TYPE)
def test_localize_index_value_of_the_wrong_type_exits_one(workspace, caplog, edit, message):
    path = workspace / "index.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    assert run(_localize_argv(workspace)) == 1
    assert _errors(caplog) == [f"{path}: {message}"]


@pytest.mark.parametrize("missing", ["reports", "traces"])
def test_evaluate_without_a_dataset_directory_exits_one(workspace, caplog, missing):
    dirs = {"reports": workspace / "reports", "traces": workspace / "traces"}
    dirs[missing] = workspace / "absent"
    argv = ["evaluate", "--index", str(workspace / "index.json"),
            "--reports", str(dirs["reports"]), "--traces", str(dirs["traces"])]
    assert run(argv) == 1
    assert _errors(caplog) == [f"{missing} directory not found: {workspace / 'absent'}"]


def test_sweep_into_a_csv_with_another_header_recomputes_every_row(workspace, caplog):
    grid = ("--scorers", "bm25", "--queries", "base", "--reranks", "none,boost", "--windows", "1")
    fresh = workspace / "fresh.csv"
    assert run(_sweep_argv(workspace, *grid, "--out", str(fresh))) == 0  # the last --out wins
    out = workspace / "sweep.csv"
    out.write_text("scorer,hits1\n" + fresh.read_text().splitlines()[1] + "\n")
    assert run(_sweep_argv(workspace, *grid)) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [f"existing sweep file {out} has a different header; recomputing all rows"]
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("scorer", ["bm25", "rvsm"])
def test_localize_on_a_corpus_without_terms_prints_an_empty_ranking(tmp_path, capsys, scorer):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "A.java").write_text("public class A {}\n")
    (tmp_path / "r1.json").write_text(json.dumps(REPORT))
    (tmp_path / "t1.json").write_text(json.dumps(TRACE))
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    capsys.readouterr()
    code = run(
        [
            "localize",
            "--index", str(index),
            "--report", str(tmp_path / "r1.json"),
            "--trace", str(tmp_path / "t1.json"),
            "--scorer", scorer,
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["ranking"] == []
    data = json.loads(index.read_text())
    assert data["documents"][0][2] == 0.0 and data["terms"] == []
    body = unpack_postings(data)  # only the one document's length, 0
    assert body.lengths == array("I", [0]) and not (body.dfs or body.gaps or body.counts)


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_ground_truth_missing_from_the_index_is_warned_once_per_report(workspace, caplog, command):
    truth = ["ui/EditorActivity.java", "ui/Gone.java", "old/Removed.java"]
    (workspace / "reports" / "r1.json").write_text(json.dumps(dict(REPORT, ground_truth=truth)))
    argv = [
        command,
        "--index", str(workspace / "index.json"),
        "--reports", str(workspace / "reports"),
        "--traces", str(workspace / "traces"),
        "--out", str(workspace / "out"),
    ]
    assert run(argv) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "report r1" in warnings[0] and "old/Removed.java, ui/Gone.java" in warnings[0]
    assert "EditorActivity" not in warnings[0]


def test_localize_trace_with_non_object_screen_exits_one(workspace, caplog):
    path = workspace / "traces" / "r1.json"
    path.write_text(json.dumps(dict(TRACE, screens=[7] + TRACE["screens"])))
    code = run(
        [
            "localize",
            "--index", str(workspace / "index.json"),
            "--report", str(workspace / "reports" / "r1.json"),
            "--trace", str(path),
        ]
    )
    assert code == 1
    assert "screen 0" in caplog.text


def _first_edge(value):
    def edit(data):
        data["edges"][0] = value
    return edit


def _edge_without_resource_id(data):
    del data["edges"][0]["resource_id"]


def _edge_with_null_text(data):
    data["edges"][0]["text"] = None


@pytest.mark.parametrize(
    "edit",
    [
        _drop("edges"), _edge_without_resource_id, _edge_with_null_text, _first_edge(7),
        _set("entries", [["fp"]]),
    ],
    ids=[
        "no-edges", "edge-without-resource-id", "edge-with-null-text", "edge-not-object",
        "entry-not-string",
    ],
)
def test_lint_report_malformed_model_exits_one(workspace, caplog, edit):
    path = workspace / "model.json"
    trace = str(workspace / "traces" / "r1.json")
    assert run(["build-model", "--trace", trace, "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    code = run(
        [
            "lint-report",
            "--report", str(workspace / "reports" / "r1.json"),
            "--model", str(path),
        ]
    )
    assert code == 1
    assert str(path) in caplog.text


def _lint_with_model_version(workspace, caplog, version):
    path = workspace / "model.json"
    assert run(["build-model", "--trace", str(workspace / "traces" / "r1.json"), "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    data["version"] = version
    path.write_text(json.dumps(data))
    code = run(["lint-report", "--report", str(workspace / "reports" / "r1.json"), "--model", str(path)])
    assert code == 1
    (error,) = _errors(caplog)
    assert f"unsupported model version {version} in {path}; this build reads version 3" in error


def test_lint_report_version_one_model_exits_one(workspace, caplog):
    _lint_with_model_version(workspace, caplog, 1)


def test_lint_report_version_two_model_exits_one(workspace, caplog):
    _lint_with_model_version(workspace, caplog, 2)


def test_main_and_the_module_entry_point_exit_with_the_code_of_run(tmp_path, monkeypatch):
    missing = str(tmp_path / "missing")
    monkeypatch.setattr(sys, "argv", ["guiloc", "index", "--corpus", missing, "--out", missing + ".json"])
    with pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == 1
    report = str(FIXTURES / "reports" / "r01.json")
    monkeypatch.setattr(sys, "argv", ["guiloc", "lint-report", "--report", report])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exited:
        warnings.simplefilter("ignore", RuntimeWarning)  # guiloc.cli is imported already
        runpy.run_module("guiloc.cli", run_name="__main__")
    assert exited.value.code == 0


def test_cli_import_leaves_out_urllib_request():
    src = str(Path(guiloc.__file__).resolve().parent.parent)
    probe = "import sys, guiloc.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_readme_library_example_imports_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [block] = re.findall(r"^from guiloc import \(([^)]*)\)", readme, re.MULTILINE)
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert "localize" in names
    assert [name for name in names if not hasattr(guiloc, name)] == []


def _walk(trace_id, *steps):
    """A trace through (activity, resource id, text) screens, clicking each
    screen's one widget; the last screen has its widget unexercised."""
    screens = []
    for i, (activity, resource_id, text) in enumerate(steps):
        last = i == len(steps) - 1
        component = {"resource_id": resource_id, "type": "Button", "text": text,
                     "exercised": not last, "action": None if last else "click"}
        screens.append({"activity_name": activity, "components": [component]})
    return {"trace_id": trace_id, "screens": screens}


LINT_TRACES = [
    _walk("t1", ("app.Main", "settings_button", "Settings"),
          ("app.Settings", "dark_mode", "Dark mode"),
          ("app.Display", "apply_button", "Apply"),
          ("app.Done", "close_button", "Close")),
    _walk("t2", ("app.Login", "login_button", "Log in"),
          ("app.Home", "save_button", "Save"),
          ("app.Home2", "back_button", "Back")),
    _walk("t3", ("app.Editor", "save_button", "Save"), ("app.Saved", "ok_button", "OK")),
]

LINT_BODY = (
    "1. Click the settings button.\n2. Tap the apply button.\n3. Click the login button.\n"
    "4. Click the save button.\n5. Press the unknown widget on the toolbar.\n"
    "6. The settings page.\nThe app crashes. It should stay open."
)

LINT_OUTPUT = """\
{
  "missing_steps": [
    {
      "after_step": 0,
      "before_step": 1,
      "infeasible": false,
      "missing": [
        {
          "action": "click",
          "dst": "43665b84de9b2eb5",
          "resource_id": "dark_mode",
          "src": "95bce4fb1209420a"
        }
      ]
    },
    {
      "after_step": 1,
      "before_step": 2,
      "infeasible": true,
      "missing": []
    }
  ],
  "report_id": "lint1",
  "sentences": [
    {
      "tag": "S2R",
      "text": "Click the settings button."
    },
    {
      "tag": "S2R",
      "text": "Tap the apply button."
    },
    {
      "tag": "S2R",
      "text": "Click the login button."
    },
    {
      "tag": "S2R",
      "text": "Click the save button."
    },
    {
      "tag": "S2R",
      "text": "Press the unknown widget on the toolbar."
    },
    {
      "tag": "S2R",
      "text": "The settings page."
    },
    {
      "tag": "OB",
      "text": "The app crashes."
    },
    {
      "tag": "EB",
      "text": "It should stay open."
    }
  ],
  "step_matches": [
    {
      "edge": {
        "action": "click",
        "dst": "95bce4fb1209420a",
        "resource_id": "settings_button",
        "src": "6600d4aeb4c1ad41"
      },
      "similarity": 1.0,
      "status": "matched",
      "step": 0
    },
    {
      "edge": {
        "action": "click",
        "dst": "19fb44439c2e417d",
        "resource_id": "apply_button",
        "src": "43665b84de9b2eb5"
      },
      "similarity": 1.0,
      "status": "matched",
      "step": 1
    },
    {
      "edge": {
        "action": "click",
        "dst": "d45e13dcf2646491",
        "resource_id": "login_button",
        "src": "62e403d3d8cdbf2c"
      },
      "similarity": 0.6666666666666666,
      "status": "matched",
      "step": 2
    },
    {
      "edge": {
        "action": "click",
        "dst": "419d893d01ccd2e5",
        "resource_id": "save_button",
        "src": "d45e13dcf2646491"
      },
      "similarity": 1.0,
      "status": "ambiguous",
      "step": 3
    },
    {
      "edge": null,
      "similarity": 0.0,
      "status": "unmatched",
      "step": 4
    }
  ],
  "steps": [
    {
      "action": "click",
      "object": "settings button",
      "object2": null,
      "preposition": null,
      "subject": "user"
    },
    {
      "action": "click",
      "object": "apply button",
      "object2": null,
      "preposition": null,
      "subject": "user"
    },
    {
      "action": "click",
      "object": "login button",
      "object2": null,
      "preposition": null,
      "subject": "user"
    },
    {
      "action": "click",
      "object": "save button",
      "object2": null,
      "preposition": null,
      "subject": "user"
    },
    {
      "action": "click",
      "object": "unknown widget",
      "object2": "toolbar",
      "preposition": "on",
      "subject": "user"
    }
  ],
  "unparsed_steps": [
    {
      "reason": "cannot parse step 'The settings page.': no action verb found",
      "sentence": "The settings page."
    }
  ]
}
"""


def test_lint_report_with_model_output_is_pinned(tmp_path, capsys):
    # every part of the output: matched, ambiguous and unmatched steps, an
    # unparsed one, a gap with a missing edge and an infeasible gap
    argv = ["build-model", "--out", str(tmp_path / "model.json")]
    for trace in LINT_TRACES:
        path = tmp_path / f"{trace['trace_id']}.json"
        path.write_text(json.dumps(trace))
        argv += ["--trace", str(path)]
    assert run(argv) == 0
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"report_id": "lint1", "title": "Crash", "body": LINT_BODY}))
    capsys.readouterr()
    code = run(["lint-report", "--report", str(report), "--model", str(tmp_path / "model.json")])
    assert code == 0
    assert capsys.readouterr().out == LINT_OUTPUT


def test_lint_report_of_the_fixture_report_with_steps_is_pinned(tmp_path, capsys):
    # a model of every fixture trace; the report's steps match three edges and
    # leave out the one between the first two
    traces = sorted((FIXTURES / "traces").glob("*.json"))
    argv = ["build-model", "--out", str(tmp_path / "model.json")]
    assert run(argv + [flag for t in traces for flag in ("--trace", str(t))]) == 0
    capsys.readouterr()
    report = FIXTURES / "lint" / "r11.json"
    assert run(["lint-report", "--report", str(report), "--model", str(tmp_path / "model.json")]) == 0
    out = capsys.readouterr().out
    assert out == (FIXTURES / "lint" / "r11.lint.json").read_text()
    assert "matched" in {m["status"] for m in json.loads(out)["step_matches"]}


def test_config_file_huge_integer_weight_exits_two(workspace, caplog):
    cfg = workspace / "cfg.json"
    cfg.write_text(json.dumps({"expansion_weight": 10**400}))
    assert run(_localize_argv(workspace, "--config", str(cfg))) == 2
    [error] = _errors(caplog)
    assert "'expansion_weight'" in error


@pytest.mark.parametrize("timeout", ["abc", "-1", "0", "nan", "inf", "1e10"])
def test_lint_report_bad_classifier_timeout_exits_two(workspace, monkeypatch, caplog, timeout):
    monkeypatch.setenv("GUILOC_CLASSIFIER_URL", "http://127.0.0.1:9/classify")
    monkeypatch.setenv("GUILOC_CLASSIFIER_TIMEOUT", timeout)
    code = run(
        [
            "lint-report",
            "--report", str(workspace / "reports" / "r1.json"),
            "--classifier", "remote",
            "--out", str(workspace / "lint.json"),
        ]
    )
    assert code == 2
    [error] = _errors(caplog)
    assert "GUILOC_CLASSIFIER_TIMEOUT" in error


@pytest.mark.parametrize(
    "key, value",
    [("body", ["Open the app"]), ("title", {"a": 1})],
    ids=["body-list", "title-object"],
)
def test_lint_report_text_field_not_a_string_exits_one(workspace, caplog, key, value):
    path = workspace / "reports" / "r1.json"
    path.write_text(json.dumps(dict(REPORT, **{key: value})))
    code = run(["lint-report", "--report", str(path), "--out", str(workspace / "lint.json")])
    assert code == 1
    [error] = _errors(caplog)
    assert repr(key) in error
    assert not (workspace / "lint.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_two_reports_with_one_id_exit_one(tmp_path, caplog, command):
    reports = tmp_path / "reports"
    shutil.copytree(FIXTURES / "reports", reports)
    shutil.copy(reports / "r01.json", reports / "r01-copy.json")
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)]) == 0
    argv = [
        command,
        "--index", str(index),
        "--reports", str(reports),
        "--traces", str(FIXTURES / "traces"),
        "--out", str(tmp_path / "out"),
    ]
    assert run(argv) == 1
    (error,) = _errors(caplog)
    assert str(reports / "r01.json") in error and str(reports / "r01-copy.json") in error
    assert not (tmp_path / "out").exists()


def _sweep_fixture(tmp_path, out, *index_flags):
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index), *index_flags]) == 0
    argv = [
        "sweep",
        "--index", str(index),
        "--reports", str(tmp_path / "reports"),
        "--traces", str(tmp_path / "traces"),
        "--out", str(out),
    ]
    assert run(argv) == 0


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _write(path_of, text):
    def edit(tmp_path, out):
        path_of(tmp_path, out).write_text(text)
    return edit


# name -> (change made between two sweeps into one file, whether it changes the rows)
SWEEP_INPUT_CHANGES = {
    "index-parameter": (lambda tmp_path, out: ("--b", "0.3"), True),
    "ground-truth": (lambda tmp_path, out: _edit_json(
        tmp_path / "reports" / "r03.json", lambda r: r.update(ground_truth=["ui/MainActivity.java"])
    ), True),
    "report-text": (lambda tmp_path, out: _edit_json(
        tmp_path / "reports" / "r05.json", lambda r: r.update(title="Settings screen is blank")
    ), True),
    "trace": (lambda tmp_path, out: _edit_json(
        tmp_path / "traces" / "r02.json", lambda t: t["screens"].pop(0)
    ), True),
    "no-meta-file": (lambda tmp_path, out: Path(f"{out}.meta.json").unlink(), False),
    "meta-file-not-json": (_write(lambda tmp_path, out: Path(f"{out}.meta.json"), "{"), False),
    "meta-file-nested-too-deep": (
        _write(lambda tmp_path, out: Path(f"{out}.meta.json"), "[" * 100000), False
    ),
    "meta-file-without-rows": (
        lambda tmp_path, out: _edit_json(Path(f"{out}.meta.json"), lambda m: m.pop("rows")), False
    ),
    "meta-file-rows-not-strings": (
        lambda tmp_path, out: _edit_json(Path(f"{out}.meta.json"), lambda m: m.update(rows=[[1]])),
        False,
    ),
}


@pytest.mark.parametrize("change, new_rows", SWEEP_INPUT_CHANGES.values(), ids=SWEEP_INPUT_CHANGES)
def test_sweep_recomputes_every_row_when_its_inputs_change(tmp_path, caplog, change, new_rows):
    """A resumed sweep reuses rows only if the index and dataset they came from are unchanged."""
    shutil.copytree(FIXTURES / "reports", tmp_path / "reports")
    shutil.copytree(FIXTURES / "traces", tmp_path / "traces")
    out = tmp_path / "sweep.csv"
    _sweep_fixture(tmp_path, out)
    before = out.read_bytes()
    index_flags = change(tmp_path, out) or ()
    caplog.clear()
    caplog.set_level("INFO")
    _sweep_fixture(tmp_path, out, *index_flags)
    assert "(48 computed, 0 reused, 0 skipped)" in caplog.text
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "not computed from this index and dataset" in warnings[0]
    fresh = tmp_path / "fresh.csv"
    _sweep_fixture(tmp_path, fresh, *index_flags)
    assert out.read_bytes() == fresh.read_bytes()
    assert (out.read_bytes() != before) == new_rows
    caplog.clear()
    _sweep_fixture(tmp_path, out, *index_flags)
    assert "(0 computed, 48 reused, 0 skipped)" in caplog.text


def _scale_each_norm(data):
    for i, row in enumerate(data["documents"]):
        row[2] *= 1 + i % 3


def _reverse_the_lengths(data):
    body = unpack_postings(data)  # the total stays, so the load checks pass
    body.lengths.reverse()
    repack_postings(data, body)


@pytest.mark.parametrize("scorer, edit", [
    ("rvsm", _scale_each_norm), ("bm25", _reverse_the_lengths),
], ids=["norms", "lengths"])
def test_sweep_recomputes_its_rows_when_stored_norms_or_lengths_change(tmp_path, caplog, scorer, edit):
    """Neither is checked against the postings at load, so the sweep digest must cover both."""
    index = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)]) == 0

    def sweep(out):
        caplog.clear()
        argv = [
            "sweep", "--index", str(index), "--out", str(out),
            "--reports", str(FIXTURES / "reports"), "--traces", str(FIXTURES / "traces"),
            "--scorers", scorer, "--queries", "base", "--reranks", "none", "--windows", "1",
        ]
        assert run(argv) == 0
        return out.read_bytes()

    caplog.set_level("INFO")
    before = sweep(tmp_path / "first.csv")
    _edit_json(index, edit)
    after = sweep(tmp_path / "fresh.csv")
    assert after != before
    out = tmp_path / "resumed.csv"
    out.write_bytes(before)
    shutil.copy(tmp_path / "first.csv.meta.json", tmp_path / "resumed.csv.meta.json")
    assert sweep(out) == after
    assert "(1 computed, 0 reused, 0 skipped)" in caplog.text


def test_sweep_of_a_grid_listing_a_configuration_twice_writes_and_reuses_two_rows(tmp_path, caplog):
    index, out = tmp_path / "index.json", tmp_path / "sweep.csv"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index)]) == 0
    argv = [
        "sweep", "--index", str(index), "--out", str(out),
        "--reports", str(FIXTURES / "reports"), "--traces", str(FIXTURES / "traces"),
        "--scorers", "bm25", "--queries", "base", "--reranks", "none", "--windows", "1,1",
    ]
    caplog.set_level("INFO")
    assert run(argv) == 0
    assert "(2 computed, 0 reused, 0 skipped)" in caplog.text
    first = out.read_bytes()
    header, row, again = first.decode().splitlines()
    assert row == again and row.startswith("bm25,base,none,1,")
    caplog.clear()
    assert run(argv) == 0
    assert "(0 computed, 2 reused, 0 skipped)" in caplog.text
    assert out.read_bytes() == first


def test_lint_report_that_is_not_utf8_exits_one(tmp_path, caplog):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["lint-report", "--report", str(path)]) == 1
    (error,) = _errors(caplog)
    assert f"cannot read {path}" in error


def test_index_with_a_stopword_file_that_is_not_utf8_exits_one(tmp_path, caplog):
    words, out = tmp_path / "stop.txt", tmp_path / "index.json"
    words.write_bytes(b"save\n\xe9t\xe9\n")
    argv = ["index", "--corpus", str(FIXTURES / "app"), "--stopwords", str(words), "--out", str(out)]
    assert run(argv) == 1
    (error,) = _errors(caplog)
    assert f"cannot read stopword file {words}" in error
    assert not out.exists()


def _sweep_into(workspace, out):
    return run(
        [
            "sweep",
            "--index", str(workspace / "index.json"),
            "--reports", str(workspace / "reports"),
            "--traces", str(workspace / "traces"),
            "--out", str(out),
        ]
    )


def test_sweep_over_an_existing_file_that_is_not_utf8_exits_one(workspace, caplog):
    out = workspace / "s.csv"
    out.write_bytes(b"x\xff\n")
    assert _sweep_into(workspace, out) == 1
    (error,) = _errors(caplog)
    assert f"cannot read existing sweep file {out}" in error
    assert out.read_bytes() == b"x\xff\n"


def test_sweep_into_a_directory_exits_one_before_computing(workspace, caplog, monkeypatch):
    import guiloc.evaluation as evaluation

    def unused(*args, **kwargs):
        raise AssertionError("a configuration ran")

    monkeypatch.setattr(evaluation, "evaluate_config", unused)
    out = workspace / "s.csv"
    out.mkdir()
    assert _sweep_into(workspace, out) == 1
    (error,) = _errors(caplog)
    assert error == f"sweep output {out} exists and is not a regular file"


def test_sweep_into_a_missing_directory_exits_one_before_computing(workspace, caplog, monkeypatch):
    import guiloc.evaluation as evaluation

    def unused(*args, **kwargs):
        raise AssertionError("a configuration ran")

    monkeypatch.setattr(evaluation, "evaluate_config", unused)
    out = workspace / "nodir" / "s.csv"
    assert _sweep_into(workspace, out) == 1
    (error,) = _errors(caplog)
    assert error == f"sweep output {out}: {out.parent} is not a directory"
    assert not out.parent.exists()


def test_localize_into_a_missing_directory_names_the_output(workspace, caplog):
    out = workspace / "nodir" / "l.json"
    assert run(_localize_argv(workspace, "--out", str(out))) == 1
    (error,) = _errors(caplog)
    assert error == f"cannot write {out}: No such file or directory"
    assert not out.parent.exists()

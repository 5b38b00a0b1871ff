from __future__ import annotations

import random
from collections import Counter

import pytest

from guiloc.errors import ConfigError
from guiloc.index import RankEntry, RankedList, build_index
from guiloc.mapping import GuiContext
from guiloc.pipeline import PipelineConfig, apply_rerank, build_query, localize
from guiloc.reports import BugReport

from conftest import make_component, make_doc, make_screen, make_trace


def _ranked(paths):
    return RankedList(
        entries=[RankEntry(path=p, score=float(len(paths) - i)) for i, p in enumerate(paths)],
        query_terms_used=["q"],
    )


def _ctx(*, activity=(), listener=(), component=(), terms=None):
    return GuiContext(
        terms=Counter(terms or {}),
        activity_files=set(activity),
        listener_files=set(listener),
        component_files=set(component),
        window_used=3,
    )


def test_build_query_base():
    terms, flags = build_query(["crash", "save"], Counter({"editor": 2}), "base")
    assert terms == ["crash", "save"]
    assert flags == []


def test_build_query_expand_appends_with_multiplicity():
    terms, flags = build_query(["crash"], Counter({"editor": 2, "save": 1}), "expand")
    assert terms == ["crash", "editor", "editor", "save"]
    assert flags == []


def test_build_query_expand_weight_rounds():
    terms, _ = build_query(["crash"], Counter({"editor": 1}), "expand", expansion_weight=2.0)
    assert terms == ["crash", "editor", "editor"]
    terms, _ = build_query(["crash"], Counter({"editor": 1}), "expand", expansion_weight=1.4)
    assert terms == ["crash", "editor"]


def test_build_query_replace_and_fallback():
    terms, flags = build_query(["crash"], Counter({"editor": 1}), "replace")
    assert terms == ["editor"]
    assert flags == []
    terms, flags = build_query(["crash"], Counter(), "replace")
    assert terms == ["crash"]
    assert flags == ["replace-fallback"]


def test_build_query_unknown_strategy():
    with pytest.raises(ConfigError):
        build_query(["x"], Counter(), "merge")


def test_rerank_none_returns_equal_ranking():
    ranked = _ranked(["f1", "f2", "f3"])
    out = apply_rerank(ranked, _ctx(activity={"f2"}), "none")
    assert out.paths() == ["f1", "f2", "f3"]
    assert out is not ranked


def test_boost_moves_boosted_front_keeping_order():
    ranked = _ranked(["f1", "f2", "f3", "f4"])
    out = apply_rerank(ranked, _ctx(listener={"f3"}), "boost")
    assert out.paths() == ["f3", "f1", "f2", "f4"]
    scores = {e.path: e.score for e in ranked.entries}
    assert all(e.score == scores[e.path] for e in out.entries)


def test_filter_keeps_gui_related_only():
    ranked = _ranked(["f1", "f2", "f3"])
    out = apply_rerank(ranked, _ctx(component={"f2", "f3"}), "filter")
    assert out.paths() == ["f2", "f3"]


def test_filter_boost_combines():
    ranked = _ranked(["f1", "f2", "f3"])
    out = apply_rerank(ranked, _ctx(activity={"f3"}, component={"f2"}), "filter_boost")
    assert out.paths() == ["f3", "f2"]


def test_filter_empty_gui_set_falls_back():
    ranked = _ranked(["f1", "f2"])
    out = apply_rerank(ranked, _ctx(), "filter")
    assert out.paths() == ["f1", "f2"]
    assert "filter-fallback" in out.flags


def test_boost_annotates_gui_flags():
    ranked = _ranked(["f1", "f2"])
    out = apply_rerank(ranked, _ctx(activity={"f2"}, component={"f2"}), "boost")
    flags = {e.path: e.gui_flags for e in out.entries}
    assert flags["f2"] == {"activity", "component"}
    assert flags["f1"] == set()


def test_rerank_random_properties():
    rng = random.Random(51)
    files = [f"f{i:02d}" for i in range(15)]
    for _ in range(100):
        paths = rng.sample(files, rng.randint(0, len(files)))
        ranked = _ranked(paths)
        ctx = _ctx(
            activity={f for f in files if rng.random() < 0.25},
            listener={f for f in files if rng.random() < 0.25},
            component={f for f in files if rng.random() < 0.25},
        )
        assert ctx.boosted <= ctx.gui_related

        boosted = apply_rerank(ranked, ctx, "boost")
        assert sorted(boosted.paths()) == sorted(paths)
        in_boost = [p for p in boosted.paths() if p in ctx.boosted]
        out_boost = [p for p in boosted.paths() if p not in ctx.boosted]
        assert boosted.paths() == in_boost + out_boost
        assert in_boost == [p for p in paths if p in ctx.boosted]
        assert out_boost == [p for p in paths if p not in ctx.boosted]

        filtered = apply_rerank(ranked, ctx, "filter")
        assert set(filtered.paths()) <= set(paths)
        both = apply_rerank(ranked, ctx, "filter_boost")
        if ctx.gui_related:
            assert set(both.paths()) <= set(filtered.paths())
        assert len(set(both.paths())) == len(both.paths())


def test_empty_context_degenerates_to_base():
    ranked = _ranked(["f1", "f2"])
    ctx = _ctx()
    for strategy in ("filter", "boost", "filter_boost"):
        out = apply_rerank(ranked, ctx, strategy)
        assert out.paths() == ["f1", "f2"]


def _mini_index():
    docs = [
        make_doc(0, "ui/EditorActivity.java",
                 ["editor", "activity", "save", "button", "note", "text"],
                 refs={"save_button"}),
        make_doc(1, "net/SyncService.java",
                 ["sync", "service", "cloud", "upload", "note"]),
        make_doc(2, "data/NoteStore.java", ["note", "store", "database", "row"]),
    ]
    return build_index(docs)


def _mini_case():
    report = BugReport(
        report_id="r1",
        title="Lost my note",
        body="The app crashed while the cloud sync was running and my note vanished.",
        ground_truth={"ui/EditorActivity.java"},
    )
    trace = make_trace(
        "r1",
        [
            make_screen(0, "com.app.EditorActivity", components=[
                make_component("save_button", text="Save", exercised=True, action="click"),
            ]),
            make_screen(1, "com.app.EditorActivity", components=[
                make_component("save_button", text="Save"),
            ]),
        ],
    )
    return report, trace


def test_localize_end_to_end_boosts_gui_file():
    index = _mini_index()
    report, trace = _mini_case()
    base = localize(report, trace, index, PipelineConfig())
    assert base.paths()[0] != "ui/EditorActivity.java"
    gui = localize(
        report, trace, index,
        PipelineConfig(query_strategy="expand", rerank_strategy="filter_boost"),
    )
    assert gui.paths()[0] == "ui/EditorActivity.java"
    flags = {e.path: e.gui_flags for e in gui.entries}
    assert {"activity", "listener"} <= flags["ui/EditorActivity.java"]


def test_localize_respects_top_k():
    index = _mini_index()
    report, trace = _mini_case()
    out = localize(report, trace, index, PipelineConfig(top_k=1))
    assert len(out.entries) == 1


def test_localize_is_deterministic():
    index = _mini_index()
    report, trace = _mini_case()
    config = PipelineConfig(query_strategy="expand", rerank_strategy="boost")
    first = localize(report, trace, index, config)
    second = localize(report, trace, index, config)
    assert [(e.path, e.score, sorted(e.gui_flags)) for e in first.entries] == [
        (e.path, e.score, sorted(e.gui_flags)) for e in second.entries
    ]
    assert first.query_terms_used == second.query_terms_used


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(scorer="lucene").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(query_strategy="bogus").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(rerank_strategy="bogus").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(window=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(term_sources=("widget",)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(expansion_weight=0.0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(top_k=0).validate()
    PipelineConfig().validate()


def test_localize_base_none_skips_gui_context(monkeypatch):
    import guiloc.pipeline as pipeline

    index = _mini_index()
    report, trace = _mini_case()
    configs = [PipelineConfig(scorer=s) for s in ("bm25", "rvsm")]
    before = [localize(report, trace, index, c) for c in configs]

    def unused(*args, **kwargs):
        raise AssertionError("gui_context called for base + none")

    monkeypatch.setattr(pipeline, "gui_context", unused)
    for config, want in zip(configs, before):
        got = localize(report, trace, index, config)
        assert [(e.path, e.score, e.gui_flags) for e in got.entries] == [
            (e.path, e.score, e.gui_flags) for e in want.entries
        ]
        assert (got.query_terms_used, got.flags) == (want.query_terms_used, want.flags)
    with pytest.raises(AssertionError):
        localize(report, trace, index, PipelineConfig(rerank_strategy="boost"))

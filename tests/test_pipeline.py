from __future__ import annotations

import random
from collections import Counter

import pytest

from guiloc.corpus import scan_corpus
from guiloc.errors import ConfigError
from guiloc.evaluation import load_dataset
from guiloc.index import SCORERS, RankEntry, RankedList, build_index, rank
from guiloc.mapping import COMPONENT_THRESHOLD, GuiContext, gui_context
from guiloc.pipeline import (
    QUERY_STRATEGIES,
    PipelineConfig,
    apply_rerank,
    build_query,
    localize,
)
from guiloc.reports import BugReport

from conftest import FIXTURES, make_component, make_doc, make_screen, make_trace


def _ranked(paths):
    return RankedList(
        entries=[RankEntry(path=p, score=float(len(paths) - i)) for i, p in enumerate(paths)],
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
    query, flags = build_query(["crash", "save", "crash"], Counter({"editor": 2}), "base")
    assert query == {"crash": 2, "save": 1}
    assert flags == []


def test_build_query_expand_appends_with_multiplicity():
    query, flags = build_query(["crash", "save"], Counter({"editor": 2, "save": 1}), "expand")
    assert query == {"crash": 1, "save": 2, "editor": 2}
    assert list(query) == ["crash", "save", "editor"]
    assert flags == []


def test_build_query_expand_weight_multiplies():
    query, _ = build_query(["crash"], Counter({"editor": 1}), "expand", expansion_weight=2.0)
    assert query == {"crash": 1, "editor": 2}
    query, _ = build_query(["crash"], Counter({"editor": 1}), "expand", expansion_weight=1.4)
    assert query == {"crash": 1, "editor": 1.4}


def test_build_query_replace_and_fallback():
    query, flags = build_query(["crash"], Counter({"editor": 1}), "replace", expansion_weight=0.5)
    assert query == {"editor": 0.5}
    assert flags == []
    query, flags = build_query(["crash"], Counter(), "replace")
    assert query == {"crash": 1}
    assert flags == ["replace-fallback"]


def test_build_query_unknown_strategy():
    with pytest.raises(ConfigError):
        build_query(["x"], Counter(), "merge")


def _repeated_query(report_terms, gui_terms, strategy, repeat):
    """The reference query form: a term list holding each GUI term count * repeat times."""
    gui = [term for term, count in gui_terms.items() for _ in range(count * repeat)]
    if strategy == "base" or not gui:
        return list(report_terms)
    return list(report_terms) + gui if strategy == "expand" else gui


@pytest.mark.parametrize("corpus", ["fixture", "seeded"])
def test_integer_weights_score_like_the_repeated_term_list(corpus):
    if corpus == "fixture":
        index = build_index(scan_corpus(FIXTURES / "app"))
        cases = [
            (index.preprocessor.tokens(r.full_text()), gui_context(t, 3, index).terms)
            for r, t in load_dataset(FIXTURES / "reports", FIXTURES / "traces")
        ]
    else:
        rng = random.Random(61)
        vocab = [f"w{i}" for i in range(30)]
        index = build_index(
            [make_doc(f"f{i:02d}.java", rng.choices(vocab, k=rng.randint(1, 30))) for i in range(40)]
        )
        gui_vocab = vocab + ["absent"]
        cases = [
            (rng.choices(vocab, k=rng.randint(0, 10)), Counter(rng.choices(gui_vocab, k=rng.randint(0, 8))))
            for _ in range(20)
        ]
    for report_terms, gui_terms in cases:
        for strategy in QUERY_STRATEGIES:
            for weight in (1, 2, 3):
                query, _ = build_query(report_terms, gui_terms, strategy, float(weight))
                reference = _repeated_query(report_terms, gui_terms, strategy, weight)
                for scorer in SCORERS:
                    assert rank(index, query, scorer).entries == rank(index, reference, scorer).entries


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
        make_doc("ui/EditorActivity.java",
                 ["editor", "activity", "save", "button", "note", "text"],
                 refs={"save_button"}),
        make_doc("net/SyncService.java",
                 ["sync", "service", "cloud", "upload", "note"]),
        make_doc("data/NoteStore.java", ["note", "store", "database", "row"]),
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
            make_screen("com.app.EditorActivity", components=[
                make_component("save_button", text="Save", exercised=True, action="click"),
            ]),
            make_screen("com.app.EditorActivity", components=[
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
    assert first.flags == second.flags


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


def test_component_threshold_is_fixed_but_still_printed():
    assert PipelineConfig().component_threshold == COMPONENT_THRESHOLD == 0.5
    assert PipelineConfig().to_json()["component_threshold"] == 0.5
    with pytest.raises(TypeError):
        PipelineConfig(component_threshold=0.3)


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
        assert got.flags == want.flags
    with pytest.raises(AssertionError):
        localize(report, trace, index, PipelineConfig(rerank_strategy="boost"))


def test_localize_top_k_equals_the_truncated_reranked_ranking(monkeypatch):
    """localize's heap top k == apply_rerank over rank()'s full list, cut to k.

    Paths run against doc-id order, one term bag is shared by several files
    so their scores tie, and some files match no query term.
    """
    import guiloc.pipeline as pipeline

    rng = random.Random(97)
    vocab = ["save", "note", "sync", "crash", "editor", "list"]
    shared = rng.choices(vocab, k=4)
    n = 30
    paths = [f"p{i:02d}.java" for i in rng.sample(range(n), n)]
    bags = [
        shared if i % 4 == 0 else ["unrelated"] if i % 7 == 3 else rng.choices(vocab, k=rng.randint(1, 6))
        for i in range(n)
    ]
    index = build_index([make_doc(path, bag) for path, bag in zip(paths, bags)])
    report = BugReport(report_id="r1", title="note crash", body="save the note, sync the list; editor")
    trace = make_trace("r1", [make_screen("com.app.Main")])
    scored = [p for p, bag in zip(paths, bags) if bag != ["unrelated"]]
    unscored = [p for p, bag in zip(paths, bags) if bag == ["unrelated"]]
    contexts = [
        _ctx(),  # the filter fallback
        _ctx(activity=scored[:8], listener=scored[8:14]),  # more boosted files than k
        _ctx(component=unscored),  # gui-related files of which none scored
        _ctx(activity=unscored[:1], component=scored[::3]),
    ] + [
        _ctx(activity=rng.sample(paths, 3), listener=rng.sample(paths, 2), component=rng.sample(paths, 9))
        for _ in range(4)
    ]
    query, query_flags = build_query(index.preprocessor.tokens(report.full_text()), Counter(), "base")
    for ctx in contexts:
        monkeypatch.setattr(pipeline, "gui_context", lambda *args, **kwargs: ctx)
        for scorer in SCORERS:
            for strategy in ("none", "filter", "boost", "filter_boost"):
                full = apply_rerank(rank(index, query, scorer), ctx, strategy)
                for k in (1, 3, 10, n):
                    config = PipelineConfig(scorer=scorer, rerank_strategy=strategy, top_k=k)
                    got = localize(report, trace, index, config)
                    assert [(e.path, e.score, e.gui_flags) for e in got.entries] == [
                        (e.path, e.score, e.gui_flags) for e in full.entries[:k]
                    ], (scorer, strategy, k)
                    assert got.flags == sorted(set(full.flags) | set(query_flags))

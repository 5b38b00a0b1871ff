from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from guiloc.corpus import Preprocessor
from guiloc.errors import ConfigError
from guiloc.index import build_index
from guiloc.mapping import (
    COMPONENT_THRESHOLD,
    GuiContext,
    TERM_SOURCES,
    extract_gui_terms,
    gui_context,
    match_activity_files,
    match_component_files,
    match_listener_files,
)

from conftest import make_component, make_doc, make_screen, make_trace


def _settings_trace():
    return make_trace(
        "t",
        [
            make_screen("com.app.MainActivity", components=[
                make_component("open_settings", text="Settings", exercised=True, action="click"),
            ]),
            make_screen("com.app.SettingsActivity", window="com.app.SettingsWindow", components=[
                make_component("theme_toggle", text="Dark theme", desc="toggle theme", exercised=True, action="click"),
                make_component("font_size", text="Font size"),
            ]),
            make_screen("com.app.SettingsActivity", components=[
                make_component("theme_toggle", text="Dark theme"),
            ]),
        ],
    )


def _docs():
    return [
        make_doc("ui/MainActivity.java", ["main", "activity", "toolbar"], refs={"open_settings"}),
        make_doc("ui/SettingsActivity.java", ["settings", "activity", "theme", "toggle"], refs={"theme_toggle", "font_size"}),
        make_doc("util/ThemeManager.java", ["theme", "dark", "palette"], refs={"theme_toggle"}),
        make_doc("data/NoteStore.java", ["note", "store", "database"]),
        make_doc("ui/SettingsWindow.java", ["settings", "window"]),
    ]


def test_extract_terms_from_selected_sources():
    trace = _settings_trace()
    terms = extract_gui_terms(trace, 1, sources=("activity",))
    assert terms == Counter({"com": 1, "app": 1, "settings": 1, "activity": 1})


def test_extract_terms_keep_multiplicity_across_screens():
    trace = _settings_trace()
    terms = extract_gui_terms(trace, 3, sources=("component_id",))
    assert terms["theme"] == 2
    assert terms["toggle"] == 2
    assert terms["open"] == 1


def test_extract_terms_window_monotone():
    trace = _settings_trace()
    rng = random.Random(41)
    for _ in range(20):
        small = rng.randint(1, 2)
        large = rng.randint(small, 5)
        t_small = extract_gui_terms(trace, small)
        t_large = extract_gui_terms(trace, large)
        assert set(t_small) <= set(t_large)
        for term, count in t_small.items():
            assert t_large[term] >= count


def _walk_gui_terms(trace, window, sources):
    """extract_gui_terms written out: per screen its activity, then window; per component its
    id, text, description and type."""
    pre, terms = Preprocessor(), []
    for screen in trace.screens[-window:]:
        if "activity" in sources:
            terms += pre.tokens(screen.activity_name)
        if "window_name" in sources:
            terms += pre.tokens(screen.window_name)
        for comp in screen.components:
            if "component_id" in sources:
                terms += pre.tokens(comp.resource_id)
            if "component_text" in sources:
                terms += pre.tokens(comp.text)
            if "content_desc" in sources:
                terms += pre.tokens(comp.content_desc)
            if "type" in sources:
                terms += pre.tokens(comp.component_type)
    return list(Counter(terms).items())


def test_extract_terms_counts_in_source_order_for_every_source_set():
    # sources share terms ("main", "save", "note", "button"), so the order of
    # first appearance tells the sources' order apart
    trace = make_trace("t", [
        make_screen("com.app.MainActivity", window="com.app.NoteWindow", components=[
            make_component("save_button", text="Save note", desc="main button", exercised=True, action="click"),
            make_component("note_list", ctype="ListView", text="Notes"),
        ]),
        make_screen("com.app.NoteActivity", components=[
            make_component("note_title", ctype="EditText", text="Main title", desc="save"),
        ]),
    ])
    for size in range(1, len(TERM_SOURCES) + 1):
        for sources in combinations(TERM_SOURCES, size):
            for given in (sources, sources[::-1]):
                for window in (1, 2):
                    want = _walk_gui_terms(trace, window, sources)
                    assert list(extract_gui_terms(trace, window, sources=given).items()) == want


def test_extract_terms_rejects_unknown_source():
    with pytest.raises(ConfigError):
        extract_gui_terms(_settings_trace(), 3, sources=("activity", "widget"))
    with pytest.raises(ConfigError):
        extract_gui_terms(_settings_trace(), 3, sources=())


def test_activity_match_uses_basenames_case_sensitively():
    trace = _settings_trace()
    docs = _docs()
    assert match_activity_files(trace, 1, docs) == {"ui/SettingsActivity.java"}
    assert match_activity_files(trace, 3, docs) == {
        "ui/MainActivity.java",
        "ui/SettingsActivity.java",
        "ui/SettingsWindow.java",
    }
    lower = [make_doc("ui/settingsactivity.java", ["x"])]
    assert match_activity_files(trace, 1, lower) == set()


def test_listener_match_intersects_exercised_ids():
    trace = _settings_trace()
    docs = _docs()
    # the last screen has no exercised component
    assert match_listener_files(trace, 1, docs) == set()
    assert match_listener_files(trace, 2, docs) == {
        "ui/SettingsActivity.java",
        "util/ThemeManager.java",
    }
    assert match_listener_files(trace, 3, docs) == {
        "ui/MainActivity.java",
        "ui/SettingsActivity.java",
        "util/ThemeManager.java",
    }


def test_component_match_threshold_is_inclusive():
    pre = Preprocessor()
    trace = make_trace(
        "t",
        [
            make_screen("com.app.A", components=[
                make_component("save_button", exercised=True, action="click"),
            ]),
            make_screen("com.app.B"),
        ],
    )
    half = [make_doc("Half.java", ["save", "unrelated"])]
    assert match_component_files(trace, 2, half, pre) == {"Half.java"}
    below = [make_doc("Below.java", ["unrelated", "words"])]
    assert match_component_files(trace, 2, below, pre) == set()


def test_component_match_skips_empty_term_components():
    trace = make_trace(
        "t",
        [
            make_screen("com.app.A", components=[
                make_component("", exercised=True, action="click"),
            ]),
            make_screen("com.app.B"),
        ],
    )
    docs = [make_doc("Any.java", ["whatever"])]
    assert match_component_files(trace, 2, docs) == set()


def test_gui_context_sets_and_window():
    trace = _settings_trace()
    ctx = gui_context(trace, 3, build_index(_docs()))
    assert ctx.window_used == 3
    assert ctx.boosted == ctx.activity_files | ctx.listener_files
    assert ctx.gui_related == ctx.boosted | ctx.component_files
    assert ctx.boosted <= ctx.gui_related
    assert "ui/SettingsActivity.java" in ctx.boosted


def test_gui_context_random_sets_keep_subset_invariant():
    rng = random.Random(42)
    files = [f"f{i}.java" for i in range(12)]
    for _ in range(100):
        ctx = GuiContext(
            terms=Counter(),
            activity_files={f for f in files if rng.random() < 0.3},
            listener_files={f for f in files if rng.random() < 0.3},
            component_files={f for f in files if rng.random() < 0.3},
            window_used=rng.randint(1, 5),
        )
        assert ctx.boosted <= ctx.gui_related


def test_window_growth_never_shrinks_matches():
    trace = _settings_trace()
    docs = _docs()
    for small, large in ((1, 2), (2, 3), (1, 3), (3, 6)):
        assert match_activity_files(trace, small, docs) <= match_activity_files(trace, large, docs)
        assert match_listener_files(trace, small, docs) <= match_listener_files(trace, large, docs)
        assert match_component_files(trace, small, docs) <= match_component_files(trace, large, docs)


def test_component_match_equals_set_intersection_definition():
    rng = random.Random(7)
    pre = Preprocessor()
    words = ["save", "note", "theme", "dark", "font", "size", "sync", "tag"]
    for _ in range(200):
        comps = [
            make_component(
                "_".join(rng.sample(words, rng.randint(0, 3))),
                text=" ".join(rng.sample(words, rng.randint(0, 2))),
                exercised=rng.random() < 0.7,
                action="click",
            )
            for _ in range(rng.randint(1, 4))
        ]
        trace = make_trace("t", [make_screen("com.app.A", components=comps)])
        docs = [
            make_doc(f"f{i}.java", rng.sample(words, rng.randint(1, 5)))
            for i in range(rng.randint(1, 8))
        ]
        threshold = rng.choice([0.25, 0.5, 0.5, 2 / 3, 1.0])
        comp_sets = [
            ts
            for ts in (
                pre.term_set(" ".join([c.resource_id, c.text, c.content_desc]))
                for c in comps
                if c.exercised
            )
            if ts
        ]
        want = {
            d.path
            for d in docs
            if any(len(set(d.terms) & ts) / len(ts) >= threshold for ts in comp_sets)
        }
        assert match_component_files(trace, 1, docs, pre, threshold) == want
        if threshold == COMPONENT_THRESHOLD:
            assert gui_context(trace, 1, build_index(docs)).component_files == want



def test_gui_context_on_an_index_matches_the_document_matchers():
    """The index-level lists and postings give the sets the matchers give over documents."""
    rng = random.Random(11)
    words = ["save", "note", "theme", "dark", "font", "size", "sync", "tag"]
    classes = ["MainActivity", "SettingsActivity", "NoteStore", "ThemeManager"]
    for _ in range(100):
        screens = [
            make_screen(
                f"com.app.{rng.choice(classes)}",
                window=rng.choice(["", f"com.app.{rng.choice(classes)}"]),
                components=[
                    make_component(
                        "_".join(rng.sample(words, rng.randint(0, 2))),
                        text=" ".join(rng.sample(words, rng.randint(0, 2))),
                        exercised=True,
                        action="click",
                    )
                ],
            )
            for _ in range(rng.randint(1, 4))
        ]
        trace = make_trace("t", screens)
        docs = [
            make_doc(
                f"p{i}/{rng.choice(classes)}.java",
                rng.sample(words, rng.randint(0, 5)),
                refs={"_".join(rng.sample(words, 2)) for _ in range(rng.randint(0, 3))},
            )
            for i in range(rng.randint(1, 8))
        ]
        index = build_index(docs)
        for window in (1, 2, 4):
            ctx = gui_context(trace, window, index)
            assert ctx.activity_files == match_activity_files(trace, window, docs)
            assert ctx.listener_files == match_listener_files(trace, window, docs)
            assert ctx.component_files == match_component_files(trace, window, docs)
            assert ctx.terms == extract_gui_terms(trace, window)

from __future__ import annotations

import random
from collections import Counter

from guiloc.corpus import DEFAULT_PREPROCESSOR
from guiloc.reports import S2RStep
from guiloc.step_mapping import (
    AMBIGUITY_MARGIN,
    MATCH_THRESHOLD,
    detect_missing_steps,
    map_steps_to_model,
    step_object_terms,
)
from guiloc.traces import (
    ExecutionModel,
    ModelEdge,
    build_execution_model,
    load_model,
    save_model,
    screen_fingerprint,
)

from conftest import make_component, make_screen, make_trace


def _linear_model():
    # A -(click go_list)-> B -(click open_editor)-> C -(click save_button)-> D
    screens = [
        make_screen("com.app.A", components=[
            make_component("go_list", text="Notes", exercised=True, action="click"),
        ]),
        make_screen("com.app.B", components=[
            make_component("open_editor", text="New note", exercised=True, action="click"),
        ]),
        make_screen("com.app.C", components=[
            make_component("save_button", text="Save", exercised=True, action="click"),
        ]),
        make_screen("com.app.D", components=[make_component("done")]),
    ]
    trace = make_trace("t", screens)
    return build_execution_model([trace]), screens


def _step(action, obj, obj2=None, prep=None):
    return S2RStep(subject="user", action=action, object=obj, preposition=prep, object2=obj2)


def test_exact_match():
    model, _ = _linear_model()
    matches = map_steps_to_model([_step("click", "save button")], model)
    assert matches[0].status == "matched"
    assert matches[0].matched_edge.resource_id == "save_button"
    assert matches[0].similarity >= 0.5


def test_wrong_action_is_unmatched():
    model, _ = _linear_model()
    matches = map_steps_to_model([_step("swipe", "save button")], model)
    assert matches[0].status == "unmatched"
    assert matches[0].matched_edge is None


def test_low_overlap_is_unmatched():
    model, _ = _linear_model()
    matches = map_steps_to_model([_step("click", "completely unrelated thing")], model)
    assert matches[0].status == "unmatched"


def test_identical_components_on_two_screens_are_ambiguous():
    screens = [
        make_screen("com.app.A", components=[
            make_component("save_button", text="Save", exercised=True, action="click"),
        ]),
        make_screen("com.app.B", components=[
            make_component("save_button", text="Save", exercised=True, action="click"),
        ]),
        make_screen("com.app.C"),
    ]
    model = build_execution_model([make_trace("t", screens)])
    matches = map_steps_to_model([_step("click", "save button")], model)
    assert matches[0].status == "ambiguous"
    # ties keep the earliest edge in insertion order
    assert matches[0].matched_edge.src == screen_fingerprint(screens[0])


def test_object2_terms_count_toward_similarity():
    screens = [
        make_screen("com.app.A", components=[
            make_component("search_field", text="Search", exercised=True, action="type"),
        ]),
        make_screen("com.app.B"),
    ]
    model = build_execution_model([make_trace("t", screens)])
    step = _step("type", "'hello'", obj2="search field", prep="in")
    matches = map_steps_to_model([step], model)
    assert matches[0].status == "matched"


# made-up words: one term each, in no stopword list
WORDS = [f"zq{a}{b}" for a in "abcdefgh" for b in "abcdefgh"]


def _click_model(*texts):
    """One click edge per text, in order; resource ids 'x1', 'x2', ... add no terms."""
    edges = [
        ModelEdge("s", f"d{i}", make_component(f"x{i}", text=t, exercised=True, action="click"))
        for i, t in enumerate(texts, 1)
    ]
    return ExecutionModel(edges=edges, entry_fingerprints=set())


def test_similarity_at_the_match_threshold_is_matched():
    model = _click_model(" ".join(WORDS[:60]))
    at_threshold = _step("click", " ".join(WORDS[:30]))
    just_below = _step("click", " ".join(WORDS[:30] + WORDS[60:61]))
    at, below = map_steps_to_model([at_threshold, just_below], model)
    assert at.similarity == MATCH_THRESHOLD == 30 / 60
    assert at.status == "matched"
    assert below.similarity == 30 / 61 < MATCH_THRESHOLD
    assert (below.status, below.matched_edge) == ("unmatched", None)


def test_runner_up_within_the_ambiguity_margin_makes_a_step_ambiguous():
    step = _step("click", " ".join(WORDS[:20]))
    inside = _click_model(" ".join(WORDS[:20]), " ".join(WORDS[:21]))
    outside = _click_model(" ".join(WORDS[:20]), " ".join(WORDS[:22]))
    (ambiguous,) = map_steps_to_model([step], inside)
    (matched,) = map_steps_to_model([step], outside)
    assert 1.0 - AMBIGUITY_MARGIN < 20 / 21 and 20 / 22 < 1.0 - AMBIGUITY_MARGIN
    assert (ambiguous.status, ambiguous.similarity) == ("ambiguous", 1.0)
    assert (matched.status, matched.similarity) == ("matched", 1.0)
    assert ambiguous.matched_edge is inside.edges[0] and matched.matched_edge is outside.edges[0]


def test_a_tie_goes_to_the_earliest_edge_whatever_the_order_terms_are_met():
    # the step's first term, in the order the matcher walks its set, is held
    # only by the later edge, so the later edge is the first one counted
    step = _step("click", " ".join(WORDS[:3]))
    first, *rest = step_object_terms(step)
    model = _click_model(" ".join(rest), f"{first} {rest[0]}")
    (match,) = map_steps_to_model([step], model)
    assert next(iter(step_object_terms(step))) == first
    assert (match.status, match.similarity) == ("ambiguous", 2 / 3)
    assert match.matched_edge is model.edges[0]


def test_the_runner_up_of_a_single_shared_edge_is_zero():
    # only the first edge shares a term; 1 / 2 is the threshold, and a
    # runner-up of 0.0 is outside the ambiguity margin
    model = _click_model(WORDS[0], WORDS[1], WORDS[2])
    alone, none_shared = map_steps_to_model(
        [_step("click", " ".join(WORDS[0:4:3])), _step("click", WORDS[3])], model
    )
    assert (alone.status, alone.similarity) == ("matched", MATCH_THRESHOLD)
    assert alone.matched_edge is model.edges[0]
    assert (none_shared.status, none_shared.similarity, none_shared.matched_edge) == (
        "unmatched", 0.0, None
    )


def test_edges_by_action_is_built_once_per_model():
    model, _ = _linear_model()
    first = model.edges_by_action
    map_steps_to_model([_step("click", "save button")], model)
    assert model.edges_by_action is first
    click = first["click"]
    assert [e.resource_id for e in click.edges] == ["go_list", "open_editor", "save_button"]
    # go_list "Notes", open_editor "New note" ("new" is a stopword), save_button "Save"
    assert click.sizes == [3, 3, 2]
    assert click.holders == {
        "go": [0], "list": [0], "notes": [0], "open": [1], "editor": [1], "note": [1],
        "save": [2], "button": [2],
    }


def _brute_force_matches(steps, model, seen):
    """(edge, similarity, status) per step from a set Jaccard of every same-action edge.

    The best edge is the earliest of the highest similarity and the
    runner-up is the highest similarity of the other edges. `seen` counts
    the cases the indexed matcher must get right.
    """
    out = []
    for step in steps:
        a = step_object_terms(step)
        scored = []
        for edge in model.edges:
            if edge.action == step.action:
                b = edge.component.term_set(DEFAULT_PREPROCESSOR)
                seen["component without terms"] += not b
                scored.append((edge, len(a & b) / len(a | b) if a and b else 0.0))
        seen["step without terms"] += not a
        seen["action without edges"] += not scored
        best_sim = max((sim for _, sim in scored), default=0.0)
        best = next((i for i, (_, sim) in enumerate(scored) if sim == best_sim), None)
        runner_up = max((sim for i, (_, sim) in enumerate(scored) if i != best), default=0.0)
        if best_sim < MATCH_THRESHOLD:
            out.append((None, best_sim, "unmatched"))
            continue
        seen["at the threshold"] += best_sim == MATCH_THRESHOLD
        seen["tied best"] += runner_up == best_sim
        seen["runner-up at the margin"] += runner_up == best_sim - AMBIGUITY_MARGIN
        status = "ambiguous" if runner_up >= best_sim - AMBIGUITY_MARGIN else "matched"
        out.append((scored[best][0], best_sim, status))
    return out


def test_indexed_matcher_equals_a_jaccard_over_every_same_action_edge():
    rng = random.Random(18)
    vocab = WORDS[:10]

    def words():
        return " ".join(rng.sample(vocab, rng.randint(0, 6)))

    def near(base, flips):
        """`base` with `flips` vocabulary words added or dropped, so that
        steps and edges share most terms and similarities tie or sit close."""
        return " ".join(sorted(set(base) ^ set(rng.sample(vocab, flips))))

    seen = Counter()
    for _ in range(300):
        base = rng.sample(vocab, rng.randint(3, 5))
        edges = []
        for i in range(rng.randint(0, 12)):
            action = rng.choice(("click", "type"))
            component = make_component(
                rng.choice(("", f"x{i}", rng.choice(vocab))),  # ids like "x1" add no terms
                text=near(base, rng.randint(1, 2)) if rng.random() < 0.7 else words(),
                desc=rng.choice(("", "", rng.choice(vocab))),
                exercised=True,
                action=action,
            )
            edges.append(ModelEdge("s", f"d{i}", component))
        model = ExecutionModel(edges=edges, entry_fingerprints=set())
        steps = [
            _step(
                rng.choice(("click", "type", "pinch")),
                near(base, rng.randint(0, 1)) if rng.random() < 0.7 else words(),
                rng.choice((None, None, words())),
            )
            for _ in range(8)
        ]
        want = _brute_force_matches(steps, model, seen)
        got = [(m.matched_edge, m.similarity, m.status) for m in map_steps_to_model(steps, model)]
        assert [(id(e), sim, status) for e, sim, status in got] == [
            (id(e), sim, status) for e, sim, status in want
        ]
    for case in (
        "component without terms", "step without terms", "action without edges",
        "at the threshold", "tied best", "runner-up at the margin",
    ):
        assert seen[case] > 0, case


def test_a_loaded_model_matches_steps_as_the_built_model_does(tmp_path):
    # two rows share an id and the trace clicks the second; then a component without an id
    screens = [
        make_screen("com.app.Mail", components=[
            make_component("row_title", text="Archive"),
            make_component("row_title", text="Inbox", exercised=True, action="click"),
        ]),
        make_screen("com.app.Inbox", components=[
            make_component("", text="Compose", desc="Message draft", exercised=True, action="click"),
        ]),
        make_screen("com.app.Compose"),
    ]
    built = build_execution_model([make_trace("t", screens)])
    save_model(built, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    steps = [_step("click", "Inbox row title"), _step("click", "compose message draft")]

    def outcome(model):
        return [
            (m.matched_edge and m.matched_edge.key(), m.similarity, m.status)
            for m in map_steps_to_model(steps, model)
        ]

    assert [(sim, status) for _, sim, status in outcome(built)] == [(1.0, "matched")] * 2
    assert outcome(loaded) == outcome(built)


def test_missing_middle_edge_is_reported_exactly():
    model, _ = _linear_model()
    # report matches the A->B edge and then the C->D edge; B->C is skipped
    steps = [_step("click", "go list"), _step("click", "save button")]
    matches = map_steps_to_model(steps, model)
    assert [m.status for m in matches] == ["matched", "matched"]
    report = detect_missing_steps(matches, model)
    assert len(report.gaps) == 1
    gap = report.gaps[0]
    assert gap.after_step == 0 and gap.before_step == 1
    assert not gap.infeasible
    assert [e.resource_id for e in gap.missing] == ["open_editor"]


_COMPONENTS = {"A": ["start_button"], "B": ["open_editor"],
               "C": ["close_button", "settings_button"], "D": ["save_button"], "E": ["done"]}


def _screen(name, exercised=None):
    """Screen `name` of _COMPONENTS, the component `exercised` clicked on it."""
    return make_screen(f"com.app.{name}", components=[
        make_component(i, exercised=i == exercised, action="click" if i == exercised else None)
        for i in _COMPONENTS[name]
    ])


def test_a_gap_of_two_edges_past_an_edge_back_to_a_seen_screen():
    """The search from B meets C's edge back to B before C's edge on to D."""
    back = make_trace("back", [_screen("B", "open_editor"), _screen("C", "close_button"),
                               _screen("B")])
    on = make_trace("on", [_screen("A", "start_button"), _screen("B", "open_editor"),
                           _screen("C", "settings_button"), _screen("D", "save_button"),
                           _screen("E")])
    model = build_execution_model([back, on])
    c_edges = model.adjacency[screen_fingerprint(_screen("C"))]
    assert [e.resource_id for e in c_edges] == ["close_button", "settings_button"]
    steps = [_step("click", "start button"), _step("click", "save button")]
    matches = map_steps_to_model(steps, model)
    assert [m.status for m in matches] == ["matched", "matched"]
    [gap] = detect_missing_steps(matches, model).gaps
    assert (gap.after_step, gap.before_step, gap.infeasible) == (0, 1, False)
    assert [e.resource_id for e in gap.missing] == ["open_editor", "settings_button"]


def test_adjacent_matches_produce_no_gap():
    model, _ = _linear_model()
    steps = [_step("click", "go list"), _step("click", "open editor")]
    matches = map_steps_to_model(steps, model)
    assert detect_missing_steps(matches, model).gaps == []


def test_unreachable_gap_is_infeasible():
    # two disconnected segments: A->B and C->D
    seg1 = [
        make_screen("com.app.A", components=[
            make_component("alpha_go", text="alpha", exercised=True, action="click"),
        ]),
        make_screen("com.app.B"),
    ]
    seg2 = [
        make_screen("com.app.C", components=[
            make_component("gamma_go", text="gamma", exercised=True, action="click"),
        ]),
        make_screen("com.app.D"),
    ]
    model = build_execution_model([make_trace("t1", seg1), make_trace("t2", seg2)])
    steps = [_step("click", "alpha go"), _step("click", "gamma go")]
    matches = map_steps_to_model(steps, model)
    assert [m.status for m in matches] == ["matched", "matched"]
    report = detect_missing_steps(matches, model)
    assert len(report.gaps) == 1
    assert report.gaps[0].infeasible
    assert report.gaps[0].missing == []


def test_missing_edges_form_connected_subpaths():
    model, _ = _linear_model()
    steps = [_step("click", "go list"), _step("click", "save button")]
    report = detect_missing_steps(map_steps_to_model(steps, model), model)
    for gap in report.gaps:
        for prev, nxt in zip(gap.missing, gap.missing[1:]):
            assert prev.dst == nxt.src

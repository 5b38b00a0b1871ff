from __future__ import annotations

import json
import random

import pytest

from guiloc.errors import ConfigError, InputError
from guiloc.traces import (
    ACTIONS,
    build_execution_model,
    last_screens,
    load_model,
    parse_trace,
    save_model,
    screen_fingerprint,
    trace_from_dict,
)

from conftest import make_component, make_screen, make_trace


def _trace_dict(screens):
    return {"trace_id": "t1", "screens": screens}


def _screen_dict(activity, components, window=""):
    return {"activity_name": activity, "window_name": window, "components": components}


def _comp_dict(rid, exercised=False, action=None, text=""):
    return {
        "resource_id": rid,
        "type": "Button",
        "text": text,
        "content_desc": "",
        "exercised": exercised,
        "action": action,
    }


def test_parse_valid_trace(tmp_path):
    data = _trace_dict(
        [
            _screen_dict("com.app.Main", [_comp_dict("go", True, "click")]),
            _screen_dict("com.app.Editor", []),
        ]
    )
    path = tmp_path / "t.json"
    path.write_text(json.dumps(data))
    trace = parse_trace(path)
    assert trace.trace_id == "t1"
    assert trace.screens[-1].activity_name == "com.app.Editor"


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"screens": [\n  {"activity_name": }\n]}')
    with pytest.raises(InputError, match="line 2"):
        parse_trace(path)


def _bad_component(**fields):
    return [_screen_dict("com.app.Main", [{**_comp_dict("x"), **fields}])]


def _bad_screen(**fields):
    return [{**_screen_dict("com.app.Main", []), **fields}]


_STRING = "must be a string or null, got"
_FLAG = "must be true or false or null, got"


@pytest.mark.parametrize(
    "screens, message",
    [
        ([7], " screen 0 must be an object, got an integer"),
        ([_screen_dict("A", [7])], " screen 0 component 0 must be an object, got an integer"),
        (_bad_component(resource_id=5), f" screen 0 component 0: 'resource_id' {_STRING} an integer"),
        ("not a list", ": 'screens' must be a list or null, got a string"),
        ([None], " screen 0 must be an object, got null"),
        ([_screen_dict("A", [["x"]])], " screen 0 component 0 must be an object, got a list"),
        (_bad_component(type=["Button"]), f" screen 0 component 0: 'type' {_STRING} a list"),
        (_bad_component(text=1.5), f" screen 0 component 0: 'text' {_STRING} a number"),
        (_bad_component(content_desc={}), f" screen 0 component 0: 'content_desc' {_STRING} an object"),
        (_bad_component(action=True), f" screen 0 component 0: 'action' {_STRING} true or false"),
        (_bad_component(exercised="yes"), f" screen 0 component 0: 'exercised' {_FLAG} a string"),
        (_bad_component(exercised=1), f" screen 0 component 0: 'exercised' {_FLAG} an integer"),
        (_bad_screen(activity_name=7), f" screen 0: 'activity_name' {_STRING} an integer"),
        (_bad_screen(window_name=False), f" screen 0: 'window_name' {_STRING} true or false"),
        (_bad_screen(components={}), " screen 0: 'components' must be a list or null, got an object"),
        (
            [_screen_dict("A", [_comp_dict("x"), {**_comp_dict("y"), "type": 5}])],
            f" screen 0 component 1: 'type' {_STRING} an integer",
        ),
    ],
    ids=[
        "screen-not-object", "component-not-object", "number-resource-id", "screens-not-list",
        "null-screen", "list-component", "list-type", "number-text", "object-content-desc",
        "bool-action", "string-exercised", "integer-exercised", "number-activity-name",
        "bool-window-name", "object-components", "number-type-of-second-component",
    ],
)
def test_malformed_trace_shapes_are_input_errors(screens, message):
    with pytest.raises(InputError) as exc_info:
        trace_from_dict(_trace_dict(screens))
    assert str(exc_info.value) == f"trace 't1'{message}"


def test_screen_needs_exactly_one_exercised_before_last():
    with pytest.raises(InputError, match="screen 0"):
        trace_from_dict(
            _trace_dict([_screen_dict("A", []), _screen_dict("B", [])])
        )
    with pytest.raises(InputError, match="exercised"):
        trace_from_dict(
            _trace_dict(
                [
                    _screen_dict("A", [_comp_dict("x", True, "click"), _comp_dict("y", True, "click")]),
                    _screen_dict("B", []),
                ]
            )
        )


def test_action_requires_exercised_and_vocabulary():
    with pytest.raises(InputError, match="not exercised"):
        trace_from_dict(_trace_dict([_screen_dict("A", [_comp_dict("x", False, "click")])]))
    with pytest.raises(InputError, match="unknown action"):
        trace_from_dict(_trace_dict([_screen_dict("A", [_comp_dict("x", True, "shake")])]))


def test_exercised_on_transition_screen_needs_action():
    with pytest.raises(InputError, match="no action"):
        trace_from_dict(
            _trace_dict(
                [_screen_dict("A", [_comp_dict("x", True, None)]), _screen_dict("B", [])]
            )
        )


def test_last_screen_may_have_zero_exercised():
    trace = trace_from_dict(_trace_dict([_screen_dict("A", [_comp_dict("x")])]))
    assert len(trace.screens) == 1


@pytest.mark.parametrize("trace_id", [{"a": 1}, [], True, 7, None], ids=repr)
def test_trace_id_of_another_type_is_an_input_error(trace_id):
    data = dict(_trace_dict([_screen_dict("com.app.Main", [])]), trace_id=trace_id)
    with pytest.raises(InputError, match="'trace_id' must be a string"):
        trace_from_dict(data)


def test_missing_trace_id_reads_as_empty():
    data = _trace_dict([_screen_dict("com.app.Main", [])])
    del data["trace_id"]
    assert trace_from_dict(data).trace_id == ""


def test_empty_trace_is_invalid():
    with pytest.raises(InputError):
        trace_from_dict(_trace_dict([]))


def test_fingerprint_ignores_text_and_component_order():
    a = make_screen("com.app.Main", components=[
        make_component("save", text="Save"),
        make_component("undo", text="Undo"),
    ])
    b = make_screen("com.app.Main", components=[
        make_component("undo", text="Anything else"),
        make_component("save", text=""),
    ])
    assert screen_fingerprint(a) == screen_fingerprint(b)


def test_fingerprint_sensitive_to_activity_window_and_ids():
    base = make_screen("com.app.Main", components=[make_component("save")])
    assert screen_fingerprint(base) != screen_fingerprint(
        make_screen("com.app.Other", components=[make_component("save")])
    )
    assert screen_fingerprint(base) != screen_fingerprint(
        make_screen("com.app.Main", window="dialog", components=[make_component("save")])
    )
    assert screen_fingerprint(base) != screen_fingerprint(
        make_screen("com.app.Main", components=[make_component("other")])
    )


def test_empty_resource_ids_do_not_affect_fingerprint():
    a = make_screen("com.app.Main", components=[make_component("save"), make_component("")])
    b = make_screen("com.app.Main", components=[make_component("save")])
    assert screen_fingerprint(a) == screen_fingerprint(b)


def _sample_traces():
    s_main = lambda: make_screen("com.app.Main", components=[
        make_component("go", exercised=True, action="click")
    ])
    s_list = lambda: make_screen("com.app.List", components=[
        make_component("item", exercised=True, action="click")
    ])
    s_edit = lambda: make_screen("com.app.Edit", components=[make_component("save")])
    t1 = make_trace("t1", [s_main(), s_list(), s_edit()])
    t2 = make_trace("t2", [s_main(), s_list()])
    return t1, t2


def test_model_merges_repeated_screens_and_dedups_edges():
    t1, t2 = _sample_traces()
    model = build_execution_model([t1, t2])
    assert len(model.nodes) == 3
    assert len(model.edges) == 2
    assert len(model.entry_fingerprints) == 1


def test_model_insensitive_to_trace_order():
    rng = random.Random(31)
    t1, t2 = _sample_traces()
    base = build_execution_model([t1, t2])
    for _ in range(10):
        traces = [t1, t2]
        rng.shuffle(traces)
        other = build_execution_model(traces)
        assert set(other.nodes) == set(base.nodes)
        assert {e.key() for e in other.edges} == {e.key() for e in base.edges}
        assert other.entry_fingerprints == base.entry_fingerprints


def test_model_round_trip(tmp_path):
    t1, t2 = _sample_traces()
    model = build_execution_model([t1, t2])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert set(loaded.nodes) == set(model.nodes)
    assert [e.key() for e in loaded.edges] == [e.key() for e in model.edges]
    assert loaded.entry_fingerprints == model.entry_fingerprints
    assert [e.component for e in loaded.edges] == [e.component for e in model.edges]
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_model_loads_indented_files_from_older_builds(tmp_path):
    model = build_execution_model(list(_sample_traces()))
    compact = tmp_path / "compact.model.json"
    save_model(model, compact)
    assert compact.read_text().count("\n") == 1
    indented = tmp_path / "indented.model.json"
    indented.write_text(json.dumps(json.loads(compact.read_text()), sort_keys=True, indent=2) + "\n")
    for loaded in (load_model(compact), load_model(indented)):
        assert [e.key() for e in loaded.edges] == [e.key() for e in model.edges]
        assert loaded.nodes == model.nodes
        assert loaded.entry_fingerprints == model.entry_fingerprints



def _saved_model_data(tmp_path):
    """A model file of the sample traces: 2 edges, 1 entry."""
    path = tmp_path / "model.json"
    save_model(build_execution_model(list(_sample_traces())), path)
    return path, json.loads(path.read_text())


def _repeated_edge(data):
    data["edges"].append(dict(data["edges"][0]))
    return " edge 2: repeats an earlier edge"


def _unknown_action(action):
    def edit(data):
        data["edges"][1]["action"] = action
        return f" edge 1: unknown action {action!r}; expected one of {', '.join(sorted(ACTIONS))}"
    edit.__name__ = f"_unknown_action_{action or 'empty'}"
    return edit


def _edge_field(key, value, message):
    def edit(data):
        if value is ...:
            del data["edges"][1][key]
        else:
            data["edges"][1][key] = value
        return f" edge 1: {message}"
    edit.__name__ = f"_edge_field_{key}_{'missing' if value is ... else type(value).__name__}"
    return edit


def _edge_not_an_object(value, got):
    def edit(data):
        data["edges"][1] = value
        return f" edge 1 must be an object, got {got}"
    edit.__name__ = f"_edge_{type(value).__name__}"
    return edit


_EDGE_KEYS = ["src", "action", "resource_id", "dst", "type", "text", "content_desc"]


@pytest.mark.parametrize(
    "edit",
    [
        _repeated_edge, _unknown_action("fly"), _unknown_action(""), _unknown_action("Click"),
        *[_edge_field(key, None, f"{key!r} must be a string, got null") for key in _EDGE_KEYS],
        *[_edge_field(key, ..., f"missing {key!r}") for key in _EDGE_KEYS],
        _edge_field("src", 3, "'src' must be a string, got an integer"),
        _edge_field("action", ["click"], "'action' must be a string, got a list"),
        _edge_field("text", True, "'text' must be a string, got true or false"),
        _edge_not_an_object(7, "an integer"),
        _edge_not_an_object([], "a list"),
        _edge_not_an_object(None, "null"),
    ],
)
def test_model_files_that_build_model_never_writes_are_input_errors(tmp_path, edit):
    path, data = _saved_model_data(tmp_path)
    message = edit(data)
    path.write_text(json.dumps(data))
    with pytest.raises(InputError) as exc_info:
        load_model(path)
    assert str(exc_info.value) == f"{path}{message}"


def test_model_json_schema_fields(tmp_path):
    t1, _ = _sample_traces()
    path = tmp_path / "model.json"
    save_model(build_execution_model([t1]), path)
    data = json.loads(path.read_text())
    assert set(data) == {"format", "version", "edges", "entries"}
    assert data["version"] == 3
    edge = data["edges"][0]
    assert set(edge) == {"src", "action", "resource_id", "dst", "type", "text", "content_desc"}


def _random_traces(rng: random.Random) -> list:
    """Valid traces over a few screens, so screens, edges and one-screen traces repeat."""
    activities = [f"com.app.A{i}" for i in range(rng.randint(1, 4))]
    ids = ("a", "b", "")
    traces = []
    for t in range(rng.randint(1, 6)):
        length = rng.choice((1, 1, 2, 3, 5))
        screens = []
        for i in range(length):
            exercised = i < length - 1 or rng.random() < 0.3
            action = rng.choice(("click", "type")) if i < length - 1 else None
            components = [_comp_dict(rng.choice(ids), exercised=exercised, action=action)]
            if rng.random() < 0.5:
                components.append(_comp_dict(rng.choice(ids)))
            screens.append(_screen_dict(rng.choice(activities), components))
        traces.append(trace_from_dict({"trace_id": f"t{t}", "screens": screens}))
    return traces


def test_model_nodes_are_the_screens_of_its_traces(tmp_path):
    rng = random.Random(19)
    path = tmp_path / "model.json"
    only_an_entry = repeated_edge = False
    for _ in range(300):
        traces = _random_traces(rng)
        model = build_execution_model(traces)
        assert model.nodes == {screen_fingerprint(s) for t in traces for s in t.screens}
        save_model(model, path)
        assert load_model(path).nodes == model.nodes
        ends = {fp for e in model.edges for fp in (e.src, e.dst)}
        only_an_entry |= not model.entry_fingerprints <= ends
        repeated_edge |= len(model.edges) < sum(len(t.screens) - 1 for t in traces)
    assert only_an_entry and repeated_edge


def test_last_screens_window():
    t1, _ = _sample_traces()
    assert [s.activity_name for s in last_screens(t1, 2)] == ["com.app.List", "com.app.Edit"]
    assert len(last_screens(t1, 10)) == 3
    with pytest.raises(ConfigError):
        last_screens(t1, 0)

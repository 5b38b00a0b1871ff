"""Reproduction traces and the app execution model built from them.

A trace is the ordered list of screens a user walked through while
reproducing a bug; the final screen is where the failure showed up. The
execution model folds one or more traces into a graph of fingerprinted
screens and deduplicated interactions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .corpus import DEFAULT_PREPROCESSOR, Preprocessor
from .errors import ConfigError, InputError
from .util import NULL, json_fields, load_format_file, load_json_file, save_format_file

MODEL_FORMAT = "guiloc-model"
MODEL_VERSION = 3

ACTIONS = frozenset(
    {"click", "type", "long-click", "swipe", "pinch", "open", "press", "select", "back"}
)


@dataclass
class GuiComponent:
    resource_id: str = ""
    component_type: str = ""
    text: str = ""
    content_desc: str = ""
    exercised: bool = False
    action: str | None = None

    def term_set(self, preprocessor: Preprocessor) -> set[str]:
        """Terms of the resource id, text and content description."""
        return preprocessor.term_set(" ".join([self.resource_id, self.text, self.content_desc]))

    @classmethod
    def from_json(cls, data: dict, where: str = "component") -> "GuiComponent":
        rid, ctype, text, desc, action, exercised = json_fields(data, _COMPONENT_FIELDS, where)
        return cls(rid or "", ctype or "", text or "", desc or "", bool(exercised), action)


_TEXT = (str, NULL)
_FLAG = (bool, NULL)
_COMPONENT_FIELDS = {
    "resource_id": _TEXT,
    "type": _TEXT,
    "text": _TEXT,
    "content_desc": _TEXT,
    "action": _TEXT,
    "exercised": _FLAG,
}
_SCREEN_FIELDS = {"activity_name": _TEXT, "window_name": _TEXT, "components": (list, NULL)}


@dataclass
class Screen:
    activity_name: str
    window_name: str = ""
    components: list[GuiComponent] = field(default_factory=list)

    def exercised_components(self) -> list[GuiComponent]:
        return [c for c in self.components if c.exercised]

    @classmethod
    def from_json(cls, data: dict, where: str) -> "Screen":
        activity_name, window_name, components = json_fields(data, _SCREEN_FIELDS, where)
        components = components or ()
        try:
            parsed = [GuiComponent.from_json(c) for c in components]
        except InputError:  # parsed again, so a position is formatted only for a bad component
            for i, c in enumerate(components):
                GuiComponent.from_json(c, f"{where} component {i}")
            raise
        return cls(activity_name or "", window_name or "", parsed)


@dataclass
class ReproTrace:
    trace_id: str
    screens: list[Screen]


def screen_fingerprint(screen: Screen) -> str:
    """Stable digest of (activity, window, sorted nonempty component ids).

    Free text is deliberately excluded so cosmetic changes do not split
    nodes in the execution model.
    """
    ids = sorted(c.resource_id for c in screen.components if c.resource_id)
    raw = "\x1f".join([screen.activity_name, screen.window_name, ",".join(ids)])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def _validate_trace(trace: ReproTrace) -> None:
    if not trace.screens:
        raise InputError(f"trace {trace.trace_id!r}: no screens")
    last = len(trace.screens) - 1
    for i, screen in enumerate(trace.screens):
        where = f"trace {trace.trace_id!r} screen {i}"
        if not screen.activity_name:
            raise InputError(f"{where}: empty activity_name")
        exercised = screen.exercised_components()
        if len(exercised) > 1:
            raise InputError(f"{where}: {len(exercised)} exercised components, at most 1 allowed")
        for comp in screen.components:
            if comp.action is not None and not comp.exercised:
                raise InputError(
                    f"{where}: component {comp.resource_id!r} has an action but is not exercised"
                )
            if comp.action is not None:
                _check_action(comp.action, where)
        if i < last:
            if len(exercised) != 1:
                raise InputError(
                    f"{where}: every screen before the last needs exactly one exercised component"
                )
            if exercised[0].action is None:
                raise InputError(f"{where}: exercised component has no action")


def _check_action(action: str, where: str) -> None:
    if action not in ACTIONS:
        expected = ", ".join(sorted(ACTIONS))
        raise InputError(f"{where}: unknown action {action!r}; expected one of {expected}")


def trace_from_dict(data: dict) -> ReproTrace:
    """Build and validate a trace from already-parsed JSON."""
    if not isinstance(data, dict) or "screens" not in data:
        raise InputError("trace JSON must be an object with a 'screens' list")
    (trace_id,) = json_fields(data, {"trace_id": (str,)}, "trace") if "trace_id" in data else ("",)
    where = f"trace {trace_id!r}"
    (raw,) = json_fields(data, {"screens": (list, NULL)}, where)
    screens = [Screen.from_json(s, f"{where} screen {i}") for i, s in enumerate(raw or ())]
    trace = ReproTrace(trace_id=trace_id, screens=screens)
    _validate_trace(trace)
    return trace


def parse_trace(path: str | Path) -> ReproTrace:
    """Load a trace JSON file; malformed JSON or rule violations are fatal."""
    return trace_from_dict(load_json_file(path))


def last_screens(trace: ReproTrace, window: int) -> list[Screen]:
    """The final min(window, len) screens, ending at the buggy screen."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    return trace.screens[-window:]


@dataclass
class ModelEdge:
    """A step from screen `src` to `dst` by the action on `component`, an exercised
    component whose action is set; the edge's action and resource id are read from it."""

    src: str
    dst: str
    component: GuiComponent

    @property
    def action(self) -> str:
        return self.component.action

    @property
    def resource_id(self) -> str:
        return self.component.resource_id

    def key(self) -> tuple[str, str, str, str]:
        return (self.src, self.action, self.resource_id, self.dst)

    def to_json(self) -> dict:
        return {
            "src": self.src,
            "action": self.action,
            "resource_id": self.resource_id,
            "dst": self.dst,
        }


class ActionEdges(NamedTuple):
    """The model edges of one action, and which of them hold each term."""

    edges: list[ModelEdge]  # in insertion order
    sizes: list[int]  # each edge's component term count
    holders: dict[str, list[int]]  # term -> ascending indexes into `edges`


@dataclass
class ExecutionModel:
    """A screen graph. Lookups over `edges`, and the nodes, are built on first
    use, so the edges and entries must not change once the model is in use."""

    edges: list[ModelEdge]
    entry_fingerprints: set[str]

    @cached_property
    def nodes(self) -> set[str]:
        """The screen fingerprints: every edge's ends and every entry."""
        return {fp for edge in self.edges for fp in (edge.src, edge.dst)} | self.entry_fingerprints

    @cached_property
    def adjacency(self) -> dict[str, list[ModelEdge]]:
        """Outgoing edges per source screen, in insertion order."""
        out: dict[str, list[ModelEdge]] = {}
        for edge in self.edges:
            out.setdefault(edge.src, []).append(edge)
        return out

    @cached_property
    def edges_by_action(self) -> dict[str, ActionEdges]:
        """Edges per action, in insertion order, with an index of their components' terms."""
        by_action: dict[str, ActionEdges] = {}
        for edge in self.edges:
            group = by_action.setdefault(edge.action, ActionEdges([], [], {}))
            terms = edge.component.term_set(DEFAULT_PREPROCESSOR)
            position = len(group.edges)
            group.edges.append(edge)
            group.sizes.append(len(terms))
            for term in terms:
                group.holders.setdefault(term, []).append(position)
        return by_action


def build_execution_model(traces: list[ReproTrace]) -> ExecutionModel:
    """Fold traces into a screen graph.

    Screens are keyed by fingerprint; edges are deduplicated on
    (src, action, resource_id, dst) and keep insertion order. Every screen is
    a node: all but a trace's last are the `src` of an edge, the last of a
    longer trace is a `dst`, and the screen of a one-screen trace is an entry.
    """
    edges: list[ModelEdge] = []
    seen_keys: set[tuple[str, str, str, str]] = set()
    entries: set[str] = set()
    for trace in traces:
        fps = [screen_fingerprint(s) for s in trace.screens]
        entries.add(fps[0])
        for i in range(len(trace.screens) - 1):
            edge = ModelEdge(fps[i], fps[i + 1], trace.screens[i].exercised_components()[0])
            if edge.key() not in seen_keys:
                seen_keys.add(edge.key())
                edges.append(edge)
    return ExecutionModel(edges=edges, entry_fingerprints=entries)


def save_model(model: ExecutionModel, path: str | Path) -> None:
    """Write the model; each edge keeps its own component's type, text and description."""
    payload = {
        "edges": [
            {**e.to_json(), "type": e.component.component_type, "text": e.component.text,
             "content_desc": e.component.content_desc}
            for e in model.edges
        ],
        "entries": sorted(model.entry_fingerprints),
    }
    save_format_file(path, MODEL_FORMAT, MODEL_VERSION, payload)


def load_model(path: str | Path) -> ExecutionModel:
    """Read a model written by :func:`save_model`; malformed files raise InputError.

    No two edges may share (src, action, resource_id, dst), and every edge's
    action must be one of ACTIONS, as :func:`build_execution_model` writes
    them. Each edge's component is rebuilt from the id, type, text and
    description stored with the edge, so it matches steps as the built one does.
    """
    raw_edges, entries = load_format_file(path, MODEL_FORMAT, MODEL_VERSION, _MODEL_FIELDS)
    if not all(type(fp) is str for fp in entries or ()):
        raise InputError(f"{path}: 'entries' must be a list of strings")
    edges = []
    keys = set()
    for i, e in enumerate(raw_edges):
        where = f"{path} edge {i}"
        src, action, resource_id, dst, ctype, text, desc = json_fields(e, _EDGE_FIELDS, where)
        _check_action(action, where)
        if (src, action, resource_id, dst) in keys:
            raise InputError(f"{where}: repeats an earlier edge")
        keys.add((src, action, resource_id, dst))
        component = GuiComponent(resource_id, ctype, text, desc, exercised=True, action=action)
        edges.append(ModelEdge(src, dst, component))
    return ExecutionModel(edges=edges, entry_fingerprints=set(entries or ()))


_MODEL_FIELDS = {"edges": (list,), "entries": (list, NULL)}
_EDGE_FIELDS = {"src": (str,), "action": (str,), "resource_id": (str,), "dst": (str,),
                "type": (str,), "text": (str,), "content_desc": (str,)}

"""Connecting GUI evidence from a trace to source files.

Three complementary matchers: activity/window class names, exercised
resource ids against files' resource references, and exercised-component
term overlap. Activity and listener matches form the boosted set; all
three together form the gui-related set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .corpus import DEFAULT_PREPROCESSOR, Preprocessor, SourceDocument, class_name_of
from .errors import ConfigError
from .index import CorpusIndex
from .traces import GuiComponent, ReproTrace, last_screens

# each GUI term source and the field it reads, in the order its terms are counted
_SCREEN_SOURCES = (("activity", "activity_name"), ("window_name", "window_name"))
_COMPONENT_SOURCES = (("component_id", "resource_id"), ("component_text", "text"),
                      ("content_desc", "content_desc"), ("type", "component_type"))
TERM_SOURCES = tuple(source for source, _ in _SCREEN_SOURCES + _COMPONENT_SOURCES)

COMPONENT_THRESHOLD = 0.5


@dataclass
class GuiContext:
    """Everything the localization pipeline needs to know about the GUI."""

    terms: Counter
    activity_files: set[str]
    listener_files: set[str]
    component_files: set[str]
    window_used: int

    @property
    def boosted(self) -> set[str]:
        return self.activity_files | self.listener_files

    @property
    def gui_related(self) -> set[str]:
        return self.activity_files | self.listener_files | self.component_files

    def to_json(self) -> dict:
        return {
            "window_used": self.window_used,
            "terms": dict(self.terms),
            "activity_files": sorted(self.activity_files),
            "listener_files": sorted(self.listener_files),
            "component_files": sorted(self.component_files),
            "boosted": sorted(self.boosted),
            "gui_related": sorted(self.gui_related),
        }


def _check_sources(sources: Sequence[str]) -> tuple[str, ...]:
    if not sources or any(s not in TERM_SOURCES for s in sources):
        raise ConfigError(f"term_sources must be a nonempty subset of {', '.join(TERM_SOURCES)}")
    # canonical order, duplicates dropped
    return tuple(s for s in TERM_SOURCES if s in set(sources))


def extract_gui_terms(
    trace: ReproTrace,
    window: int,
    preprocessor: Preprocessor | None = None,
    sources: Sequence[str] | None = None,
) -> Counter:
    """Preprocessed terms from the selected sources, with multiplicity."""
    pre = preprocessor or DEFAULT_PREPROCESSOR
    chosen = _check_sources(sources if sources is not None else TERM_SOURCES)
    screen_fields = [name for source, name in _SCREEN_SOURCES if source in chosen]
    component_fields = [name for source, name in _COMPONENT_SOURCES if source in chosen]
    fields: list[str] = []
    for screen in last_screens(trace, window):
        fields += [getattr(screen, name) for name in screen_fields]
        for comp in screen.components:
            fields += [getattr(comp, name) for name in component_fields]
    # no term spans a space: one pass counts the terms in the per-field order
    return Counter(pre.tokens(" ".join(fields)))


def _window_class_names(trace: ReproTrace, window: int) -> set[str]:
    names = {
        dotted.rsplit(".", 1)[-1]
        for screen in last_screens(trace, window)
        for dotted in (screen.activity_name, screen.window_name)
    }
    names.discard("")
    return names


def match_activity_files(
    trace: ReproTrace, window: int, docs: Iterable[SourceDocument]
) -> set[str]:
    """Files whose class name equals an activity or window basename (case-sensitive)."""
    names = _window_class_names(trace, window)
    return {doc.path for doc in docs if class_name_of(doc.path) in names}


def _exercised_in_window(trace: ReproTrace, window: int) -> list[GuiComponent]:
    return [c for screen in last_screens(trace, window) for c in screen.exercised_components()]


def _exercised_ids(trace: ReproTrace, window: int) -> set[str]:
    return {c.resource_id.lower() for c in _exercised_in_window(trace, window) if c.resource_id}


def match_listener_files(
    trace: ReproTrace, window: int, docs: Iterable[SourceDocument]
) -> set[str]:
    """Files whose resource references intersect the exercised component ids."""
    ids = _exercised_ids(trace, window)
    return {doc.path for doc in docs if doc.resource_id_refs & ids}


def _component_term_sets(
    trace: ReproTrace, window: int, preprocessor: Preprocessor
) -> list[set[str]]:
    """The term set of each exercised component that has terms."""
    term_sets = (c.term_set(preprocessor) for c in _exercised_in_window(trace, window))
    return [ts for ts in term_sets if ts]


def _component_matches(
    term_sets: list[set[str]], threshold: float, holders: Callable[[str], Iterable[int]]
) -> set[int]:
    """Doc ids holding at least `threshold` of some term set's terms.

    The fraction is |file terms ∩ component terms| / |component terms| and the
    boundary counts as a match. `holders(term)` gives the ids of the
    documents that hold `term`. A set of n terms needs the least k with
    k / n >= threshold, and without one (NaN, or above 1) matches nothing.
    """
    matched = set()
    for terms in term_sets:
        n = len(terms)
        need = next((k for k in range(1, n + 1) if k / n >= threshold), None)
        if need is None:
            continue
        # at_least[j]: the docs holding at least j + 1 of the terms seen so far
        at_least = [set() for _ in range(need)]
        for ids in map(holders, terms):
            for j in range(need - 1, 0, -1):
                at_least[j] |= at_least[j - 1].intersection(ids)
            at_least[0].update(ids)
        matched |= at_least[-1]
    return matched


def match_component_files(
    trace: ReproTrace,
    window: int,
    docs: Iterable[SourceDocument],
    preprocessor: Preprocessor | None = None,
    threshold: float = COMPONENT_THRESHOLD,
) -> set[str]:
    """Files containing at least `threshold` of some exercised component's terms.

    Components with no terms are skipped.
    """
    term_sets = _component_term_sets(trace, window, preprocessor or DEFAULT_PREPROCESSOR)
    wanted = set().union(*term_sets)
    docs = list(docs)
    holders = defaultdict(list)
    for doc_id, doc in enumerate(docs):
        # a keys view & a set walks the set's few terms
        for term in doc.terms.keys() & wanted:
            holders[term].append(doc_id)
    ids = _component_matches(term_sets, threshold, lambda t: holders.get(t, ()))
    return {docs[d].path for d in ids}


def gui_context(
    trace: ReproTrace,
    window: int,
    index: CorpusIndex,
    sources: Sequence[str] | None = None,
) -> GuiContext:
    """Term extraction and all three matchers over the screen window, read from the index."""
    postings, paths = index.postings, index.paths
    by_class, by_id = index.files_by_class, index.files_by_resource_id
    components = _component_matches(
        _component_term_sets(trace, window, index.preprocessor),
        COMPONENT_THRESHOLD,
        lambda t: postings.columns(t)[0] if t in postings else (),
    )
    names, ids = _window_class_names(trace, window), _exercised_ids(trace, window)
    return GuiContext(
        terms=extract_gui_terms(trace, window, index.preprocessor, sources),
        activity_files={p for name in names for p in by_class.get(name, ())},
        listener_files={p for rid in ids for p in by_id.get(rid, ())},
        component_files=set(map(paths.__getitem__, components)),
        window_used=window,
    )

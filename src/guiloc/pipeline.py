"""End-to-end localization: query building, scoring, and GUI re-ranking."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

from .errors import ConfigError, check_choice
from .index import CorpusIndex, RankEntry, RankedList, SCORERS, rank
from .mapping import (
    DEFAULT_COMPONENT_THRESHOLD,
    GuiContext,
    TERM_SOURCES,
    _check_sources,
    gui_context,
)
from .reports import BugReport
from .traces import ReproTrace

logger = logging.getLogger(__name__)

QUERY_STRATEGIES = ("base", "expand", "replace")
# keeps every score finite: near the float maximum, a GUI term's count times
# the weight overflows to infinity, and rVSM's cosine then divides it into NaN
MAX_EXPANSION_WEIGHT = 1e6
RERANK_STRATEGIES = ("none", "filter", "boost", "filter_boost")


@dataclass(frozen=True)
class PipelineConfig:
    scorer: str = "bm25"
    query_strategy: str = "base"
    rerank_strategy: str = "none"
    window: int = 3
    term_sources: tuple[str, ...] = TERM_SOURCES
    expansion_weight: float = 1.0
    component_threshold: float = DEFAULT_COMPONENT_THRESHOLD
    top_k: int = 10

    def validate(self) -> "PipelineConfig":
        check_choice("scorer", self.scorer, SCORERS)
        check_choice("query strategy", self.query_strategy, QUERY_STRATEGIES)
        check_choice("rerank strategy", self.rerank_strategy, RERANK_STRATEGIES)
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        _check_sources(self.term_sources)
        # written so that NaN fails too
        if not 0 < self.expansion_weight <= MAX_EXPANSION_WEIGHT:
            raise ConfigError(
                f"expansion_weight must be in (0, {MAX_EXPANSION_WEIGHT:g}], "
                f"got {self.expansion_weight}"
            )
        if not 0 < self.component_threshold <= 1:
            raise ConfigError(
                f"component_threshold must be in (0, 1], got {self.component_threshold}"
            )
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        return self

    def to_json(self) -> dict:
        return asdict(self)


def build_query(
    report_terms: Sequence[str],
    gui_terms: Counter,
    strategy: str = "base",
    expansion_weight: float = 1.0,
) -> tuple[Counter, list[str]]:
    """Compose the retrieval query; returns (term -> query-term frequency, fallback flags).

    expand adds each GUI term's count times expansion_weight to the report
    terms' counts; replace uses the weighted GUI terms alone but falls back
    to the report terms (with a flag) when the trace yields nothing.
    """
    check_choice("query strategy", strategy, QUERY_STRATEGIES)
    query = Counter(report_terms)
    if strategy == "base":
        return query, []
    if strategy == "replace":
        if not gui_terms:
            return query, ["replace-fallback"]
        query = Counter()
    for term, count in gui_terms.items():
        query[term] += count * expansion_weight
    return query, []


def _annotate(entry: RankEntry, ctx: GuiContext) -> RankEntry:
    path = entry.path
    flags = set()
    if path in ctx.activity_files:
        flags.add("activity")
    if path in ctx.listener_files:
        flags.add("listener")
    if path in ctx.component_files:
        flags.add("component")
    return RankEntry(path, entry.score, flags)


def rerank_order(
    paths: Sequence[str], ctx: GuiContext, strategy: str
) -> tuple[Sequence[int], list[str]]:
    """Positions of ranked `paths` in re-ranked order, and fallback flags.

    boost is a stable partition: boosted files move to the front, both groups
    keeping their order. filter keeps gui-related files only, unless the
    gui-related set is empty (all pass, with a fallback flag).
    """
    check_choice("rerank strategy", strategy, RERANK_STRATEGIES)
    order: Sequence[int] = range(len(paths))
    flags = []
    if strategy in ("filter", "filter_boost"):
        gui_related = ctx.gui_related
        if gui_related:
            order = [i for i in order if paths[i] in gui_related]
        else:
            flags.append("filter-fallback")
    if strategy in ("boost", "filter_boost"):
        boosted = ctx.boosted
        front = [i for i in order if paths[i] in boosted]
        order = front + [i for i in order if paths[i] not in boosted]
    return order, flags


def apply_rerank(ranked: RankedList, ctx: GuiContext, strategy: str = "none") -> RankedList:
    """Reorder or filter a ranking by :func:`rerank_order`, marking kept entries' GUI signals."""
    order, flags = rerank_order(ranked.paths(), ctx, strategy)
    entries = ranked.entries  # never mutated, so a ranking left as it is can share them
    entries = list(entries) if strategy == "none" else [_annotate(entries[i], ctx) for i in order]
    return RankedList(entries, list(ranked.flags) + flags)


@dataclass
class StageCache:
    """One report's stage results, reused across the configs of one sweep.

    Valid for one report, its trace and one index. GUI contexts are kept per
    :func:`context_key`, and each query with its fallback flags per
    :func:`scoring_key`. Only the latest scoring is kept, keyed on the scorer
    and the exact query, so a caller that visits configs in
    :func:`scoring_key` order scores each query once while holding one
    ranking and its path order. Cached rankings are never mutated: every
    re-rank strategy returns a new :class:`RankedList`.
    """

    report_terms: list[str] | None = None
    contexts: dict[tuple, GuiContext] = field(default_factory=dict)
    queries: dict[tuple, tuple[Counter, list[str]]] = field(default_factory=dict)
    scored_key: tuple[str, Counter] | None = None
    scored: RankedList | None = None
    scored_paths: list[str] | None = None


def context_key(config: PipelineConfig) -> tuple:
    """What the GUI context depends on, besides the trace and the index."""
    return (config.window, config.term_sources, config.component_threshold)


def config_context(trace: ReproTrace, index: CorpusIndex, config: PipelineConfig) -> GuiContext:
    """The GUI context of `trace` over the index, as `config` sets it up."""
    return gui_context(
        trace,
        config.window,
        index,
        sources=config.term_sources,
        component_threshold=config.component_threshold,
    )


def scoring_key(config: PipelineConfig) -> tuple:
    """What the query and its scoring depend on, besides report and index."""
    if config.query_strategy == "base":
        return (config.scorer, config.query_strategy)
    return (config.scorer, config.query_strategy, context_key(config), config.expansion_weight)


def score_stages(
    report: BugReport,
    trace: ReproTrace,
    index: CorpusIndex,
    config: PipelineConfig,
    cache: StageCache,
) -> tuple[GuiContext, list[str]]:
    """Run the stages up to scoring for a validated `config`, through `cache`.

    Returns the GUI context and the query's fallback flags; leaves the
    scoring in `cache.scored` and its path order in `cache.scored_paths`.
    """
    if config.query_strategy == "base" and config.rerank_strategy == "none":
        # neither step reads the GUI context, so skip the matchers
        ctx = GuiContext(Counter(), set(), set(), set(), config.window)
    else:
        ctx_key = context_key(config)
        ctx = cache.contexts.get(ctx_key)
        if ctx is None:
            ctx = cache.contexts[ctx_key] = config_context(trace, index, config)
    query_key = scoring_key(config)
    built = cache.queries.get(query_key)
    if built is None:
        if cache.report_terms is None:
            cache.report_terms = index.preprocessor.tokens(report.full_text())
        built = cache.queries[query_key] = build_query(
            cache.report_terms, ctx.terms, config.query_strategy, config.expansion_weight
        )
    query, query_flags = built
    # a query from the cache is the very map scored last, which the tuple
    # comparison matches by identity, without comparing its terms
    if cache.scored_key != (config.scorer, query):
        cache.scored_key, cache.scored = (config.scorer, query), rank(index, query, config.scorer)
        cache.scored_paths = cache.scored.paths()
    return ctx, query_flags


def localize(
    report: BugReport,
    trace: ReproTrace,
    index: CorpusIndex,
    config: PipelineConfig | None = None,
) -> RankedList:
    """Rank the indexed corpus for one report and its reproduction trace."""
    config = (config or PipelineConfig()).validate()
    cache = StageCache()
    ctx, query_flags = score_stages(report, trace, index, config, cache)
    ranked = apply_rerank(cache.scored, ctx, config.rerank_strategy)
    ranked.flags = sorted(set(ranked.flags) | set(query_flags))
    ranked.entries = ranked.entries[: config.top_k]
    return ranked


def full_depth(config: PipelineConfig, index: CorpusIndex) -> PipelineConfig:
    """The same configuration with no top-k truncation (for evaluation)."""
    return replace(config, top_k=index.doc_count)


def ranking_to_json(report: BugReport, config: PipelineConfig, ranked: RankedList) -> dict:
    return {
        "report_id": report.report_id,
        "config": config.to_json(),
        "fallbacks": list(ranked.flags),
        "ranking": [
            {
                "rank": i,
                "path": e.path,
                "score": e.score,
                "gui_flags": sorted(e.gui_flags),
            }
            for i, e in enumerate(ranked.entries, 1)
        ],
    }

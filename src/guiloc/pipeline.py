"""End-to-end localization: query building, scoring, and GUI re-ranking."""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from typing import Sequence

from .errors import ConfigError, check_choice
from .index import SCORER_FUNCS, SCORERS, CorpusIndex, RankEntry, RankedList, ScoredList, rank
from .mapping import COMPONENT_THRESHOLD, GuiContext, TERM_SOURCES, _check_sources, gui_context
from .reports import BugReport
from .traces import ReproTrace

QUERY_STRATEGIES = ("base", "expand", "replace")
# keeps every score finite: near the float maximum, a GUI term's count times
# the weight overflows to infinity, and rVSM's cosine then divides it into NaN
MAX_EXPANSION_WEIGHT = 1e6
RERANK_STRATEGIES = ("none", "filter", "boost", "filter_boost")
_GUI_SIGNALS = ("activity", "listener", "component")  # GuiContext's *_files sets


@dataclass(frozen=True)
class PipelineConfig:
    scorer: str = "bm25"
    query_strategy: str = "base"
    rerank_strategy: str = "none"
    window: int = 3
    term_sources: tuple[str, ...] = TERM_SOURCES
    expansion_weight: float = 1.0
    # fixed, not a setting; kept so that to_json still prints it
    component_threshold: float = field(default=COMPONENT_THRESHOLD, init=False)
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


def _gui_flags(path: str, ctx: GuiContext) -> set[str]:
    return {signal for signal in _GUI_SIGNALS if path in getattr(ctx, f"{signal}_files")}


def rerank_groups(ctx: GuiContext, strategy: str) -> tuple[list[set[str] | None], list[str]]:
    """The re-rank rule as nested groups of paths, and its fallback flags.

    Each group holds the ones before it, and None holds every file. A
    re-ranked list is the first group's files in score order, then the files
    that each later group adds, in score order; a file in no group is
    dropped. boost puts the boosted files first. filter keeps the gui-related
    files only, unless that set is empty (all pass, with a fallback flag).
    """
    check_choice("rerank strategy", strategy, RERANK_STRATEGIES)
    groups: list[set[str] | None] = [None]
    flags = []
    if strategy in ("filter", "filter_boost"):
        if ctx.gui_related:
            groups = [ctx.gui_related]
        else:
            flags.append("filter-fallback")
    if strategy in ("boost", "filter_boost"):
        groups.insert(0, ctx.boosted)  # a subset of the gui-related files
    return groups, flags


def apply_rerank(ranked: RankedList, ctx: GuiContext, strategy: str = "none") -> RankedList:
    """Reorder or filter a ranking by :func:`rerank_groups`, marking kept entries' GUI signals.

    A stable partition: each group's entries keep their order in `ranked`.
    """
    groups, flags = rerank_groups(ctx, strategy)
    entries = ranked.entries  # never mutated, so a ranking left as it is can share them
    if strategy != "none":
        kept: list[list[RankEntry]] = [[] for _ in groups]
        for entry in entries:
            for group, members in zip(kept, groups):
                if members is None or entry.path in members:
                    group.append(RankEntry(entry.path, entry.score, _gui_flags(entry.path, ctx)))
                    break
        entries = chain.from_iterable(kept)
    return RankedList(list(entries), list(ranked.flags) + flags)


@dataclass
class StageCache:
    """One report's stage results, reused across the configs of one sweep.

    Valid for one report, its trace and one index. :meth:`context` looks GUI
    contexts up per :func:`context_key`. Only the latest scoring is kept,
    keyed on :func:`scoring_key`, so a caller that visits configs in
    :func:`scoring_key` order scores each query once while holding one
    scoring. That scores every file or, unless its key is `unscoped`, the `scope` that its
    config's re-rank can keep, and serves each config of its key whose re-rank keeps only
    files it scored. Once its query's flags are added, it is never mutated.
    """

    report_terms: list[str] | None = None
    contexts: dict[tuple, GuiContext] = field(default_factory=dict)
    scored_key: tuple | None = None
    scored: ScoredList | None = None
    scope: set[str] | None = None
    unscoped: set[tuple] = field(default_factory=set)

    def context(self, trace: ReproTrace, index: CorpusIndex, config: PipelineConfig) -> GuiContext:
        """The GUI context `config` asks for, computed on the first call for its key."""
        contexts, key = self.contexts, context_key(config)
        if key not in contexts:
            contexts[key] = gui_context(trace, config.window, index, sources=config.term_sources)
        return contexts[key]


def context_key(config: PipelineConfig) -> tuple:
    """What the GUI context depends on, besides the trace and the index."""
    return (config.window, config.term_sources)


def scoring_key(config: PipelineConfig) -> tuple:
    """What the query and its scoring depend on, besides report and index."""
    if config.query_strategy == "base":
        return (config.scorer, config.query_strategy)
    return (config.scorer, config.query_strategy, context_key(config), config.expansion_weight)


def scope_key(config: PipelineConfig) -> tuple | None:
    """What the files that `config`'s re-rank can keep depend on; None if it may keep all."""
    return context_key(config) if config.rerank_strategy in ("filter", "filter_boost") else None


def score_stages(report: BugReport, trace: ReproTrace, index: CorpusIndex, config: PipelineConfig,
                 cache: StageCache) -> GuiContext:
    """Run the stages up to scoring for a validated `config`, through `cache`.

    Returns the GUI context; leaves the scoring in `cache.scored`, its flags
    the scorer's and then the query's fallbacks.
    """
    if config.query_strategy == "base" and config.rerank_strategy == "none":
        # neither step reads the GUI context, so skip the matchers
        ctx = GuiContext(Counter(), set(), set(), set(), config.window)
    else:
        ctx = cache.context(trace, index, config)
    key, strategy = scoring_key(config), config.rerank_strategy
    # the files a re-rank can keep are its last group, found only if a cached scoring may not serve
    stale = cache.scope and cache.scope != rerank_groups(ctx, strategy)[0][-1]
    if cache.scored_key != key or stale:
        if cache.report_terms is None:
            cache.report_terms = index.preprocessor.tokens(report.full_text())
        query, query_flags = build_query(
            cache.report_terms, ctx.terms, config.query_strategy, config.expansion_weight
        )
        scope = None if key in cache.unscoped else rerank_groups(ctx, strategy)[0][-1]
        if scope is None:
            cache.scored = rank(index, query, config.scorer)
        else:  # not through rank, which a 3-argument wrapper may replace to count full scorings
            within = sorted(map(index.doc_ids.__getitem__, scope))
            cache.scored = SCORER_FUNCS[config.scorer](index, query, within)
        cache.scored_key, cache.scope = key, scope
        cache.scored.flags += query_flags
    return ctx


def localize(
    report: BugReport, trace: ReproTrace, index: CorpusIndex,
    config: PipelineConfig | None = None, cache: StageCache | None = None,
) -> RankedList:
    """Rank the indexed corpus for one report and its reproduction trace.

    Only the top k files of the re-ranked list get entries. `cache` may hold
    stages already run for this report, trace and index.
    """
    config = (config or PipelineConfig()).validate()
    cache = cache or StageCache()
    ctx = score_stages(report, trace, index, config, cache)
    groups, rerank_flags = rerank_groups(ctx, config.rerank_strategy)
    entries = cache.scored.entries_of(cache.scored.top(groups, config.top_k))
    if config.rerank_strategy != "none":
        for entry in entries:
            entry.gui_flags = _gui_flags(entry.path, ctx)
    return RankedList(entries, sorted({*cache.scored.flags, *rerank_flags}))


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

"""Ranking metrics, dataset evaluation, and configuration sweeps."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import asdict, dataclass, fields
from itertools import product
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, InputError
from .index import CorpusIndex
from .pipeline import (PipelineConfig, StageCache, rerank_groups, score_stages, scope_key,
                       scoring_key)
from .reports import BugReport, load_report
from .traces import ReproTrace, parse_trace
from .util import atomic_write_text, load_json_file

logger = logging.getLogger(__name__)

HITS_KS = (1, 5, 10)

# each swept PipelineConfig setting, in CSV column order -> its spelling in a row
_SWEPT = {"scorer": str, "query_strategy": str, "rerank_strategy": str, "window": str,
          "term_sources": "+".join, "expansion_weight": "{:g}".format}
CSV_HEADER = ",".join([*_SWEPT, *(f"hits{k}" for k in HITS_KS), "mrr,map,reports"])


def hits_at_k(ranks: Sequence[int], k: int) -> int:
    """1 if a relevant file ranks in the top k, else 0.

    Here and below, `ranks` holds the relevant files' 1-based ranks in
    ascending order; a relevant file missing from the ranking has none.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return 1 if ranks and ranks[0] <= k else 0


def reciprocal_rank(ranks: Sequence[int]) -> float:
    return 1.0 / ranks[0] if ranks else 0.0


def average_precision(ranks: Sequence[int], relevant: int) -> float:
    """Mean of precision-at-hit over all `relevant` files; unranked ones add 0."""
    if relevant < 1:
        raise InputError("ground truth must be nonempty")
    total = 0.0
    for hits, r in enumerate(ranks, 1):
        total += hits / r
    return total / relevant


@dataclass
class ReportOutcome:
    report_id: str
    first_relevant_rank: int | None
    reciprocal_rank: float
    average_precision: float


@dataclass
class EvalResult:
    config: PipelineConfig
    per_report: list[ReportOutcome]
    hits_at: dict[int, float]
    mrr: float
    map_score: float
    report_count: int

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "hits_at": {str(k): v for k, v in self.hits_at.items()},
            "mrr": self.mrr,
            "map": self.map_score,
            "reports": self.report_count,
            "per_report": [asdict(o) for o in self.per_report],
        }


def load_dataset(
    reports_dir: str | Path, traces_dir: str | Path
) -> list[tuple[BugReport, ReproTrace]]:
    """Pair report and trace files by report id.

    Reports without ground truth are excluded (count logged); a report whose
    id is not a plain file name or is another report's id, or whose trace
    file is missing, is fatal.
    """
    reports_dir = Path(reports_dir)
    traces_dir = Path(traces_dir)
    if not reports_dir.is_dir():
        raise InputError(f"reports directory not found: {reports_dir}")
    if not traces_dir.is_dir():
        raise InputError(f"traces directory not found: {traces_dir}")
    pairs = []
    excluded = 0
    files_by_id: dict[str, Path] = {}
    for path in sorted(reports_dir.glob("*.json")):
        report = load_report(path)
        first = files_by_id.setdefault(report.report_id, path)
        if first != path:
            raise InputError(f"{path}: report_id {report.report_id!r} is also the id of {first}")
        if not report.ground_truth:
            excluded += 1
            continue
        if Path(report.report_id).name != report.report_id:
            raise InputError(f"{path}: report_id {report.report_id!r} is not a plain file name")
        trace_path = traces_dir / f"{report.report_id}.json"
        if not trace_path.is_file():
            raise InputError(f"no trace found for report {report.report_id} at {trace_path}")
        pairs.append((report, parse_trace(trace_path)))
    if excluded:
        logger.info("excluded %d reports without ground truth; %d kept", excluded, len(pairs))
    if not pairs:
        raise InputError(f"no usable reports under {reports_dir}")
    return pairs


def warn_unindexed_ground_truth(
    pairs: list[tuple[BugReport, ReproTrace]], index: CorpusIndex
) -> None:
    """Log one warning per report whose ground truth names files the index does not hold."""
    indexed = set(index.paths)
    for report, _ in pairs:
        missing = sorted((report.ground_truth or set()) - indexed)
        if missing:
            logger.warning(
                "report %s: ground-truth paths not in the index, counted as misses: %s",
                report.report_id,
                ", ".join(missing),
            )


def evaluate_config(
    pairs: list[tuple[BugReport, ReproTrace]],
    index: CorpusIndex,
    config: PipelineConfig | None = None,
    caches: Sequence[StageCache] | None = None,
) -> EvalResult:
    """Aggregate metrics over every pair at full depth.

    The ground-truth files' ranks are those that :func:`localize` would give
    them at full depth, counted over the scoring by :meth:`ScoredList.ranks`,
    so no ranking of the corpus is built. `caches`, one :class:`StageCache`
    per pair, lets a series of calls on the same pairs and index reuse each
    report's stage results. An empty dataset is an InputError.
    """
    if not pairs:
        raise InputError("cannot evaluate an empty dataset: no (report, trace) pairs given")
    config = (config or PipelineConfig()).validate()
    outcomes = []
    hit_totals = {k: 0 for k in HITS_KS}
    # added left to right: from Python 3.12 on, sum() compensates float sums
    rr_total = ap_total = 0.0
    for (report, trace), cache in zip(pairs, caches or [StageCache() for _ in pairs], strict=True):
        ctx = score_stages(report, trace, index, config, cache)
        groups, _ = rerank_groups(ctx, config.rerank_strategy)
        truth = report.ground_truth or set()
        ranks = cache.scored.ranks(truth, groups)
        outcome = ReportOutcome(
            report_id=report.report_id,
            first_relevant_rank=ranks[0] if ranks else None,
            reciprocal_rank=reciprocal_rank(ranks),
            average_precision=average_precision(ranks, len(truth)),
        )
        outcomes.append(outcome)
        rr_total += outcome.reciprocal_rank
        ap_total += outcome.average_precision
        for k in HITS_KS:
            hit_totals[k] += hits_at_k(ranks, k)
    n = len(pairs)
    return EvalResult(
        config=config,
        per_report=outcomes,
        hits_at={k: hit_totals[k] / n for k in HITS_KS},
        mrr=rr_total / n,
        map_score=ap_total / n,
        report_count=n,
    )


@dataclass
class SweepGrid:
    scorers: Sequence[str] = (PipelineConfig.scorer,)
    query_strategies: Sequence[str] = (PipelineConfig.query_strategy,)
    rerank_strategies: Sequence[str] = (PipelineConfig.rerank_strategy,)
    windows: Sequence[int] = (PipelineConfig.window,)
    term_sources: Sequence[Sequence[str]] = (PipelineConfig.term_sources,)
    expansion_weights: Sequence[float] = (PipelineConfig.expansion_weight,)

    def configs(self) -> list[PipelineConfig]:
        """Grid rows in lexicographic order over each axis' value order; empty sources mean all.

        The axes are PipelineConfig's first six fields, in the same order.
        """
        axes = {f.name: getattr(self, f.name) for f in fields(self)}
        axes["term_sources"] = [tuple(s or PipelineConfig.term_sources) for s in self.term_sources]
        return [PipelineConfig(*row) for row in product(*axes.values())]


def _config_key(config: PipelineConfig) -> tuple[str, ...]:
    return tuple(spell(getattr(config, name)) for name, spell in _SWEPT.items())


def _result_row(key: tuple[str, ...], result: EvalResult) -> str:
    values = [*(result.hits_at[k] for k in HITS_KS), result.mrr, result.map_score]
    return ",".join([*key, *map("{:.6f}".format, values), str(result.report_count)])


@dataclass
class SweepOutcome:
    rows: list[str]
    computed: int
    reused: int
    skipped: int


def meta_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".meta.json")


def _inputs_digest(pairs: list[tuple[BugReport, ReproTrace]], index: CorpusIndex) -> str:
    """A digest of what every sweep row is computed from: :attr:`CorpusIndex.digest`, hashed
    once per index, and each report's id, text, ground truth and trace, in JSON."""
    # a dataclass repr names every field and quotes every string, so it tells screens apart
    dataset = [[report.report_id, report.full_text(), sorted(report.ground_truth or ()),
                repr(trace.screens)] for report, trace in pairs]
    return hashlib.sha256(index.digest + json.dumps(dataset).encode()).hexdigest()


def _load_existing_rows(path: Path, digest: str) -> dict[tuple[str, ...], str]:
    if not path.parent.is_dir():
        raise InputError(f"sweep output {path}: {path.parent} is not a directory")
    if not path.exists():
        return {}
    if not path.is_file():
        raise InputError(f"sweep output {path} exists and is not a regular file")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read existing sweep file {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        logger.warning("existing sweep file %s has a different header; recomputing all rows", path)
        return {}
    try:
        meta = load_json_file(meta_path(path))
    except InputError:  # missing, unreadable or not JSON
        meta = None
    vouched = meta.get("rows") if isinstance(meta, dict) and meta.get("inputs") == digest else None
    if not isinstance(vouched, list) or not all(isinstance(row, str) for row in vouched):
        logger.warning(
            "existing sweep file %s was not computed from this index and dataset; "
            "recomputing all rows",
            path,
        )
        return {}
    vouched = set(vouched)
    existing = {}
    for line in lines[1:]:
        cells = line.split(",")
        # a row the meta does not list may come from another sweep into the same file
        if len(cells) == len(CSV_HEADER.split(",")) and line in vouched:
            existing[tuple(cells[: len(_SWEPT)])] = line
    return existing


def sweep(
    grid: SweepGrid,
    pairs: list[tuple[BugReport, ReproTrace]],
    index: CorpusIndex,
    out_path: str | Path,
    jobs: int = 1,
) -> SweepOutcome:
    """Evaluate every grid configuration and write a CSV.

    The CSV and ``<out>.meta.json`` are written once, after every
    configuration is computed, so an interrupted sweep keeps nothing. What
    is reused is the rows of an earlier finished run: a row of the output
    file is reused only if the meta file lists it and holds the digest of
    :func:`_inputs_digest`, so running a finished sweep again computes no
    row; a meta with another digest or no row list has every row computed
    again. A grid with no configurations is a
    ConfigError; invalid configurations are logged and skipped, not fatal.
    Rows follow the grid order. Each report's GUI contexts, terms and
    scorings are computed once per call and shared by the configurations
    that need them. `jobs` is accepted and ignored: the work is pure
    Python, and threads ran it slower than one loop.
    """
    configs = grid.configs()
    if not configs:
        empty = [axis for axis, values in asdict(grid).items() if not values]
        raise ConfigError(f"the sweep grid is empty: no {', '.join(empty)} given")
    out_path = Path(out_path)
    digest = _inputs_digest(pairs, index)
    rows = _load_existing_rows(out_path, digest)

    valid: list[PipelineConfig] = []
    for config in configs:
        try:
            valid.append(config.validate())
        except ConfigError as exc:
            logger.warning("skipping invalid configuration %s: %s", _config_key(config), exc)

    keys = [_config_key(config) for config in valid]
    to_compute = [(key, config) for key, config in zip(keys, valid) if key not in rows]
    reused = len(keys) - len(to_compute)

    if to_compute:
        logger.info("computing %d configurations (%d reused)", len(to_compute), reused)
        # in scoring_key order each report's cache holds one scoring yet computes each once;
        # one that configs of two scopes share is made in full
        kinds = Counter(key for key, _ in {(scoring_key(c), scope_key(c)) for _, c in to_compute})
        unscoped = {key for key, n in kinds.items() if n > 1}
        caches = [StageCache(unscoped=unscoped) for _ in pairs]
        for key, config in sorted(to_compute, key=lambda item: scoring_key(item[1])):
            rows[key] = _result_row(key, evaluate_config(pairs, index, config, caches))

    ordered = [rows[key] for key in keys]
    atomic_write_text(out_path, "\n".join([CSV_HEADER] + ordered) + "\n")
    # written after the rows, so a run cut in between leaves a mismatch, never stale rows
    atomic_write_text(meta_path(out_path), json.dumps({"inputs": digest, "rows": ordered}) + "\n")
    return SweepOutcome(
        rows=ordered, computed=len(to_compute), reused=reused, skipped=len(configs) - len(valid)
    )

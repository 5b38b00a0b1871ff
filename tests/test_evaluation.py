from __future__ import annotations

import builtins
import gc
import json
import logging
import math
import random
from collections import Counter

import pytest

import guiloc.evaluation as evaluation
import guiloc.index as index_module
import guiloc.pipeline as pipeline
from guiloc.corpus import scan_corpus
from guiloc.errors import InputError
from guiloc.evaluation import (
    CSV_HEADER,
    HITS_KS,
    _result_row,
    EvalResult,
    ReportOutcome,
    SweepGrid,
    average_precision,
    evaluate_config,
    hits_at_k,
    load_dataset,
    reciprocal_rank,
    sweep,
)
from guiloc.index import SCORERS, RankEntry, RankedList, ScoredList, ScoringParams, build_index
from guiloc.mapping import GuiContext
from guiloc.pipeline import (
    RERANK_STRATEGIES,
    PipelineConfig,
    StageCache,
    full_depth,
    localize,
    rerank_groups,
    score_stages,
)
from guiloc.reports import BugReport

from conftest import FIXTURES, make_component, make_doc, make_screen, make_trace


# enumeration-style references, no shared code with the implementation


def oracle_hits(ranking, truth, k):
    return 1 if any(p in truth for p in ranking[:k]) else 0


def oracle_rr(ranking, truth):
    for i, p in enumerate(ranking):
        if p in truth:
            return 1.0 / (i + 1)
    return 0.0


def oracle_ap(ranking, truth):
    precisions = []
    for i in range(len(ranking)):
        if ranking[i] in truth:
            prefix = ranking[: i + 1]
            precisions.append(sum(1 for p in prefix if p in truth) / len(prefix))
    return sum(precisions) / len(truth)


def ranks_of(ranking, truth):
    """The relevant files' 1-based ranks, by walking the ranking."""
    return [i for i, p in enumerate(ranking, 1) if p in truth]


def test_average_precision_worked_example():
    # ["d1", "d2", "d3"] with {"d1", "d3"} relevant
    assert average_precision([1, 3], 2) == pytest.approx((1 + 2 / 3) / 2)


def test_miss_conventions():
    # ["d1"] with {"d2"} relevant
    assert reciprocal_rank([]) == 0.0
    assert hits_at_k([], 5) == 0
    assert average_precision([], 1) == 0.0
    assert ScoredList(build_index([make_doc("d1", ["x"])]), [1.0]).ranks({"d2"}, [None]) == []


def test_unranked_relevant_contributes_zero():
    # ["d1", "d2"] with {"d1", "d9"} relevant: d9 never appears in the ranking
    assert average_precision([1], 2) == pytest.approx(0.5)


def test_empty_truth_is_fatal():
    with pytest.raises(InputError):
        average_precision([], 0)
    with pytest.raises(InputError):
        hits_at_k([1], 0)
    report = BugReport(report_id="r0", title="crash", body="crash on save", ground_truth=set())
    index = build_index([make_doc("A.java", ["crash"])])
    with pytest.raises(InputError, match="ground truth must be nonempty"):
        evaluate_config([(report, make_trace("r0", [make_screen("A")]))], index)


def test_metrics_match_oracle_on_random_instances():
    rng = random.Random(61)
    pool = [f"f{i:02d}" for i in range(25)]
    for _ in range(200):
        ranking = rng.sample(pool, rng.randint(0, 20))
        truth = set(rng.sample(pool, rng.randint(1, 6)))
        ranks = ranks_of(ranking, truth)
        for k in (1, 3, 5, 10):
            assert hits_at_k(ranks, k) == oracle_hits(ranking, truth, k)
        assert reciprocal_rank(ranks) == pytest.approx(oracle_rr(ranking, truth))
        assert average_precision(ranks, len(truth)) == pytest.approx(oracle_ap(ranking, truth))


def test_ranks_match_the_walk_of_the_reranked_list():
    """ScoredList.ranks equals the ranks in apply_rerank's list of the full ranking.

    Scores tie and are often zero, and doc ids are not in path order. Ground
    truth includes files that scored zero and files that no index holds;
    contexts, drawn from indexed files as gui_context's are, include empty
    ones (the filter fallback) and gui-related files of which none scored.
    """
    rng = random.Random(83)
    pool = [f"f{i:02d}" for i in range(30)]
    index = build_index([make_doc(p, ["x"]) for p in rng.sample(pool, len(pool))])
    for _ in range(300):
        scored = ScoredList(index, [rng.choice([0.0, 0.0, 0.0, 0.5, 1.0, 2.5]) for _ in pool])
        ranking = scored.paths()
        unranked = [f for f in pool if f not in ranking]
        source = ranking if rng.random() < 0.8 else unranked
        ctx = GuiContext(
            Counter(),
            {f for f in source if rng.random() < 0.15},
            {f for f in source if rng.random() < 0.15},
            {f for f in source if rng.random() < 0.3},
            3,
        )
        truth = set(rng.sample(pool + ["missing.java"], rng.randint(1, 5)))
        for strategy in RERANK_STRATEGIES:
            walked = ranks_of(pipeline.apply_rerank(scored, ctx, strategy).paths(), truth)
            groups, _ = rerank_groups(ctx, strategy)
            assert scored.ranks(truth, groups) == walked, strategy


def test_ranks_match_a_full_depth_localize_on_tied_scores():
    """Counted ranks equal the ranks in a full-depth localize, on real scorings with ties.

    Each term bag is indexed under two or three paths, so tied scores are
    common; bags without a query term score zero, some traces match no file
    (the filter fallback), and the ground truth names an unindexed file too.
    """
    rng = random.Random(7)
    vocab = ["save", "note", "photo", "camera", "delete", "share", "title", "sync"]
    classes = ["Main", "Edit", "List", "View", "Sync"]
    seen = set()
    for trial in range(40):
        docs = []
        for b in range(rng.randint(3, 8)):
            bag = rng.choices(vocab if rng.random() < 0.8 else ["zzz"], k=rng.randint(1, 6))
            refs = rng.sample(["btn_save", "btn_share", "list"], rng.randint(0, 1))
            for folder in rng.sample(["ui", "net", "db"], rng.randint(2, 3)):
                docs.append(make_doc(f"{folder}/{rng.choice(classes)}{b}.java", bag, refs=refs))
        index = build_index(docs)
        screens = [
            make_screen(f"com.app.{rng.choice(classes)}{rng.randrange(8)}", components=[
                make_component(rng.choice(["btn_save", "btn_share", "none"]),
                               text=" ".join(rng.sample(vocab, 2)), exercised=True, action="click")
            ])
            if rng.random() < 0.7 else make_screen("com.app.Nowhere")
            for _ in range(rng.randint(1, 3))
        ]
        trace = make_trace(f"r{trial}", screens)
        truth = set(rng.sample(index.paths, rng.randint(1, 4))) | {"gone/Missing.java"}
        report = BugReport(f"r{trial}", "bug", " ".join(rng.choices(vocab, k=5)), truth)
        for scorer in SCORERS:
            for strategy in RERANK_STRATEGIES:
                config = full_depth(PipelineConfig(scorer, "expand", strategy), index)
                ranked = localize(report, trace, index, config)
                cache = StageCache()
                ctx, _ = score_stages(report, trace, index, config.validate(), cache)
                groups, _ = rerank_groups(ctx, strategy)
                assert cache.scored.ranks(truth, groups) == ranks_of(ranked.paths(), truth)
                scores = [e.score for e in ranked.entries]
                if len(set(scores)) < len(scores):
                    seen.add("tie")
                if len(cache.scored.entries) < index.doc_count:
                    seen.add("zero")
                if "filter-fallback" in ranked.flags:
                    seen.add("fallback")
    assert seen == {"tie", "zero", "fallback"}


def _dataset_files(tmp_path, *, with_truthless=False):
    reports = tmp_path / "reports"
    traces = tmp_path / "traces"
    reports.mkdir()
    traces.mkdir()
    for rid, truth in (("r1", ["ui/A.java"]), ("r2", ["ui/B.java"])):
        (reports / f"{rid}.json").write_text(
            json.dumps({"report_id": rid, "title": "t", "body": "Tap save.", "ground_truth": truth})
        )
        (traces / f"{rid}.json").write_text(
            json.dumps(
                {
                    "trace_id": rid,
                    "screens": [
                        {"activity_name": "com.app.A", "window_name": "", "components": [
                            {"resource_id": "go", "type": "Button", "text": "",
                             "content_desc": "", "exercised": True, "action": "click"},
                        ]},
                        {"activity_name": "com.app.B", "window_name": "", "components": []},
                    ],
                }
            )
        )
    if with_truthless:
        (reports / "r3.json").write_text(
            json.dumps({"report_id": "r3", "title": "t", "body": "no truth here"})
        )
    return reports, traces


def test_load_dataset_pairs_and_excludes_truthless(tmp_path, caplog):
    reports, traces = _dataset_files(tmp_path, with_truthless=True)
    with caplog.at_level(logging.INFO, logger="guiloc.evaluation"):
        pairs = load_dataset(reports, traces)
    assert [r.report_id for r, _ in pairs] == ["r1", "r2"]
    assert any("excluded 1" in rec.getMessage() for rec in caplog.records)


def test_load_dataset_missing_trace_is_fatal(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    (traces / "r2.json").unlink()
    with pytest.raises(InputError, match="r2"):
        load_dataset(reports, traces)


def _index_for_dataset():
    return build_index(
        [
            make_doc("ui/A.java", ["save", "tap", "alpha"]),
            make_doc("ui/B.java", ["save", "beta"]),
            make_doc("ui/C.java", ["gamma"]),
        ]
    )


def test_evaluate_config_aggregates(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    result = evaluate_config(pairs, _index_for_dataset(), PipelineConfig())
    assert result.report_count == 2
    assert set(result.hits_at) == {1, 5, 10}
    assert 0.0 <= result.mrr <= 1.0
    assert 0.0 <= result.map_score <= 1.0
    assert len(result.per_report) == 2
    by_id = {o.report_id: o for o in result.per_report}
    # r1's truth contains "save" and "tap": rank 1; r2's "save" doc ranks behind it
    assert by_id["r1"].first_relevant_rank == 1
    assert by_id["r2"].first_relevant_rank == 2
    assert result.mrr == pytest.approx((1.0 + 0.5) / 2)


def _grid():
    return SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand"],
        rerank_strategies=["none", "boost"],
        windows=[1, 3],
    )


def test_default_grid_is_the_default_config():
    assert SweepGrid().configs() == [PipelineConfig()]


def test_sweep_rows_follow_grid_order(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    out = tmp_path / "sweep.csv"
    outcome = sweep(_grid(), pairs, _index_for_dataset(), out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 16
    configs = [tuple(line.split(",")[:4]) for line in lines[1:]]
    assert configs == sorted(configs, key=lambda c: (
        ["bm25", "rvsm"].index(c[0]),
        ["base", "expand"].index(c[1]),
        ["none", "boost"].index(c[2]),
        [1, 3].index(int(c[3])),
    ))
    assert outcome.computed == 16 and outcome.reused == 0


def test_sweep_resume_skips_existing_rows(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    out = tmp_path / "sweep.csv"
    index = _index_for_dataset()
    first = sweep(_grid(), pairs, index, out)
    content = out.read_bytes()
    second = sweep(_grid(), pairs, index, out)
    assert second.computed == 0
    assert second.reused == len(first.rows)
    assert out.read_bytes() == content


def test_sweep_partial_file_completes(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    out = tmp_path / "sweep.csv"
    index = _index_for_dataset()
    sweep(_grid(), pairs, index, out)
    full = out.read_text().splitlines()
    out.write_text("\n".join(full[:5]) + "\n")
    outcome = sweep(_grid(), pairs, index, out)
    assert outcome.reused == 4
    assert outcome.computed == 12
    assert out.read_text().splitlines() == full


def test_sweep_parallel_output_identical(tmp_path):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    index = _index_for_dataset()
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    sweep(_grid(), pairs, index, serial, jobs=1)
    sweep(_grid(), pairs, index, parallel, jobs=4)
    assert serial.read_text() == parallel.read_text()


def test_sweep_skips_invalid_configs(tmp_path, caplog):
    reports, traces = _dataset_files(tmp_path)
    pairs = load_dataset(reports, traces)
    grid = SweepGrid(scorers=["bm25", "nope"], windows=[3])
    out = tmp_path / "sweep.csv"
    outcome = sweep(grid, pairs, _index_for_dataset(), out)
    assert outcome.skipped == 1
    assert len(outcome.rows) == 1
    assert any("skipping invalid" in rec.getMessage() for rec in caplog.records)


@pytest.fixture(scope="module")
def fixture_data():
    return (
        build_index(scan_corpus(FIXTURES / "app")),
        load_dataset(FIXTURES / "reports", FIXTURES / "traces"),
    )


def test_sweep_reuses_no_row_of_another_sweep_under_its_meta_file(fixture_data, tmp_path):
    """Two sweeps into one file can leave B's CSV under A's meta file; A's resume must not keep B's rows."""
    index, pairs = fixture_data
    other = build_index(scan_corpus(FIXTURES / "app"), ScoringParams(bm25_k1=0.0, bm25_b=1.0))
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand"],
        rerank_strategies=["none", "boost"],
    )
    fresh, out = tmp_path / "fresh.csv", tmp_path / "sweep.csv"
    fresh_rows = sweep(grid, pairs, index, fresh).rows
    other_rows = sweep(grid, pairs, other, out).rows
    assert other_rows != fresh_rows
    (tmp_path / "sweep.csv.meta.json").write_bytes((tmp_path / "fresh.csv.meta.json").read_bytes())
    outcome = sweep(grid, pairs, index, out)
    assert out.read_bytes() == fresh.read_bytes()
    # only a row that is byte for byte one of A's own is kept
    assert outcome.reused == len(set(other_rows) & set(fresh_rows)) < 8
    assert outcome.computed == 8 - outcome.reused


def test_sweep_rows_equal_uncached_evaluation(fixture_data, tmp_path):
    index, pairs = fixture_data
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "filter", "boost", "filter_boost"],
        windows=[1, 3],
        term_sources=[("activity", "component_id"), ()],
        expansion_weights=[1.0, 2.0],
    )
    outcome = sweep(grid, pairs, index, tmp_path / "sweep.csv")
    configs = grid.configs()
    assert len(outcome.rows) == len(configs) == 192
    for config, row in zip(configs, outcome.rows):
        assert row == _result_row(config, evaluate_config(pairs, index, config))


def test_rows_equal_metrics_of_full_depth_localize_rankings(fixture_data, tmp_path):
    """Evaluation ranks on cached path orders; localize's re-ranked entries are the reference."""
    index, pairs = fixture_data
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "filter", "boost", "filter_boost"],
        windows=[1, 2, 3],
        expansion_weights=[1.0, 2.0],
    )
    configs = grid.configs()
    assert len(configs) == 144
    rows = sweep(grid, pairs, index, tmp_path / "sweep.csv").rows
    for config, row in zip(configs, rows):
        outcomes, hits = [], {k: 0 for k in HITS_KS}
        for report, trace in pairs:
            paths = localize(report, trace, index, full_depth(config, index)).paths()
            truth = report.ground_truth
            outcomes.append(
                ReportOutcome(
                    report.report_id,
                    next((i for i, p in enumerate(paths, 1) if p in truth), None),
                    oracle_rr(paths, truth),
                    oracle_ap(paths, truth),
                )
            )
            for k in HITS_KS:
                hits[k] += oracle_hits(paths, truth, k)
        n = len(pairs)
        want = EvalResult(
            config,
            outcomes,
            {k: hits[k] / n for k in HITS_KS},
            sum(o.reciprocal_rank for o in outcomes) / n,
            sum(o.average_precision for o in outcomes) / n,
            n,
        )
        assert evaluate_config(pairs, index, config) == want
        assert row == _result_row(config, want)


def test_default_grid_sweep_computes_each_stage_once_per_report(
    fixture_data, tmp_path, monkeypatch
):
    index, pairs = fixture_data
    contexts, scorings = Counter(), Counter()
    gui_context, rank = pipeline.gui_context, pipeline.rank

    def counted_context(trace, *args, **kwargs):
        contexts[trace.trace_id] += 1
        return gui_context(trace, *args, **kwargs)

    def counted_rank(*args):
        scorings["all"] += 1
        return rank(*args)

    monkeypatch.setattr(pipeline, "gui_context", counted_context)
    monkeypatch.setattr(pipeline, "rank", counted_rank)
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "filter", "boost", "filter_boost"],
        windows=[1, 3],
    )
    outcome = sweep(grid, pairs, index, tmp_path / "sweep.csv")
    assert outcome.computed == 48
    assert contexts == {trace.trace_id: 2 for _, trace in pairs}
    assert scorings["all"] == 10 * len(pairs)


def test_sweep_leaves_the_collector_on_and_makes_no_cycles(fixture_data, tmp_path, monkeypatch):
    index, pairs = fixture_data
    seen = []
    evaluate = evaluation.evaluate_config

    def watched(*args, **kwargs):
        seen.append(gc.isenabled())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_config", watched)
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "filter", "boost", "filter_boost"],
        windows=[1, 3],
    )
    sweep(grid, pairs, index, tmp_path / "sweep.csv")
    assert seen == [True] * 48 and gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        sweep(grid, pairs, index, tmp_path / "again.csv")
        assert not gc.isenabled()
        # nothing the sweep left behind needs the collector to be freed
        assert gc.collect() == 0
    finally:
        gc.enable()


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 and later run it: a float total is rounded once, at the end."""
    values = list(values)
    if any(type(v) is float for v in values):
        return math.fsum([start, *values])
    return builtins.sum(values, start)


def test_scores_and_metrics_do_not_depend_on_how_sum_adds_floats(fixture_data, monkeypatch):
    index, pairs = fixture_data
    # ranks 1, 3 and 7 give reciprocal ranks whose left-to-right total is one ulp off fsum's
    docs = [make_doc(f"d{i}.java", ["crash"] * (10 - i) + ["pad"] * i) for i in range(8)]
    small = build_index(docs)
    trace = make_trace("t", [make_screen("com.app.MainActivity")])
    small_pairs = [(BugReport(f"r{r}", "crash", "", {f"d{r - 1}.java"}), trace) for r in (1, 3, 7)]
    configs = [
        full_depth(PipelineConfig(scorer="rvsm", query_strategy=q), index)
        for q in pipeline.QUERY_STRATEGIES
    ]

    def results():
        scores = [
            [(e.path, e.score) for e in localize(report, trace, index, config).entries]
            for config in configs
            for report, trace in pairs
        ]
        result = evaluate_config(small_pairs, small)
        return scores, result.mrr, result.map_score

    expected = results()
    assert expected[1] == (1 + 1 / 3 + 1 / 7) / 3 != math.fsum([1, 1 / 3, 1 / 7]) / 3
    for module in (index_module, evaluation):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert results() == expected

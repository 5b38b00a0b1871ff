"""One test per release criterion; each prints a single pass line when green."""
from __future__ import annotations

import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from guiloc.cli import run
from guiloc.corpus import scan_corpus
from guiloc.evaluation import (
    SweepGrid,
    average_precision,
    evaluate_config,
    hits_at_k,
    load_dataset,
    reciprocal_rank,
    sweep,
)
from guiloc.index import RankEntry, RankedList, build_index, load_index, rank, save_index
from guiloc.mapping import GuiContext
from guiloc.pipeline import PipelineConfig, apply_rerank
from guiloc.reports import classify_sentences, parse_s2r, segment_with_markers
from guiloc.step_mapping import detect_missing_steps, map_steps_to_model
from guiloc.traces import build_execution_model, load_model, parse_trace, save_model

from conftest import FIXTURES, make_component, make_doc, make_screen, make_trace


@pytest.fixture(scope="module")
def fixture_index():
    return build_index(scan_corpus(FIXTURES / "app"))


@pytest.fixture(scope="module")
def fixture_pairs():
    return load_dataset(FIXTURES / "reports", FIXTURES / "traces")


# -------------------------------------------------- 1: metric oracle equivalence


def test_criterion_1_metric_oracle_equivalence():
    def oracle_hits(ranking, truth, k):
        return 1 if any(p in truth for p in ranking[:k]) else 0

    def oracle_rr(ranking, truth):
        for i, p in enumerate(ranking):
            if p in truth:
                return 1.0 / (i + 1)
        return 0.0

    def oracle_ap(ranking, truth):
        total = 0.0
        for i in range(len(ranking)):
            if ranking[i] in truth:
                prefix = ranking[: i + 1]
                total += sum(1 for p in prefix if p in truth) / len(prefix)
        return total / len(truth)

    rng = random.Random(2024)
    pool = [f"f{i:02d}" for i in range(30)]
    start = time.perf_counter()
    for _ in range(50):
        ranking = rng.sample(pool, rng.randint(0, 20))
        truth = set(rng.sample(pool, rng.randint(1, 5)))
        ranks = [i for i, p in enumerate(ranking, 1) if p in truth]
        for k in (1, 5, 10):
            assert hits_at_k(ranks, k) == oracle_hits(ranking, truth, k)
        assert reciprocal_rank(ranks) == oracle_rr(ranking, truth)
        assert average_precision(ranks, len(truth)) == oracle_ap(ranking, truth)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 50 metric instances match the brute-force oracle "
          f"exactly in {elapsed:.3f}s")


# -------------------------------------------------- 2: scorer correctness


def _naive_bm25(docs, query, k1=1.2, b=0.75):
    n = len(docs)
    avg = sum(d.length for d in docs) / n
    qtf = Counter(query)
    scores = {}
    for d in docs:
        total = 0.0
        for term, q_count in qtf.items():
            df = sum(1 for x in docs if term in x.terms)
            f = d.terms.get(term, 0)
            if df == 0 or f == 0:
                continue
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            tf_part = f * (k1 + 1) / (f + k1 * (1 - b + b * d.length / avg))
            total += q_count * idf * tf_part
        scores[d.path] = total
    return scores


def _naive_rvsm(docs, query):
    n = len(docs)
    df = Counter()
    for d in docs:
        df.update(set(d.terms))

    def weight(freq, term):
        if df[term] == 0:
            return 0.0
        return (1 + math.log(freq)) * math.log(n / df[term])

    qvec = {t: weight(c, t) for t, c in Counter(query).items()}
    q_norm = math.sqrt(sum(v * v for v in qvec.values()))
    lengths = [d.length for d in docs]
    lo, hi = min(lengths), max(lengths)
    scores = {}
    for d in docs:
        dvec = {t: weight(f, t) for t, f in d.terms.items()}
        d_norm = math.sqrt(sum(v * v for v in dvec.values()))
        dot = sum(v * dvec.get(t, 0.0) for t, v in qvec.items())
        cos = dot / (q_norm * d_norm) if q_norm > 0 and d_norm > 0 else 0.0
        norm_len = 0.0 if hi == lo else (d.length - lo) / (hi - lo)
        scores[d.path] = cos * (1 / (1 + math.exp(-norm_len)))
    return scores


def test_criterion_2_scorer_correctness():
    rng = random.Random(77)
    vocab = ("save", "note", "edit", "view", "sync", "tag", "list", "load")
    for _ in range(30):
        docs = [
            make_doc(f"f{i:02d}.java", [rng.choice(vocab) for _ in range(rng.randint(1, 15))])
            for i in range(rng.randint(2, 10))
        ]
        query = [rng.choice(vocab + ("missing",)) for _ in range(rng.randint(1, 6))]
        index = build_index(docs)
        for scorer, naive in (("bm25", _naive_bm25), ("rvsm", _naive_rvsm)):
            got = {e.path: e.score for e in rank(index, query, scorer).entries}
            want = naive(docs, query)
            for d in docs:
                assert got.get(d.path, 0.0) == pytest.approx(want[d.path], abs=1e-9)

    docs = [make_doc("d1.java", ["a", "b"]), make_doc("d2.java", ["b"])]
    score = rank(build_index(docs), ["a"], "bm25").entries[0].score
    assert score == pytest.approx(0.6100, abs=1e-4)
    print(f"criterion 2 PASS: both scorers match the dense reference within 1e-9; "
          f"hand-computed BM25 example scores {score:.4f}")


# -------------------------------------------------- 3: re-ranking invariants


def test_criterion_3_reranking_invariants():
    rng = random.Random(3030)
    pool = [f"f{i:02d}.java" for i in range(20)]
    for _ in range(100):
        paths = rng.sample(pool, rng.randint(0, 12))
        ranked = RankedList(
            entries=[RankEntry(p, float(len(paths) - i), set()) for i, p in enumerate(paths)],
            flags=[],
        )
        ctx = GuiContext(
            terms=Counter(),
            activity_files=set(rng.sample(pool, rng.randint(0, 4))),
            listener_files=set(rng.sample(pool, rng.randint(0, 4))),
            component_files=set(rng.sample(pool, rng.randint(0, 6))),
            window_used=1,
        )
        assert ctx.boosted <= ctx.gui_related

        boosted = apply_rerank(ranked, ctx, "boost")
        front = [e.path for e in ranked.entries if e.path in ctx.boosted]
        back = [e.path for e in ranked.entries if e.path not in ctx.boosted]
        assert [e.path for e in boosted.entries] == front + back

        filtered = apply_rerank(ranked, ctx, "filter")
        assert set(e.path for e in filtered.entries) <= set(paths)

        both = apply_rerank(ranked, ctx, "filter_boost")
        assert set(e.path for e in both.entries) <= set(e.path for e in filtered.entries)
    print("criterion 3 PASS: 100 randomized re-ranking instances satisfy the "
          "partition and subset invariants")


# -------------------------------------------------- 4: fixture benchmark


def test_criterion_4_fixture_benchmark(fixture_index, fixture_pairs):
    start = time.perf_counter()
    summary = []
    for scorer in ("bm25", "rvsm"):
        base = evaluate_config(fixture_pairs, fixture_index, PipelineConfig(scorer=scorer))
        gui = evaluate_config(
            fixture_pairs,
            fixture_index,
            PipelineConfig(scorer=scorer, query_strategy="expand",
                           rerank_strategy="filter_boost"),
        )
        assert gui.hits_at[10] >= base.hits_at[10]

        base_ranks = [o.first_relevant_rank for o in base.per_report]
        gui_ranks = [o.first_relevant_rank for o in gui.per_report]
        assert all(r is not None for r in base_ranks)
        assert all(r is not None for r in gui_ranks)
        base_mean = sum(base_ranks) / len(base_ranks)
        gui_mean = sum(gui_ranks) / len(gui_ranks)
        assert gui_mean < base_mean

        w1 = evaluate_config(
            fixture_pairs,
            fixture_index,
            PipelineConfig(scorer=scorer, query_strategy="expand",
                           rerank_strategy="filter_boost", window=1),
        )
        assert gui.mrr >= w1.mrr
        summary.append(f"{scorer} mean rank {base_mean:.1f}->{gui_mean:.1f}, "
                       f"MRR w1 {w1.mrr:.2f} w3 {gui.mrr:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 4 PASS: GUI augmentation improves the fixture benchmark "
          f"({'; '.join(summary)}) in {elapsed:.1f}s")


# -------------------------------------------------- 5: sweep integrity


def test_criterion_5_sweep_integrity(fixture_index, fixture_pairs, tmp_path):
    grid = SweepGrid(
        scorers=["bm25", "rvsm"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "filter", "boost", "filter_boost"],
        windows=[1, 2, 3],
    )
    out = tmp_path / "grid72.csv"
    first = sweep(grid, fixture_pairs, fixture_index, out)
    assert len(first.rows) == 72
    content = out.read_bytes()
    second = sweep(grid, fixture_pairs, fixture_index, out)
    assert second.computed == 0 and second.reused == 72
    assert out.read_bytes() == content

    big = SweepGrid(
        scorers=["bm25"],
        query_strategies=["base", "expand", "replace"],
        rerank_strategies=["none", "boost", "filter_boost"],
        windows=list(range(1, 74)),
    )
    big_out = tmp_path / "grid657.csv"
    start = time.perf_counter()
    outcome = sweep(big, fixture_pairs, fixture_index, big_out)
    elapsed = time.perf_counter() - start
    assert len(outcome.rows) == 657
    assert elapsed < 300.0
    print(f"criterion 5 PASS: 72-row grid deterministic and idempotent; "
          f"657-row grid completed in {elapsed:.1f}s")


# -------------------------------------------------- 6: report analysis


LABELED_SENTENCES = [
    ("Open the settings screen.", "S2R"),
    ("Tap the save button.", "S2R"),
    ("The app crashes immediately.", "OB"),
    ("The note should keep its tags.", "EB"),
    ("App Version: 1.5.8.", "OTHER"),
    ("I expected the list to refresh.", "EB"),
    ("Nothing happens when I press back.", "OB"),
    ("Scroll to the bottom of the list.", "S2R"),
    ("Android 12 on a Pixel 6.", "OTHER"),
    ("The editor freezes for ten seconds.", "OB"),
    ("Type a long title into the field.", "S2R"),
    ("It is supposed to sync automatically.", "EB"),
]

SLOT_SENTENCES = [
    ("Click the save button", ("user", "click", "save button", None, None)),
    ("Click on the save button", ("user", "click", "save button", None, None)),
    ("Tap Save", ("user", "click", "Save", None, None)),
    ("Type 'hello' in the search field", ("user", "type", "'hello'", "in", "search field")),
    ("Enter hello into the search field", ("user", "type", "hello", "into", "search field")),
    ("The user types a name in the login form", ("user", "type", "name", "in", "login form")),
    ("Long-click the note in the list", ("user", "long-click", "note", "in", "list")),
    ("Swipe left on the note card", ("user", "swipe", "left", "on", "note card")),
    ("Press the back button", ("user", "click", "back button", None, None)),
    ("Open the settings screen", ("user", "open", "settings screen", None, None)),
    ("Select a tag from the picker", ("user", "select", "tag", "from", "picker")),
    ("Pinch the map view", ("user", "pinch", "map view", None, None)),
    ("The user clicks save in the toolbar", ("user", "click", "save", "in", "toolbar")),
    ("Input the password at the login prompt", ("user", "type", "password", "at", "login prompt")),
    ("Then tap the sync icon on the main screen", ("user", "click", "sync icon", "on", "main screen")),
]


def _linear_model():
    ids = ["go_beta", "go_gamma", "go_delta"]
    texts = ["Go beta", "Go gamma", "Go delta"]
    screens = []
    for i, name in enumerate("ABCD"):
        exercised = i < 3
        screens.append(
            make_screen(
                f"com.app.Screen{name}",
                components=[
                    make_component(
                        ids[i] if exercised else "end_label",
                        text=texts[i] if exercised else "done",
                        exercised=exercised,
                        action="click" if exercised else None,
                    )
                ],
            )
        )
    trace = make_trace("t-linear", screens)
    return build_execution_model([trace]), trace


def test_criterion_6_report_analysis():
    tagged = classify_sentences([s for s, _ in LABELED_SENTENCES])
    correct = sum(1 for (_, got), (_, want) in zip(tagged, LABELED_SENTENCES) if got == want)
    assert correct >= 10
    trap = segment_with_markers("App Version: 1.5.8.")
    assert [seg.text for seg in trap] == ["App Version: 1.5.8."]
    assert dict(tagged)["App Version: 1.5.8."] == "OTHER"

    model, _ = _linear_model()
    steps = [parse_s2r("Click the go beta button"), parse_s2r("Click the go delta button")]
    matches = map_steps_to_model(steps, model)
    assert [m.status for m in matches] == ["matched", "matched"]
    report = detect_missing_steps(matches, model)
    assert len(report.gaps) == 1
    gap = report.gaps[0]
    assert not gap.infeasible
    # the one unstated interaction is the second edge, screen B to screen C
    assert [e.resource_id for e in gap.missing] == ["go_gamma"]
    assert gap.missing[0].src == model.edges[1].src
    assert gap.missing[0].dst == model.edges[1].dst

    for sentence, expected in SLOT_SENTENCES:
        step = parse_s2r(sentence)
        assert (step.subject, step.action, step.object, step.preposition, step.object2) == expected

    print(f"criterion 6 PASS: {correct}/12 sentence tags correct with the version "
          f"trap exact; the planted B->C gap and all 15 slot parses recovered")


# -------------------------------------------------- 7: round-trips


def test_criterion_7_round_trips(fixture_index, tmp_path):
    index_path = tmp_path / "index.json"
    save_index(fixture_index, index_path)
    loaded = load_index(index_path)
    resaved = tmp_path / "index2.json"
    save_index(loaded, resaved)
    assert index_path.read_bytes() == resaved.read_bytes()
    query = ["save", "note", "sync"]
    assert [(e.path, e.score) for e in rank(loaded, query, "bm25").entries] == [
        (e.path, e.score) for e in rank(fixture_index, query, "bm25").entries
    ]

    trace_paths = sorted((FIXTURES / "traces").glob("*.json"))
    traces = [parse_trace(p) for p in trace_paths]
    model = build_execution_model(traces)
    model_path = tmp_path / "model.json"
    save_model(model, model_path)
    reloaded = load_model(model_path)
    resaved_model = tmp_path / "model2.json"
    save_model(reloaded, resaved_model)
    assert model_path.read_bytes() == resaved_model.read_bytes()

    rng = random.Random(7)
    for _ in range(5):
        shuffled = traces[:]
        rng.shuffle(shuffled)
        permuted = build_execution_model(shuffled)
        assert set(permuted.nodes) == set(model.nodes)
        assert {e.key() for e in permuted.edges} == {e.key() for e in model.edges}
        assert permuted.entry_fingerprints == model.entry_fingerprints
    print("criterion 7 PASS: index and model serialization round-trip byte-identically; "
          "permuted trace order yields the same graph")


# -------------------------------------------------- 8: end-to-end determinism


def test_criterion_8_end_to_end_determinism(tmp_path):
    index_path = tmp_path / "index.json"
    assert run(["index", "--corpus", str(FIXTURES / "app"), "--out", str(index_path)]) == 0

    localize_argv = [
        "localize",
        "--index", str(index_path),
        "--report", str(FIXTURES / "reports" / "r01.json"),
        "--trace", str(FIXTURES / "traces" / "r01.json"),
        "--query", "expand",
        "--rerank", "filter-boost",
        "--out", str(tmp_path / "ranking.json"),
    ]
    assert run(localize_argv) == 0
    first_ranking = (tmp_path / "ranking.json").read_bytes()
    assert run(localize_argv) == 0
    assert (tmp_path / "ranking.json").read_bytes() == first_ranking

    sweep_argv = [
        "sweep",
        "--index", str(index_path),
        "--reports", str(FIXTURES / "reports"),
        "--traces", str(FIXTURES / "traces"),
        "--out", str(tmp_path / "sweep.csv"),
        "--scorers", "bm25",
        "--queries", "base,expand",
        "--reranks", "none,filter-boost",
        "--windows", "1,3",
    ]
    assert run(sweep_argv) == 0
    first_sweep = (tmp_path / "sweep.csv").read_bytes()
    (tmp_path / "sweep.csv").unlink()
    assert run(sweep_argv) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first_sweep
    assert run(sweep_argv) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first_sweep
    print("criterion 8 PASS: repeated localize and sweep runs produce "
          "byte-identical outputs")

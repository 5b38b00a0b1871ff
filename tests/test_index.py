from __future__ import annotations

import gc
import json
import math
import random
import weakref
from collections import Counter

import pytest

from guiloc.corpus import scan_corpus
from guiloc.errors import ConfigError, InputError
from guiloc.evaluation import load_dataset
from guiloc.index import (
    SCORERS,
    ScoredList,
    ScoringParams,
    build_index,
    load_index,
    rank,
    save_index,
    score_bm25,
    score_rvsm,
)

from guiloc.pipeline import PipelineConfig, localize

from conftest import FIXTURES, make_doc, repack_postings, unpack_postings


# independent dense references; no postings, no shared helpers. Each score
# is summed over the query terms in query order and each rVSM norm over the
# document's terms in stored order, with the grouping of the definitions, so
# the exact tests below can compare with ==.


def naive_bm25(docs, query, k1=1.2, b=0.75):
    n = len(docs)
    avg = sum(d.length for d in docs) / n
    df = Counter()
    for d in docs:
        for term in d.terms:
            df[term] += 1
    out = {}
    for d in docs:
        score = 0.0
        for term, qtf in Counter(query).items():
            f = d.terms.get(term, 0)
            if f == 0 or df[term] == 0:
                continue
            idf = math.log(1 + (n - df[term] + 0.5) / (df[term] + 0.5))
            score += qtf * idf * f * (k1 + 1) / (f + k1 * (1 - b + b * d.length / avg))
        out[d.path] = score
    return out


def naive_rvsm(docs, query):
    n = len(docs)
    df = Counter()
    for d in docs:
        for term in d.terms:
            df[term] += 1

    def idf(t):
        return math.log(n / df[t]) if df[t] else 0.0

    def norm(weights):
        sq = 0.0
        for w in weights:
            sq += w * w
        return math.sqrt(sq)

    qc = Counter(query)
    # a query frequency below 1 weighs linearly, as score_rvsm documents
    qvec = {t: (1 + math.log(c) if c >= 1 else c) * idf(t) for t, c in qc.items() if idf(t) > 0}
    qnorm = norm(qvec.values())
    lengths = [d.length for d in docs]
    lo, hi = min(lengths), max(lengths)
    out = {}
    for d in docs:
        dot = 0.0
        for t, qw in qvec.items():
            f = d.terms.get(t, 0)
            if f:
                dot += qw * (1 + math.log(f)) * idf(t)
        dnorm = norm((1 + math.log(f)) * idf(t) for t, f in d.terms.items())
        if qnorm == 0 or dnorm == 0 or dot <= 0:
            out[d.path] = 0.0
            continue
        norm_len = (d.length - lo) / (hi - lo) if hi > lo else 0.0
        g = 1 / (1 + math.exp(-norm_len))
        out[d.path] = g * dot / (qnorm * dnorm)
    return out


def _random_docs(rng, max_docs=10, vocab=("save", "note", "edit", "view", "sync", "tag", "list", "load")):
    docs = []
    for i in range(rng.randint(2, max_docs)):
        terms = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
        docs.append(make_doc(f"f{i:02d}.java", terms))
    return docs


def test_bm25_two_doc_hand_example():
    docs = [make_doc("d1.java", ["a", "b"]), make_doc("d2.java", ["b"])]
    index = build_index(docs)
    ranked = score_bm25(index, ["a"])
    assert [e.path for e in ranked.entries] == ["d1.java"]
    # idf = ln 2, tf part = 0.88, computed by hand
    assert ranked.entries[0].score == pytest.approx(math.log(2) * 0.88, abs=1e-12)
    assert ranked.entries[0].score == pytest.approx(0.6100, abs=1e-4)


def test_bm25_matches_dense_reference():
    rng = random.Random(21)
    for _ in range(50):
        docs = _random_docs(rng)
        query = [rng.choice(["save", "note", "sync", "missing"]) for _ in range(rng.randint(1, 6))]
        index = build_index(docs)
        got = {e.path: e.score for e in score_bm25(index, query).entries}
        want = naive_bm25(docs, query)
        for path, score in want.items():
            if score > 0:
                assert got[path] == pytest.approx(score, abs=1e-9)
            else:
                assert path not in got


def test_rvsm_matches_dense_reference():
    rng = random.Random(22)
    for _ in range(50):
        docs = _random_docs(rng)
        query = [rng.choice(["save", "note", "sync", "missing"]) for _ in range(rng.randint(1, 6))]
        index = build_index(docs)
        got = {e.path: e.score for e in score_rvsm(index, query).entries}
        want = naive_rvsm(docs, query)
        for path, score in want.items():
            if score > 0:
                assert got[path] == pytest.approx(score, abs=1e-9)
            else:
                assert path not in got


def test_rvsm_length_factor_prefers_longer_on_equal_cosine():
    docs = [
        make_doc("short.java", ["save"]),
        make_doc("long.java", ["save", "save"]),
        make_doc("other.java", ["other"]),
    ]
    ranked = score_rvsm(build_index(docs), ["save"])
    scores = {e.path: e.score for e in ranked.entries}
    assert scores["long.java"] > scores["short.java"]


def test_scores_nonincreasing_and_ties_by_path():
    docs = [make_doc("b.java", ["save"]), make_doc("a.java", ["save"]), make_doc("c.java", ["x"])]
    for scorer in (score_bm25, score_rvsm):
        ranked = scorer(build_index(docs), ["save"])
        scores = [e.score for e in ranked.entries]
        assert scores == sorted(scores, reverse=True)
        assert [e.path for e in ranked.entries] == ["a.java", "b.java"]


def _random_scored(rng, n):
    """A ScoredList over n files whose doc order is not their path order, with tied and zero scores."""
    paths = rng.sample([f"p{i:03d}.java" for i in range(100)], n)
    scores = [rng.choice([0.0, 0.0, 0.5, 1.0, 1.0, 2.5]) for _ in paths]
    ranked = ScoredList(build_index([make_doc(p, ["x"]) for p in paths]), scores)
    want = sorted((d for d in range(n) if scores[d] > 0.0), key=lambda d: (-scores[d], paths[d]))
    return ranked, want


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_order_is_the_positive_ids_by_score_then_path(n):
    rng = random.Random(n)
    for _ in range(30):
        ranked, want = _random_scored(rng, n)
        assert ranked.top([None], n) == want
        assert ranked.paths() == [ranked.index.paths[d] for d in want]


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_top_of_one_group_is_the_head_of_order(n):
    rng = random.Random(100 + n)
    for _ in range(30):
        ranked, want = _random_scored(rng, n)
        for k in range(1, n + 1):
            assert ranked.top([None], k) == want[:k]


def test_zero_score_documents_omitted():
    docs = [make_doc("hit.java", ["save"]), make_doc("miss.java", ["other"])]
    for scorer in (score_bm25, score_rvsm):
        ranked = scorer(build_index(docs), ["save"])
        assert [e.path for e in ranked.entries] == ["hit.java"]


def test_empty_query_warns_not_errors():
    index = build_index([make_doc("a.java", ["x"])])
    for scorer in (score_bm25, score_rvsm):
        ranked = scorer(index, [])
        assert ranked.entries == []
        assert "empty-query" in ranked.flags


def test_added_irrelevant_doc_keeps_relative_order_under_frozen_stats():
    rng = random.Random(23)
    for _ in range(30):
        docs = _random_docs(rng, max_docs=8)
        query = ["save", "note"]
        base_index = build_index(docs)
        extra = make_doc("zzz_extra.java", ["unrelated", "padding"])
        grown_index = build_index(docs + [extra])
        # rescore the grown corpus against the old statistics snapshot
        grown_index.doc_freq = base_index.doc_freq
        grown_index.avg_length = base_index.avg_length
        grown_index.doc_count = base_index.doc_count
        grown_index.postings = base_index.postings
        before = [e.path for e in score_bm25(base_index, query).entries]
        after = [e.path for e in score_bm25(grown_index, query).entries if e.path != "zzz_extra.java"]
        assert after == before


def test_rvsm_query_frequency_below_one_weighs_linearly():
    docs = [make_doc("a.java", ["a", "a", "b"]), make_doc("b.java", ["b"]), make_doc("c.java", ["c"])]
    index = build_index(docs)
    idf_a, idf_b = math.log(3), math.log(3 / 2)
    a_vec = ((1 + math.log(2)) * idf_a, idf_b)  # a.java's weights for a and b
    g_a, g_b = 1 / (1 + math.exp(-1)), 0.5  # a.java is the longest file, b.java the shortest
    # one query term: the cosine is a.java's own weight for it over its norm
    want = {"a.java": g_a * a_vec[0] / math.hypot(*a_vec)}
    assert dict(_scored(score_rvsm(index, {"a": 0.25}))) == pytest.approx(want, rel=1e-12)
    # with a second term the query weight of a shows: 0.25 * idf, not the negative (1 + ln 0.25) * idf
    q_vec = (0.25 * idf_a, idf_b)
    q_norm = math.hypot(*q_vec)
    want = {
        "a.java": g_a * (q_vec[0] * a_vec[0] + q_vec[1] * a_vec[1]) / (q_norm * math.hypot(*a_vec)),
        "b.java": g_b * idf_b / q_norm,
    }
    scores = dict(_scored(score_rvsm(index, {"a": 0.25, "b": 1})))
    assert scores == pytest.approx(want, rel=1e-12)
    assert min(scores.values()) > 0


def test_rank_dispatch_and_unknown_scorer():
    index = build_index([make_doc("a.java", ["save"]), make_doc("b.java", ["other"])])
    assert rank(index, ["save"], "bm25").entries
    assert rank(index, ["save"], "rvsm").entries
    with pytest.raises(ConfigError):
        rank(index, ["save"], "tfidf")


def test_rvsm_term_in_every_doc_carries_no_weight():
    index = build_index([make_doc("a.java", ["save"]), make_doc("b.java", ["save"])])
    ranked = score_rvsm(index, ["save"])
    assert ranked.entries == []
    assert "no-discriminative-terms" in ranked.flags


def test_empty_corpus_is_fatal():
    with pytest.raises(InputError):
        build_index([])


def test_index_round_trip_is_lossless(tmp_path):
    docs = [
        make_doc("a/A.java", ["save", "note", "save"], refs={"save_button"}),
        make_doc("b/B.java", ["view", "tag"], refs=set()),
    ]
    index = build_index(docs, ScoringParams(bm25_k1=1.5, bm25_b=0.6))
    path = tmp_path / "corpus.idx.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.doc_count == index.doc_count
    assert loaded.params == index.params
    assert loaded.avg_length == index.avg_length
    assert loaded.doc_freq == index.doc_freq
    assert loaded.postings == index.postings
    for a, b in zip(index.documents, loaded.documents):
        assert (a.path, a.class_name, a.terms, a.length, a.resource_id_refs) == (
            b.path,
            b.class_name,
            b.terms,
            b.length,
            b.resource_id_refs,
        )
    save_index(loaded, tmp_path / "again.idx.json")
    assert (tmp_path / "again.idx.json").read_bytes() == path.read_bytes()


def test_index_version_gate(tmp_path):
    path = tmp_path / "bad.idx.json"
    path.write_text('{"format": "guiloc-index", "version": 99, "documents": []}')
    with pytest.raises(InputError):
        load_index(path)
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(InputError):
        load_index(path)


def test_identical_scores_across_rebuilds():
    docs = [make_doc(f"f{i}.java", ["save", "note"][: 1 + i % 2] * (i + 1)) for i in range(5)]
    first = score_bm25(build_index(docs), ["save", "note"])
    second = score_bm25(build_index(docs), ["save", "note"])
    assert [(e.path, e.score) for e in first.entries] == [(e.path, e.score) for e in second.entries]


def test_index_loads_indented_files_from_older_builds(tmp_path):
    docs = [
        make_doc("a/A.java", ["save", "note", "save"], refs={"save_button"}),
        make_doc("b/B.java", ["view", "tag"]),
    ]
    index = build_index(docs)
    compact = tmp_path / "compact.idx.json"
    save_index(index, compact)
    assert compact.read_text().count("\n") == 1
    indented = tmp_path / "indented.idx.json"
    payload = json.loads(compact.read_text())
    indented.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    assert load_index(indented).postings == load_index(compact).postings == index.postings


def test_doc_ids_must_run_in_list_order(tmp_path):
    docs = [make_doc("a.java", ["save"]), make_doc("b.java", ["save", "note"])]
    # a document's id is its position in the list
    assert build_index(list(reversed(docs))).doc_ids == {"b.java": 0, "a.java": 1}
    path = tmp_path / "repeated.idx.json"
    save_index(build_index(docs), path)
    data = json.loads(path.read_text())
    body = unpack_postings(data)
    save = data["terms"].index("save")
    body.gaps[body.offsets[save] + 1] = 0  # save's second doc id repeats its first
    repack_postings(data, body)
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match="ids must be"):
        load_index(path)


def test_build_index_rejects_a_duplicated_path():
    docs = [make_doc("a.java", ["save"]), make_doc("b.java", ["note"]), make_doc("a.java", [])]
    with pytest.raises(InputError, match="'a.java' appears more than once"):
        build_index(docs)


def test_term_counts_below_one_are_rejected(tmp_path):
    path = tmp_path / "zero.idx.json"
    save_index(build_index([make_doc("a.java", ["save"]), make_doc("b.java", ["note"])]), path)
    data = json.loads(path.read_text())
    body = unpack_postings(data)
    body.counts[1] = 0
    repack_postings(data, body)
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match="term count below 1"):
        load_index(path)
    with pytest.raises(InputError, match="term count below 1"):
        build_index([make_doc("a.java", {"save": 0})])


def test_postings_decode_doc_id_and_count_pairs():
    docs = [
        make_doc("a.java", ["save", "note", "tag", "save", "view"]),
        make_doc("b.java", ["save"]),
    ]
    postings = build_index(docs).postings
    assert postings["note"] == [(0, 1)] and postings["save"] == [(0, 2), (1, 1)]
    assert postings.get("absent") is None and "absent" not in postings
    assert dict(postings.items()) == {
        "note": [(0, 1)], "save": [(0, 2), (1, 1)], "tag": [(0, 1)], "view": [(0, 1)]
    }


def test_a_pass_over_every_posting_keeps_no_decoded_copy():
    docs = scan_corpus(FIXTURES / "app")
    built, rebuilt = build_index(docs).postings, build_index(docs).postings
    assert sum(len(plist) for plist in built.values()) == sum(len(d.terms) for d in docs)
    assert built == rebuilt and dict(built.items()) == dict(rebuilt.items())
    assert built != dict(built.items())  # a Postings equals only a Postings
    assert built._columns == {} and rebuilt._columns == {}
    assert built.columns("note") is built.columns("note")  # decoded once and kept
    assert list(built._columns) == ["note"]


def test_columns_hold_the_pairs_of_a_lookup(tmp_path):
    built = build_index(scan_corpus(FIXTURES / "app"))
    save_index(built, tmp_path / "index.json")
    for postings in (built.postings, load_index(tmp_path / "index.json").postings):
        assert len(postings) > 100
        for term in postings:
            assert list(zip(*postings.columns(term))) == postings[term]


@pytest.mark.parametrize("scorer", SCORERS)
def test_scoring_a_long_posting_list_keeps_no_object_per_posting(scorer):
    # 2,000 of 2,001 files hold the term, so rVSM's idf is not 0 either
    docs = [make_doc(f"f{i:04}.java", ["common"] if i else ["rare"]) for i in range(2001)]
    index = build_index(docs)
    gc.disable()
    try:
        before = gc.get_count()[0]
        ranked = rank(index, ["common"], scorer)
        grown = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert len(ranked.top([None], index.doc_count)) == 2000
    assert grown < 100


def _exact(scores):
    """A dense reference's nonzero scores in ranking order."""
    return sorted(((p, v) for p, v in scores.items() if v > 0), key=lambda e: (-e[1], e[0]))


def _scored(ranked):
    return [(e.path, e.score) for e in ranked.entries]


def test_scores_equal_exact_references_on_fixture():
    docs = scan_corpus(FIXTURES / "app")
    index = build_index(docs)
    pre = index.preprocessor
    queries = [pre.tokens(r.full_text()) for r, _ in load_dataset(FIXTURES / "reports", FIXTURES / "traces")]
    queries.append([t for d in docs[:3] for t in Counter(d.terms).elements()])
    for query in queries:
        assert _scored(score_bm25(index, query)) == _exact(naive_bm25(docs, query))
        assert _scored(score_rvsm(index, query)) == _exact(naive_rvsm(docs, query))


def test_scores_equal_exact_references_with_duplicate_documents():
    rng = random.Random(31)
    vocab = [f"w{i}" for i in range(40)]
    for _ in range(40):
        docs = []
        for i in range(rng.randint(3, 30)):
            if docs and rng.random() < 0.3:
                terms = list(Counter(rng.choice(docs).terms).elements())  # same bag, so tied scores
            else:
                terms = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            docs.append(make_doc(f"d{rng.randrange(1000):03d}_{i}.java", terms))
        params = ScoringParams(bm25_k1=rng.choice([1.2, 0.9, 2.0]), bm25_b=rng.choice([0.75, 0.3, 1.0]))
        index = build_index(docs, params)
        for _ in range(5):
            query = [rng.choice(vocab + ["absent"]) for _ in range(rng.randint(1, 25))]
            assert _scored(score_bm25(index, query)) == _exact(
                naive_bm25(docs, query, params.bm25_k1, params.bm25_b)
            )
            assert _scored(score_rvsm(index, query)) == _exact(naive_rvsm(docs, query))


def test_scores_equal_exact_references_with_a_huge_term_count():
    """rVSM's 1 + ln f comes from a memo of the distinct counts, not a table up to the largest."""
    rng = random.Random(41)
    vocab = [f"w{i}" for i in range(30)]
    for _ in range(10):
        docs = [
            make_doc(f"f{i:02d}.java", [rng.choice(vocab) for _ in range(rng.randint(1, 30))])
            for i in range(rng.randint(3, 15))
        ]
        big = rng.randrange(len(docs))
        docs[big] = make_doc(docs[big].path, {**docs[big].terms, rng.choice(vocab): 10**6})
        index = build_index(docs)
        for _ in range(5):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            assert _scored(score_rvsm(index, query)) == _exact(naive_rvsm(docs, query))
            assert _scored(score_bm25(index, query)) == _exact(naive_bm25(docs, query))


_NAIVE = {score_bm25: naive_bm25, score_rvsm: naive_rvsm}


def _counted_total(memo):
    """A recorded key counts 1, a kept column its length."""
    return sum(1 if column is None else len(column) for column in memo.columns.values())


@pytest.mark.parametrize("scorer", _NAIVE, ids=SCORERS)
def test_repeated_queries_score_exactly_like_the_reference(scorer):
    docs = scan_corpus(FIXTURES / "app")
    index = build_index(docs)
    pre = index.preprocessor
    queries = [pre.tokens(r.full_text()) for r, _ in load_dataset(FIXTURES / "reports", FIXTURES / "traces")]
    expanded = Counter(queries[0])
    for term in list(docs[0].terms)[:6]:  # GUI terms at fractional expansion weights
        expanded[term] += 0.25
    expanded[next(iter(docs[1].terms))] += 1.75
    queries.append(expanded)
    for query in queries:
        want = _exact(_NAIVE[scorer](docs, query))
        first, second, third = (_scored(scorer(index, query)) for _ in range(3))
        assert first == second == third == want != []


@pytest.mark.parametrize("scorer", _NAIVE, ids=SCORERS)
def test_a_term_column_is_kept_on_its_second_use_only(scorer):
    index = build_index([make_doc("a.java", ["save", "save"]), make_doc("b.java", ["note", "save"]),
                         make_doc("c.java", ["note"])])
    memo = index.contributions
    scorer(index, {"save": 1.5})
    assert list(memo.columns.values()) == [None]
    scorer(index, {"save": 1.5})
    [column] = memo.columns.values()
    assert len(column) == len(index.postings.columns("save")[0]) == _counted_total(memo) == 2
    scorer(index, {"save": 1.5})
    assert list(memo.columns.values()) == [column]


@pytest.mark.parametrize("scorer", _NAIVE, ids=SCORERS)
def test_many_weights_clear_the_memo_within_its_bound(scorer):
    docs = [make_doc("a.java", ["save", "note"]), make_doc("b.java", ["save", "edit"]),
            make_doc("c.java", ["note", "sync"])]
    index = build_index(docs)
    memo, bound = index.contributions, 2 * len(index.postings.gaps)
    assert memo.bound == bound == 12
    totals = []
    for weight in range(1, 4 * bound):
        query = {"save": float(weight), "note": 1 + 1 / weight}
        for _ in range(2):
            assert _scored(scorer(index, query)) == _exact(_NAIVE[scorer](docs, query))
            totals.append(_counted_total(memo))
            assert memo.size == totals[-1] <= bound
    assert sum(map(int.__lt__, totals[1:], totals)) >= 2  # cleared more than once


def test_the_memo_changes_neither_equality_nor_repr():
    docs = scan_corpus(FIXTURES / "app")
    used, fresh = build_index(docs), build_index(docs)
    before = repr(used)
    query = Counter(t for d in docs[:3] for t in d.terms)
    for _ in range(2):
        score_bm25(used, query)
        score_rvsm(used, query)
    assert any(column is not None for column in used.contributions.columns.values())
    assert not fresh.contributions.columns
    assert used == fresh
    assert repr(used) == before and "contributions" not in before


def _round_trip(index, tmp_path):
    path = tmp_path / "corpus.idx.json"
    save_index(index, path)
    return load_index(path)


def test_loaded_index_scores_exactly_like_the_built_one(tmp_path):
    """Stored rVSM norms make a saved and loaded index score == the index it was saved from."""
    rng = random.Random(53)
    seeded = [
        make_doc(f"f{i:02d}.java", [f"w{rng.randrange(40)}" for _ in range(rng.randint(1, 40))])
        for i in range(30)
    ]
    seeded[7] = make_doc(seeded[7].path, {**seeded[7].terms, "w3": 10**6})
    seeded[11] = make_doc(seeded[11].path, [])
    for docs in (scan_corpus(FIXTURES / "app"), seeded):
        built = build_index(docs)
        loaded = _round_trip(built, tmp_path)
        assert loaded.rvsm_norms == built.rvsm_norms
        vocab = sorted(built.postings)
        for _ in range(20):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 25))]
            assert _scored(score_rvsm(loaded, query)) == _scored(score_rvsm(built, query))
    assert build_index(seeded).rvsm_norms[11] == 0.0


def test_loaded_index_scores_rvsm_without_term_bags(tmp_path):
    built = build_index(scan_corpus(FIXTURES / "app"))
    loaded = _round_trip(built, tmp_path)
    query = [t for d in built.documents[:3] for t in Counter(d.terms).elements()]
    assert _scored(score_rvsm(loaded, query)) == _scored(score_rvsm(built, query)) != []
    assert "documents" not in vars(loaded)


def _seeded_corpus(rng):
    """Documents over a small vocabulary, with one file without terms and a term every file holds."""
    docs = []
    for i in range(40):
        terms = [f"w{rng.randrange(60)}" for _ in range(rng.randint(1, 30))] + ["every"]
        docs.append(make_doc(f"d{i:02d}.java", terms, refs={f"id{rng.randrange(5)}"}))
    docs[9] = make_doc(docs[9].path, ["every"] * 1000)
    return docs


def test_round_trip_restores_postings_term_bags_and_scores(tmp_path):
    rng = random.Random(61)
    seeded = _seeded_corpus(rng)
    seeded.append(make_doc("empty.java", []))
    for docs in (scan_corpus(FIXTURES / "app"), seeded):
        built = build_index(docs)
        loaded = _round_trip(built, tmp_path)
        assert loaded.postings == built.postings
        assert loaded.lengths == built.lengths and loaded.rvsm_norms == built.rvsm_norms
        assert [d.terms for d in loaded.documents] == [d.terms for d in built.documents]
        assert [(d.path, d.class_name, d.resource_id_refs) for d in loaded.documents] == [
            (d.path, d.class_name, d.resource_id_refs) for d in built.documents
        ]
        vocab = sorted(built.postings)
        for _ in range(20):
            query = [rng.choice(vocab + ["absent"]) for _ in range(rng.randint(1, 25))]
            for scorer in (score_bm25, score_rvsm):
                assert _scored(scorer(loaded, query)) == _scored(scorer(built, query))
    assert built.doc_freq["every"] == 40
    assert loaded.documents[-1].terms == {} and loaded.lengths[-1] == 0


def test_localize_on_a_loaded_index_builds_no_term_bags(tmp_path):
    loaded = _round_trip(build_index(scan_corpus(FIXTURES / "app")), tmp_path)
    pairs = load_dataset(FIXTURES / "reports", FIXTURES / "traces")
    for scorer in SCORERS:
        for rerank in ("none", "filter_boost"):
            config = PipelineConfig(scorer=scorer, query_strategy="expand", rerank_strategy=rerank)
            for report, trace in pairs:
                assert localize(report, trace, loaded, config).entries
    assert "documents" not in vars(loaded)
    assert loaded.documents[0].terms  # a library caller's first read rebuilds them
    assert "documents" in vars(loaded)


def test_built_index_keeps_no_scanned_document(tmp_path):
    docs = scan_corpus(FIXTURES / "app")
    first = weakref.ref(docs[0])
    index = build_index(docs)
    want = [(d.path, d.class_name, dict(sorted(d.terms.items())), d.length, d.resource_id_refs)
            for d in docs]
    del docs
    assert first() is None
    assert "documents" not in vars(index)
    # the view rebuilds each term bag from the postings, in sorted term order
    assert [(d.path, d.class_name, d.terms, d.length, d.resource_id_refs)
            for d in index.documents] == want
    assert [list(d.terms) for d in index.documents] == [sorted(d.terms) for d in index.documents]


def _random_corpus(rng, vocab):
    """Up to 30 documents over `vocab` terms, one of them without terms."""
    docs = [
        make_doc(f"r{i:02d}.java", [f"w{rng.randrange(vocab)}" for _ in range(rng.randint(0, 30))])
        for i in range(rng.randint(1, 30))
    ]
    empty = rng.randrange(len(docs))
    docs[empty] = make_doc(docs[empty].path, [])
    return docs


def test_round_trip_keeps_every_packed_array_and_every_score(tmp_path):
    rng = random.Random(71)
    no_terms = [make_doc(f"e{i}.java", []) for i in range(3)]
    corpora = [_random_corpus(rng, vocab) for vocab in (1, 5, 40, 200) for _ in range(3)]
    for docs in [no_terms] + corpora:
        built = build_index(docs)
        loaded = _round_trip(built, tmp_path)
        for name in ("offsets", "gaps", "counts"):
            assert getattr(loaded.postings, name) == getattr(built.postings, name)
        assert loaded.lengths == built.lengths and loaded.rvsm_norms == built.rvsm_norms
        vocab = sorted(built.postings) + ["absent"]
        for _ in range(10):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for scorer in (score_bm25, score_rvsm):
                assert scorer(loaded, query).scores == scorer(built, query).scores
    save_index(build_index(no_terms), tmp_path / "corpus.idx.json")
    body = unpack_postings(json.loads((tmp_path / "corpus.idx.json").read_text()))
    assert list(body.lengths) == [0, 0, 0] and not (body.dfs or body.gaps or body.counts)


def test_saving_the_fixture_index_twice_writes_the_same_bytes(tmp_path):
    index = build_index(scan_corpus(FIXTURES / "app"))
    save_index(index, tmp_path / "a.json")
    save_index(index, tmp_path / "b.json")
    save_index(load_index(tmp_path / "a.json"), tmp_path / "c.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def _zero_df_keeping_the_body_size(body):
    body.dfs[-2] += body.dfs[-1]
    body.dfs[-1] = 0


def _df_above_the_document_count(body):
    body.dfs[0] = len(body.lengths) + 1


def _short_head(body):
    del body.lengths[-1]
    body.gaps, body.counts = body.gaps[:0], body.counts[:0]


def _length_moved_off_the_total(body):
    body.lengths[0] += 1


@pytest.mark.parametrize("edit, message", [
    (_zero_df_keeping_the_body_size, r"document frequency must lie in \[1, 2\]"),
    (_df_above_the_document_count, r"document frequency must lie in \[1, 2\]"),
    (_short_head, "must hold 20 bytes of document frequencies and lengths first"),
    (_length_moved_off_the_total, "lengths do not add up to the term counts"),
], ids=["zero-df", "df-above-n", "short-head", "lengths-off-total"])
def test_each_v4_load_check_names_what_it_found(tmp_path, edit, message):
    path = tmp_path / "bad.idx.json"
    # moving tag's one posting onto save leaves valid ids 0 and 1 under save
    docs = [make_doc("a.java", ["save", "note", "save", "tag"]), make_doc("b.java", ["note"])]
    save_index(build_index(docs), path)
    data = json.loads(path.read_text())
    body = unpack_postings(data)
    edit(body)
    repack_postings(data, body)
    path.write_text(json.dumps(data))
    with pytest.raises(InputError, match=message):
        load_index(path)


def test_a_length_is_checked_only_through_the_total(tmp_path):
    path = tmp_path / "moved.idx.json"
    docs = [make_doc("a.java", ["save", "note", "save"]), make_doc("b.java", ["note", "tag"])]
    save_index(build_index(docs), path)
    data = json.loads(path.read_text())
    body = unpack_postings(data)
    body.lengths[0] += 1
    body.lengths[1] -= 1
    repack_postings(data, body)
    path.write_text(json.dumps(data))
    assert load_index(path).lengths == [4, 1]


@pytest.mark.parametrize("count, message", [
    ("2", "document 'a.java' has a term count that is not a number"),
    (2**32, "term counts must be whole numbers below 2**32"),
], ids=["string", "2**32"])
def test_build_index_rejects_a_count_that_an_index_file_cannot_store(count, message):
    with pytest.raises(InputError) as exc:
        build_index([make_doc("a.java", {"save": count})])
    assert str(exc.value) == message


def test_build_index_rejects_a_length_that_an_index_file_cannot_store():
    with pytest.raises(InputError, match="lengths must be below 2"):
        build_index([make_doc("a.java", {"save": 2**32 - 1, "note": 1})])

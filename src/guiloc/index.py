"""Inverted index and the two lexical scorers."""

from __future__ import annotations

import logging
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import DEFAULT_PREPROCESSOR, Preprocessor, SourceDocument
from .errors import ConfigError, InputError, check_choice
from .util import gc_paused, json_fields, load_format_file, save_format_file

logger = logging.getLogger(__name__)

INDEX_FORMAT = "guiloc-index"
INDEX_VERSION = 2

SCORERS = ("bm25", "rvsm")

# term -> query-term frequency, or a term list that is counted
Query = Mapping[str, float] | Sequence[str]


@dataclass(frozen=True)
class ScoringParams:
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    def __post_init__(self):
        # written so that NaN fails too
        if not 0 <= self.bm25_k1 < math.inf:
            raise ConfigError(f"bm25_k1 must be finite and >= 0, got {self.bm25_k1}")
        if not 0 <= self.bm25_b <= 1:
            raise ConfigError(f"bm25_b must be in [0, 1], got {self.bm25_b}")


@dataclass
class RankEntry:
    path: str
    score: float
    gui_flags: set[str] = field(default_factory=set)


@dataclass
class RankedList:
    """An ordered ranking plus the warnings raised while producing it."""

    entries: list[RankEntry]
    flags: list[str] = field(default_factory=list)

    def paths(self) -> list[str]:
        return [e.path for e in self.entries]


@dataclass
class CorpusIndex:
    """Postings plus per-document lists indexed by doc_id, which runs 0..n-1."""

    documents: list[SourceDocument]
    doc_count: int
    doc_freq: dict[str, int]
    postings: dict[str, list[tuple[int, int]]]
    avg_length: float
    params: ScoringParams
    preprocessor: Preprocessor
    lengths: list[int]
    paths: list[str]
    length_prior: list[float]
    rvsm_norms: list[float]
    tf_weights: dict[int, float]

    @cached_property
    def path_order(self) -> list[int]:
        """Doc ids in path order, the order of every ranking's ties."""
        return sorted(range(self.doc_count), key=self.paths.__getitem__)


def build_index(
    documents: Sequence[SourceDocument],
    params: ScoringParams | None = None,
    preprocessor: Preprocessor | None = None,
    rvsm_norms: list[float] | None = None,
) -> CorpusIndex:
    """Build the inverted index over already-scanned documents.

    Document ids must be 0..n-1 in list order, as :func:`scan_corpus` assigns
    them, so postings lists of (doc_id, term_frequency) come out in doc_id
    order. Paths must be distinct and term counts at least 1. Each
    document's rVSM vector norm is summed over ``doc.terms`` in stored order,
    which fixes its floating-point value, unless `rvsm_norms` gives them, one
    per document.
    """
    docs = list(documents)
    if not docs:
        raise InputError("cannot index an empty corpus")
    paths = [doc.path for doc in docs]
    if len(set(paths)) < len(paths):
        ((duplicate, _),) = Counter(paths).most_common(1)
        raise InputError(f"document path {duplicate!r} appears more than once")
    postings: dict[str, list[tuple[int, int]]] = defaultdict(list)
    tf_weights: dict[int, float] = {}  # rVSM's 1 + ln f for each distinct count f
    for doc_id, doc in enumerate(docs):
        if doc.doc_id != doc_id:
            raise InputError(
                f"document {doc.path!r} has id {doc.doc_id} at position {doc_id}; "
                f"ids must be 0..{len(docs) - 1} in order"
            )
        # rVSM takes the log of every count
        try:
            below_one = bool(doc.terms) and min(doc.terms.values()) < 1
        except TypeError:
            raise InputError(
                f"document {doc.path!r} has a term count that is not a number"
            ) from None
        if below_one:
            raise InputError(f"document {doc.path!r} has a term count below 1")
        if sum(doc.terms.values()) != doc.length:
            raise InputError(f"document {doc.path!r} has a length other than its term total")
        # one (doc_id, freq) tuple per distinct count, shared by the
        # document's postings: most counts are 1 to 3, and every tuple made
        # is one more object for the garbage collector to visit
        pairs: dict[int, tuple[int, int]] = {}
        for term, freq in doc.terms.items():
            pair = pairs.get(freq)
            if pair is None:
                pair = pairs[freq] = (doc_id, freq)
                if freq not in tf_weights:
                    tf_weights[freq] = 1.0 + math.log(freq)
            postings[term].append(pair)
    doc_freq = {term: len(plist) for term, plist in postings.items()}
    if rvsm_norms is None:
        rvsm_norms = _rvsm_norms(docs, doc_freq, tf_weights)
    lengths = [doc.length for doc in docs]
    min_len = min(lengths)
    span = max(lengths) - min_len
    # rVSM's g(d) = 1 / (1 + e^(-norm_len)), norm_len min-max normalized
    length_prior = [
        1.0 / (1.0 + math.exp(-((length - min_len) / span if span else 0.0)))
        for length in lengths
    ]
    return CorpusIndex(
        documents=docs,
        doc_count=len(docs),
        doc_freq=doc_freq,
        postings=dict(postings),
        avg_length=sum(lengths) / len(docs),
        params=params or ScoringParams(),
        preprocessor=preprocessor or DEFAULT_PREPROCESSOR,
        lengths=lengths,
        paths=paths,
        length_prior=length_prior,
        rvsm_norms=rvsm_norms,
        tf_weights=tf_weights,
    )


def _rvsm_norms(
    docs: list[SourceDocument], doc_freq: dict[str, int], tf_weights: dict[int, float]
) -> list[float]:
    """Each document's rVSM vector norm, summed over its terms in stored order."""
    n = len(docs)
    idf = {term: _rvsm_idf(n, df) for term, df in doc_freq.items()}
    norms = []
    for doc in docs:
        d_norm_sq = 0.0
        for term, f in doc.terms.items():
            w = tf_weights[f] * idf[term]
            d_norm_sq += w * w
        norms.append(math.sqrt(d_norm_sq))
    return norms


def _sorted_entries(scores: list[float], index: CorpusIndex) -> list[RankEntry]:
    """Entries for the documents scoring above zero, best first, ties by path."""
    ids = [doc_id for doc_id in index.path_order if scores[doc_id] > 0.0]
    # the sort is stable, also in reverse, so tied documents stay in path order
    ids.sort(key=scores.__getitem__, reverse=True)
    return [RankEntry(index.paths[doc_id], scores[doc_id]) for doc_id in ids]


def score_bm25(index: CorpusIndex, query: Query) -> RankedList:
    """Okapi BM25.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); the term contribution is
    f * (k1 + 1) / (f + k1 * (1 - b + b * len / avg_len)), multiplied by the
    query-side frequency of t. Documents scoring zero are omitted.
    """
    query = Counter(query)
    if not query:
        return RankedList([], ["empty-query"])
    k1 = index.params.bm25_k1
    b = index.params.bm25_b
    n = index.doc_count
    avg = index.avg_length
    # hoisted factors keep the left-to-right grouping of
    # qtf * idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len / avg)), so
    # every score is bit-identical to evaluating that expression per posting
    # an average length of 0 means a corpus without terms, which nothing matches
    len_norm = [k1 * (1.0 - b + b * length / avg) for length in index.lengths] if avg else []
    k1_plus_1 = k1 + 1.0
    scores = [0.0] * n
    for term, qtf in query.items():
        plist = index.postings.get(term)
        if not plist:
            continue
        df = index.doc_freq[term]
        weight = qtf * math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc_id, f in plist:
            scores[doc_id] += weight * f * k1_plus_1 / (f + len_norm[doc_id])
    return RankedList(_sorted_entries(scores, index))


def _rvsm_idf(n: int, df: int) -> float:
    return math.log(n / df) if df > 0 else 0.0


def score_rvsm(index: CorpusIndex, query: Query) -> RankedList:
    """Length-regularized vector-space cosine.

    Term weights are (1 + ln f) * ln(N / df) on both sides. A query-term
    frequency f below 1, which a fractional expansion weight gives, weighs
    f * ln(N / df) instead: 1 + ln f turns negative below 1/e, while f meets
    it at 1 and stays positive. The cosine is multiplied by
    g(d) = 1 / (1 + e^(-norm_len(d))) where norm_len is the document length
    min-max normalized over the corpus, so longer files get a mild prior.
    Documents scoring zero are omitted.
    """
    query = Counter(query)
    if not query:
        return RankedList([], ["empty-query"])
    n = index.doc_count
    q_weights: dict[str, float] = {}
    for term, qtf in query.items():
        idf = _rvsm_idf(n, index.doc_freq.get(term, 0))
        if idf > 0.0:
            q_weights[term] = (1.0 + math.log(qtf) if qtf >= 1 else qtf) * idf
    q_norm = math.sqrt(sum(w * w for w in q_weights.values()))
    if q_norm == 0.0:
        return RankedList([], ["no-discriminative-terms"])

    # each document's dot product sums its terms in q_weights order, as a
    # per-document loop over q_weights would
    tf_weights = index.tf_weights
    dots = [0.0] * n
    for term, qw in q_weights.items():
        idf = _rvsm_idf(n, index.doc_freq[term])
        for doc_id, f in index.postings[term]:
            dots[doc_id] += qw * tf_weights[f] * idf
    scores = [
        prior * dot / (q_norm * d_norm) if dot > 0.0 and d_norm != 0.0 else 0.0
        for prior, dot, d_norm in zip(index.length_prior, dots, index.rvsm_norms)
    ]
    return RankedList(_sorted_entries(scores, index))


_SCORER_FUNCS = {"bm25": score_bm25, "rvsm": score_rvsm}


def rank(index: CorpusIndex, query: Query, scorer: str = "bm25") -> RankedList:
    """Score the corpus against a query with the named scorer."""
    check_choice("scorer", scorer, SCORERS)
    return _SCORER_FUNCS[scorer](index, query)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as compact versioned JSON; a load rebuilds postings, not rVSM norms."""
    payload = {
        "params": {"bm25_k1": index.params.bm25_k1, "bm25_b": index.params.bm25_b},
        "preprocess": index.preprocessor.config(),
        "documents": [doc.to_json() for doc in index.documents],
        "rvsm_norms": index.rvsm_norms,
    }
    save_format_file(path, INDEX_FORMAT, INDEX_VERSION, payload)


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index written by :func:`save_index` and rebuild its postings."""
    with gc_paused():
        params, preprocess, documents, norms = load_format_file(
            path, INDEX_FORMAT, INDEX_VERSION, _INDEX_FIELDS
        )
        k1, b = json_fields(params, _PARAMS_FIELDS, f"{path} params")
        pre = Preprocessor.from_config(preprocess, f"{path} preprocess")
        docs = [
            SourceDocument.from_json(d, f"{path} document {i}") for i, d in enumerate(documents)
        ]
        # json reads NaN and Infinity as floats; the comparison rejects both
        if len(norms) != len(docs) or not all(
            type(x) is float and 0.0 <= x < math.inf for x in norms
        ):
            raise InputError(f"{path}: 'rvsm_norms' must hold one finite number >= 0 per document")
        try:  # a parameter out of range or too large for a float, or a bad document
            return build_index(docs, ScoringParams(float(k1), float(b)), pre, norms)
        except (ConfigError, InputError, OverflowError) as exc:
            raise InputError(f"{path}: {exc}") from exc


_INDEX_FIELDS = {
    "params": (dict,), "preprocess": (dict,), "documents": (list,), "rvsm_norms": (list,)
}
_PARAMS_FIELDS = {"bm25_k1": (int, float), "bm25_b": (int, float)}

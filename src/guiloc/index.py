"""Inverted index and the two lexical scorers."""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import math
import sys
import zlib
from array import array
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, count, islice
from operator import sub
from pathlib import Path
from typing import Sequence

from .corpus import DEFAULT_PREPROCESSOR, Preprocessor, SourceDocument, class_name_of
from .errors import ConfigError, InputError, check_choice
from .util import json_fields, load_format_file, save_format_file, utf8

INDEX_FORMAT = "guiloc-index"
INDEX_VERSION = 5

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


class ScoredList(RankedList):
    """A scorer's ranking: each doc id's score, with entries made on first read.

    The entries are the files scoring above zero, best first, ties in path order.
    A scoring `within` some files gives each the bits of a full scoring, its
    parts added in the same query-term order, and every other file 0.0.
    """

    def __init__(self, index: CorpusIndex, scores: list[float], flags: list[str] | None = None):
        self.index, self.scores, self.flags = index, scores, flags or []

    def top(self, groups: list[set[str] | None], k: int) -> list[int]:
        """Doc ids of the first k entries once re-ranked by ``pipeline.rerank_groups``' `groups`.

        Each group's best files, by score and then path, come from a bounded heap over
        its files that scored above zero, so no full ranking is sorted.
        """
        index, scores = self.index, self.scores
        top: list[int] = []
        earlier: set[str] = set()
        for members in groups:
            # candidates in path order, as the heap keeps the first of tied files
            if members is None:
                ids = index.path_order
            else:
                ids = map(index.doc_ids.__getitem__, sorted(members))
            candidates = [d for d in ids if scores[d] > 0.0]
            if earlier:  # the files that earlier groups held are placed already
                candidates = [d for d in candidates if index.paths[d] not in earlier]
            top += heapq.nlargest(k - len(top), candidates, key=scores.__getitem__)
            if len(top) == k:
                break
            earlier = members
        return top

    def ranks(self, paths: Iterable[str], groups: list[set[str] | None]) -> list[int]:
        """The ascending 1-based ranks that :meth:`top` gives `paths` at full depth.

        A file that is not indexed, scored zero or is in no group has none. A
        file whose first group is g follows the files of group g - 1 that
        scored above zero, then the files that g adds and that rank above it,
        counted over the scores, so no ranking is sorted.
        """
        doc_ids, scores = self.index.doc_ids, self.scores
        ranks = []
        for path in filter(doc_ids.__contains__, paths):
            score, earlier = scores[doc_ids[path]], set()
            for members in groups if score > 0.0 else ():
                if members is None or path in members:
                    ahead = sum(scores[doc_ids[p]] > 0.0 for p in earlier)
                    added = self._above(members, score, path) - self._above(earlier, score, path)
                    ranks.append(ahead + added + 1)
                    break
                earlier = members
        return sorted(ranks)

    def _above(self, members: set[str] | None, score: float, path: str) -> int:
        """How many of `members`' files (None: all) score above `score` or tie it before `path`."""
        index = self.index
        paths = index.paths if members is None else list(members)
        scores = self.scores if members is None else [self.scores[index.doc_ids[p]] for p in paths]
        above = sum(map(score.__lt__, scores))
        if scores.count(score) > (members is None or path in members):  # another file ties
            above += sum(map(path.__gt__, compress(paths, map(score.__eq__, scores))))
        return above

    def entries_of(self, ids: Iterable[int]) -> list[RankEntry]:
        paths, scores = self.index.paths, self.scores
        return [RankEntry(paths[doc_id], scores[doc_id]) for doc_id in ids]

    @cached_property
    def entries(self) -> list[RankEntry]:
        return self.entries_of(self.top([None], self.index.doc_count))


class Postings(Mapping):
    """term -> [(doc_id, freq), ...] in doc-id order, packed and decoded per term.

    Term i, in sorted term order, owns entries offsets[i] to offsets[i + 1]
    of `gaps` and `counts`. A gap is a doc id minus the one before it in the
    term's list, the first counted from -1, so every gap is at least 1. The
    scorers read :meth:`columns` and :meth:`dense`, which decode a term once
    and keep it; a lookup builds a fresh pair list and keeps nothing, so a
    pass over every term leaves no decoded copy behind, and == between two of
    these compares the packed arrays.
    """

    def __init__(self, terms: list[str], offsets: array, gaps: array, counts: array):
        self.terms, self.offsets, self.gaps, self.counts = terms, offsets, gaps, counts
        self.distinct_counts = set(counts)
        self._position = dict(zip(terms, range(len(terms))))
        self._columns: dict[str, tuple[list[int], array]] = {}
        self._dense: dict[str, list[int]] = {}

    def _decode(self, term: str) -> tuple[Iterator[int], array]:
        i = self._position[term]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return islice(accumulate(self.gaps[lo:hi], initial=-1), 1, None), self.counts[lo:hi]

    def columns(self, term: str) -> tuple[list[int], array]:
        """The term's doc ids and their counts, decoded on first use and kept."""
        cols = self._columns.get(term)
        if cols is None:
            ids, counts = self._decode(term)
            cols = self._columns[term] = (list(ids), counts)
        return cols

    def dense(self, term: str, n: int) -> list[int]:
        """The term's count per doc id, 0 if absent, from the kept :meth:`columns` if any; kept."""
        counts = self._dense.get(term)
        if counts is None:
            counts = self._dense[term] = [0] * n
            for doc_id, f in zip(*(self._columns.get(term) or self._decode(term))):
                counts[doc_id] = f
        return counts

    def __getitem__(self, term: str) -> list[tuple[int, int]]:
        return list(zip(*self._decode(term)))

    def __contains__(self, term) -> bool:
        return term in self._position

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Postings):
            return NotImplemented
        return (self.terms, self.offsets, self.gaps, self.counts) == (
            other.terms, other.offsets, other.gaps, other.counts
        )

    def doc_freq(self) -> dict[str, int]:
        """term -> the number of documents that hold it."""
        return dict(zip(self.terms, map(sub, self.offsets[1:], self.offsets)))


class ContributionMemo:
    """(scorer, term, query weight) -> the term's score contribution per posting.

    A kept column is an ``array('d')`` aligned with the term's doc ids in
    ``Postings.columns``, holding the floats the scorer would compute, so
    scores are the same with the memo or without. :meth:`column` chooses by
    the key's use count: on its first use the scorer makes its fused direct
    pass, later uses add the column kept on the second. One path for all
    uses lost on freshly loaded indexes, where most ``localize`` calls
    start: on the benchmark's seed-1 lint and triage inputs, bm25 took a
    median 3.2 and 4.8 ms per report, against 4.4 and 7.7 ms keeping every
    column from its first use and 3.7 and 6.6 ms adding a list of parts on
    every use. A recorded key counts 1 and a kept column its length; an
    entry that would take the total past `bound` clears the memo first.
    """

    def __init__(self, bound: int):
        self.bound, self.size = bound, 0
        self.columns: dict[tuple[str, str, float], array | None] = {}

    def column(self, key: tuple[str, str, float], build: Callable[[], array]) -> array | None:
        """`key`'s column, built by `build` on the key's second use; None on its first."""
        column = self.columns.get(key)
        if column is not None:
            return column
        if key in self.columns:
            column = build()
        size = 1 if column is None else len(column) - 1  # the column replaces the key's 1
        if self.size + size > self.bound:
            self.columns.clear()
            self.size, size = 0, size + (column is not None)
        self.columns[key] = column
        self.size += size
        return column


@dataclass
class CorpusIndex:
    """Postings plus per-file columns indexed by doc_id, which runs 0..n-1.

    The fields after `preprocessor` are derived from the ones before it.
    `contributions` is the scorers' :class:`ContributionMemo`, bounded at
    twice the posting count; it takes no part in == or repr.
    """

    paths: list[str]
    resource_id_refs: list[set[str]]
    lengths: list[int]
    rvsm_norms: list[float]
    postings: Postings
    params: ScoringParams
    preprocessor: Preprocessor
    doc_count: int = field(init=False)
    doc_ids: dict[str, int] = field(init=False)  # path -> doc id
    doc_freq: dict[str, int] = field(init=False)
    avg_length: float = field(init=False)
    length_prior: list[float] = field(init=False)
    tf_weights: dict[int, float] = field(init=False)
    files_by_class: dict[str, list[str]] = field(init=False)
    files_by_resource_id: dict[str, list[str]] = field(init=False)
    contributions: ContributionMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paths, postings, lengths = self.paths, self.postings, self.lengths
        if not paths:
            raise InputError("cannot index an empty corpus")
        self.doc_count, self.doc_ids = len(paths), dict(zip(paths, count()))
        if len(self.doc_ids) < len(paths):
            ((duplicate, _),) = Counter(paths).most_common(1)
            raise InputError(f"document path {duplicate!r} appears more than once")
        self.doc_freq = postings.doc_freq()
        self.tf_weights = _rvsm_tf_weights(postings)
        self.contributions = ContributionMemo(2 * len(postings.gaps))
        self.avg_length = sum(lengths) / len(paths)
        min_len = min(lengths)
        span = max(lengths) - min_len
        # rVSM's g(d) = 1 / (1 + e^(-norm_len)), norm_len min-max normalized
        self.length_prior = [
            1.0 / (1.0 + math.exp(-((length - min_len) / span if span else 0.0)))
            for length in lengths
        ]
        self.files_by_class = defaultdict(list)
        self.files_by_resource_id = defaultdict(list)
        for path, refs in zip(paths, self.resource_id_refs):
            self.files_by_class[class_name_of(path)].append(path)
            for ref in refs:
                self.files_by_resource_id[ref].append(path)

    @cached_property
    def documents(self) -> list[SourceDocument]:
        """The indexed files, each term bag rebuilt from the postings in sorted term order."""
        bags: list[dict[str, int]] = [{} for _ in range(self.doc_count)]
        for term in self.postings.terms:
            for doc_id, freq in zip(*self.postings._decode(term)):
                bags[doc_id][term] = freq
        return list(map(SourceDocument, self.paths, bags, self.resource_id_refs))

    @cached_property
    def path_order(self) -> list[int]:
        """Doc ids in path order, the order of every ranking's ties."""
        return sorted(range(self.doc_count), key=self.paths.__getitem__)

    @cached_property
    def digest(self) -> bytes:
        """A sha256 of the fields before `preprocessor` and its settings, made on first use."""
        postings, refs = self.postings, [sorted(doc_refs) for doc_refs in self.resource_id_refs]
        sha = hashlib.sha256(json.dumps([vars(self.params), self.preprocessor.config()]).encode())
        # a string column's count and each string's length let its UTF-8 text split one way only
        for strings in (self.paths, [ref for doc_refs in refs for ref in doc_refs], postings.terms):
            sha.update(array("I", [len(strings), *map(len, strings)]))
            sha.update(utf8("".join(strings)))
        # the lengths of these follow from the counts framed above and the last offset
        for words in (array("I", map(len, refs)), postings.offsets, postings.gaps, postings.counts,
                      array("I", self.lengths), array("d", self.rvsm_norms)):
            sha.update(words)
        return sha.digest()

    @cached_property
    def bm25_length_norms(self) -> list[float]:
        """BM25's k1 * (1 - b + b * len / avg_len) per doc id.

        Empty for a corpus without terms, whose average length is 0 and which
        no query matches.
        """
        k1, b, avg = self.params.bm25_k1, self.params.bm25_b, self.avg_length
        return [k1 * (1.0 - b + b * length / avg) for length in self.lengths] if avg else []


def build_index(
    documents: Sequence[SourceDocument],
    params: ScoringParams | None = None,
    preprocessor: Preprocessor | None = None,
) -> CorpusIndex:
    """Build the inverted index over already-scanned documents.

    A document's id is its position in `documents`. Paths must be distinct,
    term counts whole numbers from 1 to 2**32 - 1 and lengths below 2**32.
    Each document's rVSM vector norm is summed over ``doc.terms`` in stored
    order, which fixes its floating-point value.
    """
    docs = list(documents)
    ids_of: dict[str, list[int]] = defaultdict(list)
    counts_of: dict[str, list[int]] = defaultdict(list)
    for doc_id, doc in enumerate(docs):
        # rVSM takes the log of every count
        try:
            below_one = bool(doc.terms) and min(doc.terms.values()) < 1
        except TypeError:
            raise InputError(
                f"document {doc.path!r} has a term count that is not a number"
            ) from None
        if below_one:
            raise InputError(f"document {doc.path!r} has a term count below 1")
        for term, freq in doc.terms.items():
            ids_of[term].append(doc_id)
            counts_of[term].append(freq)
    terms = sorted(ids_of)
    offsets, gaps, counts = array("I", [0]), array("I"), array("I")
    try:
        for term in terms:
            ids = ids_of[term]
            gaps.append(ids[0] + 1)
            gaps.extend(map(sub, islice(ids, 1, None), ids))
            counts.extend(counts_of[term])
            offsets.append(len(gaps))
    except (TypeError, OverflowError):
        raise InputError("term counts must be whole numbers below 2**32") from None
    postings = Postings(terms, offsets, gaps, counts)
    lengths = [doc.length for doc in docs]
    if max(lengths, default=0) >= 2**32:  # index files store lengths in 32 bits
        raise InputError("document lengths must be below 2**32")
    return CorpusIndex(
        [doc.path for doc in docs], [doc.resource_id_refs for doc in docs], lengths,
        _rvsm_norms(docs, postings), postings, params or ScoringParams(),
        preprocessor or DEFAULT_PREPROCESSOR,
    )


def _rvsm_tf_weights(postings: Postings) -> dict[int, float]:
    """rVSM's 1 + ln f for each distinct count f."""
    return {f: 1.0 + math.log(f) for f in postings.distinct_counts}


def _rvsm_norms(docs: list[SourceDocument], postings: Postings) -> list[float]:
    """Each document's rVSM vector norm, summed over its terms in stored order."""
    n, tf_weights = len(docs), _rvsm_tf_weights(postings)
    idf = {term: _rvsm_idf(n, df) for term, df in postings.doc_freq().items()}
    norms = []
    for doc in docs:
        d_norm_sq = 0.0
        for term, f in doc.terms.items():
            w = tf_weights[f] * idf[term]
            d_norm_sq += w * w
        norms.append(math.sqrt(d_norm_sq))
    return norms


def score_bm25(index: CorpusIndex, query: Query, within: Sequence[int] | None = None) -> ScoredList:
    """Okapi BM25.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)); the term contribution is
    f * (k1 + 1) / (f + k1 * (1 - b + b * len / avg_len)), multiplied by the
    query-side frequency of t. Documents scoring zero are omitted. Each
    term's contributions go through ``index.contributions`` (see
    :class:`ContributionMemo`). Given `within`, sorted doc ids, only those files are
    scored; a term that half the files hold reads their counts from :meth:`Postings.dense`.
    """
    query = Counter(query)
    n = index.doc_count
    scores = [0.0] * n
    if not query:
        return ScoredList(index, scores, ["empty-query"])
    # hoisted factors keep the left-to-right grouping of
    # qtf * idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len / avg)), so
    # every score is bit-identical to evaluating that expression per posting
    len_norm = index.bm25_length_norms
    k1_plus_1 = index.params.bm25_k1 + 1.0
    memo = index.contributions
    for term, qtf in query.items():
        df = index.doc_freq.get(term)
        if not df:
            continue
        weight = qtf * math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        if within is not None and 2 * df >= n:
            dense = index.postings.dense(term, n)
            for doc_id in within:
                if f := dense[doc_id]:
                    scores[doc_id] += weight * f * k1_plus_1 / (f + len_norm[doc_id])
            continue
        ids, counts = index.postings.columns(term)
        column = memo.column(("bm25", term, weight), lambda: array("d", [
            weight * f * k1_plus_1 / (f + len_norm[doc_id]) for doc_id, f in zip(ids, counts)
        ]))
        if column is None:
            for doc_id, f in zip(ids, counts):
                scores[doc_id] += weight * f * k1_plus_1 / (f + len_norm[doc_id])
            continue
        for doc_id, part in zip(ids, column):
            scores[doc_id] += part
    if within is not None:  # every other file scores 0.0
        kept, scores = scores, [0.0] * n
        for doc_id in within:
            scores[doc_id] = kept[doc_id]
    return ScoredList(index, scores)


def _rvsm_idf(n: int, df: int) -> float:
    return math.log(n / df) if df > 0 else 0.0


def score_rvsm(index: CorpusIndex, query: Query, within: Sequence[int] | None = None) -> ScoredList:
    """Length-regularized vector-space cosine.

    Term weights are (1 + ln f) * ln(N / df) on both sides. A query-term
    frequency f below 1, which a fractional expansion weight gives, weighs
    f * ln(N / df) instead: 1 + ln f turns negative below 1/e, while f meets
    it at 1 and stays positive. The cosine is multiplied by
    g(d) = 1 / (1 + e^(-norm_len(d))) where norm_len is the document length
    min-max normalized over the corpus, so longer files get a mild prior.
    Documents scoring zero are omitted. Each term's contributions go
    through ``index.contributions`` (see :class:`ContributionMemo`). A query
    with no term in some documents but not all, or whose weights all square
    to 0.0, has norm zero and scores 0.0 everywhere: ``no-discriminative-terms``.
    `within` is as in :func:`score_bm25`, and the cosine is taken over its files only.
    """
    query = Counter(query)
    n = index.doc_count
    dots = [0.0] * n
    if not query:
        return ScoredList(index, dots, ["empty-query"])
    # each document's dot product sums its terms in query order, as a
    # per-document loop over the query would
    tf_weights = index.tf_weights
    memo = index.contributions
    q_norm_sq = 0.0  # added left to right: from Python 3.12 on, sum() compensates float sums
    for term, qtf in query.items():
        idf = _rvsm_idf(n, index.doc_freq.get(term, 0))
        if idf <= 0.0:
            continue
        qw = (1.0 + math.log(qtf) if qtf >= 1 else qtf) * idf
        q_norm_sq += qw * qw
        if within is not None and 2 * index.doc_freq[term] >= n:
            dense = index.postings.dense(term, n)
            for doc_id in within:
                if f := dense[doc_id]:
                    dots[doc_id] += qw * tf_weights[f] * idf
            continue
        ids, counts = index.postings.columns(term)
        column = memo.column(("rvsm", term, qw),
                             lambda: array("d", [qw * tf_weights[f] * idf for f in counts]))
        if column is None:
            for doc_id, f in zip(ids, counts):
                dots[doc_id] += qw * tf_weights[f] * idf
            continue
        for doc_id, part in zip(ids, column):
            dots[doc_id] += part
    q_norm = math.sqrt(q_norm_sq)
    if q_norm == 0.0:  # an underflowing weight may still have added a tiny part to dots
        return ScoredList(index, [0.0] * n, ["no-discriminative-terms"])
    if within is None:
        return ScoredList(index, [
            prior * dot / (q_norm * d_norm) if dot > 0.0 and d_norm != 0.0 else 0.0
            for prior, dot, d_norm in zip(index.length_prior, dots, index.rvsm_norms)
        ])
    scores, prior, d_norms = [0.0] * n, index.length_prior, index.rvsm_norms
    for doc_id in within:
        if (dot := dots[doc_id]) > 0.0 and (d_norm := d_norms[doc_id]) != 0.0:
            scores[doc_id] = prior[doc_id] * dot / (q_norm * d_norm)
    return ScoredList(index, scores)


SCORER_FUNCS = {"bm25": score_bm25, "rvsm": score_rvsm}


def rank(index: CorpusIndex, query: Query, scorer: str = "bm25") -> ScoredList:
    """Score the corpus against a query with the named scorer."""
    check_choice("scorer", scorer, SCORERS)
    return SCORER_FUNCS[scorer](index, query)


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as compact versioned JSON; see :func:`_unpack_postings` for its body."""
    postings = index.postings
    words = array("I", [*index.doc_freq.values(), *index.lengths]) + postings.gaps + postings.counts
    if sys.byteorder == "big":
        words.byteswap()
    payload = {
        "params": {"bm25_k1": index.params.bm25_k1, "bm25_b": index.params.bm25_b},
        "preprocess": index.preprocessor.config(),
        "documents": [
            [path, sorted(refs), norm]
            for path, refs, norm in zip(index.paths, index.resource_id_refs, index.rvsm_norms)
        ],
        "terms": postings.terms,
        "postings": base64.b64encode(zlib.compress(words.tobytes(), 1)).decode("ascii"),
    }
    save_format_file(path, INDEX_FORMAT, INDEX_VERSION, payload)


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index written by :func:`save_index`; a term's postings decode on first use."""
    params, preprocess, rows, terms, packed = load_format_file(
        path, INDEX_FORMAT, INDEX_VERSION, _INDEX_FIELDS
    )
    k1, b = json_fields(params, _PARAMS_FIELDS, f"{path} params")
    try:  # a setting out of range or too large for a float, or bad postings or documents
        pre = Preprocessor.from_config(preprocess)
        postings, lengths = _unpack_postings(terms, packed, len(rows))
        paths, refs, norms = _document_columns(rows)
        return CorpusIndex(paths, refs, lengths, norms, postings,
                           ScoringParams(float(k1), float(b)), pre)
    except (ConfigError, InputError, OverflowError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _inflate(stream, data: bytes, size: int, cap: int, what: str) -> array:
    """The next `size` bytes of a zlib stream as 32-bit words, inflating at most `cap` bytes."""
    try:
        chunk = stream.decompress(data, cap)
    except zlib.error as exc:
        raise InputError(f"'postings' is not a zlib stream: {exc}") from None
    if len(chunk) != size:
        raise InputError(f"'postings' must hold {size} bytes of {what}")
    words = array("I")
    words.frombytes(chunk)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _unpack_postings(terms: list, packed: str, doc_count: int) -> tuple[Postings, list[int]]:
    """Check the term dictionary and decode the body and the document lengths.

    The body is zlib over little-endian 32-bit words: each term's document
    frequency, each document's length, every gap, then every count. The
    frequencies and lengths are inflated first, then at most one byte more
    than the frequencies need, so a longer body is never inflated whole.
    Every check is a whole-array pass or one per term.
    """
    if set(map(type, terms)) - {str}:
        raise InputError("'terms' must be a list of strings")
    if not all(map(str.__lt__, terms, islice(terms, 1, None))):
        raise InputError("'terms' must be sorted and distinct")
    try:
        data = base64.b64decode(packed, validate=True)
    except ValueError as exc:  # binascii.Error
        raise InputError(f"'postings' is not base64: {exc}") from None
    stream, head = zlib.decompressobj(), 4 * (len(terms) + doc_count)
    # a cap of 0 would inflate it all; an index holds at least one document
    words = _inflate(stream, data, head, max(head, 1), "document frequencies and lengths first")
    dfs, lengths = words[: len(terms)], words[len(terms) :]
    if 0 in dfs or max(dfs, default=0) > doc_count:
        raise InputError(f"each term's document frequency must lie in [1, {doc_count}]")
    offsets = array("I", accumulate(dfs, initial=0))
    total = offsets[-1]
    words = _inflate(stream, stream.unconsumed_tail, 8 * total, 8 * total + 1,
                     "gaps and counts, as the document frequencies need")
    if not stream.eof or stream.unused_data:
        raise InputError("'postings' holds a truncated zlib stream or data after its end")
    postings = Postings(terms, offsets, words[:total], words[total:])
    if 0 in postings.gaps:
        raise InputError("doc ids must be strictly increasing within each term")
    if 0 in postings.distinct_counts:
        raise InputError("the postings hold a term count below 1")
    # a term's gap sum is its last doc id + 1, and no gap is 0
    gap_sums = map(sum, map(postings.gaps.__getitem__, map(slice, offsets, offsets[1:])))
    if max(gap_sums, default=0) > doc_count:
        raise InputError(f"a doc id is not below the document count {doc_count}")
    if sum(lengths) != sum(postings.counts):
        raise InputError("the document lengths do not add up to the term counts")
    return postings, lengths.tolist()


def _document_columns(rows: list) -> tuple[list, list, list]:
    """The columns of [path, resource_id_refs, rvsm_norm] rows, each refs a set."""
    for doc_id, row in enumerate(rows):
        if type(row) is not list or len(row) != 3:
            raise InputError(f"document {doc_id} must be a [path, resource_id_refs, rvsm_norm] list")
        path, refs, norm = row
        if type(path) is not str:
            raise InputError(f"document {doc_id}: path must be a string")
        if type(refs) is not list or not all(type(r) is str for r in refs):
            raise InputError(f"document {doc_id}: resource_id_refs must be a list of strings")
        # json reads NaN and Infinity as floats; the comparison rejects both
        if type(norm) is not float or not 0.0 <= norm < math.inf:
            raise InputError(f"document {doc_id}: rvsm_norm must be a finite number >= 0")
    paths, refs, norms = zip(*rows) if rows else ((),) * 3
    return list(paths), list(map(set, refs)), list(norms)


_INDEX_FIELDS = {
    "params": (dict,), "preprocess": (dict,), "documents": (list,),
    "terms": (list,), "postings": (str,),
}
_PARAMS_FIELDS = {"bm25_k1": (int, float), "bm25_b": (int, float)}

"""Reference computations the benchmark checks guiloc's outputs against.

They are written from the definitions (BM25, BugLocator's rVSM, the GUI
matchers, hits/MRR/MAP, breadth-first search), densely and without the
program's index structures, so a wrong answer cannot pass by agreeing with
itself. Every check raises :class:`CheckFailed` with what differed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter, deque

TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------------ ranking


class DenseCorpus:
    """Document statistics recomputed from the scanned term bags."""

    def __init__(self, docs, k1: float, b: float):
        self.docs = docs
        self.k1, self.b = k1, b
        self.n = len(docs)
        self.avg = sum(sum(d.terms.values()) for d in docs) / self.n
        self.df: Counter = Counter()
        for d in docs:
            self.df.update(set(d.terms))
        lengths = [sum(d.terms.values()) for d in docs]
        self.min_len, self.max_len = min(lengths), max(lengths)

    def bm25(self, query: list[str]) -> dict[str, float]:
        out = {}
        qtf = Counter(query)
        for d in self.docs:
            length = sum(d.terms.values())
            s = 0.0
            for t, q in qtf.items():
                f = d.terms.get(t, 0)
                if f:
                    idf = math.log(1.0 + (self.n - self.df[t] + 0.5) / (self.df[t] + 0.5))
                    s += q * idf * f * (self.k1 + 1.0) / (
                        f + self.k1 * (1.0 - self.b + self.b * length / self.avg)
                    )
            if s > 0.0:
                out[d.path] = s
        return out

    def rvsm(self, query: list[str]) -> dict[str, float]:
        def idf(t):
            return math.log(self.n / self.df[t]) if self.df[t] else 0.0

        qw = {t: (1.0 + math.log(q)) * idf(t) for t, q in Counter(query).items() if idf(t) > 0.0}
        q_norm = math.sqrt(sum(w * w for w in qw.values()))
        out = {}
        if q_norm == 0.0:
            return out
        span = self.max_len - self.min_len
        for d in self.docs:
            dot = sum(w * (1.0 + math.log(d.terms[t])) * idf(t) for t, w in qw.items() if d.terms.get(t))
            if dot <= 0.0:
                continue
            d_norm = math.sqrt(sum(((1.0 + math.log(f)) * idf(t)) ** 2 for t, f in d.terms.items()))
            if d_norm == 0.0:
                continue
            norm_len = (sum(d.terms.values()) - self.min_len) / span if span else 0.0
            out[d.path] = dot / (q_norm * d_norm) / (1.0 + math.exp(-norm_len))
        return out


def gui_sets(trace, window: int, docs, pre, threshold: float = 0.5):
    """(terms, activity, listener, component) for the last `window` screens."""
    screens = trace.screens[-window:]
    terms: Counter = Counter()
    names, ids, comp_sets = set(), set(), []
    for sc in screens:
        for text in (sc.activity_name, sc.window_name):
            terms.update(pre.tokens(text))
            if text:
                names.add(text.split(".")[-1])
        for c in sc.components:
            for text in (c.resource_id, c.text, c.content_desc, c.component_type):
                terms.update(pre.tokens(text))
            if c.exercised:
                if c.resource_id:
                    ids.add(c.resource_id.lower())
                words = set(pre.tokens(f"{c.resource_id} {c.text} {c.content_desc}"))
                if words:
                    comp_sets.append(words)
    activity = {d.path for d in docs if d.class_name in names}
    listener = {d.path for d in docs if d.resource_id_refs & ids}
    component = {
        d.path
        for d in docs
        if any(len(ws & d.terms.keys()) >= threshold * len(ws) for ws in comp_sets)
    }
    return terms, activity, listener, component


def reference_localize(report, trace, dense: DenseCorpus, pre, scorer: str, top_k: int):
    """expand + filter_boost with window 3 and weight 1, from the definitions."""
    terms, activity, listener, component = gui_sets(trace, 3, dense.docs, pre)
    query = pre.tokens(f"{report.title}\n{report.body}") + list(terms.elements())
    scores = dense.bm25(query) if scorer == "bm25" else dense.rvsm(query)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    related = activity | listener | component
    boosted = activity | listener
    if related:
        ranked = [kv for kv in ranked if kv[0] in related]
    ranked = [kv for kv in ranked if kv[0] in boosted] + [kv for kv in ranked if kv[0] not in boosted]
    return ranked[:top_k], scores, related, boosted


def check_ranking(got, ref, scores: dict[str, float], related: set, boosted: set, what: str) -> None:
    """Same scores position by position; each path carries its own score.

    Paths may swap only inside a run of scores equal within TOL.
    """
    need(len(got.entries) == len(ref), f"{what}: {len(got.entries)} entries, reference has {len(ref)}")
    for i, (e, (path, score)) in enumerate(zip(got.entries, ref)):
        need(abs(e.score - score) <= TOL, f"{what}: rank {i + 1} score {e.score} != {score}")
        need(
            e.path in scores and abs(scores[e.path] - e.score) <= TOL,
            f"{what}: {e.path} scored {e.score}, reference {scores.get(e.path)}",
        )
    paths = [e.path for e in got.entries]
    if related:
        need(all(p in related for p in paths), f"{what}: filtered list holds a file outside the GUI-related set")
    flags = [p in boosted for p in paths]
    need(flags == sorted(flags, reverse=True), f"{what}: a boosted file follows an unboosted one")


# ------------------------------------------------------------------ metrics


def ranking_metrics(paths: list[str], truth: set[str]) -> tuple[float, float, float, float, float]:
    """hits@1, hits@5, hits@10, reciprocal rank and average precision."""
    ranks = [i for i, p in enumerate(paths, 1) if p in truth]
    first = ranks[0] if ranks else None
    hits = [1.0 if first is not None and first <= k else 0.0 for k in (1, 5, 10)]
    rr = 1.0 / first if first else 0.0
    ap = sum((j + 1) / r for j, r in enumerate(ranks)) / len(truth)
    return hits[0], hits[1], hits[2], rr, ap


def check_sweep_row(row: str, key: tuple[str, ...], per_report: list[tuple], what: str) -> None:
    cells = row.split(",")
    need(tuple(cells[:6]) == key, f"{what}: row key {cells[:6]} != {list(key)}")
    n = len(per_report)
    means = [sum(m[i] for m in per_report) / n for i in range(5)]
    for name, cell, want in zip(("hits1", "hits5", "hits10", "mrr", "map"), cells[6:11], means):
        need(abs(float(cell) - want) <= 1e-6, f"{what}: {name} {cell} != {want:.6f}")
    need(int(cells[11]) == n, f"{what}: reports {cells[11]} != {n}")


# ------------------------------------------------------------------ model


def fingerprint(screen) -> str:
    ids = ",".join(sorted(c.resource_id for c in screen.components if c.resource_id))
    raw = "\x1f".join([screen.activity_name, screen.window_name, ids])
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def model_shape(traces) -> tuple[set[str], set[tuple[str, str, str, str]]]:
    """Distinct screens and interactions the traces walk through."""
    nodes, edges = set(), set()
    for tr in traces:
        fps = [fingerprint(s) for s in tr.screens]
        nodes.update(fps)
        for i in range(len(fps) - 1):
            c = next(c for c in tr.screens[i].components if c.exercised)
            edges.add((fps[i], c.action or "", c.resource_id, fps[i + 1]))
    return nodes, edges


def bfs_distance(edges, src: str, dst: str) -> int | None:
    adj: dict[str, set[str]] = {}
    for a, _, _, b in edges:
        adj.setdefault(a, set()).add(b)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            return dist[node]
        for nxt in adj.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return None


# ------------------------------------------------------------------ lint


def check_lint(out: dict, truth, edges: set, what: str) -> None:
    """Known tags and actions, one matched edge per step, shortest gaps."""
    tagged = out["tagged"]
    want = [(text, label) for text, label, _ in truth.sentences]
    need(tagged == want, f"{what}: tags {tagged} != {want}")
    known_steps = [(action, rid) for _, label, action, rid in truth.steps()]
    steps = out["steps"]
    need([s.action for s in steps] == [a for a, _ in known_steps], f"{what}: step actions differ")
    for m, (action, rid) in zip(out["matches"], known_steps):
        need(m.status == "matched", f"{what}: step {m.step} is {m.status}")
        need(m.matched_edge.resource_id == rid, f"{what}: step matched {m.matched_edge.resource_id}, not {rid}")
    anchors = [m.matched_edge for m in out["matches"]]
    gaps = out["gaps"]
    need(len(gaps) == truth.gaps, f"{what}: {len(gaps)} gaps, expected {truth.gaps} from the left-out steps")
    for g in gaps:
        src, dst = anchors[g.after_step].dst, anchors[g.before_step].src
        dist = bfs_distance(edges, src, dst)
        if g.infeasible:
            need(dist is None, f"{what}: gap marked infeasible but BFS reaches it in {dist}")
            continue
        path = g.missing
        need(path and path[0].src == src and path[-1].dst == dst, f"{what}: gap does not join its anchors")
        need(all(a.dst == b.src for a, b in zip(path, path[1:])), f"{what}: gap path is not contiguous")
        need(all(e.key() in edges for e in path), f"{what}: gap uses an edge outside the model")
        need(len(path) == dist, f"{what}: gap has {len(path)} edges, shortest is {dist}")

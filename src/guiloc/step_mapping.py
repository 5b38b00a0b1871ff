"""Aligning parsed reproduction steps with the execution model."""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, compress

from .corpus import DEFAULT_PREPROCESSOR
from .reports import S2RStep
from .traces import ExecutionModel, ModelEdge

MATCH_THRESHOLD = 0.5
AMBIGUITY_MARGIN = 0.05


@dataclass
class StepMatch:
    step: S2RStep
    matched_edge: ModelEdge | None
    similarity: float
    status: str  # matched | ambiguous | unmatched

    def to_json(self, step: int) -> dict:
        """The match of the step at position `step` of the parsed steps."""
        return {
            "step": step,
            "status": self.status,
            "similarity": self.similarity,
            "edge": self.matched_edge.to_json() if self.matched_edge else None,
        }


@dataclass
class StepGap:
    after_step: int
    before_step: int
    missing: list[ModelEdge] = field(default_factory=list)
    infeasible: bool = False

    def to_json(self) -> dict:
        return {
            "after_step": self.after_step,
            "before_step": self.before_step,
            "infeasible": self.infeasible,
            "missing": [e.to_json() for e in self.missing],
        }


@dataclass
class MissingStepReport:
    gaps: list[StepGap] = field(default_factory=list)


def step_object_terms(step: S2RStep) -> set[str]:
    parts = step.object
    if step.object2:
        parts = f"{parts} {step.object2}"
    return DEFAULT_PREPROCESSOR.term_set(parts)


def map_steps_to_model(steps: list[S2RStep], model: ExecutionModel) -> list[StepMatch]:
    """Match each step to the most similar same-action edge.

    Similarity is the Jaccard overlap of the step's object terms and the
    edge component's terms. Below MATCH_THRESHOLD a step is unmatched; a
    runner-up within AMBIGUITY_MARGIN of the best makes it ambiguous. The
    best and the runner-up are the two largest of one list of similarities,
    so two edges that tie make the runner-up equal the best; the matched
    edge is the earliest of the best in model insertion order.

    Only edges that share a term with the step are scored: the rest score
    0.0, which neither matches nor raises the runner-up. With k shared terms
    |a | b| = |a| + |b| - k exactly, so each similarity is the set Jaccard.
    """
    by_action = model.edges_by_action
    matches = []
    for step in steps:
        step_terms = step_object_terms(step)
        group = by_action.get(step.action)
        shared, sims = Counter(), []
        if group is not None:
            holders, sizes, n = group.holders, group.sizes, len(step_terms)
            shared = Counter(chain.from_iterable(holders.get(t, ()) for t in step_terms))
            sims = [k / (n + sizes[p] - k) for p, k in shared.items()]
        best_sim, runner_up = heapq.nlargest(2, sims + [0.0, 0.0])
        if best_sim < MATCH_THRESHOLD:
            best, status = None, "unmatched"
        else:
            best = group.edges[min(compress(shared, map(best_sim.__eq__, sims)))]
            status = "ambiguous" if runner_up >= best_sim - AMBIGUITY_MARGIN else "matched"
        matches.append(StepMatch(step, best, best_sim, status))
    return matches


def _shortest_edge_path(
    model: ExecutionModel, src: str, dst: str
) -> list[ModelEdge] | None:
    """BFS over edges in insertion order to a `dst` other than `src`; None if unreachable."""
    adjacency = model.adjacency
    queue = deque([src])
    parent: dict[str, ModelEdge] = {}
    seen = {src}
    while queue:
        node = queue.popleft()
        for edge in adjacency.get(node, []):
            if edge.dst in seen:
                continue
            parent[edge.dst] = edge
            if edge.dst == dst:
                path = []
                cursor = dst
                while cursor != src:
                    path.append(parent[cursor])
                    cursor = parent[cursor].src
                path.reverse()
                return path
            seen.add(edge.dst)
            queue.append(edge.dst)
    return None


def detect_missing_steps(
    matches: list[StepMatch], model: ExecutionModel
) -> MissingStepReport:
    """Find model edges a report skipped between consecutive matched steps.

    Only confidently matched steps anchor the walk. A gap's missing edges
    are the shortest path between the two anchors; an unreachable pair is
    flagged infeasible instead.
    """
    anchors = [(i, m) for i, m in enumerate(matches) if m.status == "matched"]
    report = MissingStepReport()
    for (i_prev, prev), (i_next, nxt) in zip(anchors, anchors[1:]):
        assert prev.matched_edge is not None and nxt.matched_edge is not None
        if prev.matched_edge.dst == nxt.matched_edge.src:
            continue
        path = _shortest_edge_path(model, prev.matched_edge.dst, nxt.matched_edge.src)
        report.gaps.append(StepGap(i_prev, i_next, path or [], infeasible=path is None))
    return report

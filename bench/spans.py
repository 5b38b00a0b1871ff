"""In-memory spans and counters recorded around calls into guiloc.

A span is (name, start, end, parent, report). The layer of a span is the
part of its name before the first dot, which is the guiloc module it times.
With tracing off, :class:`Tracer` records nothing and costs one attribute
check per call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, report: str | None = None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "report": report,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median_duration(self, name: str) -> float:
        d = self.durations(name)
        if not d:
            raise RuntimeError(f"no span named {name!r} was recorded")
        return statistics.median(d)

    def median_count(self, name: str) -> float:
        v = self.counts.get(name)
        if not v:
            raise RuntimeError(f"no count named {name!r} was recorded")
        return statistics.median(v)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer that its spans cover minus what their children cover.

        Children of one span never overlap (calls are sequential), so a
        child's duration is the part of its parent it covers.
        """
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(sorted(out.items()))

    def dump(self, path: str | Path, extra: dict) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
        ]
        payload = {**extra, "self_time_s": self.self_times(), "spans": spans}
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")

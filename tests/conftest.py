from __future__ import annotations

import base64
import sys
import zlib
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from guiloc.corpus import SourceDocument
from guiloc.traces import GuiComponent, ReproTrace, Screen

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def counted_scorings(monkeypatch) -> list:
    """A list that gets each later scoring's `within` (None for a full scoring), in order."""
    import guiloc.index as index_module

    seen = []
    for name, score in list(index_module.SCORER_FUNCS.items()):
        def counted(index, query, within=None, score=score):
            seen.append(None if within is None else list(within))
            return score(index, query, within)
        monkeypatch.setitem(index_module.SCORER_FUNCS, name, counted)
    return seen


def make_doc(path, terms, *, refs=()):
    return SourceDocument(path=path, terms=Counter(terms), resource_id_refs=set(refs))


def make_component(resource_id="", *, ctype="Button", text="", desc="", exercised=False, action=None):
    return GuiComponent(
        resource_id=resource_id,
        component_type=ctype,
        text=text,
        content_desc=desc,
        exercised=exercised,
        action=action,
    )


def make_screen(activity, *, window="", components=()):
    return Screen(activity_name=activity, window_name=window, components=list(components))


def make_trace(trace_id, screens):
    return ReproTrace(trace_id=trace_id, screens=list(screens))


@dataclass
class PackedBody:
    """The four runs of 32-bit words in an index file's packed postings."""

    dfs: array
    lengths: array
    gaps: array
    counts: array

    @property
    def offsets(self) -> list[int]:
        """Where each term's gaps and counts start, and one past the last term's."""
        return list(accumulate(self.dfs, initial=0))


def unpack_postings(data) -> PackedBody:
    """The body packed in an index file's JSON, for tests that edit it."""
    words = array("I")
    words.frombytes(zlib.decompress(base64.b64decode(data["postings"])))
    if sys.byteorder == "big":
        words.byteswap()
    head = len(data["terms"]) + len(data["documents"])
    total = (len(words) - head) // 2
    cuts = [0, len(data["terms"]), head, head + total, len(words)]
    return PackedBody(*(words[lo:hi] for lo, hi in zip(cuts, cuts[1:])))


def repack_postings(data, body: PackedBody, extra=b""):
    """Pack `body` back into `data`, with `extra` bytes appended."""
    words = body.dfs + body.lengths + body.gaps + body.counts
    if sys.byteorder == "big":
        words.byteswap()
    data["postings"] = base64.b64encode(zlib.compress(words.tobytes() + extra)).decode("ascii")

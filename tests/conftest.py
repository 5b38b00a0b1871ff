from __future__ import annotations

import base64
import sys
import zlib
from array import array
from collections import Counter
from pathlib import Path

from guiloc.corpus import SourceDocument
from guiloc.traces import GuiComponent, ReproTrace, Screen

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_doc(doc_id, path, terms, *, refs=(), class_name=None):
    counts = Counter(terms)
    return SourceDocument(
        doc_id=doc_id,
        path=path,
        class_name=class_name or Path(path).stem,
        terms=counts,
        length=sum(counts.values()),
        resource_id_refs=set(refs),
    )


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


def unpack_postings(data):
    """The gaps and counts packed in an index file's JSON, for tests that edit them."""
    words = array("I")
    words.frombytes(zlib.decompress(base64.b64decode(data["postings"])))
    if sys.byteorder == "big":
        words.byteswap()
    total = data["offsets"][-1]
    return words[:total], words[total:]


def repack_postings(data, gaps, counts, extra=b""):
    """Pack `gaps` and `counts` back into `data`, with `extra` bytes appended to the body."""
    words = gaps + counts
    if sys.byteorder == "big":
        words.byteswap()
    data["postings"] = base64.b64encode(zlib.compress(words.tobytes() + extra)).decode("ascii")

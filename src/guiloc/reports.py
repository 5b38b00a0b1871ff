"""Bug report text analysis.

Segmentation into sentences, OB/EB/S2R tagging (with a pluggable remote
classifier that falls back to the built-in heuristic), and parsing of
reproduction steps into a fixed slot structure:

    [subject] [action] [object] [preposition] [object2]
"""

from __future__ import annotations

import io
import json
import logging
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InputError, RemoteClassifierError
from .util import NULL, json_fields, load_json_file

logger = logging.getLogger(__name__)

TAGS = ("OB", "EB", "S2R", "OTHER")

WIRE_VERSION = 1
MAX_REPLY_BYTES = 1 << 20  # a longer classifier reply is a RemoteClassifierError
_EXCERPT_CHARS = 200  # of a bad reply, quoted in the fallback warning

# maps surface verbs (and close synonyms) to the canonical action vocabulary
VERB_SYNONYMS = {
    "click": "click",
    "tap": "click",
    "press": "click",
    "type": "type",
    "enter": "type",
    "input": "type",
    "long-click": "long-click",
    "long-press": "long-click",
    "swipe": "swipe",
    "pinch": "pinch",
    "open": "open",
    "select": "select",
    "back": "back",
}

PREPOSITIONS = ("in", "on", "into", "from", "to", "at")
_ARTICLES = {"the", "a", "an"}
_LEADING_FILLERS = {"please", "then", "now", "next", "first", "finally", "and", "also"}

_LIST_MARKER = re.compile(r"(?:^|(?<=\s))(?:\d{1,3}[.)]|[-*])\s+", re.MULTILINE)
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+|\n+")

_EB_MARKERS = re.compile(r"\b(should|expect(s|ed)?|supposed\s+to)\b", re.IGNORECASE)
_OB_MARKERS = re.compile(
    r"\b(crash(es|ed|ing)?|error(s)?|fail(s|ed|ing)?|instead|broken|wrong"
    r"|freez(es|ing)?|froze|hangs?|stuck|blank|does\s+not|doesn'?t|did\s+not|didn'?t"
    r"|cannot|can'?t|won'?t|nothing\s+happens)\b",
    re.IGNORECASE,
)


@dataclass
class Segment:
    text: str
    is_list_item: bool = False


@dataclass
class BugReport:
    report_id: str
    title: str
    body: str
    ground_truth: set[str] | None = None

    def full_text(self) -> str:
        return f"{self.title}\n{self.body}"


def load_report(path: str | Path) -> BugReport:
    """Read a report JSON file ({report_id, title, body, ground_truth?})."""
    data = load_json_file(path)
    # an integer report id loads as its decimal string
    report_id, title, body = json_fields(
        data, {"report_id": (str, int), "title": (str, NULL), "body": (str, NULL)}, str(path)
    )
    truth = data.get("ground_truth")
    if truth is not None and not (type(truth) is list and all(type(p) is str for p in truth)):
        raise InputError(f"{path}: ground_truth must be a list of path strings")
    return BugReport(
        report_id=str(report_id),
        title=title or "",
        body=body or "",
        ground_truth=set(truth) if truth else None,
    )


def segment_with_markers(body: str) -> list[Segment]:
    """Split a report body into sentences, stripping list markers.

    Numbered markers ("1.", "2)") and bullets ("-", "*") start a new item
    and are removed; ordinary sentence punctuation is kept. Decimal numbers
    like "1.5.8" are not markers because no whitespace follows the dot.
    """
    segments: list[Segment] = []
    chunks = _LIST_MARKER.split(body)
    for ci, chunk in enumerate(chunks):
        pieces = [p.strip() for p in _SENTENCE_SPLIT.split(chunk)]
        pieces = [p for p in pieces if p]
        for pi, piece in enumerate(pieces):
            segments.append(Segment(piece, is_list_item=(ci > 0 and pi == 0)))
    return segments


def _strip_token(token: str) -> str:
    return token.strip(".,!?;:()[]").lower()


def normalize_verb(token: str) -> str | None:
    """Map a surface verb (possibly inflected) to a canonical action, or None."""
    word = _strip_token(token)
    for candidate in (word, word[:-1] if word.endswith("s") else "", word[:-2] if word.endswith("es") else ""):
        if candidate and candidate in VERB_SYNONYMS:
            return VERB_SYNONYMS[candidate]
    return None


def _leading_action(sentence: str) -> str | None:
    tokens = sentence.split()
    for token in tokens[:3]:
        word = _strip_token(token)
        if word in _LEADING_FILLERS:
            continue
        return normalize_verb(token)
    return None


class HeuristicClassifier:
    """Marker/keyword tagging.

    Imperative sentences with an in-vocabulary lead verb are S2R; otherwise
    expectation markers beat failure markers (EB before OB); list items with
    neither marker default to S2R; everything else is OTHER. Version and
    device lines carry no markers and so land in OTHER.
    """

    def classify(self, sentences: Sequence[Segment]) -> list[str]:
        return [self._tag_one(seg) for seg in sentences]

    def _tag_one(self, seg: Segment) -> str:
        if _leading_action(seg.text) is not None:
            return "S2R"
        if _EB_MARKERS.search(seg.text):
            return "EB"
        if _OB_MARKERS.search(seg.text):
            return "OB"
        if seg.is_list_item:
            return "S2R"
        return "OTHER"


@dataclass
class RemoteClassifier:
    """POSTs sentences to an external tagging service.

    Request: {"version": 1, "model": str, "sentences": [str]}
    Response: {"version": 1, "tags": [str]} with one tag per sentence.
    A URL, transport, schema, version or deadline failure raises RemoteClassifierError.
    """

    url: str
    model: str = "default"
    timeout: float = 10.0  # seconds for the whole request

    def classify(self, sentences: Sequence[Segment]) -> list[str]:
        # imported here because only this classifier needs them, and loading
        # http.client at import time would slow every command's start-up
        import http.client
        import urllib.parse

        texts = [s.text for s in sentences]
        payload = json.dumps(
            {"version": WIRE_VERSION, "model": self.model, "sentences": texts}
        ).encode("utf-8")
        url = urllib.parse.urlsplit(self.url)
        connections = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        if url.scheme not in connections:
            raise RemoteClassifierError(f"classifier URL {self.url!r} is not http or https")
        if not url.hostname:
            raise RemoteClassifierError(f"classifier URL {self.url!r} names no host")
        deadline = time.monotonic() + self.timeout

        def respond(sock, **kwargs) -> http.client.HTTPResponse:
            """getresponse's response, each of its reads waiting at most until the deadline."""
            resp = http.client.HTTPResponse(sock, **kwargs)
            resp.fp = io.BufferedReader(_DeadlineReader(resp.fp.detach(), sock, deadline))
            return resp

        try:
            conn = connections[url.scheme](url.hostname, url.port, timeout=self.timeout)
            conn.response_class = respond
            try:
                target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
                conn.request("POST", target, payload, {"Content-Type": "application/json"})
                with conn.getresponse() as resp:
                    if not 200 <= resp.status < 300:
                        raise RemoteClassifierError(
                            f"classifier request failed: HTTP Error {resp.status}: {resp.reason}"
                        )
                    body = resp.read(MAX_REPLY_BYTES + 1)
                    if len(body) > MAX_REPLY_BYTES:
                        raise RemoteClassifierError(
                            f"classifier reply is longer than {MAX_REPLY_BYTES} bytes"
                        )
                    # read(n) ends at a body cut short of its Content-Length as at a
                    # whole one; the body has ended, so read() only raises IncompleteRead
                    resp.read()
            finally:
                conn.close()
            data = json.loads(body)
        # RecursionError: a reply nested too deep for the JSON decoder
        except (http.client.HTTPException, OSError, ValueError, RecursionError) as exc:
            raise RemoteClassifierError(f"classifier request failed: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("tags"), list):
            raise RemoteClassifierError(f"bad classifier response: {_excerpt(data)}")
        version = data.get("version")
        if type(version) is not int or version != WIRE_VERSION:  # true and 1.0 equal 1
            raise RemoteClassifierError(
                f"classifier replied in version {_excerpt(version)}; "
                f"this build reads version {WIRE_VERSION}"
            )
        return data["tags"]


class _DeadlineReader(io.RawIOBase):
    """A socket's raw reader whose every read waits at most until `deadline`.

    Past the deadline a read raises TimeoutError; closing it closes `raw`.
    """

    def __init__(self, raw, sock, deadline: float):
        self.raw, self.sock, self.deadline = raw, sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self.sock.settimeout(left)
        return self.raw.readinto(buffer)

    def close(self) -> None:
        self.raw.close()
        super().close()


def _excerpt(value) -> str:
    """`repr(value)`, cut to _EXCERPT_CHARS so a bad reply makes a short warning."""
    text = repr(value)
    return text if len(text) <= _EXCERPT_CHARS else f"{text[:_EXCERPT_CHARS]}..."


def classify_sentences(
    sentences: Sequence[Segment | str], classifier=None
) -> list[tuple[str, str]]:
    """Tag each sentence OB/EB/S2R/OTHER.

    A remote classifier failure (RemoteClassifierError) is never fatal: it
    logs a warning and the heuristic result is used instead. Any other
    exception from the classifier is a bug and propagates.
    """
    segs = [s if isinstance(s, Segment) else Segment(str(s)) for s in sentences]
    if classifier is not None:
        try:
            tags = classifier.classify(segs)
            if len(tags) != len(segs) or any(t not in TAGS for t in tags):
                raise RemoteClassifierError(f"classifier returned bad tags: {_excerpt(tags)}")
            return [(seg.text, tag) for seg, tag in zip(segs, tags)]
        except RemoteClassifierError as exc:
            logger.warning("classifier failed (%s); using heuristic", exc)
    tags = HeuristicClassifier().classify(segs)
    return [(seg.text, tag) for seg, tag in zip(segs, tags)]


@dataclass
class S2RStep:
    subject: str = "user"
    action: str = ""
    object: str = ""
    preposition: str | None = None
    object2: str | None = None


def _strip_articles(tokens: list[str]) -> list[str]:
    return [t for t in tokens if t.lower() not in _ARTICLES]


def parse_s2r(sentence: str) -> S2RStep:
    """Parse one step sentence into the five-slot structure.

    The first in-vocabulary verb anchors the parse; words before it form the
    subject (default "user"), a preposition right after the verb is treated
    as phrasal ("click on X" acts on X), and the first later preposition
    splits object from object2. Articles are dropped from every slot.
    """
    # normalize_verb strips a superset of these characters, so a word and its token
    # agree, and a word that strips to nothing is no verb and fills no slot
    words = [w for w in (t.strip(".,!?;:") for t in sentence.split()) if w]
    for verb, word in enumerate(words):
        action = normalize_verb(word)
        if action is not None:
            break
    else:
        raise InputError(f"cannot parse step {sentence!r}: no action verb found")
    subject = [t for t in _strip_articles(words[:verb]) if t.lower() not in _LEADING_FILLERS]
    rest = words[verb + 1 :]
    if rest and rest[0].lower() in PREPOSITIONS:
        rest = rest[1:]
    # object2 starts after the first preposition; one that ends the sentence starts none
    prep = next((i for i, t in enumerate(rest) if t.lower() in PREPOSITIONS), len(rest))
    object2 = _strip_articles(rest[prep + 1 :])
    return S2RStep(
        subject=" ".join(subject) or "user",
        action=action,
        object=" ".join(_strip_articles(rest[:prep])),
        preposition=rest[prep].lower() if prep < len(rest) - 1 else None,
        object2=" ".join(object2) or None,
    )

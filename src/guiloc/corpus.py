"""Source corpus scanning and text normalization.

Both source files and query text run through the same :class:`Preprocessor`
so term bags on the two sides are directly comparable.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigError, InputError
from .util import json_fields

logger = logging.getLogger(__name__)

# one term per run: lowercase letters, a capital with its hump, capitals up to
# the one that starts the next hump (XMLParser -> XML, Parser), or digits
_RUN = re.compile(r"[a-z]+|[A-Z](?:[a-z]+|[A-Z]*(?![a-z]))|[0-9]+")
# \bR\.id\. with the boundary checked after the R, so the engine skips R to R
_RESOURCE_REF = re.compile(r"R(?<=\bR)\.id\.([A-Za-z_][A-Za-z0-9_]*)")
_QUOTED = re.compile(r"\"([^\"\n]*)\"|'([^'\n]*)'")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ID_LIKE = re.compile(r"^[A-Za-z0-9_]{2,}$")

_VOWELS = "aeiou"

SOURCE_EXTENSIONS = ("java", "kt")  # the files a corpus scan reads by default


def _load_stopword_file(name: str) -> frozenset[str]:
    text = resources.files("guiloc").joinpath("data", name).read_text(encoding="utf-8")
    return _parse_stopword_text(text)


def _parse_stopword_text(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """English stopwords plus Java/Kotlin keywords from the bundled data files."""
    return _load_stopword_file("stopwords_english.txt") | _load_stopword_file("stopwords_code.txt")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a user-supplied stopword file: one word per line, # comments, an optional BOM."""
    p = Path(path)
    if not p.is_file():
        raise InputError(f"stopword file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read stopword file {p}: {exc}") from exc
    return _parse_stopword_text(text)


def _stem_once(word: str) -> str:
    if len(word) <= 3:
        return word
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("ss") or word.endswith("us"):
        return word
    for suffix in ("xes", "ches", "shes", "zes"):
        if word.endswith(suffix):
            return word[:-2]
    if word.endswith("s"):
        return word[:-1]
    for suffix in ("ing", "ed"):
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            stem = word[: -len(suffix)]
            if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
                stem = stem[:-1]
            return stem
    if word.endswith("ly") and len(word) - 2 >= 3:
        return word[:-2]
    return word


def _stem(word: str) -> str:
    # iterate to a fixed point so stem(stem(x)) == stem(x)
    while True:
        out = _stem_once(word)
        if out == word:
            return out
        word = out


@dataclass(frozen=True)
class Preprocessor:
    """Turns raw text into a normalized term list.

    Splits on non-alphanumeric boundaries, then on camelCase humps and
    letter/digit boundaries, lowercases, drops terms shorter than
    ``min_term_len``, drops stopwords, and optionally stems.
    """

    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    min_term_len: int = 2
    stem: bool = False

    def __post_init__(self):
        if self.min_term_len < 1:
            raise ConfigError(f"min_term_len must be >= 1, got {self.min_term_len}")

    def tokens(self, text: str) -> list[str]:
        min_len, stopwords = self.min_term_len, self.stopwords
        out = [
            t for t in map(str.lower, _RUN.findall(text))
            if len(t) >= min_len and t not in stopwords
        ]
        if self.stem:
            # a stem can land on a stopword ("classes" -> "class"), so
            # re-filter to keep tokenization idempotent
            out = [t for t in map(_stem, out) if len(t) >= min_len and t not in stopwords]
        return out

    def term_set(self, text: str) -> set[str]:
        return set(self.tokens(text))

    def config(self) -> dict:
        return {
            "min_term_len": self.min_term_len,
            "stem": self.stem,
            "stopwords": sorted(self.stopwords),
        }

    @classmethod
    def from_config(cls, data: dict, where: str = "preprocess") -> "Preprocessor":
        stopwords, min_term_len, stem = json_fields(data, _PREPROCESS_FIELDS, where)
        if not all(type(w) is str for w in stopwords):
            raise InputError(f"{where}: 'stopwords' must be a list of strings")
        return cls(stopwords=frozenset(stopwords), min_term_len=min_term_len, stem=stem)


_PREPROCESS_FIELDS = {"stopwords": (list,), "min_term_len": (int,), "stem": (bool,)}


DEFAULT_PREPROCESSOR = Preprocessor()


def class_name_of(path: str) -> str:
    """The class a source file names: its base name without the extension.

    For a file path as :func:`scan_corpus` writes it, this is
    ``PurePosixPath(path).stem``, in string operations that take a tenth of
    its time, as a load runs them for every file.
    """
    name = path.rpartition("/")[2]
    stem, _, extension = name.rpartition(".")
    return stem if stem and extension else name


@dataclass
class SourceDocument:
    """One indexed source file; its doc id is its position in the list of documents."""

    path: str
    terms: dict[str, int]
    resource_id_refs: set[str] = field(default_factory=set)

    @property
    def class_name(self) -> str:
        return class_name_of(self.path)

    @property
    def length(self) -> int:
        """The number of terms in the file, counted with multiplicity."""
        return sum(self.terms.values())


def referenced_resource_ids(raw_text: str) -> set[str]:
    """The ids a source file references as ``R.id.<name>``, lowercased."""
    return {m.lower() for m in _RESOURCE_REF.findall(raw_text)}


def _known_id_mentions(raw_text: str, known_ids: frozenset[str]) -> set[str]:
    """Quoted strings and bare identifiers equal to a known id (an id-like
    token: letters, digits, underscore, length >= 2)."""
    found = set()
    for match in _QUOTED.finditer(raw_text):
        literal = match.group(1) if match.group(1) is not None else match.group(2)
        candidate = literal.strip().lower()
        if _ID_LIKE.match(candidate) and candidate in known_ids:
            found.add(candidate)
    # each distinct identifier once, however often the file repeats it
    found.update(known_ids.intersection(map(str.lower, set(_IDENTIFIER.findall(raw_text)))))
    return found


def has_extension(extensions: Sequence[str]) -> Callable[[Path], bool]:
    """Whether a path's extension is one of `extensions`, ignoring case and a leading dot."""
    wanted = {e.lower().lstrip(".") for e in extensions}
    return lambda path: path.suffix.lstrip(".").lower() in wanted


def scan_corpus(
    root: str | Path,
    extensions: tuple[str, ...] = SOURCE_EXTENSIONS,
    preprocessor: Preprocessor | None = None,
) -> list[SourceDocument]:
    """Walk a source tree and build SourceDocuments.

    Files are ordered lexicographically by their path relative to root,
    which is the order of their doc ids. Each document's term bag is in
    sorted term order. Unreadable files are logged and skipped; a missing
    root is fatal.
    """
    root = Path(root)
    if not root.is_dir():
        raise InputError(f"corpus root not found: {root}")
    if not extensions:
        raise InputError("at least one file extension is required")
    pre = preprocessor or DEFAULT_PREPROCESSOR
    wanted = has_extension(extensions)

    rel_paths = sorted(
        p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file() and wanted(p)
    )

    raws: list[tuple[str, str, set[str]]] = []
    for rel in rel_paths:
        full = root / rel
        try:
            text = full.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        raws.append((rel, text, referenced_resource_ids(text)))

    # ids referenced anywhere in the corpus; second pass matches quoted
    # strings and identifiers against them
    known_ids = frozenset().union(*(refs for *_, refs in raws))

    docs: list[SourceDocument] = []
    for rel, text, refs in raws:
        if known_ids:
            refs |= _known_id_mentions(text, known_ids)
        counts = Counter(pre.tokens(text))
        # sorted term order, the one a loaded index rebuilds its bags in, so
        # a scanned bag and the bag a load rebuilds iterate alike
        docs.append(SourceDocument(rel, {term: counts[term] for term in sorted(counts)}, refs))
    logger.info("scanned %d files under %s", len(docs), root)
    return docs

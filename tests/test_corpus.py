from __future__ import annotations

import random
import re
import string
from collections import Counter
from pathlib import PurePosixPath

import pytest

from guiloc.corpus import (
    Preprocessor,
    SourceDocument,
    _known_id_mentions,
    _stem,
    class_name_of,
    default_stopwords,
    load_stopwords,
    referenced_resource_ids,
    scan_corpus,
)
from guiloc.errors import ConfigError, InputError
from guiloc.index import build_index

from conftest import FIXTURES

# The three-pass tokenizer and the corpus scan that Preprocessor.tokens and
# scan_corpus replaced, kept as references: alphanumeric chunks, split at
# camelCase and acronym-to-word boundaries, then into letter and digit runs.
_REF_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_REF_ALNUM_CHUNK = re.compile(r"[A-Za-z0-9]+")
_REF_ALPHA_OR_DIGIT_RUN = re.compile(r"[A-Za-z]+|[0-9]+")
_REF_RESOURCE_REF = re.compile(r"\bR\.id\.([A-Za-z_][A-Za-z0-9_]*)")
_REF_QUOTED = re.compile(r"\"([^\"\n]*)\"|'([^'\n]*)'")
_REF_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_ID_LIKE = re.compile(r"^[A-Za-z0-9_]{2,}$")


def reference_runs(text):
    return [
        run
        for chunk in _REF_ALNUM_CHUNK.findall(text)
        for piece in _REF_CAMEL.split(chunk)
        for run in _REF_ALPHA_OR_DIGIT_RUN.findall(piece)
    ]


def reference_tokens(pre, runs):
    out = []
    for run in runs:
        term = run.lower()
        if len(term) < pre.min_term_len or term in pre.stopwords:
            continue
        if pre.stem:
            term = _stem(term)
            if len(term) < pre.min_term_len or term in pre.stopwords:
                continue
        out.append(term)
    return out


def reference_scan(root, pre):
    """{path: (terms in order of first use, resource id refs)} as the old scan made them."""
    texts = {
        p.relative_to(root).as_posix(): p.read_text(encoding="utf-8", errors="replace")
        for p in sorted(root.rglob("*"))
        if p.suffix in (".java", ".kt")
    }
    known = {m.lower() for text in texts.values() for m in _REF_RESOURCE_REF.findall(text)}
    return {
        rel: (reference_tokens(pre, reference_runs(text)), reference_refs(text, known))
        for rel, text in texts.items()
    }


def reference_refs(text, known):
    refs = {m.lower() for m in _REF_RESOURCE_REF.findall(text)}
    for match in _REF_QUOTED.finditer(text):
        literal = match.group(1) if match.group(1) is not None else match.group(2)
        candidate = literal.strip().lower()
        if _REF_ID_LIKE.match(candidate) and candidate in known:
            refs.add(candidate)
    for ident in _REF_IDENTIFIER.findall(text):
        if ident.lower() in known:
            refs.add(ident.lower())
    return refs


def test_camel_case_identifier_is_split():
    assert Preprocessor().tokens("getUserName") == ["get", "user", "name"]


def test_resource_reference_tokens():
    assert Preprocessor().tokens("R.id.menu_settings") == ["id", "menu", "settings"]


def test_stopwords_drop_regardless_of_case():
    assert Preprocessor().tokens("the THE The") == []


def test_acronym_and_digit_boundaries():
    assert Preprocessor().tokens("XMLParser") == ["xml", "parser"]
    assert Preprocessor().tokens("word2vec") == ["word", "vec"]
    assert Preprocessor().tokens("HTTPResponse2Json") == ["http", "response", "json"]


def test_min_term_length_filters_single_chars():
    assert Preprocessor().tokens("a b c ab") == ["ab"]


@pytest.mark.parametrize("length", [0, -3])
def test_min_term_length_below_one_is_a_config_error(length):
    with pytest.raises(ConfigError, match=f"min_term_len must be >= 1, got {length}"):
        Preprocessor(min_term_len=length)


def test_terms_are_lowercase_alphanumeric():
    rng = random.Random(11)
    alphabet = string.ascii_letters + string.digits + "_.$()!%-"
    pre = Preprocessor()
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        for term in pre.tokens(text):
            assert term == term.lower()
            assert term.isalnum()
            assert len(term) >= 2


_PIECES = list("aBcDzXq09_ .,-()\"'éÜß\t") + [
    "Buttons", "clicked", "saving", "classes", "HTTP", "XMLParser", "getURL", "i18n",
    "R.id.", "ies", "ly", "Notes", "the", "IDs",
]


def test_tokens_match_the_reference_tokenizer():
    stopwords = frozenset({"the", "id", "ab", "class", "note"})
    plain = [Preprocessor(stopwords, min_term_len=n) for n in (1, 2, 3)]
    stemmed = [Preprocessor(stopwords, min_term_len=n, stem=True) for n in (1, 2, 3)]
    rng = random.Random(17)
    # every string without stemming at each length floor, and with stemming
    # at one floor in turn, since the stemmer itself did not change
    for i in range(100_000):
        text = "".join(rng.choices(_PIECES, k=rng.randint(0, 12)))
        runs = reference_runs(text)
        for pre in plain + [stemmed[i % 3]]:
            assert pre.tokens(text) == reference_tokens(pre, runs), (text, pre)


def test_facets_match_the_reference():
    pieces = list("aZ_ .(\"'é9") + ["R.id.", "save_button", "Save_Button", "menu", "xR", " R", "'menu'"]
    known = frozenset({"save_button", "menu", "a"})
    rng = random.Random(21)
    for _ in range(20_000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        refs = referenced_resource_ids(text)
        assert refs == reference_refs(text, set()), text
        # the second pass of scan_corpus
        assert refs | _known_id_mentions(text, known) == reference_refs(text, known), text


@pytest.mark.parametrize("pre", [Preprocessor(), Preprocessor(stem=True)], ids=["plain", "stem"])
def test_scan_matches_the_reference_scan(pre):
    root = FIXTURES / "app"
    expected = reference_scan(root, pre)
    docs = scan_corpus(root, preprocessor=pre)
    assert [d.path for d in docs] == sorted(expected)
    assert any(refs for _, refs in expected.values())
    for doc in docs:
        tokens, refs = expected[doc.path]
        # same terms in sorted order, with the same counts
        assert list(doc.terms.items()) == sorted(Counter(tokens).items()), doc.path
        assert doc.length == len(tokens)
        assert doc.resource_id_refs == refs, doc.path


def test_preprocess_idempotent_on_own_output():
    rng = random.Random(12)
    alphabet = string.ascii_letters + string.digits + "_. "
    pre = Preprocessor()
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        once = pre.tokens(text)
        again = pre.tokens(" ".join(once))
        assert again == once


def test_preprocess_idempotent_with_stemming():
    pre = Preprocessor(stem=True)
    rng = random.Random(13)
    words = ["buttons", "clicked", "saving", "notes", "classes", "running", "activity", "settings"]
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        once = pre.tokens(text)
        assert pre.tokens(" ".join(once)) == once


def test_stemming_folds_inflections_together():
    pre = Preprocessor(stem=True)
    assert pre.tokens("buttons button") == [pre.tokens("button")[0]] * 2
    assert pre.tokens("clicked") == pre.tokens("click")


def test_stemming_off_by_default():
    assert Preprocessor().tokens("buttons") == ["buttons"]


def test_programming_keywords_are_stopwords():
    assert Preprocessor().tokens("public void static final int") == []


def test_extract_facets_resource_reference():
    assert referenced_resource_ids("btn = findViewById(R.id.save_button);") == {"save_button"}


def test_extract_facets_no_references():
    assert referenced_resource_ids("text with no resource references") == set()


def test_extract_facets_lowercases_ids():
    refs = referenced_resource_ids("R.id.saveButton then R.id.save_button")
    assert refs == {"savebutton", "save_button"}


def test_extract_facets_known_id_in_quoted_string(tmp_path):
    (tmp_path / "D.java").write_text('View v = findViewWithTag("save_button");')
    [doc] = scan_corpus(tmp_path)
    assert doc.resource_id_refs == set()
    (tmp_path / "Owner.java").write_text("bind(R.id.save_button);")
    docs = {d.path: d for d in scan_corpus(tmp_path)}
    assert docs["D.java"].resource_id_refs == {"save_button"}


def test_extract_facets_identifiers_not_swept_in_wholesale(tmp_path):
    (tmp_path / "E.java").write_text("btn = findViewById(R.id.save_button);")
    (tmp_path / "Owner.java").write_text("bind(R.id.save_button);")
    docs = {d.path: d for d in scan_corpus(tmp_path)}
    assert docs["E.java"].resource_id_refs == {"save_button"}


def test_scan_orders_lexicographically_and_assigns_ids(tmp_path):
    (tmp_path / "B.java").write_text("class B {}")
    (tmp_path / "A.java").write_text("class A {}")
    (tmp_path / "C.kt").write_text("class C {}")
    docs = scan_corpus(tmp_path, extensions=("java",))
    assert [d.path for d in docs] == ["A.java", "B.java"]
    assert build_index(docs).doc_ids == {"A.java": 0, "B.java": 1}


def test_scan_missing_root_is_fatal(tmp_path):
    with pytest.raises(InputError):
        scan_corpus(tmp_path / "missing")


def test_scan_propagates_known_ids_across_files(tmp_path):
    (tmp_path / "Owner.java").write_text("bind(R.id.save_button);")
    (tmp_path / "Helper.java").write_text('tagged("save_button");')
    docs = {d.path: d for d in scan_corpus(tmp_path)}
    assert docs["Owner.java"].resource_id_refs == {"save_button"}
    assert docs["Helper.java"].resource_id_refs == {"save_button"}


def test_scan_document_lengths_match_term_counts(tmp_path):
    (tmp_path / "A.java").write_text("class NotePad { void saveNote() { int noteCount = 2; } }")
    doc = scan_corpus(tmp_path)[0]
    assert doc.length == sum(doc.terms.values())
    assert doc.class_name == "A"


@pytest.mark.parametrize("path", [
    "a/Foo.test.java", "Foo..java", "a/.hidden.java", "a/Foo.", "a b/C D.java",
    "ü/Ünïcødé.kt", "a/Makefile", "Main.java", ".java", "a/..java",
])
def test_class_name_is_the_stem_of_the_path(path):
    assert class_name_of(path) == PurePosixPath(path).stem
    assert SourceDocument(path, {}).class_name == class_name_of(path)


def test_custom_stopword_file(tmp_path):
    words = tmp_path / "stop.txt"
    words.write_text("# comment\nfoo\nBAR\n")
    stops = load_stopwords(words)
    assert stops == {"foo", "bar"}
    pre = Preprocessor(stopwords=stops)
    assert pre.tokens("foo bar the baz") == ["the", "baz"]


def test_stopword_file_that_starts_with_a_bom(tmp_path):
    words = tmp_path / "stop.txt"
    words.write_bytes("save\nnote\n".encode("utf-8-sig"))
    stops = load_stopwords(words)
    assert stops == {"save", "note"}
    assert Preprocessor(stopwords=stops).tokens("save the note") == ["the"]


def test_default_stopwords_cover_english_and_keywords():
    stops = default_stopwords()
    assert {"the", "should", "while", "class", "fun"} <= stops
    assert "settings" not in stops
    assert "get" not in stops

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from guiloc.cli import run
from guiloc.errors import InputError
from guiloc.reports import (
    BugReport,
    HeuristicClassifier,
    MAX_REPLY_BYTES,
    RemoteClassifier,
    classify_sentences,
    load_report,
    parse_s2r,
    segment_with_markers,
)


def test_segment_strips_list_markers():
    segments = segment_with_markers("Open app. 1. Tap save 2. Crash")
    assert [s.text for s in segments] == ["Open app.", "Tap save", "Crash"]


def test_segment_bullets_and_newlines():
    body = "Steps:\n- Open the app\n* Tap save\nThen it crashed!"
    segments = segment_with_markers(body)
    assert [s.text for s in segments] == ["Steps:", "Open the app", "Tap save", "Then it crashed!"]


def test_segment_keeps_decimal_versions_whole():
    assert [s.text for s in segment_with_markers("App Version: 1.5.8.")] == ["App Version: 1.5.8."]


def test_segment_marks_list_items():
    segs = segment_with_markers("Intro text. 1. Tap save 2. Wait")
    assert [(s.text, s.is_list_item) for s in segs] == [
        ("Intro text.", False),
        ("Tap save", True),
        ("Wait", True),
    ]


def test_segment_preserves_sentence_content():
    body = "The app crashes. 1. Open editor 2. Type hello! Expected a note."
    joined = " ".join(s.text for s in segment_with_markers(body))
    stripped = lambda s: re.sub(r"[^A-Za-z!.]+", "", s)
    # everything except the markers themselves survives
    assert stripped(joined) == stripped(body.replace("1. ", "").replace("2. ", ""))


def test_classification_examples():
    tags = dict(
        classify_sentences(
            [
                "The app should save the note",
                "Tap the save button",
                "App Version: 1.5.8.",
                "An error dialog appears instead",
            ]
        )
    )
    assert tags["The app should save the note"] == "EB"
    assert tags["Tap the save button"] == "S2R"
    assert tags["App Version: 1.5.8."] == "OTHER"
    assert tags["An error dialog appears instead"] == "OB"


def test_imperative_wins_over_markers():
    tags = dict(classify_sentences(["Press Save even though it should fail"]))
    assert tags["Press Save even though it should fail"] == "S2R"


def test_expected_beats_observed_on_plain_sentences():
    tags = dict(classify_sentences(["I expected a note but the app crashed"]))
    assert tags["I expected a note but the app crashed"] == "EB"


def test_a_leading_filler_is_skipped_before_the_verb():
    assert classify_sentences(["Then tap save"]) == [("Then tap save", "S2R")]


def test_a_verb_after_three_fillers_is_not_read():
    """Only the first three words can hold the lead verb, fillers counted."""
    sentence = "Please then now tap save"
    assert classify_sentences([sentence]) == [(sentence, "OTHER")]


def test_list_items_default_to_s2r_unless_marked():
    segs = segment_with_markers("1. Go to the editor 2. Crash")
    tags = dict(classify_sentences(segs))
    assert tags["Go to the editor"] == "S2R"
    assert tags["Crash"] == "OB"


class _Responder(BaseHTTPRequestHandler):
    payload: dict = {}
    requests: list = []
    missing_bytes = 0  # promised in Content-Length but never sent
    raw: bytes | None = None  # sent instead of the payload's JSON
    trickle = 0.0  # seconds before each byte of the reply, if not 0
    head_trickle = 0.0  # seconds before each byte of the status line and headers, if not 0
    status = 200

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).requests.append(json.loads(body))
        data = type(self).raw or json.dumps(type(self).payload).encode()
        if type(self).head_trickle:
            head = f"HTTP/1.0 200 OK\r\nContent-Length: {len(data)}\r\n\r\n".encode()
            if self._send_slowly(head, type(self).head_trickle):
                self.wfile.write(data)
            return
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data) + type(self).missing_bytes))
        self.end_headers()
        if not type(self).trickle:
            self.wfile.write(data)
            return
        self._send_slowly(data, type(self).trickle)

    def _send_slowly(self, data: bytes, pause: float) -> bool:
        """Write `data` a byte at a time, `pause` seconds before each; False if the client hung up."""
        for i in range(len(data)):
            time.sleep(pause)
            try:
                self.wfile.write(data[i : i + 1])
            except OSError:
                return False
        return True

    def log_message(self, *args):
        pass


@pytest.fixture
def classifier_server():
    server = HTTPServer(("127.0.0.1", 0), _Responder)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    _Responder.raw = None
    _Responder.trickle = _Responder.head_trickle = 0.0
    _Responder.status = 200


def test_remote_classifier_round_trip(classifier_server):
    _Responder.payload = {"version": 1, "tags": ["S2R", "OB"]}
    _Responder.requests = []
    url = f"http://127.0.0.1:{classifier_server.server_port}/classify"
    remote = RemoteClassifier(url, model="tagger-v2")
    tagged = classify_sentences(["Tap save", "It crashed"], classifier=remote)
    assert tagged == [("Tap save", "S2R"), ("It crashed", "OB")]
    sent = _Responder.requests[0]
    assert sent == {"version": 1, "model": "tagger-v2", "sentences": ["Tap save", "It crashed"]}


def test_remote_classifier_bad_response_falls_back(classifier_server, caplog):
    _Responder.payload = {"version": 1, "tags": ["S2R"]}  # wrong length
    url = f"http://127.0.0.1:{classifier_server.server_port}/classify"
    tagged = classify_sentences(
        ["Tap save", "It crashed"], classifier=RemoteClassifier(url)
    )
    assert tagged == [("Tap save", "S2R"), ("It crashed", "OB")]
    assert any("heuristic" in r.message for r in caplog.records)


def test_remote_classifier_truncated_response_falls_back(classifier_server, caplog):
    _Responder.payload = {"version": 1, "tags": ["S2R"]}
    _Responder.missing_bytes = 10
    url = f"http://127.0.0.1:{classifier_server.server_port}/classify"
    try:
        tagged = classify_sentences(["It crashed"], classifier=RemoteClassifier(url))
    finally:
        _Responder.missing_bytes = 0
    assert tagged == [("It crashed", "OB")]
    assert any("heuristic" in r.message for r in caplog.records)


def _lint_with_remote(server, tmp_path, monkeypatch, caplog):
    """lint-report --classifier remote against `server`: its exit code, tags and warnings."""
    monkeypatch.setenv("GUILOC_CLASSIFIER_URL", f"http://127.0.0.1:{server.server_port}/classify")
    report, out = tmp_path / "report.json", tmp_path / "lint.json"
    report.write_text(json.dumps({"report_id": "r1", "title": "", "body": "Tap save. It crashed."}))
    argv = ["lint-report", "--report", str(report), "--classifier", "remote", "--out", str(out)]
    code = run(argv)
    tags = [s["tag"] for s in json.loads(out.read_text())["sentences"]]
    return code, tags, [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]


def test_lint_report_falls_back_on_a_reply_nested_too_deep(
    classifier_server, tmp_path, monkeypatch, caplog
):
    _Responder.raw = b"[" * 100_000
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert (code, tags) == (0, ["S2R", "OB"])
    assert "using heuristic" in warning


@pytest.mark.parametrize("version", [2, 0, "1", 1.0, True, None])
def test_lint_report_falls_back_on_a_reply_in_another_version(
    classifier_server, tmp_path, monkeypatch, caplog, version
):
    _Responder.payload = {"version": version, "tags": ["OTHER", "OTHER"]}
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert (code, tags) == (0, ["S2R", "OB"])
    assert f"replied in version {version!r}" in warning


@pytest.mark.parametrize(
    "payload",
    [
        {"version": 1, "tags": ["S2R"] * 100_000},
        ["S2R"] * 100_000,
        {"version": "1" * 100_000, "tags": []},
    ],
    ids=["too-many-tags", "not-an-object", "long-version"],
)
def test_a_long_bad_reply_makes_one_short_warning(
    classifier_server, tmp_path, monkeypatch, caplog, payload
):
    _Responder.payload = payload
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert (code, tags) == (0, ["S2R", "OB"])
    assert "using heuristic" in warning and len(warning) < 1000


@pytest.mark.parametrize("extra, used", [(0, True), (1, False)], ids=["at-the-cap", "past-the-cap"])
def test_lint_report_falls_back_on_a_reply_past_the_size_cap(
    classifier_server, tmp_path, monkeypatch, caplog, extra, used
):
    reply = json.dumps({"version": 1, "tags": ["OTHER", "OTHER"]}).encode()
    _Responder.raw = reply.ljust(MAX_REPLY_BYTES + extra)  # JSON may end in spaces
    code, tags, warnings = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    if used:
        assert (code, tags, warnings) == (0, ["OTHER", "OTHER"], [])
    else:
        assert (code, tags) == (0, ["S2R", "OB"])
        assert warnings == [
            f"classifier failed (classifier reply is longer than {MAX_REPLY_BYTES} bytes); "
            "using heuristic"
        ]


def test_lint_report_falls_back_on_a_reply_trickled_past_the_timeout(
    classifier_server, tmp_path, monkeypatch, caplog
):
    # the whole reply takes about 4 s; each byte comes well within the timeout
    _Responder.payload = {"version": 1, "tags": ["OTHER", "OTHER"]}
    _Responder.trickle = 0.1
    monkeypatch.setenv("GUILOC_CLASSIFIER_TIMEOUT", "0.5")
    start = time.monotonic()
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert time.monotonic() - start < 1.0
    assert (code, tags) == (0, ["S2R", "OB"])
    assert "using heuristic" in warning


def test_lint_report_falls_back_on_headers_trickled_past_the_timeout(
    classifier_server, tmp_path, monkeypatch, caplog
):
    # the status line and headers take about 2 s; each byte comes well within the timeout
    _Responder.payload = {"version": 1, "tags": ["OTHER", "OTHER"]}
    _Responder.head_trickle = 0.05
    monkeypatch.setenv("GUILOC_CLASSIFIER_TIMEOUT", "0.2")
    start = time.monotonic()
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert time.monotonic() - start < 1.0
    assert (code, tags) == (0, ["S2R", "OB"])
    assert warning == "classifier failed (classifier request failed: timed out); using heuristic"


def test_lint_report_falls_back_on_an_http_error_status(
    classifier_server, tmp_path, monkeypatch, caplog
):
    _Responder.payload = {"version": 1, "tags": ["OTHER", "OTHER"]}
    _Responder.status = 500
    code, tags, [warning] = _lint_with_remote(classifier_server, tmp_path, monkeypatch, caplog)
    assert (code, tags) == (0, ["S2R", "OB"])
    assert warning == (
        "classifier failed (classifier request failed: HTTP Error 500: Internal Server Error); "
        "using heuristic"
    )


def test_remote_classifier_url_without_a_host_falls_back(caplog):
    tagged = classify_sentences(["It crashed"], classifier=RemoteClassifier("http:///classify"))
    assert tagged == [("It crashed", "OB")]
    [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert "classifier URL 'http:///classify' names no host" in warning


@pytest.mark.parametrize("url", ["file:///dev/null", "data:,x"])
def test_remote_classifier_url_that_is_not_http_falls_back(caplog, url):
    tagged = classify_sentences(["It crashed"], classifier=RemoteClassifier(url))
    assert tagged == [("It crashed", "OB")]
    [warning] = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert f"classifier URL {url!r} is not http or https" in warning


def test_remote_classifier_bad_url_falls_back(caplog):
    tagged = classify_sentences(["It crashed"], classifier=RemoteClassifier("not-a-url"))
    assert tagged == [("It crashed", "OB")]
    assert any("heuristic" in r.message for r in caplog.records)


def test_remote_classifier_unreachable_falls_back(caplog):
    remote = RemoteClassifier("http://127.0.0.1:9/classify", timeout=0.2)
    tagged = classify_sentences(["The app should save"], classifier=remote)
    assert tagged == [("The app should save", "EB")]
    assert any("heuristic" in r.message for r in caplog.records)


SLOT_SUITE = [
    ("Click the save button", ("user", "click", "save button", None, None)),
    ("Click on the save button", ("user", "click", "save button", None, None)),
    ("Tap Save", ("user", "click", "Save", None, None)),
    ("Type 'hello' in the search field", ("user", "type", "'hello'", "in", "search field")),
    ("Enter hello into the search field", ("user", "type", "hello", "into", "search field")),
    ("The user types a name in the login form", ("user", "type", "name", "in", "login form")),
    ("Long-click the note in the list", ("user", "long-click", "note", "in", "list")),
    ("Swipe left on the note card", ("user", "swipe", "left", "on", "note card")),
    ("Press the back button", ("user", "click", "back button", None, None)),
    ("Open the settings screen", ("user", "open", "settings screen", None, None)),
    ("Select a tag from the picker", ("user", "select", "tag", "from", "picker")),
    ("Pinch the map view", ("user", "pinch", "map view", None, None)),
    ("The user clicks save in the toolbar", ("user", "click", "save", "in", "toolbar")),
    ("Input the password at the login prompt", ("user", "type", "password", "at", "login prompt")),
    ("Then tap the sync icon on the main screen", ("user", "click", "sync icon", "on", "main screen")),
]


def test_slot_grammar_suite():
    for sentence, expected in SLOT_SUITE:
        step = parse_s2r(sentence)
        got = (step.subject, step.action, step.object, step.preposition, step.object2)
        assert got == expected, sentence


def test_parse_subject_defaults_to_user():
    assert parse_s2r("Tap save").subject == "user"
    assert parse_s2r("The user taps save").subject == "user"


def test_object2_implies_preposition():
    for sentence, _ in SLOT_SUITE:
        step = parse_s2r(sentence)
        if step.object2 is not None:
            assert step.preposition is not None


def test_unparseable_step_raises():
    with pytest.raises(InputError, match="cannot parse step 'The app crashed badly'"):
        parse_s2r("The app crashed badly")


def test_load_report_schema(tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(
        json.dumps(
            {
                "report_id": "r1",
                "title": "Crash on save",
                "body": "Tap save. The app crashes.",
                "ground_truth": ["ui/Editor.java"],
            }
        )
    )
    report = load_report(path)
    assert report.report_id == "r1"
    assert report.ground_truth == {"ui/Editor.java"}
    assert isinstance(report, BugReport)


def test_load_report_requires_id(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"title": "x"}')
    with pytest.raises(InputError):
        load_report(path)


@pytest.mark.parametrize(
    "truth",
    ["ui/MainActivity.java", ["ui/A.java", 3], {"ui/A.java": 1}, 7],
)
def test_load_report_rejects_ground_truth_not_a_list_of_strings(tmp_path, truth):
    path = tmp_path / "r1.json"
    path.write_text(json.dumps({"report_id": "r1", "ground_truth": truth}))
    with pytest.raises(InputError, match="ground_truth"):
        load_report(path)


def test_load_report_without_ground_truth(tmp_path):
    for i, data in enumerate([{}, {"ground_truth": None}, {"ground_truth": []}]):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps({"report_id": "r1", **data}))
        assert load_report(path).ground_truth is None


def test_local_classifier_bug_propagates():
    class Broken:
        def classify(self, sentences):
            return 1 / 0

    with pytest.raises(ZeroDivisionError):
        classify_sentences(["Tap save"], classifier=Broken())

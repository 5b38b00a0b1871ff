"""Seeded synthetic Android-style app, bug reports and reproduction traces.

Everything is drawn from one ``random.Random(seed)``, so a seed and a
:class:`Spec` always give the same bytes. Only files the program reads are
written: Java sources, report JSON and trace JSON. What the benchmark needs
to check the program's answers (sentence labels, each step's action and
widget, the gaps the left-out steps make) is returned in memory as a
:class:`Manifest`.

Run alone to inspect one input set::

    PYTHONPATH=src python3 bench/synth.py --workload triage --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Heads of the Zipf-like vocabulary: the words Android code repeats most.
CODE_WORDS = (
    "get set update load view item data value count index state text row "
    "result handler callback listener adapter holder context intent bundle "
    "layout content position size name title message status event request "
    "response cache store record entry field param option config flag key "
    "id type mode time date user account image file path url error task job"
).split()

# GUI vocabulary for component labels; none is a stopword or a preposition.
OBJECT_WORDS = (
    "save delete archive share filter sort refresh search export import "
    "upload download edit rename copy move pin mute star reply forward "
    "attach crop rotate zoom scan sync undo redo lock unlock clear reset "
    "retry confirm cancel submit publish preview print"
).split()

# (widget class, id suffix, action performed on it)
WIDGETS = (
    ("Button", "button", "click"),
    ("ImageButton", "icon", "click"),
    ("CheckBox", "checkbox", "click"),
    ("ToggleButton", "toggle", "click"),
    ("RecyclerView", "list", "swipe"),
    ("Spinner", "spinner", "select"),
    ("TextView", "label", "long-click"),
)

STEP_VERBS = {
    "click": ("Click", "Tap", "Press"),
    "swipe": ("Swipe",),
    "select": ("Select",),
    "long-click": ("Long-press", "Long-click"),
}

_ONSETS = "b c d f g h j k l m n p r s t v z br cr dr fl gr kl pr st tr".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "l", "s", "x", "m"]

_OB_TEMPLATES = (
    "The app crashes on the {a} {b} screen.",
    "The {a} {b} view freezes after that.",
    "Nothing happens and the {a} list stays blank.",
    "The {a} {b} page shows an error instead of my {c}.",
    "My {c} is gone and the {a} {b} screen is stuck.",
)
_EB_TEMPLATES = (
    "The {a} {b} screen should keep my {c}.",
    "I expected the {a} {c} to update.",
    "The {b} {c} is supposed to stay visible.",
)
_OTHER_TEMPLATES = (
    "Seen on a {a} build of the app.",
    "My phone runs the {b} release with the {c} theme.",
)


@dataclass(frozen=True)
class Spec:
    """Input sizes of one workload."""

    files: int  # source files in the app
    screens: int  # activities, one GUI screen each
    components: int  # widgets per screen
    tokens: int  # approximate identifier words per file
    vocab: int  # distinct pseudo-words after the code-word head
    reports: int  # reports, each with its own trace
    trace_len: int  # screens per trace
    model_traces: int  # extra traces folded into the execution model
    omit: int  # interior steps left out of each report's step list
    listeners: int = 0  # other files that handle each widget


@dataclass
class ReportTruth:
    report_id: str
    sentences: list[tuple[str, str, str | None]]  # text, label, action
    step_ids: list[str]  # resource id each step sentence acts on
    gaps: int  # runs of left-out steps whose two ends are different screens

    def steps(self) -> list[tuple[str, str, str, str]]:
        """(text, label, action, resource id) of each step sentence."""
        s2r = [s for s in self.sentences if s[1] == "S2R"]
        return [(t, lab, act, rid) for (t, lab, act), rid in zip(s2r, self.step_ids)]


@dataclass
class Manifest:
    app_dir: Path
    reports_dir: Path
    traces_dir: Path
    model_traces_dir: Path
    reports: list[ReportTruth] = field(default_factory=list)


def _pseudo_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < n:
        syllables = rng.choice((2, 2, 3))
        w = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        w += rng.choice(_CODAS)
        if len(w) >= 4 and w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _camel(words: list[str], upper_first: bool) -> str:
    out = "".join(w.capitalize() for w in words)
    return out if upper_first else out[0].lower() + out[1:]


@dataclass
class _Component:
    resource_id: str
    widget: str
    text: str
    desc: str
    action: str
    target: int  # screen this interaction leads to
    label: str  # words a step sentence uses for it


@dataclass
class _Screen:
    activity: str  # class name
    topic: list[str]
    components: list[_Component]


class _Generator:
    def __init__(self, seed: int, spec: Spec):
        self.rng = random.Random(seed)
        self.spec = spec
        taken = set(CODE_WORDS) | set(OBJECT_WORDS) | {w for _, w, _ in WIDGETS}
        self.tail = _pseudo_words(self.rng, spec.vocab, taken)
        self.taken = taken
        self.vocab = CODE_WORDS + self.tail
        # Zipf weights 1/rank: a handful of words dominate, the tail is long
        self.cum = list(itertools.accumulate(1.0 / r for r in range(1, len(self.vocab) + 1)))

    def words(self, k: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=k)

    # ------------------------------------------------------------ GUI graph

    def screens(self) -> list[_Screen]:
        spec = self.spec
        # every screen owns a distinct topic word, so component term sets
        # are unique across the app and steps match exactly one edge
        topics = _pseudo_words(self.rng, spec.screens * 2, self.taken)
        out = []
        for s in range(spec.screens):
            topic = [topics[2 * s], topics[2 * s + 1]]
            comps = []
            for obj in self.rng.sample(OBJECT_WORDS, spec.components):
                widget, suffix, action = self.rng.choice(WIDGETS)
                target = self.rng.randrange(spec.screens - 1)
                target += target >= s  # never a self-loop
                comps.append(
                    _Component(
                        resource_id=f"{topic[0]}_{obj}_{suffix}",
                        widget=widget,
                        text=f"{obj.capitalize()} {topic[0]}",
                        desc="" if self.rng.random() < 0.5 else f"{obj} {suffix}",
                        action=action,
                        target=target,
                        label=f"{topic[0]} {obj} {suffix}",
                    )
                )
            out.append(_Screen(activity=_camel(topic, True) + "Activity", topic=topic, components=comps))
        return out

    def walk(self, screens: list[_Screen]) -> list[tuple[int, int | None]]:
        """A random walk: (screen, exercised component) per step."""
        cur = self.rng.randrange(len(screens))
        steps: list[tuple[int, int | None]] = []
        for _ in range(self.spec.trace_len - 1):
            ci = self.rng.randrange(len(screens[cur].components))
            steps.append((cur, ci))
            cur = screens[cur].components[ci].target
        # the buggy screen: its triggering widget is exercised too
        steps.append((cur, self.rng.randrange(len(screens[cur].components))))
        return steps

    def trace_json(self, trace_id: str, screens: list[_Screen], walk) -> dict:
        out = []
        for s, ci in walk:
            scr = screens[s]
            comps = []
            for j, c in enumerate(scr.components):
                exercised = j == ci
                comps.append(
                    {
                        "resource_id": c.resource_id,
                        "type": c.widget,
                        "text": c.text,
                        "content_desc": c.desc,
                        "exercised": exercised,
                        "action": c.action if exercised else None,
                    }
                )
            out.append(
                {
                    "activity_name": f"com.synth.ui.{scr.activity}",
                    "window_name": "",
                    "components": comps,
                }
            )
        return {"trace_id": trace_id, "screens": out}

    # ------------------------------------------------------------ sources

    def java(self, pkg: str, cls: str, base: str, topic: list[str], ids: list[str]) -> str:
        rng = self.rng
        n = self.spec.tokens
        lines = [f"package com.synth.{pkg};", "", f"public class {cls} extends {base} {{"]
        used = 0
        if ids:
            lines += [
                "    @Override",
                "    protected void onCreate(Bundle savedInstanceState) {",
            ]
            for rid in ids:
                handler = _camel(["on"] + rid.split("_")[1:2] + self.words(1), False)
                lines.append(f"        findViewById(R.id.{rid}).setOnClickListener(v -> {handler}());")
                used += 4
            lines.append("    }")
        while used < n:
            name = _camel(self.words(1) + (topic[:1] if topic and rng.random() < 0.6 else []), False)
            lines.append("")
            lines.append(f"    private void {name}() {{")
            for _ in range(rng.randint(2, 5)):
                a = _camel(self.words(rng.randint(1, 2)), False)
                b = _camel(self.words(rng.randint(1, 2)) + (topic[1:] if topic and rng.random() < 0.4 else []), False)
                call = _camel(self.words(rng.randint(1, 2)), False)
                lines.append(f"        {a} = {b}.{call}({_camel(self.words(1), False)});")
                used += 7
            if rng.random() < 0.3:
                lines.append(f"        // {' '.join(self.words(6))}")
                used += 6
            lines.append("    }")
            used += 2
        lines.append("}")
        return "\n".join(lines) + "\n"


def _sentence(rng: random.Random, templates, words: list[str]) -> str:
    a, b, c = words
    return rng.choice(templates).format(a=a, b=b, c=c)


def generate(seed: int, spec: Spec, out: str | Path) -> Manifest:
    """Write an app, reports with traces and extra model traces under ``out``."""
    out = Path(out)
    g = _Generator(seed, spec)
    rng = g.rng
    m = Manifest(
        app_dir=out / "app",
        reports_dir=out / "reports",
        traces_dir=out / "traces",
        model_traces_dir=out / "model_traces",
    )
    for d in (m.app_dir, m.reports_dir, m.traces_dir, m.model_traces_dir):
        d.mkdir(parents=True, exist_ok=True)

    screens = g.screens()
    # files that belong to each screen: its activity, a manager and a fragment
    owned: list[dict[str, str]] = []
    sources: dict[str, str] = {}
    for s, scr in enumerate(screens):
        ids = [c.resource_id for c in scr.components]
        name = _camel(scr.topic, True)
        files = {
            "activity": f"ui/{scr.activity}.java",
            "fragment": f"ui/{name}Fragment.java",
            "manager": f"data/{name}Manager.java",
        }
        sources[files["activity"]] = g.java("ui", scr.activity, "AppCompatActivity", scr.topic, ids)
        # the fragment wires up half of the screen's widgets (a listener file)
        sources[files["fragment"]] = g.java("ui", f"{name}Fragment", "Fragment", scr.topic, ids[::2])
        sources[files["manager"]] = g.java("data", f"{name}Manager", "Object", scr.topic, [])
        owned.append(files)
    pkgs = ("util", "net", "model", "service")
    kinds = ("Helper", "Client", "Model", "Service")
    filler = max(0, spec.files - len(sources))
    names = _pseudo_words(rng, filler * 2, g.taken)
    # every widget is also handled by `listeners` other files, which sets how
    # many files a trace's GUI context marks as related, the same for all
    wired: dict[int, tuple[list[str], list[str]]] = {}
    for scr in screens:
        for c in scr.components:
            for i in rng.sample(range(filler), min(spec.listeners, filler)):
                wired.setdefault(i, (scr.topic, []))[1].append(c.resource_id)
    for i in range(filler):
        k = i % len(pkgs)
        cls = _camel(names[2 * i : 2 * i + 2], True) + kinds[k]
        topic, ids = wired.get(i, ([], []))
        sources[f"{pkgs[k]}/{cls}.java"] = g.java(pkgs[k], cls, "Object", topic, ids)
    for rel, text in sources.items():
        path = m.app_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    for r in range(spec.reports):
        rid = f"r{r:04d}"
        walk = g.walk(screens)
        (m.traces_dir / f"{rid}.json").write_text(
            json.dumps(g.trace_json(rid, screens, walk), indent=1), encoding="utf-8"
        )
        buggy = screens[walk[-1][0]]
        files = owned[walk[-1][0]]
        truth = [files[rng.choice(("activity", "activity", "manager", "fragment"))]]
        topic_words = buggy.topic + [rng.choice(OBJECT_WORDS)]

        transitions = list(range(len(walk) - 1))
        interior = transitions[1:-1]
        omitted = sorted(rng.sample(interior, min(spec.omit, len(interior))))
        sentences: list[tuple[str, str, str | None]] = []
        sentences.append((_sentence(rng, _OB_TEMPLATES, topic_words), "OB", None))
        sentences.append((_sentence(rng, _EB_TEMPLATES, topic_words), "EB", None))
        steps, step_ids = [], []
        for t in transitions:
            if t in omitted:
                continue
            comp = screens[walk[t][0]].components[walk[t][1]]
            verb = rng.choice(STEP_VERBS[comp.action])
            steps.append((f"{verb} the {comp.label}.", "S2R", comp.action))
            step_ids.append(comp.resource_id)
        sentences += steps
        sentences.append((_sentence(rng, _OTHER_TEMPLATES, rng.sample(g.tail, 3)), "OTHER", None))
        body_lines = [f"{sentences[0][0]} {sentences[1][0]}"]
        body_lines += [f"{i}. {text}" for i, (text, _, _) in enumerate(steps, 1)]
        body_lines.append(sentences[-1][0])
        # the title adds common words a reporter uses; it is not tagged, so
        # its words may hold any marker without changing a known label
        extra = " ".join(g.words(spec.tokens // 20))
        title = f"{topic_words[2].capitalize()} on {' '.join(buggy.topic)} fails: {extra}"
        body = "\n".join(body_lines)
        report = {"report_id": rid, "title": title, "body": body, "ground_truth": truth}
        (m.reports_dir / f"{rid}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
        # a run of left-out steps that returns to the screen it left is no gap
        runs = [t for t in omitted if t - 1 not in omitted]
        gaps = 0
        for a in runs:
            b = a
            while b + 1 in omitted:
                b += 1
            gaps += walk[a][0] != walk[b + 1][0]
        m.reports.append(ReportTruth(rid, sentences, step_ids, gaps))

    for t in range(spec.model_traces):
        tid = f"m{t:04d}"
        (m.model_traces_dir / f"{tid}.json").write_text(
            json.dumps(g.trace_json(tid, screens, g.walk(screens)), indent=1), encoding="utf-8"
        )
    return m


def main() -> None:
    from workloads import SPECS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SPECS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    m = generate(args.seed, SPECS[args.workload], args.out)
    print(f"{len(m.reports)} reports written under {args.out}")


if __name__ == "__main__":
    main()

"""The three workloads: their inputs, their schedules and what they report.

Every workload runs every guiloc command a user runs on a project (index,
localize, sweep, build-model, lint-report), because each run reports every
end-to-end metric. What sets the workloads apart is the shape of the
project and which command fills the timed window:

* ``triage`` localizes distinct reports against one large app;
* ``sweep`` runs the CLI's default 48-config grid over a small app;
* ``lint`` lints many reports against a large execution model.

The other commands run a fixed number of times per run, spread evenly over
the window, so their samples see the same stretch of machine time as the
focus command's. Timings are medians over a run's samples, each scaled to a
reference speed by :class:`Calibration`.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path

import guiloc.evaluation as g_evaluation
import guiloc.pipeline as g_pipeline
from guiloc import (
    GuiContext,
    HeuristicClassifier,
    InputError,
    PipelineConfig,
    SweepGrid,
    apply_rerank,
    build_execution_model,
    build_index,
    build_query,
    classify_sentences,
    detect_missing_steps,
    extract_gui_terms,
    load_dataset,
    load_index,
    load_model,
    localize,
    map_steps_to_model,
    match_activity_files,
    match_component_files,
    match_listener_files,
    parse_s2r,
    parse_trace,
    rank,
    save_index,
    save_model,
    scan_corpus,
    sweep,
)
from guiloc.pipeline import full_depth
from guiloc.reports import segment_with_markers

import oracle
from spans import Tracer
from synth import Spec, generate

SPECS = {
    "triage": Spec(files=2000, screens=200, components=8, tokens=150, vocab=6000,
                   reports=150, trace_len=6, model_traces=0, omit=1, listeners=2),
    "sweep": Spec(files=240, screens=24, components=8, tokens=150, vocab=2000,
                  reports=20, trace_len=6, model_traces=30, omit=1, listeners=1),
    "lint": Spec(files=1000, screens=300, components=10, tokens=60, vocab=3000,
                 reports=200, trace_len=8, model_traces=400, omit=2, listeners=1),
}

# (focus operation, {operation: runs per window}). Index build, index load
# and model build come first in the window because the others need them.
SCHEDULES = {
    "triage": ("localize", {"index_build": 3, "index_load": 10, "model_build": 16, "sweep": 1, "lint": 40}),
    "sweep": ("sweep", {"index_build": 8, "index_load": 12, "model_build": 16, "localize": 16, "lint": 40}),
    "lint": ("lint", {"index_build": 6, "index_load": 12, "model_build": 10, "localize": 16, "sweep": 2}),
}
_FIRST = ("index_build", "index_load", "model_build")

# reports per sweep call; the others are localized and linted
SWEEP_REPORTS = {"triage": 1, "sweep": 5, "lint": 2}

# the CLI's default sweep grid: 2 scorers x 3 queries x 4 re-ranks x 2 windows
GRID = SweepGrid(
    scorers=["bm25", "rvsm"],
    query_strategies=["base", "expand", "replace"],
    rerank_strategies=["none", "filter", "boost", "filter_boost"],
    windows=[1, 3],
)
LOCALIZE = PipelineConfig(query_strategy="expand", rerank_strategy="filter_boost", window=3, top_k=10)

SETUPS = 3  # set-up runs per run; setup_s is their median
MIN_FOCUS = 3  # focus operations per run, however short the window
CHECK_RANKINGS = 3  # reports per scorer checked against the dense reference
CHECK_CONFIGS = 6  # sweep rows recomputed by the oracle
CHECK_LINTS = 40  # lint outputs checked

END_TO_END = {
    "setup_s": "s",
    "index_build_s": "s",
    "index_load_s": "s",
    "index_mb": "MB",
    "localize_bm25_ms": "ms",
    "localize_rvsm_ms": "ms",
    "sweep_evals_per_s": "1/s",
    "model_build_s": "s",
    "lint_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> (unit, where the value comes from: a span or a count)
PER_LAYER = {
    "corpus.scan_s": ("s", "corpus.scan"),
    "corpus.files": ("count", "corpus.files"),
    "corpus.tokens": ("count", "corpus.tokens"),
    "corpus.vocab": ("count", "corpus.vocab"),
    "index.build_s": ("s", "index.build"),
    "index.save_s": ("s", "index.save"),
    "index.load_s": ("s", "index.load"),
    "index.postings": ("count", "index.postings"),
    "index.bm25_ms": ("ms", "index.bm25"),
    "index.rvsm_ms": ("ms", "index.rvsm"),
    "index.candidates": ("count", "index.candidates"),
    "mapping.gui_context_ms": ("ms", "mapping.gui_context"),
    "mapping.terms_ms": ("ms", "mapping.terms"),
    "mapping.activity_ms": ("ms", "mapping.activity"),
    "mapping.listener_ms": ("ms", "mapping.listener"),
    "mapping.component_ms": ("ms", "mapping.component"),
    "mapping.gui_related_files": ("count", "mapping.gui_related_files"),
    "mapping.boosted_files": ("count", "mapping.boosted_files"),
    "pipeline.query_ms": ("ms", "pipeline.query"),
    "pipeline.query_terms": ("count", "pipeline.query_terms"),
    "pipeline.rerank_ms": ("ms", "pipeline.rerank"),
    "evaluation.config_s": ("s", "evaluation.config"),
    "evaluation.metrics_ms": ("ms", "evaluation.metrics"),
    "evaluation.contexts_distinct_per_computed": ("ratio", "evaluation.contexts_distinct_per_computed"),
    "evaluation.scorings_distinct_per_computed": ("ratio", "evaluation.scorings_distinct_per_computed"),
    "reports.segment_ms": ("ms", "reports.segment"),
    "reports.classify_ms": ("ms", "reports.classify"),
    "reports.parse_ms": ("ms", "reports.parse"),
    "reports.sentences": ("count", "reports.sentences"),
    "reports.steps": ("count", "reports.steps"),
    "traces.parse_ms": ("ms", "traces.parse"),
    "traces.model_build_s": ("s", "traces.model_build"),
    "traces.model_save_s": ("s", "traces.model_save"),
    "traces.model_load_s": ("s", "traces.model_load"),
    "traces.model_nodes": ("count", "traces.model_nodes"),
    "traces.model_edges": ("count", "traces.model_edges"),
    "step_mapping.map_ms": ("ms", "step_mapping.map"),
    "step_mapping.missing_ms": ("ms", "step_mapping.missing"),
    "step_mapping.edges_compared": ("count", "step_mapping.edges_compared"),
    "step_mapping.matched_steps": ("count", "step_mapping.matched_steps"),
    "step_mapping.gaps": ("count", "step_mapping.gaps"),
}

_SCALE = {"s": 1.0, "ms": 1e3}


def _now() -> float:
    return time.perf_counter()


class Calibration:
    """A fixed loop of benchmark code, timed between operations.

    The shared host this benchmark was tuned on changes speed by up to half
    over seconds to minutes, and guiloc and this loop slow down together.
    The loop runs before every operation, and each operation's time is
    multiplied by REF_S / (the mean of the loop times just before and just
    after it), which puts all runs on one reference speed; the raw medians
    go to standard error. The loop mixes what guiloc spends its time on:
    dict lookups with float math, regex tokenizing, JSON, and walks over
    term bags scattered through tens of megabytes, which slow down most when
    the host is busy. Its data is fixed here, not drawn from the seed.
    """

    REF_S = 0.005  # the loop's time between operations on a quiet core of that host

    def __init__(self):
        rng = random.Random(0)
        words = [f"w{i}x" for i in range(2000)]
        self.docs = [{w: rng.randint(1, 5) for w in rng.sample(words, 60)} for _ in range(100)]
        self.query = rng.sample(words, 40)
        self.text = " ".join(f"{rng.choice(words)}Item{rng.choice(words).upper()}" for _ in range(300))
        self.bags = [{f"t{rng.randrange(50_000)}": rng.randint(1, 9) for _ in range(80)} for _ in range(3000)]
        self.walk = [rng.randrange(len(self.bags)) for _ in range(120)]
        self.times: list[float] = []
        self._loop()  # the first pass pays for page faults; later ones do not

    def _loop(self) -> float:
        s = 0.0
        for d in self.docs:
            for t in self.query:
                f = d.get(t)
                if f:
                    s += math.log(1.0 + f) / (f + 1.2)
            for f in d.values():
                s += f * 0.5
        s += len(_CAL_TOKEN.findall(self.text))
        s += len(json.loads(json.dumps(self.docs[:20])))
        for i in self.walk:
            for t, f in self.bags[i].items():
                s += math.log(1.0 + f) * len(t)
        return s

    def sample(self) -> int:
        """Time the loop once; return the sample's index."""
        t0 = _now()
        self._loop()
        self.times.append(_now() - t0)
        return len(self.times) - 1

    def scale(self, i: int) -> float:
        """Factor for a time measured between samples i and i + 1."""
        near = self.times[i : i + 2]
        return self.REF_S / (sum(near) / len(near))

    def factor(self) -> float:
        """The run's median factor, for spans and other whole-run figures."""
        return self.REF_S / statistics.median(self.times)


_CAL_TOKEN = re.compile(r"[A-Za-z]+|[0-9]+")


class Run:
    """One run of one workload: set-up, timed window, output checks."""

    def __init__(self, workload: str, seed: int, traced: bool, work: Path, spec: Spec | None = None):
        self.workload = workload
        self.seed = seed
        self.spec = spec or SPECS[workload]
        self.tr = Tracer(traced)
        self.cal = Calibration()
        self.work = work
        # metric -> [(raw value, [(seconds, calibration sample before them)])]
        self.samples: dict[str, list[tuple[float, list]]] = {name: [] for name in END_TO_END}
        self._cal_i = 0
        self.attempted = 0
        self.failed = 0
        self.index_path = work / "index.json"
        self.model_path = work / "model.json"
        self._next_report = 0
        self._next_lint = 0
        self._sweeps = 0
        self.kept_rankings: list = []
        self.kept_lints: dict[str, dict] = {}
        self.last_csv: Path | None = None
        self.built_index = None
        self.model_traces = None
        self.sweep_calls = {"contexts": [], "scorings": []}

    # ------------------------------------------------------------ set-up

    def setup(self) -> None:
        """Generate the inputs and load the dataset, SETUPS times; keep the first."""
        for i in range(SETUPS):
            self._cal_i = self.cal.sample()
            t0 = _now()
            m = generate(self.seed, self.spec, self.work / f"inputs{i}")
            pairs = load_dataset(m.reports_dir, m.traces_dir)
            self._record("setup_s", _now() - t0)
            if i == 0:
                self.m, self.pairs = m, pairs
            else:
                shutil.rmtree(self.work / f"inputs{i}")
        self.truth = {r.report_id: r for r in self.m.reports}
        self.trace_files = sorted(self.m.traces_dir.glob("*.json")) + sorted(
            self.m.model_traces_dir.glob("*.json")
        )
        self.sweep_pairs = self.pairs[: SWEEP_REPORTS[self.workload]]

    def warm_up(self) -> None:
        """One untimed pass over every command on the last report.

        First calls pay for lazy imports and cold allocator pools, which a
        user's second command does not. The set-up's garbage is collected and
        frozen so later collections do not walk it.
        """
        saved = self.pairs
        self.pairs = saved[-1:]
        self._cal_i = self.cal.sample()
        self.op_index_build()
        self.op_index_load()
        self.op_model_build()
        self.op_localize()
        self.op_lint()
        self.pairs = saved
        self._next_report = self._next_lint = 0
        self.kept_rankings.clear()
        self.kept_lints.clear()
        for name in END_TO_END:
            if name != "setup_s":
                self.samples[name].clear()
        self.tr.spans.clear()
        self.tr.counts.clear()
        gc.collect()
        gc.freeze()

    # ------------------------------------------------------------ operations

    def op_index_build(self) -> None:
        """The `guiloc index` path, calibrated between its three calls."""
        tr, cal = self.tr, self.cal
        pieces = []
        with tr.span("bench.index_build"):
            t0 = _now()
            with tr.span("corpus.scan"):
                docs = scan_corpus(self.m.app_dir)
            pieces.append((_now() - t0, self._cal_i))
            i = cal.sample()
            t0 = _now()
            with tr.span("index.build"):
                index = build_index(docs)
            with tr.span("index.save"):
                save_index(index, self.index_path)
            pieces.append((_now() - t0, i))
        self._record("index_build_s", sum(sec for sec, _ in pieces), pieces)
        self.built_index = index
        tr.count("corpus.files", len(docs))
        tr.count("corpus.tokens", sum(d.length for d in docs))
        tr.count("corpus.vocab", len(index.postings))
        tr.count("index.postings", sum(len(p) for p in index.postings.values()))

    def op_index_load(self) -> None:
        t0 = _now()
        with self.tr.span("bench.index_load"), self.tr.span("index.load"):
            self.index = load_index(self.index_path)
        self._record("index_load_s", _now() - t0)

    def op_localize(self) -> None:
        report, trace = self.pairs[self._next_report % len(self.pairs)]
        self._next_report += 1
        run = self.composed_localize if self.tr.enabled else localize
        for scorer in ("bm25", "rvsm"):
            config = replace(LOCALIZE, scorer=scorer)
            if scorer == "rvsm":  # each localize between its own calibration samples
                self._cal_i = self.cal.sample()
            t0 = _now()
            with self.tr.span(f"bench.localize_{scorer}", report.report_id):
                ranked = run(report, trace, self.index, config)
            self._record(f"localize_{scorer}_ms", 1e3 * (_now() - t0))
            if self._next_report <= CHECK_RANKINGS:
                self.kept_rankings.append((report, trace, config, ranked))

    def composed_localize(self, report, trace, index, config):
        """localize's steps in localize's order, each in its own span."""
        tr, rid = self.tr, report.report_id
        pre, docs, w = index.preprocessor, index.documents, config.window
        with tr.span("mapping.gui_context", rid):
            with tr.span("mapping.terms", rid):
                terms = extract_gui_terms(trace, w, pre, config.term_sources)
            with tr.span("mapping.activity", rid):
                activity = match_activity_files(trace, w, docs)
            with tr.span("mapping.listener", rid):
                listener = match_listener_files(trace, w, docs)
            with tr.span("mapping.component", rid):
                component = match_component_files(trace, w, docs, pre, config.component_threshold)
        ctx = GuiContext(terms, activity, listener, component, w)
        with tr.span("pipeline.query", rid):
            query, query_flags = build_query(
                pre.tokens(report.full_text()), ctx.terms, config.query_strategy, config.expansion_weight
            )
        with tr.span(f"index.{config.scorer}", rid):
            ranked = rank(index, query, config.scorer)
        with tr.span("pipeline.rerank", rid):
            ranked = apply_rerank(ranked, ctx, config.rerank_strategy)
        ranked.flags = sorted(set(ranked.flags) | set(query_flags))
        ranked.entries = ranked.entries[: config.top_k]

        tr.count("mapping.gui_related_files", len(ctx.gui_related))
        tr.count("mapping.boosted_files", len(ctx.boosted))
        tr.count("pipeline.query_terms", len(query))
        terms_used = set(query)
        if config.scorer == "rvsm":  # rVSM drops terms present in every file
            terms_used = {t for t in terms_used if index.doc_freq.get(t, 0) < index.doc_count}
        tr.count("index.candidates", len({d for t in terms_used for d, _ in index.postings.get(t, ())}))
        return ranked

    def op_model_build(self) -> None:
        tr = self.tr
        t0 = _now()
        with tr.span("bench.model_build"):
            traces = []
            for path in self.trace_files:
                with tr.span("traces.parse"):
                    traces.append(parse_trace(path))
            with tr.span("traces.model_build"):
                model = build_execution_model(traces)
            with tr.span("traces.model_save"):
                save_model(model, self.model_path)
            with tr.span("traces.model_load"):
                self.model = load_model(self.model_path)
        self._record("model_build_s", _now() - t0)
        self.model_traces, self.built_model = traces, model
        self.edges_by_action = Counter(e.action for e in self.model.edges)
        tr.count("traces.model_nodes", len(model.nodes))
        tr.count("traces.model_edges", len(model.edges))

    def op_lint(self) -> None:
        """lint-report --model for one report, from segmentation to missing steps."""
        tr = self.tr
        report, _ = self.pairs[self._next_lint % len(self.pairs)]
        self._next_lint += 1
        rid = report.report_id
        t0 = _now()
        with tr.span("bench.lint", rid):
            with tr.span("reports.segment", rid):
                segments = segment_with_markers(report.body)
            with tr.span("reports.classify", rid):
                tagged = classify_sentences(segments, HeuristicClassifier())
            steps = []
            with tr.span("reports.parse", rid):
                for text, tag in tagged:
                    if tag == "S2R":
                        try:
                            steps.append(parse_s2r(text))
                        except InputError:
                            pass  # lint-report lists it as unparsed
            with tr.span("step_mapping.map", rid):
                matches = map_steps_to_model(steps, self.model)
            with tr.span("step_mapping.missing", rid):
                missing = detect_missing_steps(matches, self.model)
        self._record("lint_ms", 1e3 * (_now() - t0))
        if rid not in self.kept_lints and len(self.kept_lints) < CHECK_LINTS:
            self.kept_lints[rid] = {
                "tagged": tagged, "steps": steps, "matches": matches, "gaps": missing.gaps
            }
        tr.count("reports.sentences", len(segments))
        tr.count("reports.steps", len(steps))
        tr.count("step_mapping.edges_compared", sum(self.edges_by_action[s.action] for s in steps))
        tr.count("step_mapping.matched_steps", sum(m.status == "matched" for m in matches))
        tr.count("step_mapping.gaps", len(missing.gaps))

    def op_sweep(self) -> None:
        """sweep() over the default grid into a fresh CSV with jobs=1.

        One sweep takes seconds, longer than the host holds one speed, so the
        calibration loop also runs before each configuration (through a
        wrapper on evaluate_config) and each configuration's time is scaled
        by its own neighbours. The loop's time is not counted.
        """
        self._sweeps += 1
        out = self.work / f"sweep{self._sweeps}.csv"
        evals = len(GRID.configs()) * len(self.sweep_pairs)
        pieces: list[tuple[float, int]] = []
        restore = self._wrap_evaluation(pieces)
        try:
            t0 = _now()
            with self.tr.span("bench.sweep"):
                sweep(GRID, self.sweep_pairs, self.index, out, jobs=1)
            total = _now() - t0
        finally:
            restore()
        for kind, done in self.sweep_calls.items():  # filled only when traced
            if done:
                self.tr.count(f"evaluation.{kind}_distinct_per_computed", len(set(done)) / len(done))
                done.clear()
        own = total - (sum(self.cal.times[pieces[0][1]:]) if pieces else 0.0)
        pieces.append((own - sum(sec for sec, _ in pieces), self._cal_i))
        self._record("sweep_evals_per_s", evals / own, pieces)
        if self.last_csv is not None:
            self.last_csv.unlink()
        self.last_csv = out

    def _wrap_evaluation(self, pieces: list[tuple[float, int]]):
        """Calibrate around evaluate_config; when traced, span and count more.

        sweep() and localize() look these names up in their modules at call
        time, so replacing the module attributes times and counts the calls
        without touching guiloc's code. Each evaluate_config call adds
        (seconds, calibration index) to `pieces`.
        """
        tr, calls, cal = self.tr, self.sweep_calls, self.cal
        saved = []

        def patch(module, name, wrapper):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper(getattr(module, name)))

        def spanned(span_name):
            def wrap(fn):
                def inner(*args, **kwargs):
                    with tr.span(span_name):
                        return fn(*args, **kwargs)
                return inner
            return wrap

        def counted_context(fn):
            def inner(trace, window, *args, **kwargs):
                calls["contexts"].append((id(trace), window, repr(args[2:]), repr(sorted(kwargs.items()))))
                return fn(trace, window, *args, **kwargs)
            return inner

        def counted_rank(fn):
            def inner(index, query, scorer="bm25"):
                calls["scorings"].append((scorer, tuple(query)))
                return fn(index, query, scorer)
            return inner

        def calibrated(fn):
            def inner(*args, **kwargs):
                i = cal.sample()
                t0 = _now()
                with tr.span("evaluation.config"):
                    result = fn(*args, **kwargs)
                pieces.append((_now() - t0, i))
                return result
            return inner

        patch(g_evaluation, "evaluate_config", calibrated)
        if tr.enabled:
            for name in ("hits_at_k", "reciprocal_rank", "average_precision"):
                patch(g_evaluation, name, spanned("evaluation.metrics"))
            patch(g_pipeline, "gui_context", counted_context)
            patch(g_pipeline, "rank", counted_rank)

        def restore():
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

        return restore

    # ------------------------------------------------------------ window

    def timed(self, seconds: float) -> None:
        focus, fixed = SCHEDULES[self.workload]
        ops = {
            "index_build": self.op_index_build,
            "index_load": self.op_index_load,
            "model_build": self.op_model_build,
            "localize": self.op_localize,
            "lint": self.op_lint,
            "sweep": self.op_sweep,
        }
        due = []
        for order, (name, n) in enumerate(fixed.items()):
            for k in range(n):
                frac = k / n if name in _FIRST else (k + 0.5) / n
                due.append((frac * seconds, order, name))
        due.sort()
        start = _now()
        i = focus_runs = 0
        while True:
            elapsed = _now() - start
            if i < len(due) and (due[i][0] <= elapsed or elapsed >= seconds):
                name = due[i][2]
                i += 1
            elif elapsed < seconds or focus_runs < MIN_FOCUS:
                name = focus
                focus_runs += 1
            else:
                break
            self._cal_i = self.cal.sample()
            self.attempted += 1
            try:
                ops[name]()
            except Exception:  # one broken operation is reported, not fatal
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
        self.cal.sample()

    # ------------------------------------------------------------ checks

    def check(self) -> list[str]:
        """Compare outputs with the reference computations; return failures."""
        problems = []
        for name, fn in (
            ("index", self.check_index),
            ("localize", self.check_localize),
            ("sweep", self.check_sweep),
            ("model", self.check_model),
            ("lint", self.check_lint),
        ):
            try:
                fn()
            except Exception as exc:  # every check runs even when one fails
                problems.append(f"{name}: {exc}")
        return problems

    def check_index(self) -> None:
        need = oracle.need
        files = sorted(p.relative_to(self.m.app_dir).as_posix() for p in self.m.app_dir.rglob("*.java"))
        need([d.path for d in self.index.documents] == files, "indexed paths differ from the generated files")
        need(self.index.postings == self.built_index.postings, "loaded postings differ from the built ones")

    def check_localize(self) -> None:
        index = self.index
        dense = oracle.DenseCorpus(index.documents, index.params.bm25_k1, index.params.bm25_b)
        oracle.need(len(self.kept_rankings) == 2 * CHECK_RANKINGS, "too few rankings kept to check")
        for report, trace, config, ranked in self.kept_rankings:
            what = f"{report.report_id}/{config.scorer}"
            ref, scores, related, boosted = oracle.reference_localize(
                report, trace, dense, index.preprocessor, config.scorer, config.top_k
            )
            oracle.check_ranking(ranked, ref, scores, related, boosted, what)
            if self.tr.enabled:
                plain = localize(report, trace, index, config)
                oracle.need(
                    [(e.path, e.score, e.gui_flags) for e in plain.entries]
                    == [(e.path, e.score, e.gui_flags) for e in ranked.entries]
                    and plain.flags == ranked.flags,
                    f"{what}: composed steps ranked differently from localize",
                )

    def check_sweep(self) -> None:
        need = oracle.need
        lines = self.last_csv.read_text(encoding="utf-8").splitlines()
        configs = GRID.configs()
        need(len(lines) == 1 + len(configs), f"sweep CSV has {len(lines)} lines")
        rows = lines[1:]
        for ci in random.Random(self.seed).sample(range(len(configs)), CHECK_CONFIGS):
            config = configs[ci]
            key = g_evaluation._config_key(config)
            per_report = []
            for report, trace in self.sweep_pairs:
                paths = localize(report, trace, self.index, full_depth(config, self.index)).paths()
                per_report.append(oracle.ranking_metrics(paths, report.ground_truth))
            oracle.check_sweep_row(rows[ci], key, per_report, f"sweep row {ci}")

    def check_model(self) -> None:
        need = oracle.need
        nodes, edges = oracle.model_shape(self.model_traces)
        for name, model in (("built", self.built_model), ("loaded", self.model)):
            need(set(model.nodes) == nodes, f"{name} model has {len(model.nodes)} screens, expected {len(nodes)}")
            keys = [e.key() for e in model.edges]
            need(len(keys) == len(set(keys)) and set(keys) == edges, f"{name} model edges differ")

    def check_lint(self) -> None:
        oracle.need(self.kept_lints, "no lint output kept to check")
        _, edges = oracle.model_shape(self.model_traces)
        for rid, out in self.kept_lints.items():
            oracle.check_lint(out, self.truth[rid], edges, f"lint {rid}")

    # ------------------------------------------------------------ results

    def _record(self, name: str, raw: float, pieces: list[tuple[float, int]] | None = None) -> None:
        """Keep a raw value with the (seconds, calibration index) pieces of its time."""
        self.samples[name].append((raw, pieces or [(1.0, self._cal_i)]))

    def end_to_end(self) -> dict:
        cal = self.cal
        raw = {name: statistics.median(v for v, _ in s) for name, s in self.samples.items() if s}
        print(f"raw medians {raw}; calibration factor {cal.factor():.4f} from {len(cal.times)} samples",
              file=sys.stderr)
        values = {}
        for name, samples in self.samples.items():
            scaled = []
            for v, pieces in samples:
                f = sum(sec * cal.scale(i) for sec, i in pieces) / sum(sec for sec, _ in pieces)
                scaled.append(v / f if name == "sweep_evals_per_s" else v * f)  # a rate divides
            if scaled:
                values[name] = statistics.median(scaled)
        values["index_mb"] = os.path.getsize(self.index_path) / 1e6
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self) -> dict:
        tr = self.tr
        out = {}
        f = self.cal.factor()
        for name, (unit, source) in PER_LAYER.items():
            if unit in _SCALE:
                value = tr.median_duration(source) * _SCALE[unit] * f
            else:
                value = tr.median_count(source)
            out[name] = {"value": value, "unit": unit}
        return out

    def traced_summary(self) -> str:
        """Self time per layer and the end-to-end timings seen under tracing."""
        f = self.cal.factor()
        lines = [f"self time per layer at reference speed ({self.workload}, seed {self.seed}):"]
        lines += [f"  {layer:<14} {sec * f:9.3f} s" for layer, sec in self.tr.self_times().items()]
        lines.append("end-to-end under tracing (minus an untraced run's: the overhead):")
        for name, m in self.end_to_end().items():
            lines.append(f"  {name:<18} {m['value']:12.4f} {m['unit']}")
        return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: float, traced: bool, work_root: Path,
                 spec: Spec | None = None) -> dict:
    work = work_root / f"{workload}-{seed}-{'traced' if traced else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, traced, work, spec)
        run.setup()
        run.warm_up()
        run.timed(seconds)
        problems = run.check()
        for p in problems:
            print(f"CHECK FAILED {p}", file=sys.stderr)
        metrics = run.per_layer() if traced else run.end_to_end()
        if traced:
            print(run.traced_summary(), file=sys.stderr)
            run.tr.dump(
                work_root / f"spans-{workload}-{seed}.json",
                {"workload": workload, "seed": seed, "metrics": metrics},
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }

"""Command line interface.

Exit codes: 0 success, 1 input/validation error, 2 configuration error.
Progress goes to stderr; machine-readable output goes to stdout or --out.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import threading
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

from .corpus import (SOURCE_EXTENSIONS, Preprocessor, default_stopwords, has_extension,
                     load_stopwords, scan_corpus)
from .errors import ConfigError, GuilocError, InputError
from .evaluation import (SweepGrid, evaluate_config, load_dataset, meta_path, sweep,
                         warn_unindexed_ground_truth)
from .index import SCORERS, CorpusIndex, ScoringParams, build_index, load_index, save_index
from .mapping import TERM_SOURCES
from .pipeline import PipelineConfig, QUERY_STRATEGIES, StageCache, localize, ranking_to_json
from .reports import (RemoteClassifier, classify_sentences, load_report, parse_s2r,
                      segment_with_markers)
from .step_mapping import detect_missing_steps, map_steps_to_model
from .traces import build_execution_model, load_model, parse_trace, save_model
from .util import NULL, atomic_write_text, json_fields, load_json_file, stable_json_dumps

logger = logging.getLogger(__name__)

ENV_CLASSIFIER_URL = "GUILOC_CLASSIFIER_URL"
ENV_CLASSIFIER_MODEL = "GUILOC_CLASSIFIER_MODEL"
ENV_CLASSIFIER_TIMEOUT = "GUILOC_CLASSIFIER_TIMEOUT"

_RERANK_CLI = {"none": "none", "filter": "filter", "boost": "boost", "filter-boost": "filter_boost"}

# JSON types of config-file values; PipelineConfig.validate checks the names
_CONFIG_FILE_TYPES = {
    "window": (int,),
    "top_k": (int,),
    "expansion_weight": (int, float),
    "term_sources": (str, list, NULL),
}
_CONFIG_FILE_KEYS = ("scorer", "query_strategy", "rerank_strategy", *_CONFIG_FILE_TYPES)
# input flags that name a directory -> how many levels below it files are read, None for all
_INPUT_DIRS = {"corpus": None, "reports": 1, "traces": 1}


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
        logger.info("wrote %s", out)
    else:
        sys.stdout.write(text)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output that would write over an input or another output, before any work.

    An output is refused if it is an input file or another output, links
    included, or if an input directory would read it: a file with a scanned
    extension anywhere under --corpus, or a JSON file directly in --reports
    or --traces.
    """
    outputs = {"--out": args.out, "--dump-context": getattr(args, "dump_context", None)}
    if args.command == "sweep":  # --out itself holds the rows that a sweep reuses
        outputs["--out's meta file"] = str(meta_path(Path(args.out)))
    outputs = {flag: out for flag, out in outputs.items() if out}
    for (flag, out), (other, taken) in combinations(outputs.items(), 2):
        if _same_file(out, taken):
            raise InputError(f"{other} {taken} would write over the output {flag} {out}")
    for dest in args.reads:
        given = getattr(args, dest) or []
        for source in given if isinstance(given, list) else [given]:
            for flag, out in outputs.items():
                if dest in _INPUT_DIRS:
                    target, root = Path(os.path.realpath(out)), Path(os.path.realpath(source))
                    read = has_extension(_split_csv(args.ext) if dest == "corpus" else ("json",))
                    if read(target) and root in target.parents[: _INPUT_DIRS[dest]]:
                        raise InputError(f"{flag} {out} is read from the input --{dest} {source}")
                elif _same_file(out, source):
                    raise InputError(f"{flag} {out} would write over the input --{dest} {source}")


def _split_csv(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _parse_sources(value: str) -> tuple[str, ...]:
    if value == "all":
        return TERM_SOURCES
    return tuple(_split_csv(value))


def _numbers(value: str, kind: type, flag: str) -> list:
    try:
        return [kind(v) for v in _split_csv(value)]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of numbers, got {value!r}") from None


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Merge --config file values with explicit flags; flags win, PipelineConfig has the rest."""
    given = {}
    if getattr(args, "config", None):
        data = load_json_file(args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unread = sorted(set(data) - set(_CONFIG_FILE_KEYS))
        if unread:
            raise ConfigError(
                f"config file {args.config}: unknown keys {', '.join(map(repr, unread))}; "
                f"expected some of {', '.join(_CONFIG_FILE_KEYS)}"
            )
        types = {key: kinds for key, kinds in _CONFIG_FILE_TYPES.items() if key in data}
        try:
            json_fields(data, types, f"config file {args.config}")
        except InputError as exc:
            raise ConfigError(str(exc)) from None
        given = data
    flags = {key: getattr(args, key, None) for key in _CONFIG_FILE_KEYS}
    given.update((key, value) for key, value in flags.items() if value is not None)
    rerank = given.get("rerank_strategy")
    if type(rerank) is str:  # a list from the config file is no dict key
        given["rerank_strategy"] = _RERANK_CLI.get(rerank, rerank)
    sources = given.pop("term_sources", None)
    sources = _parse_sources(sources) if isinstance(sources, str) else tuple(sources or ())
    if sources:  # none, or none listed, means all
        given["term_sources"] = sources
    try:  # an integer weight is reported as the float it is applied as
        if "expansion_weight" in given:
            given["expansion_weight"] = float(given["expansion_weight"])
    except OverflowError:  # an integer from the config file that no float holds
        raise ConfigError(f"config file {args.config}: 'expansion_weight' is too large") from None
    return PipelineConfig(**given).validate()


def _cmd_index(args: argparse.Namespace) -> None:
    stopwords = load_stopwords(args.stopwords) if args.stopwords else default_stopwords()
    pre = Preprocessor(stopwords, args.min_term_len, args.stem)
    params = ScoringParams(bm25_k1=args.k1, bm25_b=args.b)
    docs = scan_corpus(args.corpus, tuple(_split_csv(args.ext)), pre)
    index = build_index(docs, params, pre)
    save_index(index, args.out)
    logger.info("indexed %d files into %s", index.doc_count, args.out)


def _cmd_localize(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    index = load_index(args.index)
    report = load_report(args.report)
    trace = parse_trace(args.trace)
    cache = StageCache()
    if args.dump_context:
        ctx = cache.context(trace, index, config)
        atomic_write_text(args.dump_context, stable_json_dumps(ctx.to_json()))
        logger.info("wrote GUI context to %s", args.dump_context)
    ranked = localize(report, trace, index, config, cache)
    _emit(stable_json_dumps(ranking_to_json(report, config, ranked)), args.out)


def _cmd_build_model(args: argparse.Namespace) -> None:
    traces = [parse_trace(p) for p in args.trace]
    model = build_execution_model(traces)
    save_model(model, args.out)
    logger.info(
        "model: %d screens, %d interactions, %d entry points -> %s",
        len(model.nodes),
        len(model.edges),
        len(model.entry_fingerprints),
        args.out,
    )


def _make_classifier(kind: str):
    if kind == "heuristic":  # classify_sentences runs the heuristic itself
        return None
    url = os.environ.get(ENV_CLASSIFIER_URL)
    if not url:
        raise ConfigError(f"--classifier remote needs {ENV_CLASSIFIER_URL} to be set")
    timeout = os.environ.get(ENV_CLASSIFIER_TIMEOUT, str(RemoteClassifier.timeout))
    try:
        seconds = float(timeout)
    except ValueError:
        seconds = 0.0  # fails the check below
    if not 0 < seconds <= threading.TIMEOUT_MAX:  # NaN fails too; no socket waits longer
        raise ConfigError(
            f"{ENV_CLASSIFIER_TIMEOUT} must be a number of seconds in "
            f"(0, {threading.TIMEOUT_MAX:.0f}], got {timeout!r}"
        )
    model = os.environ.get(ENV_CLASSIFIER_MODEL, RemoteClassifier.model)
    return RemoteClassifier(url, model, seconds)


def _cmd_lint_report(args: argparse.Namespace) -> None:
    report = load_report(args.report)
    segments = segment_with_markers(report.body)
    tagged = classify_sentences(segments, _make_classifier(args.classifier))

    steps = []
    unparsed = []
    for text, tag in tagged:
        if tag != "S2R":
            continue
        try:
            steps.append(parse_s2r(text))
        except InputError as exc:
            unparsed.append({"sentence": text, "reason": str(exc)})

    payload = {
        "report_id": report.report_id,
        "sentences": [{"text": t, "tag": tag} for t, tag in tagged],
        "steps": [asdict(s) for s in steps],
        "unparsed_steps": unparsed,
    }

    if args.model:
        model = load_model(args.model)
        matches = map_steps_to_model(steps, model)
        missing = detect_missing_steps(matches, model)
        payload["step_matches"] = [m.to_json(i) for i, m in enumerate(matches)]
        payload["missing_steps"] = [g.to_json() for g in missing.gaps]

    _emit(stable_json_dumps(payload), args.out)


def _index_and_dataset(args: argparse.Namespace) -> tuple[CorpusIndex, list]:
    index, pairs = load_index(args.index), load_dataset(args.reports, args.traces)
    warn_unindexed_ground_truth(pairs, index)
    return index, pairs


def _cmd_evaluate(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    index, pairs = _index_and_dataset(args)
    _emit(stable_json_dumps(evaluate_config(pairs, index, config).to_json()), args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    index, pairs = _index_and_dataset(args)
    grid = SweepGrid(
        scorers=_split_csv(args.scorers),
        query_strategies=_split_csv(args.queries),
        rerank_strategies=[_RERANK_CLI.get(r, r) for r in _split_csv(args.reranks)],
        windows=_numbers(args.windows, int, "--windows"),
        term_sources=[
            _parse_sources(s.replace("+", ",")) for s in args.sources_sets.split(";") if s
        ],
        expansion_weights=_numbers(args.weights, float, "--weights"),
    )
    outcome = sweep(grid, pairs, index, args.out, jobs=args.jobs)
    logger.info(
        "sweep: %d rows (%d computed, %d reused, %d skipped) -> %s",
        len(outcome.rows),
        outcome.computed,
        outcome.reused,
        outcome.skipped,
        args.out,
    )


def _add_config_flags(p: argparse.ArgumentParser, with_top: bool = True) -> None:
    """Each flag's dest is the config key that _config_from_args reads it as."""
    cfg = PipelineConfig()  # a flag left out takes --config's value, else this default
    p.add_argument("--scorer", choices=SCORERS, help=f"default {cfg.scorer}")
    p.add_argument("--query", dest="query_strategy", choices=QUERY_STRATEGIES,
                   help=f"default {cfg.query_strategy}")
    p.add_argument("--rerank", dest="rerank_strategy", choices=tuple(_RERANK_CLI),
                   help=f"default {cfg.rerank_strategy}")
    p.add_argument("--window", type=int, help=f"default {cfg.window}")
    p.add_argument("--sources", dest="term_sources", metavar="SOURCES",
                   help="comma list of GUI term sources, or 'all'")
    p.add_argument("--weight", dest="expansion_weight", metavar="WEIGHT", type=float,
                   help=f"GUI term weight (default {cfg.expansion_weight})")
    if with_top:
        p.add_argument("--top", dest="top_k", metavar="TOP", type=int,
                       help=f"entries to keep (default {cfg.top_k})")
    p.add_argument("--config", help="JSON config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guiloc",
        description="GUI-aware bug localization and bug report analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="scan a source tree and write an index file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--ext", default=",".join(SOURCE_EXTENSIONS), help="comma list of file extensions"
    )
    p.add_argument("--stopwords", default=None, help="replace bundled stopword lists")
    p.add_argument(
        "--min-term-len", type=int, default=Preprocessor.min_term_len, help="default %(default)s"
    )
    p.add_argument("--stem", action="store_true")
    p.add_argument("--k1", type=float, default=ScoringParams.bm25_k1, help="default %(default)s")
    p.add_argument("--b", type=float, default=ScoringParams.bm25_b, help="default %(default)s")
    p.set_defaults(func=_cmd_index, reads=("stopwords", "corpus"))

    p = sub.add_parser("localize", help="rank source files for one bug report")
    p.add_argument("--index", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--dump-context", default=None, help="also write the GUI context JSON here")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_localize, reads=("index", "report", "trace", "config"))

    p = sub.add_parser("build-model", help="fold traces into an execution model")
    p.add_argument("--trace", action="append", required=True, help="repeatable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_model, reads=("trace",))

    p = sub.add_parser("lint-report", help="tag sentences, parse steps, find missing ones")
    p.add_argument("--report", required=True)
    p.add_argument("--model", default=None, help="execution model for step matching")
    p.add_argument("--classifier", choices=("heuristic", "remote"), default="heuristic")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lint_report, reads=("report", "model"))

    p = sub.add_parser("evaluate", help="metrics for one configuration over a dataset")
    p.add_argument("--index", required=True)
    p.add_argument("--reports", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", default=None)
    _add_config_flags(p, with_top=False)
    p.set_defaults(func=_cmd_evaluate, reads=("index", "reports", "traces", "config"))

    p = sub.add_parser("sweep", help="evaluate a configuration grid, writing CSV")
    p.add_argument("--index", required=True)
    p.add_argument("--reports", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scorers", default=",".join(SCORERS))
    p.add_argument("--queries", default=",".join(QUERY_STRATEGIES))
    p.add_argument("--reranks", default=",".join(_RERANK_CLI))
    p.add_argument("--windows", default="1,3")
    p.add_argument(
        "--sources-sets",
        default="all",
        help="semicolon list of source sets, '+' within a set (e.g. 'activity+component_id;all')",
    )
    p.add_argument("--weights", default="1")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for old scripts; the sweep runs in one thread"
    )
    p.set_defaults(func=_cmd_sweep, reads=("index", "reports", "traces"))

    return parser


def run(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_outputs(args)
        args.func(args)
    except ConfigError as exc:
        logger.error("%s", exc)
        return 2
    except (GuilocError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

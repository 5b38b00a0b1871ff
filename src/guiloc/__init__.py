"""GUI-aware text-retrieval bug localization and bug-report analysis."""

from .corpus import scan_corpus
from .errors import ConfigError, GuilocError, InputError
from .evaluation import SweepGrid, load_dataset, sweep
from .index import build_index, load_index, rank, save_index
from .mapping import (
    GuiContext,
    extract_gui_terms,
    match_activity_files,
    match_component_files,
    match_listener_files,
)
from .pipeline import PipelineConfig, apply_rerank, build_query, localize
from .reports import HeuristicClassifier, classify_sentences, load_report, parse_s2r
from .step_mapping import detect_missing_steps, map_steps_to_model
from .traces import build_execution_model, load_model, parse_trace, save_model

__version__ = "0.1.0"

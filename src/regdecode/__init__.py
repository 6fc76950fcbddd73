"""Regularized decoding for locally normalized probabilistic sequence models."""

__version__ = "0.1.0"

from .evaluate import BleuReport, SweepRow, corpus_bleu, pearson, summarize_run
from .exceptions import (
    ContractError,
    ModelFormatError,
    NoHypothesisError,
    RegdecodeError,
    SearchSpaceError,
    VocabularyError,
)
from .models import (
    NGramModel,
    SequenceModel,
    TableModel,
    load_model,
    save_model,
    train_ngram,
)
from .objectives import (
    MAP_OBJECTIVE,
    Objective,
    RegularizerKind,
    ScoreBreakdown,
    parse_objective,
    r_beam,
    r_greedy,
    r_local,
    r_max,
    r_square,
    r_variance,
    score,
    score_parts,
)
from .search import (
    DecodeRecord,
    Hypothesis,
    SearchConfig,
    beam_search,
    brute_force,
    brute_force_set,
    exact_search,
    greedy_search,
)
from .surprisal import SurprisalStats, stats, trace
from .vocab import Vocabulary

__all__ = [
    "BleuReport",
    "ContractError",
    "DecodeRecord",
    "Hypothesis",
    "MAP_OBJECTIVE",
    "ModelFormatError",
    "NGramModel",
    "NoHypothesisError",
    "Objective",
    "RegdecodeError",
    "RegularizerKind",
    "ScoreBreakdown",
    "SearchConfig",
    "SearchSpaceError",
    "SequenceModel",
    "SurprisalStats",
    "SweepRow",
    "TableModel",
    "Vocabulary",
    "VocabularyError",
    "beam_search",
    "brute_force",
    "brute_force_set",
    "corpus_bleu",
    "exact_search",
    "greedy_search",
    "load_model",
    "parse_objective",
    "pearson",
    "r_beam",
    "r_greedy",
    "r_local",
    "r_max",
    "r_square",
    "r_variance",
    "save_model",
    "score",
    "score_parts",
    "stats",
    "summarize_run",
    "trace",
    "train_ngram",
]

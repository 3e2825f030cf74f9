"""Wrapper feature selection for text classification: an information-gain
prefilter feeding a migrating-birds search with a cross-validated Naive Bayes
fitness, plus a binary-PSO baseline and a benchmark CLI."""

from .corpus import (
    Corpus,
    CorpusStats,
    DocTermMatrix,
    RawDocument,
    Vocabulary,
    build_vocabulary,
    compute_stats,
    load_corpus,
    tokenize,
    vectorize_tfidf,
)
from .filter_ig import ig_filter, ig_scores
from .harness import ExperimentConfig
from .heuristic import FeatureMask, FitnessFn, RngStream, change_count, flip, generate_neighbor
from .mbo import mbo_select
from .pso import pso_select

__all__ = [
    "Corpus",
    "CorpusStats",
    "DocTermMatrix",
    "RawDocument",
    "Vocabulary",
    "build_vocabulary",
    "compute_stats",
    "load_corpus",
    "tokenize",
    "vectorize_tfidf",
    "ig_filter",
    "ig_scores",
    "ExperimentConfig",
    "FeatureMask",
    "FitnessFn",
    "RngStream",
    "change_count",
    "flip",
    "generate_neighbor",
    "mbo_select",
    "pso_select",
]

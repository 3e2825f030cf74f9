"""The three workloads: their inputs, their set-up step and their run config.

Every workload runs search seed 0 with a wall-clock budget so large that it is
never reached, so each run ends on the engines' own termination rules.

- planted-search: the fixed planted corpus (500 docs x 2000 features, 4
  classes, 50 planted, matrix seed 0), ig_cap=500, method=all, NB evaluation.
  NB fitness inside the two searches does nearly all the work.
- planted-eval: the same matrix, method=ig, evaluation by the best of NB and
  the Gini tree. The tree on the raw and IG masks does nearly all the work; no
  search runs.
- text-wide: a generated 400-document TSV corpus (see textgen.py) read through
  the corpus loader, ig_cap=2500 (the paper's default), method=all, NB
  evaluation. The only workload that tokenizes, and the only one with wide
  masks and large PSO checkpoints.

The planted matrix and the text corpus's structure do not depend on the
workload seed: run time depends on how many tours MBO needs to stagnate,
which varies with the input (9 to 17 tours, 20 s to 29 s for planted matrix
seeds 0-4), and a fixed input keeps selected masks comparable bit for bit
between commits. The workload seed re-spells the text corpus's words (the
matrix is unchanged) and draws the extra masks and the tree sub-problem the
checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from mbofs import corpus, synth
from mbofs.harness import ExperimentConfig

import textgen

NEVER = 1e9  # budget_seconds: far beyond any run


@dataclass(frozen=True)
class Workload:
    name: str
    ig_cap: int
    method: str
    eval_classifier: str
    # prepare(seed, workdir) -> input handed to setup; not timed
    prepare: Callable[[int, Path], object]
    # setup(input) -> (matrix, terms, stats) for run_experiment; timed as setup_s
    setup: Callable[[object], tuple]
    # set-ups per run, about 1.5 s of them, so their median is steady
    setup_reps: int

    def config(self, out_dir: Path) -> ExperimentConfig:
        return ExperimentConfig(
            ig_cap=self.ig_cap,
            method=self.method,
            eval_classifier=self.eval_classifier,
            seed=0,
            budget_seconds=NEVER,
            out_dir=str(out_dir),
        )


PLANTED = dict(n_docs=500, n_classes=4, n_features=2000, n_informative=50, seed=0)


def _planted_setup(_input):
    matrix, _planted = synth.make_planted_matrix(**PLANTED)
    return matrix, None, None


def _text_prepare(seed: int, workdir: Path) -> Path:
    return textgen.write_corpus(workdir / "corpus.tsv", seed)


def _text_setup(path: Path):
    raw = corpus.load_corpus(path, "tsv")
    vocab = corpus.build_vocabulary(raw)
    matrix = corpus.vectorize_tfidf(raw, vocab)
    stats = corpus.compute_stats(raw, vocab)
    return matrix, vocab.term_list(), stats


WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted-search", 500, "all", "nb", lambda seed, workdir: None, _planted_setup, 45),
        Workload("planted-eval", 500, "ig", "best", lambda seed, workdir: None, _planted_setup, 45),
        Workload("text-wide", 2500, "all", "nb", _text_prepare, _text_setup, 15),
    )
}

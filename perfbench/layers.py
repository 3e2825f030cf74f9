"""Where the trace recorder hooks into the program, and the per-layer metrics
computed from its spans.

Each entry below is a name some caller looks up at run time. Modules import
functions by name, so one function can need several entries.
"""

from __future__ import annotations

import os
import statistics

from mbofs import classifiers, corpus, filter_ig, harness, heuristic, mbo, pso, synth

from tracer import Recorder, SpanTree

LAYERS = ("synth", "corpus", "filter_ig", "classifiers", "heuristic", "mbo", "pso", "harness")

RUN = "harness.run_experiment"
FITNESS = "heuristic.FitnessFn.__call__"
NB_CV = "classifiers.cross_val_accuracy[nb]"
DT_CV = "classifiers.cross_val_accuracy[dt]"
MBO_SEARCH = "mbo.mbo_select"
PSO_SEARCH = "pso.pso_select"
SNAPSHOTS = ("harness.checkpoint_save", "harness.mbo_snapshot_to_json",
             "harness.pso_snapshot_to_json")
SETUP_STEPS = {
    "synth.generate_s": "synth.make_planted_matrix",
    "corpus.load_s": "corpus.load_corpus",
    "corpus.vocab_s": "corpus.build_vocabulary",
    "corpus.tfidf_s": "corpus.vectorize_tfidf",
    "corpus.stats_s": "corpus.compute_stats",
}


def _classifier_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("classifier", "nb")


def _checkpoint_bytes(rec, args, kwargs, result):
    rec.counts["harness.checkpoint_bytes"] += os.path.getsize(args[0])


def install(rec: Recorder):
    for name in ("load_corpus", "build_vocabulary", "vectorize_tfidf", "compute_stats",
                 "tokenize"):
        rec.wrap(corpus, name)
    rec.wrap(synth, "make_planted_matrix")
    rec.wrap(filter_ig, "ig_scores")
    rec.wrap(filter_ig, "ig_filter")
    for owner in (classifiers, heuristic):
        rec.wrap(owner, "cross_val_accuracy", suffix=_classifier_arg)
    rec.wrap(classifiers, "nb_train")
    rec.wrap(classifiers, "dt_train")
    rec.wrap(heuristic.FitnessFn, "__call__")
    for owner in (mbo, pso):
        rec.wrap(owner, "generate_neighbor")
    rec.wrap(mbo, "fly")
    for name in ("run_experiment", "evaluate_mask", "mbo_select", "pso_select",
                 "mbo_snapshot_to_json", "pso_snapshot_to_json", "save_mask",
                 "save_mask_sidecar", "_write_trace", "render_report"):
        rec.wrap(harness, name)
    rec.wrap(harness, "checkpoint_save", observe=_checkpoint_bytes)


def setup_metrics(rec: Recorder, first: int, last: int, reps: int) -> dict:
    """Median per set-up of each set-up step, and tokenize calls per set-up."""
    tree = SpanTree(rec.spans, first, last)
    out = {}
    for metric, name in SETUP_STEPS.items():
        d = [tree.duration(i) for i in tree.named(name)]
        out[metric] = statistics.median(d) if d else 0.0
    out["corpus.tokenize_calls"] = len(tree.named("corpus.tokenize")) // reps
    for layer in ("synth", "corpus"):
        out[f"{layer}.self_s"] = tree.layer_self(layer) / reps
    return out


def run_metrics(rec: Recorder, first: int, run_s: float, tours: int,
                output_bytes: int, span_cost: float) -> dict:
    """Per-layer metrics of one run_experiment call, from the spans it made."""
    tree = SpanTree(rec.spans, first)
    (root,) = tree.named(RUN)
    calls = tree.named(FITNESS)
    evals = [i for i in tree.named(NB_CV) if rec.spans[rec.spans[i][3]][0] == FITNESS]
    fitness_s = tree.total(FITNESS)

    def memo_hit_ratio(engine: str) -> float:
        mine = [i for i in calls if tree.under(i, engine)]
        ran = sum(1 for i in evals if tree.under(i, engine))
        return (len(mine) - ran) / len(mine) if mine else 0.0

    out = {
        "filter_ig.scores_s": tree.total("filter_ig.ig_scores"),
        "filter_ig.scores_calls": len(tree.named("filter_ig.ig_scores")),
        "classifiers.nb_cv_calls": len(tree.named(NB_CV)),
        "classifiers.nb_cv_s": tree.total(NB_CV),
        "classifiers.nb_cv_ms": tree.median_ms(NB_CV),
        "classifiers.dt_cv_s": tree.total(DT_CV),
        "classifiers.dt_fit_ms": tree.median_ms("classifiers.dt_train"),
        "heuristic.fitness_calls": len(calls),
        "heuristic.fitness_evals": len(evals),
        "heuristic.memo_hit_ratio": (len(calls) - len(evals)) / len(calls) if calls else 0.0,
        "heuristic.fitness_s": fitness_s,
        "heuristic.evals_per_s": len(evals) / fitness_s if fitness_s > 0 else 0.0,
        "heuristic.neighbor_s": tree.total("heuristic.generate_neighbor"),
        "mbo.search_s": tree.total(MBO_SEARCH),
        "mbo.tours": tours,
        "mbo.memo_hit_ratio": memo_hit_ratio(MBO_SEARCH),
        "pso.search_s": tree.total(PSO_SEARCH),
        "pso.memo_hit_ratio": memo_hit_ratio(PSO_SEARCH),
        "harness.checkpoint_writes": len(tree.named("harness.checkpoint_save")),
        "harness.checkpoint_bytes": int(rec.counts["harness.checkpoint_bytes"]),
        "harness.checkpoint_s": sum(tree.total(n) for n in SNAPSHOTS),
        "harness.eval_s": tree.total("harness.evaluate_mask"),
        "harness.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        if layer not in ("synth", "corpus"):
            out[f"{layer}.self_s"] = tree.layer_self(layer)
    spans = len(tree.ids)
    out["trace.run_s"] = run_s
    out["trace.uncovered_s"] = tree.self_time[root] + (run_s - tree.duration(root))
    out["trace.spans"] = spans
    out["trace.overhead_s"] = spans * span_cost
    return out

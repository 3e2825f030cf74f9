"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The quantitative criteria run
on a planted-features benchmark (500 docs, 4 balanced classes, 2000 features,
50 informative) at desk scale.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from mbofs.classifiers import nb_predict, nb_train
from mbofs.corpus import (
    Corpus,
    DocTermMatrix,
    RawDocument,
    build_vocabulary,
    compute_stats,
    load_corpus,
    vectorize_tfidf,
)
from mbofs.filter_ig import ig_filter, ig_scores
from mbofs.harness import (
    ExperimentConfig,
    _decode,
    load_mask,
    mbo_snapshot_to_json,
    render_report,
    run_experiment,
)
from mbofs.heuristic import (
    FeatureMask,
    FitnessFn,
    RngStream,
    change_count,
    flip,
    generate_neighbor,
)
from mbofs.mbo import (
    MAX_TOURS,
    STEPS_PER_TOUR,
    MboSnapshot,
    find_best_bird,
    fly,
    initialize_flock,
    mbo_select,
    reorder,
)
from mbofs.pso import V_MAX, pso_select
from mbofs.synth import make_planted_matrix

from tests.test_filter_ig import brute_force_ig
from tests.conftest import write_demo_tsv


def report_line(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def planted():
    matrix, informative = make_planted_matrix(
        n_docs=500, n_classes=4, n_features=2000, n_informative=50, seed=1
    )
    return matrix, informative


@pytest.fixture(scope="module")
def sweep(planted):
    """10-seed MBO sweep at ig_cap=500, shared by criteria 5-7."""
    matrix, _ = planted
    ig_mask = ig_filter(matrix, cap=500)
    reduced = matrix.restrict_columns(np.flatnonzero(ig_mask))
    input_mask = FeatureMask.ones(reduced.n_features)
    runs = []
    for seed in range(10):
        fitness = FitnessFn(reduced, k=5, seed=seed)
        base = fitness(input_mask)
        best, trace = mbo_select(
            input_mask, ExperimentConfig(seed=seed, budget_seconds=90),
            fitness=fitness,
        )
        runs.append({
            "seed": seed,
            "base": base,
            "f_max": trace.records[-1].best,
            "best_fitness": fitness(best),
            "m_prime": best.popcount,
        })
    return {"runs": runs, "ig_popcount": int(ig_mask.sum())}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_ig_oracle_equivalence():
    rng = np.random.default_rng(123)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        presence = rng.random((200, 30)) < rng.uniform(0.1, 0.6)
        labels = rng.integers(0, int(rng.integers(2, 5)), size=200)
        m = DocTermMatrix(weights=sp.csr_matrix(presence.astype(float)),
                          labels=labels)
        gain = ig_scores(m).gain
        for f in range(30):
            worst = max(worst, abs(gain[f] - brute_force_ig(presence, labels, f)))
    elapsed = time.monotonic() - start
    report_line(1, f"IG vs brute-force oracle, max |err|={worst:.2e}, {elapsed:.1f}s",
                worst < 1e-9 and elapsed < 10.0)


def test_criterion_2_nb_hand_oracle():
    matrix = DocTermMatrix(
        weights=sp.csr_matrix(np.array([[2.0, 0.0], [0.0, 2.0]])),
        labels=np.array([0, 1]),
    )
    model = nb_train(matrix, [True, True], [0, 1])
    expected = np.log(np.array([[0.75, 0.25], [0.25, 0.75]]))
    max_err = float(np.max(np.abs(model.log_likelihoods - expected)))
    pred = nb_predict(model, np.array([[1.0, 0.0]]))[0]
    report_line(2, f"NB smoothed likelihoods |err|={max_err:.2e}, predicts class {pred}",
                max_err < 1e-12 and pred == 0)


def test_criterion_3_neighbor_correctness():
    table_mask = FeatureMask.from_bitstring("1100100110")
    table_ok = flip(flip(table_mask, 0), 9).to_bitstring() == "0100100111"

    rng = np.random.default_rng(0)
    all_ok = True
    for seed in range(1000):
        m_len = int(rng.integers(4, 50))
        change = int(rng.integers(1, m_len))
        mask = FeatureMask.from_array(rng.random(m_len) < 0.5)
        pos = int(rng.integers(0, m_len))
        if flip(flip(mask, pos), pos) != mask:
            all_ok = False
        neighbor = generate_neighbor(mask, change, RngStream(seed))
        hamming = int((mask.to_array() != neighbor.to_array()).sum())
        if hamming != change or neighbor.popcount == 0:
            all_ok = False
    report_line(3, "flip involution + Hamming(mask, neighbor)=change over 1000 cases"
                   " + worked flip example", table_ok and all_ok)


def test_criterion_4_mbo_invariant_suite(planted):
    matrix, _ = planted
    ig_mask = ig_filter(matrix, cap=500)
    reduced = matrix.restrict_columns(np.flatnonzero(ig_mask))
    input_mask = FeatureMask.ones(reduced.n_features)
    config = ExperimentConfig(seed=0, budget_seconds=540)
    fitness = FitnessFn(reduced, k=5, seed=0)
    rng = RngStream(config.seed)

    # instrumented transcription of the search loop, checked after every step
    start = time.monotonic()
    f_max = fitness(input_mask)
    flock = initialize_flock(input_mask, config, rng.child("flock"), fitness)
    structure_ok = True
    per_bird_ok = True
    trace = []  # the tour bests, one per tour flown
    stagnant = lambda: len(trace) >= 3 and trace[-1] == trace[-3]
    while not stagnant() and len(trace) < MAX_TOURS:
        if time.monotonic() - start > config.budget_seconds:
            break
        change = change_count(len(trace), input_mask.popcount, config.base_fraction)
        tour_rng = rng.child("tour", len(trace))
        for step in range(STEPS_PER_TOUR):
            before = [b.fitness for b in flock.birds()]
            flock = fly(flock, change, tour_rng.child("step", step), fitness,
                        config.neighbors)
            after = [b.fitness for b in flock.birds()]
            structure_ok &= (flock.size == config.flock_size
                             and len(flock.left) == len(flock.right))
            per_bird_ok &= all(a >= b for a, b in zip(after, before))
            best = find_best_bird(flock)
            f_max = max(f_max, best.fitness)
        flock = reorder(flock)
        structure_ok &= flock.leader.fitness == max(b.fitness for b in flock.birds())
        trace.append(f_max)
    elapsed = time.monotonic() - start

    non_decreasing = all(a <= b for a, b in zip(trace, trace[1:]))
    # the loop exited: verify it did so for a sanctioned reason (the stagnation
    # exit firing when three tour-bests are equal, the tour cap, or budget)
    exited_properly = (len(trace) >= MAX_TOURS or stagnant()
                       or elapsed > config.budget_seconds)
    ok = (structure_ok and per_bird_ok and non_decreasing and exited_properly
          and len(trace) <= MAX_TOURS and elapsed < 600.0)
    report_line(4, f"MBO invariants over {len(trace)} tours "
                   f"(f_max {trace[0]:.3f} -> {trace[-1]:.3f}, {elapsed:.0f}s)", ok)


def test_criterion_5_worst_case_guarantee(sweep):
    violations = [r for r in sweep["runs"] if r["best_fitness"] < r["base"]]
    report_line(5, f"fitness(mbo) >= fitness(IG input) on all 10 seeds "
                   f"({len(violations)} violations)", not violations)


def test_criterion_6_desk_scale_improvement(sweep):
    gains = [r["f_max"] - r["base"] for r in sweep["runs"]]
    wins = sum(g >= 0.02 for g in gains)
    report_line(6, f"MBO beats IG-500 by >=2pp in {wins}/10 seeds "
                   f"(mean gain {100 * np.mean(gains):.1f}pp)", wins >= 8)


def test_criterion_7_feature_reduction(sweep):
    cap = sweep["ig_popcount"]
    wins = sum(r["m_prime"] < cap for r in sweep["runs"])
    mean_m = np.mean([r["m_prime"] for r in sweep["runs"]])
    report_line(7, f"MBO M' < {cap} in {wins}/10 seeds (mean M'={mean_m:.0f})",
                wins >= 8)


def test_criterion_8_pso_baseline_integrity(planted, tmp_path):
    matrix, _ = planted
    ig_mask = ig_filter(matrix, cap=500)
    reduced = matrix.restrict_columns(np.flatnonzero(ig_mask))
    input_mask = FeatureMask.ones(reduced.n_features)
    cfg = ExperimentConfig(seed=0, swarm_size=15, pso_iterations=10, budget_seconds=300)

    peaks = []  # the snapshot is live state, so record at callback time
    fitness = FitnessFn(reduced, k=5, seed=0)
    best1, trace1 = pso_select(
        input_mask, cfg, fitness=fitness,
        on_step=lambda s: peaks.append(max(np.abs(p.velocity).max() for p in s.particles)))
    g = [r.best for r in trace1.records]
    non_decreasing = all(a <= b for a, b in zip(g, g[1:]))
    clamped = len(peaks) == cfg.pso_iterations and max(peaks) <= V_MAX + 1e-12
    best2, trace2 = pso_select(
        input_mask, cfg, fitness=FitnessFn(reduced, k=5, seed=0))
    deterministic = best1 == best2 and g == [r.best for r in trace2.records]
    within_budget = trace1.termination == "max-iterations"

    # harness rendering, including the budget-expiry dash
    exp = ExperimentConfig(method="pso", ig_cap=500, seed=0, swarm_size=15,
                           pso_iterations=5, budget_seconds=300.0,
                           eval_classifier="nb",
                           out_dir=str(tmp_path / "pso_ok"))
    rep = run_experiment(exp, matrix=matrix)
    row_renders = "pso" in render_report(rep, "table")
    exp_budget = ExperimentConfig(method="pso", ig_cap=500, seed=0, swarm_size=15,
                                  pso_iterations=5, budget_seconds=1e-6,
                                  eval_classifier="nb",
                                  out_dir=str(tmp_path / "pso_budget"))
    rep_b = run_experiment(exp_budget, matrix=matrix)
    dash = render_report(rep_b, "table").count("-") >= 1
    budget_status = any(m.name == "pso" and m.status == "budget"
                        for m in rep_b.methods)

    ok = (non_decreasing and clamped and deterministic and within_budget
          and row_renders and dash and budget_status)
    report_line(8, "PSO gbest monotone, velocities clamped, deterministic, "
                   "budget dash renders", ok)


def test_criterion_9_end_to_end_determinism(tmp_path):
    demo = write_demo_tsv(tmp_path / "demo.tsv")

    def cfg(out):
        return ExperimentConfig(
            corpus_path=str(demo), method="all", ig_cap=30, seed=0,
            budget_seconds=60.0, flock_size=5, swarm_size=8, pso_iterations=5,
            out_dir=str(tmp_path / out),
        )

    r1 = run_experiment(cfg("a"))
    r2 = run_experiment(cfg("b"))
    masks_identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("mask_ig.txt", "mask_mbo.txt", "mask_pso.txt")
    )
    accs_identical = all(
        (m1.name, m1.m_prime, m1.accuracy) == (m2.name, m2.m_prime, m2.accuracy)
        for m1, m2 in zip(r1.methods, r2.methods)
    )

    # checkpoint save / kill / resume reproduces the uninterrupted final mask
    matrix, _ = make_planted_matrix(n_docs=80, n_features=60, n_informative=10, seed=3)
    mask = FeatureMask.ones(60)
    mcfg = ExperimentConfig(seed=5, flock_size=5, budget_seconds=120)
    full_best, _ = mbo_select(mask, mcfg, fitness=FitnessFn(matrix, seed=5))
    snaps = []

    class Killed(Exception):
        pass

    def on_step(snap):
        snaps.append(json.dumps(mbo_snapshot_to_json(snap)))
        if len(snaps) == 2:
            raise Killed()

    with pytest.raises(Killed):
        mbo_select(mask, mcfg, fitness=FitnessFn(matrix, seed=5), on_step=on_step)
    resumed_state = _decode(MboSnapshot, json.loads(snaps[-1]))
    resumed_best, _ = mbo_select(mask, mcfg,
                                 fitness=FitnessFn(matrix, seed=5),
                                 resume=resumed_state)
    resume_ok = resumed_best == full_best

    report_line(9, "byte-identical masks, identical accuracies, resume == "
                   "uninterrupted", masks_identical and accs_identical and resume_ok)


def test_criterion_10_corpus_stats_and_loader_agreement(tmp_path):
    docs = [
        ("news", "stocks rallied today"),
        ("news", "markets fell sharply overnight"),
        ("sport", "team wins cup final match"),
        ("sport", "keeper saves late penalty"),
        ("news", "banks cut rates"),
    ]
    corpus = Corpus.from_docs(RawDocument(label=l, text=t) for l, t in docs)
    vocab = build_vocabulary(corpus, set())
    stats = compute_stats(corpus, vocab)
    # hand counts: 3+4+5+4+3 = 19 tokens over 5 docs, all terms distinct
    token_lens = [len(w) for _, t in docs for w in t.split()]
    stats_ok = (
        stats.n_instances == 5
        and stats.n_classes == 2
        and stats.n_features == 19
        and stats.avg_words_per_instance == pytest.approx(19 / 5)
        and stats.avg_word_length == pytest.approx(sum(token_lens) / 19)
    )

    # equivalent corpus through both loaders -> identical matrices
    tsv = tmp_path / "c.tsv"
    tsv.write_text("".join(f"{l}\t{t}\n" for l, t in sorted(docs)))
    root = tmp_path / "dirs"
    for label in ("news", "sport"):
        (root / label).mkdir(parents=True)
    counters = {}
    for l, t in sorted(docs):
        i = counters.get(l, 0)
        counters[l] = i + 1
        (root / l / f"{i:03d}.txt").write_text(t)
    c_tsv = load_corpus(tsv, "tsv")
    c_dirs = load_corpus(root, "dirs")
    m_tsv = vectorize_tfidf(c_tsv, build_vocabulary(c_tsv, set()))
    m_dirs = vectorize_tfidf(c_dirs, build_vocabulary(c_dirs, set()))
    loaders_agree = (
        [d.label for d in c_tsv.docs] == [d.label for d in c_dirs.docs]
        and [d.text for d in c_tsv.docs] == [d.text.rstrip("\n") for d in c_dirs.docs]
        and (m_tsv.weights != m_dirs.weights).nnz == 0
        and np.array_equal(m_tsv.labels, m_dirs.labels)
    )
    report_line(10, "hand-counted corpus stats exact; TSV and class-dirs loaders"
                    " agree", stats_ok and loaders_agree)

#!/usr/bin/env python3
"""Seed sweep on the planted-features benchmark: the paper's two claims.

Each search seed runs the whole pipeline through `run_experiment` on one
planted matrix: IG prefilter, MBO and PSO seeded from the IG mask, NB
evaluation. Per seed it prints the MBO - PSO accuracy gap and the share of the
IG-selected features that MBO removed. No run reaches the budget, so every
run ends on its own stop rule and the output does not depend on machine speed.

Example:
    python3 scripts/run_synthetic_benchmark.py --seeds 10
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from mbofs.harness import ExperimentConfig, run_experiment
from mbofs.synth import make_planted_matrix

BUDGET_SECONDS = 1e6  # a run at these sizes ends on its stop rule within seconds


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--ig-cap", type=int, default=500)
    parser.add_argument("--n-docs", type=int, default=500)
    parser.add_argument("--n-features", type=int, default=2000)
    parser.add_argument("--n-informative", type=int, default=50)
    parser.add_argument("--data-seed", type=int, default=1)
    args = parser.parse_args(argv)

    matrix, _ = make_planted_matrix(
        n_docs=args.n_docs,
        n_features=args.n_features,
        n_informative=args.n_informative,
        seed=args.data_seed,
    )
    print(f"corpus {matrix.n_docs}x{matrix.n_features}, ig_cap {args.ig_cap}")
    print(f"{'seed':>4}  {'ig_acc':>7}  {'mbo_acc':>7}  {'pso_acc':>7}  {'gap':>7}  "
          f"{'ig_M':>5}  {'mbo_M':>5}  {'removed':>7}  mbo_end")

    gaps, removed = [], []
    with tempfile.TemporaryDirectory() as out:
        for seed in range(args.seeds):
            config = ExperimentConfig(method="all", ig_cap=args.ig_cap, seed=seed,
                                      eval_classifier="nb", budget_seconds=BUDGET_SECONDS,
                                      out_dir=str(Path(out) / f"seed{seed}"))
            rows = {m.name: m for m in run_experiment(config, matrix=matrix).methods}
            ig, mbo, pso = rows["ig"], rows["mbo"], rows["pso"]
            gaps.append(mbo.accuracy - pso.accuracy)
            removed.append(1.0 - mbo.m_prime / ig.m_prime)
            print(f"{seed:>4}  {ig.accuracy:7.4f}  {mbo.accuracy:7.4f}  {pso.accuracy:7.4f}  "
                  f"{gaps[-1]:+7.4f}  {ig.m_prime:>5}  {mbo.m_prime:>5}  "
                  f"{removed[-1]:7.1%}  {mbo.status}", flush=True)

    print(f"\nmean MBO - PSO accuracy gap: {100 * np.mean(gaps):+.2f}pp; "
          f"mean share of IG features MBO removed: {np.mean(removed):.1%}")


if __name__ == "__main__":
    main()

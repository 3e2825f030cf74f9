#!/usr/bin/env python3
"""Seed sweep on the planted-features benchmark: IG baseline vs MBO vs PSO.

Example:
    python3 scripts/run_synthetic_benchmark.py --seeds 5 --budget-seconds 60
"""

import argparse

import numpy as np

from mbofs.filter_ig import ig_filter
from mbofs.heuristic import FeatureMask, FitnessFn
from mbofs.mbo import MboConfig, mbo_select
from mbofs.pso import PsoConfig, pso_select
from mbofs.synth import make_planted_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--budget-seconds", type=float, default=90.0)
    parser.add_argument("--ig-cap", type=int, default=500)
    parser.add_argument("--n-docs", type=int, default=500)
    parser.add_argument("--n-features", type=int, default=2000)
    parser.add_argument("--n-informative", type=int, default=50)
    parser.add_argument("--data-seed", type=int, default=1)
    parser.add_argument("--skip-pso", action="store_true")
    args = parser.parse_args()

    matrix, _ = make_planted_matrix(
        n_docs=args.n_docs,
        n_features=args.n_features,
        n_informative=args.n_informative,
        seed=args.data_seed,
    )
    ig_mask = ig_filter(matrix, cap=args.ig_cap)
    reduced = matrix.restrict_columns(np.flatnonzero(ig_mask))
    input_mask = FeatureMask.ones(reduced.n_features)
    print(f"corpus {matrix.n_docs}x{matrix.n_features}, "
          f"IG kept {input_mask.popcount} features")

    header = f"{'seed':>4}  {'ig_acc':>7}  {'mbo_acc':>7}  {'mbo_M':>6}  {'tours':>5}"
    if not args.skip_pso:
        header += f"  {'pso_acc':>7}  {'pso_M':>6}"
    print(header)

    gains, reductions = [], []
    for seed in range(args.seeds):
        fitness = FitnessFn(reduced, classifier="nb", k=5, seed=seed)
        base = fitness(input_mask)
        best, state, trace = mbo_select(
            input_mask,
            MboConfig(seed=seed, budget_seconds=args.budget_seconds),
            fitness=fitness,
        )
        row = (f"{seed:>4}  {base:7.4f}  {state.f_max:7.4f}  "
               f"{best.popcount:>6}  {state.counter:>5}")
        gains.append(state.f_max - base)
        reductions.append(input_mask.popcount - best.popcount)
        if not args.skip_pso:
            pso_best, pso_trace = pso_select(
                input_mask,
                PsoConfig(seed=seed, budget_seconds=args.budget_seconds),
                fitness=fitness,
            )
            row += f"  {fitness(pso_best):7.4f}  {pso_best.popcount:>6}"
        print(row, flush=True)

    print(f"\nmean MBO gain over IG: {100 * np.mean(gains):.2f}pp; "
          f"mean features removed: {np.mean(reductions):.0f}")


if __name__ == "__main__":
    main()

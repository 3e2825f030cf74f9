"""Checks of one run's outputs against the references and the method's rules.

Each check returns (name, ok, detail). They run after timing ends, so they
count in neither run_s nor peak_rss_mb.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from mbofs import classifiers
from mbofs.corpus import DocTermMatrix
from mbofs.harness import RunReport, load_mask

import reference

GAIN_TIE = 1e-12  # IG swaps are allowed only among gains this close
ACC_TOL = 1e-12
MBO_ENDS = ("stagnation", "max-tours")
PSO_ENDS = ("max-iterations",)
SEEDED_MASKS = 6  # extra NB masks drawn from the workload seed
CART_ROWS, CART_FEATURES = 60, 6


def _read_mask(path: Path):
    """Mask bits plus the mask file's own M= value."""
    header = path.read_text(encoding="utf-8").split("\n", 1)[0]
    return load_mask(path), int(header[2:])


def report_checks(matrix: DocTermMatrix, report: RunReport,
                  out_dir: Path) -> list[tuple[str, bool, str]]:
    cfg = report.config
    k, seed = cfg["folds"], cfg["seed"]
    results = []
    rows = {m.name: m for m in report.methods}
    universe = matrix.n_features

    def ref_nb(mask):
        return reference.nb_cv_accuracy(matrix.weights, matrix.labels, mask, k, seed)

    masks = {"raw": np.ones(universe, dtype=bool)}
    for name in rows:
        if name == "raw":
            continue
        bits, m_line = _read_mask(out_dir / f"mask_{name}.txt")
        masks[name] = bits
        results.append((f"{name}: mask file M= is the universe", m_line == universe == len(bits),
                        f"M={m_line} bits={len(bits)} universe={universe}"))
        results.append((f"{name}: popcount equals reported features",
                        int(bits.sum()) == rows[name].m_prime,
                        f"{int(bits.sum())} vs {rows[name].m_prime}"))

    ref = {name: ref_nb(mask) for name, mask in masks.items()}
    for name, row in rows.items():
        if row.classifier == "nb":
            results.append((f"{name}: NB accuracy equals reference NB",
                            abs(row.accuracy - ref[name]) <= ACC_TOL,
                            f"{row.accuracy!r} vs {ref[name]!r}"))
        if cfg["eval_classifier"] == "best":
            results.append((f"{name}: best accuracy >= reference NB",
                            row.accuracy >= ref[name] - ACC_TOL,
                            f"{row.accuracy!r} ({row.classifier}) vs {ref[name]!r}"))

    gain = reference.info_gain_bits(matrix.weights, matrix.labels)
    results.append(_ig_check(masks["ig"], gain, cfg["ig_cap"]))

    for engine, ends in (("mbo", MBO_ENDS), ("pso", PSO_ENDS)):
        if engine not in rows:
            continue
        mask = masks[engine]
        results.append((f"{engine}: mask is a subset of the IG mask",
                        not (mask & ~masks["ig"]).any(), ""))
        results.append((f"{engine}: search fitness >= fitness of its IG input",
                        ref[engine] >= ref["ig"], f"{ref[engine]!r} vs {ref['ig']!r}"))
        results.append((f"{engine}: ends on {' or '.join(ends)}",
                        rows[engine].status in ends, rows[engine].status))
    if "mbo" in rows:
        text = (out_dir / "trace_mbo.txt").read_text(encoding="utf-8")
        f_max = [float(v) for v in re.findall(r"f_max=(\S+)", text)]
        results.append(("mbo: trace f_max is non-decreasing",
                        len(f_max) > 0 and all(a <= b for a, b in zip(f_max, f_max[1:])),
                        f"{len(f_max)} tours"))
    return results


def _ig_check(mask: np.ndarray, gain: np.ndarray, cap: int):
    informative = int((gain > GAIN_TIE).sum())
    want = min(cap, informative)
    cutoff = np.sort(gain)[::-1][want - 1]
    chosen, rest = gain[mask], gain[~mask]
    ok = (int(mask.sum()) == want
          and bool((chosen >= cutoff - GAIN_TIE).all())
          and bool((rest <= cutoff + GAIN_TIE).all()))
    return ("ig: mask is the reference top-ig_cap set", ok,
            f"{int(mask.sum())} selected, {want} expected, cutoff {cutoff!r}")


def seeded_nb_checks(matrix: DocTermMatrix, ig_mask: np.ndarray, seed: int,
                     k: int = 5, fold_seed: int = 0) -> list[tuple[str, bool, str]]:
    """The program's NB cross-validation on random subsets of the IG mask."""
    rng = np.random.default_rng([seed, 0x4E42])
    cols = np.flatnonzero(ig_mask)
    results = []
    for i in range(SEEDED_MASKS):
        size = int(rng.integers(1, len(cols) + 1))
        mask = np.zeros(matrix.n_features, dtype=bool)
        mask[rng.choice(cols, size=size, replace=False)] = True
        got = classifiers.cross_val_accuracy(matrix, mask, "nb", k, fold_seed).mean_accuracy
        want = reference.nb_cv_accuracy(matrix.weights, matrix.labels, mask, k, fold_seed)
        results.append((f"seeded mask {i} ({size} features): NB equals reference",
                        abs(got - want) <= ACC_TOL, f"{got!r} vs {want!r}"))
    return results


def cart_check(matrix: DocTermMatrix, ig_mask: np.ndarray, seed: int):
    """dt_train against the brute-force CART on a seeded small sub-problem."""
    rng = np.random.default_rng([seed, 0xC417])
    rows = np.sort(rng.choice(matrix.n_docs, size=CART_ROWS, replace=False))
    cols = np.sort(rng.choice(np.flatnonzero(ig_mask), size=CART_FEATURES, replace=False))
    sub = DocTermMatrix(weights=matrix.weights[rows][:, cols].tocsr(),
                        labels=matrix.labels[rows])
    model = classifiers.dt_train(sub, np.ones(CART_FEATURES, dtype=bool), np.arange(CART_ROWS))
    x = sub.weights.toarray()
    ref = reference.cart(x, sub.labels, sub.n_classes)
    return ("dt_train equals brute-force CART on a seeded "
            f"{CART_ROWS}x{CART_FEATURES} sub-problem",
            reference.same_tree(ref, model.root), "")

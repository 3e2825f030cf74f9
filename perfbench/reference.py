"""Reference implementations the benchmark checks the program against.

They are written from the documented rules, not from the program's code, and
favour plain loops over speed: they run only after timing ends.

- Multinomial Naive Bayes over TF-IDF mass with Laplace smoothing, on a dense
  copy of the masked columns, with folds dealt by the documented rule: a
  seeded shuffle of each class's row indices, then round-robin into k folds.
- Information gain in bits from per-class presence counts.
- A brute-force CART: every midpoint threshold of every feature is scored by
  counting rows directly. Ties go to the lowest threshold within a feature,
  then to the lowest feature index; majority ties go to the lowest class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for c in range(int(labels.max()) + 1):
        rows = np.flatnonzero(labels == c)
        rng.shuffle(rows)
        for position, row in enumerate(rows):
            fold_of[row] = position % k
    return fold_of


def nb_cv_accuracy(weights, labels, mask, k: int = 5, seed: int = 0,
                   alpha: float = 1.0) -> float:
    """Mean fold accuracy of multinomial NB on the masked columns."""
    cols = np.flatnonzero(mask)
    x = weights[:, cols].toarray()
    n_classes = int(labels.max()) + 1
    fold_of = stratified_folds(labels, k, seed)
    accs = []
    for fold in range(k):
        train = fold_of != fold
        test = fold_of == fold
        log_prior = np.empty(n_classes)
        log_like = np.empty((n_classes, len(cols)))
        for c in range(n_classes):
            in_class = train & (labels == c)
            mass = x[in_class].sum(axis=0)
            log_like[c] = np.log(mass + alpha) - np.log(mass.sum() + alpha * len(cols))
            log_prior[c] = math.log(in_class.sum() / train.sum()) if in_class.any() else -math.inf
        scores = x[test] @ log_like.T + log_prior
        pred = scores.argmax(axis=1)
        accs.append(float(np.mean(pred == labels[test])))
    return float(np.mean(accs))


def _entropy_bits(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    return -sum(c / total * math.log2(c / total) for c in counts if c > 0)


def info_gain_bits(weights, labels) -> np.ndarray:
    """IG(f) = H(C) - P(present) H(C|present) - P(absent) H(C|absent)."""
    n = len(labels)
    n_classes = int(labels.max()) + 1
    class_totals = np.bincount(labels, minlength=n_classes)
    present = np.zeros((n_classes, weights.shape[1]), dtype=np.int64)
    csr = weights.tocsr()
    for row in range(n):
        cols = csr.indices[csr.indptr[row]:csr.indptr[row + 1]]
        vals = csr.data[csr.indptr[row]:csr.indptr[row + 1]]
        present[labels[row], cols[vals > 0]] += 1
    h = _entropy_bits(class_totals.tolist())
    gain = np.empty(weights.shape[1])
    for f in range(weights.shape[1]):
        yes = present[:, f].tolist()
        no = (class_totals - present[:, f]).tolist()
        n_yes = sum(yes)
        gain[f] = h - n_yes / n * _entropy_bits(yes) - (n - n_yes) / n * _entropy_bits(no)
    return gain


@dataclass(frozen=True)
class Node:
    feature: int  # -1 at leaves
    threshold: float
    klass: int
    left: "Node | None" = None
    right: "Node | None" = None


def _weighted_gini(left_counts, right_counts, n: int) -> float:
    # Same float formula as the documented impurity: size-weighted Gini of
    # the two sides divided by the node size, so exact ties stay exact.
    nl, nr = sum(left_counts), sum(right_counts)
    gl = 1.0 - sum((c / nl) ** 2 for c in left_counts)
    gr = 1.0 - sum((c / nr) ** 2 for c in right_counts)
    return (nl * gl + nr * gr) / n


def cart(x: np.ndarray, y: np.ndarray, n_classes: int, max_depth: int = 20,
         min_split: int = 2, depth: int = 0) -> Node:
    counts = [int((y == c).sum()) for c in range(n_classes)]
    majority = counts.index(max(counts))
    if depth >= max_depth or len(y) < min_split or max(counts) == len(y):
        return Node(-1, 0.0, majority)
    best = None  # (impurity, feature, threshold)
    for j in range(x.shape[1]):
        values = sorted(set(x[:, j].tolist()))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            left = x[:, j] <= t
            lc = [int((y[left] == c).sum()) for c in range(n_classes)]
            rc = [counts[c] - lc[c] for c in range(n_classes)]
            g = _weighted_gini(lc, rc, len(y))
            if best is None or g < best[0]:
                best = (g, j, t)
    if best is None:
        return Node(-1, 0.0, majority)
    _, j, t = best
    left = x[:, j] <= t
    return Node(
        j, t, majority,
        cart(x[left], y[left], n_classes, max_depth, min_split, depth + 1),
        cart(x[~left], y[~left], n_classes, max_depth, min_split, depth + 1),
    )


def same_tree(ref: Node, node) -> bool:
    """Node-for-node equality with a program tree (feature, threshold, class)."""
    if ref.feature != node.feature or ref.klass != node.klass:
        return False
    if ref.feature < 0:
        return True
    return (ref.threshold == node.threshold
            and same_tree(ref.left, node.left) and same_tree(ref.right, node.right))

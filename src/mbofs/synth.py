"""Synthetic planted-features matrices for desk-scale benchmarking.

A small subset of features is class-correlated (each planted feature fires
mostly inside its assigned class); the rest are label-independent noise. The
planted indices are returned so tests have ground truth.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .corpus import DocTermMatrix

# The chance that a document holds a planted feature of its own class
# (SIGNAL_P) or of another class (CROSS_P), and that it holds a noise feature.
SIGNAL_P = 0.25
CROSS_P = 0.08
NOISE_P = 0.08

# Rows drawn at once: a block's dense arrays are _BLOCK_ROWS x n_features.
_BLOCK_ROWS = 64


def make_planted_matrix(
    n_docs: int = 500,
    n_classes: int = 4,
    n_features: int = 2000,
    n_informative: int = 50,
    seed: int = 0,
) -> tuple[DocTermMatrix, np.ndarray]:
    """Balanced labeled matrix plus the planted (informative) feature indices.

    The matrix is drawn _BLOCK_ROWS rows at a time, and the one array over
    every row is the bool array of which entries are present. It has the
    bytes of a draw of the whole matrix at once: every block's `random`
    presence draws come before any block's `uniform` weights, as in one
    stream; each row's norm is taken on its dense row, so its sum groups as
    it would in the whole matrix; and each present weight is divided by its
    row's norm, as a dense divide would. The CSR is built from the present
    entries.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n_docs) % n_classes
    planted = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    class_of_feature = np.arange(n_informative) % n_classes
    # at least one block, so that a matrix of no rows keeps its columns
    blocks = [slice(start, start + _BLOCK_ROWS)
              for start in range(0, max(n_docs, 1), _BLOCK_ROWS)]

    present = np.empty((n_docs, n_features), dtype=bool)
    for rows in blocks:
        probs = np.full(present[rows].shape, NOISE_P)
        probs[:, planted] = np.where(labels[rows, None] == class_of_feature, SIGNAL_P, CROSS_P)
        present[rows] = rng.random(probs.shape) < probs
    data, indices = [], []
    for rows in blocks:
        here = present[rows]
        block = np.where(here, rng.uniform(0.2, 1.0, size=here.shape), 0.0)
        row, col = np.nonzero(here)
        data.append(block[row, col] / np.linalg.norm(block, axis=1)[row])
        indices.append(col)
    indptr = np.r_[0, np.cumsum(np.count_nonzero(present, axis=1))]
    weights = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                            shape=(n_docs, n_features))
    return DocTermMatrix(weights=weights, labels=labels), planted

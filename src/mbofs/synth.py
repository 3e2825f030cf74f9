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


def make_planted_matrix(
    n_docs: int = 500,
    n_classes: int = 4,
    n_features: int = 2000,
    n_informative: int = 50,
    seed: int = 0,
) -> tuple[DocTermMatrix, np.ndarray]:
    """Balanced labeled matrix plus the planted (informative) feature indices."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n_docs) % n_classes
    planted = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    class_of_feature = np.arange(n_informative) % n_classes

    probs = np.full((n_docs, n_features), NOISE_P)
    for j, feat in enumerate(planted):
        same = labels == class_of_feature[j]
        probs[same, feat] = SIGNAL_P
        probs[~same, feat] = CROSS_P

    present = rng.random((n_docs, n_features)) < probs
    weights = np.where(present, rng.uniform(0.2, 1.0, size=present.shape), 0.0)
    norms = np.linalg.norm(weights, axis=1, keepdims=True)
    weights = np.divide(weights, norms, out=np.zeros_like(weights), where=norms > 0)
    return DocTermMatrix(weights=sp.csr_matrix(weights), labels=labels), planted

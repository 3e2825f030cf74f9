"""Information-gain feature ranking and the prefilter mask that seeds the search.

Features are binarized to presence (weight > 0). IG(f) = H(C) - H(C | present?),
in bits. The filter keeps every feature with positive gain, capped at the top
`cap` by rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import DocTermMatrix

IG_TOLERANCE = 1e-12


class FilterError(Exception):
    pass


@dataclass(frozen=True)
class IgScores:
    class_entropy: float
    gain: np.ndarray  # per-feature, bits
    ranking: np.ndarray  # indices by gain desc, index asc on ties


def class_entropy(labels) -> float:
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise FilterError("empty labels")
    p = np.bincount(labels) / len(labels)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _conditional_entropy(counts: np.ndarray) -> np.ndarray:
    """H(C | side) per feature from per-class counts, shape (C, M)."""
    totals = counts.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
        terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=0)


def ig_scores(matrix: DocTermMatrix) -> IgScores:
    n = matrix.n_docs
    n_classes = matrix.n_classes
    presence = (matrix.weights > 0).astype(np.float64)
    # exact integer counts as a C-contiguous (C, M) array, so that
    # _conditional_entropy sums over classes row after row, not pairwise
    one_hot = sp.csr_matrix((np.ones(n), (matrix.labels, np.arange(n))), shape=(n_classes, n))
    per_class_present = (one_hot @ presence).toarray()
    class_totals = np.bincount(matrix.labels, minlength=n_classes).astype(float)
    per_class_absent = class_totals[:, None] - per_class_present

    n_present = per_class_present.sum(axis=0)
    h = class_entropy(matrix.labels)
    h_present = _conditional_entropy(per_class_present)
    h_absent = _conditional_entropy(per_class_absent)
    gain = h - (n_present / n) * h_present - ((n - n_present) / n) * h_absent

    ranking = np.lexsort((np.arange(matrix.n_features), -gain))
    return IgScores(class_entropy=h, gain=gain, ranking=ranking)


def ig_filter(matrix: DocTermMatrix, cap: int) -> np.ndarray:
    """Boolean mask of informative features, at most `cap` of them."""
    return cap_mask(ig_scores(matrix), cap)


def cap_mask(scores: IgScores, cap: int) -> np.ndarray:
    """Mask of the informative features in `scores`, cut to the top `cap` by rank."""
    if cap < 1:
        raise FilterError("cap must be >= 1")
    informative = scores.gain > IG_TOLERANCE
    n_informative = int(informative.sum())
    if n_informative == 0:
        raise FilterError("no informative features")
    mask = np.zeros(len(scores.gain), dtype=bool)
    if n_informative <= cap:
        mask[informative] = True
    else:
        mask[scores.ranking[:cap]] = True
    return mask

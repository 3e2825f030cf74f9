"""Internal/evaluation classifiers and stratified cross-validated accuracy.

Multinomial Naive Bayes over fractional TF-IDF weights plus a Gini decision
tree, both operating on mask-restricted columns of a DocTermMatrix. All argmax
ties break to the lowest class index so results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import DocTermMatrix


class ClassifierError(Exception):
    pass


@dataclass(frozen=True)
class NbModel:
    log_priors: np.ndarray  # (C,)
    log_likelihoods: np.ndarray  # (C, M') over the selected features
    alpha: float
    feature_indices: np.ndarray  # columns of the training matrix the model uses


@dataclass(frozen=True)
class DtNode:
    feature: int  # index into the model's feature_indices; -1 at leaves
    threshold: float
    left: "DtNode | None"
    right: "DtNode | None"
    klass: int  # majority class; the prediction at leaves


@dataclass(frozen=True)
class DtModel:
    root: DtNode
    feature_indices: np.ndarray
    max_depth: int
    min_split: int


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    fold_of: np.ndarray  # fold index per row
    seed: int


@dataclass(frozen=True)
class EvalReport:
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]
    classifier: str


def _mask_columns(mask) -> np.ndarray:
    cols = np.flatnonzero(np.asarray(mask, dtype=bool))
    if len(cols) == 0:
        raise ClassifierError("empty feature mask")
    return cols


def nb_train(
    matrix: DocTermMatrix, mask, row_subset, alpha: float = 1.0
) -> NbModel:
    """P(t|c) = (W(t,c)+alpha) / (W(.,c)+alpha*M') with W summing TF-IDF weight."""
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    n_classes = matrix.n_classes
    sub = matrix.weights[rows][:, cols]
    labels = matrix.labels[rows]

    onehot = np.zeros((len(rows), n_classes))
    onehot[np.arange(len(rows)), labels] = 1.0
    class_weight = onehot.T @ sub  # (C, M') summed TF-IDF mass
    class_weight = np.asarray(class_weight)

    m_prime = len(cols)
    totals = class_weight.sum(axis=1, keepdims=True) + alpha * m_prime
    log_likelihoods = np.log(class_weight + alpha) - np.log(totals)

    counts = np.bincount(labels, minlength=n_classes).astype(float)
    with np.errstate(divide="ignore"):
        log_priors = np.log(counts / len(rows))
    return NbModel(
        log_priors=log_priors,
        log_likelihoods=log_likelihoods,
        alpha=alpha,
        feature_indices=cols,
    )


def nb_predict(model: NbModel, row) -> int:
    scores = _nb_scores(model, row)
    return int(np.argmax(scores))  # argmax takes the first (lowest) on ties


def _nb_scores(model: NbModel, row) -> np.ndarray:
    return _nb_batch_scores(model, sp.csr_matrix(row).reshape(1, -1).tocsr())[0]


def _nb_batch_scores(model: NbModel, rows: sp.csr_matrix) -> np.ndarray:
    sel = rows[:, model.feature_indices]
    return np.asarray(sel @ model.log_likelihoods.T + model.log_priors)


def _nb_predict_batch(model: NbModel, rows: sp.csr_matrix) -> np.ndarray:
    return np.argmax(_nb_batch_scores(model, rows), axis=1)


# Cap on one split-search block's (rows x columns x classes) elements, which
# bounds the sort and class-ratio buffers of a node at a few MB.
_SPLIT_BLOCK_ELEMENTS = 1 << 17


def _gini_best_split(values: np.ndarray, labels: np.ndarray, n_classes: int):
    """Best (threshold, impurity) for one feature, or None if constant.

    The per-feature reference that _best_split must match bit for bit.
    Thresholds are midpoints between consecutive distinct sorted values.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    y = labels[order]
    n = len(v)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    left_counts = np.cumsum(onehot, axis=0)  # counts with the first i+1 rows left
    total = left_counts[-1]

    boundaries = np.flatnonzero(v[:-1] < v[1:])  # split after position b
    if len(boundaries) == 0:
        return None
    lc = left_counts[boundaries]
    rc = total - lc
    nl = lc.sum(axis=1)
    nr = rc.sum(axis=1)
    gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
    weighted = (nl * gini_l + nr * gini_r) / n
    best = int(np.argmin(weighted))  # first index on ties -> lowest threshold
    b = boundaries[best]
    threshold = (v[b] + v[b + 1]) / 2.0
    return threshold, float(weighted[best])


def _best_split(x: np.ndarray, y: np.ndarray, n_classes: int):
    """Lowest-impurity (impurity, feature, threshold) over all columns of x, or
    None when every column is constant.

    The presorted CART split search, vectorized over columns: each block of
    columns is sorted once, and _gini_best_split's arithmetic runs on every
    (column, cut) pair of the block at once, element for element. The class
    ratios of each cut sit on the contiguous last axis of a (cuts, C) array, as
    in _gini_best_split, so numpy sums them in the same order (pairwise once C
    reaches 8, where a running sum over classes would differ in the last bit).
    Cuts are listed column by column, lowest threshold first, so the first
    minimum keeps the oracle's tie rules: the lowest threshold within a column,
    then the lowest column.
    """
    cols = np.flatnonzero(x.max(axis=0) > x.min(axis=0))
    n = len(y)
    totals = np.bincount(y, minlength=n_classes)
    width = max(1, _SPLIT_BLOCK_ELEMENTS // (n * n_classes))
    best = None
    for start in range(0, len(cols), width):
        block = cols[start:start + width]
        xt = x[:, block].T  # (columns, rows)
        order = np.argsort(xt, axis=1, kind="stable")
        v = np.take_along_axis(xt, order, axis=1)
        ys = y[order]
        col, pos = np.nonzero(v[:, :-1] < v[:, 1:])  # cut after sorted row `pos`
        lc = np.empty((len(pos), n_classes))
        for c in range(n_classes):
            lc[:, c] = np.cumsum(ys == c, axis=1)[col, pos]
        rc = totals - lc
        nl = pos + 1.0
        nr = n - nl
        gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            j, b = col[i], pos[i]
            best = (float(weighted[i]), int(block[j]), (v[j, b] + v[j, b + 1]) / 2.0)
    return best


def _dt_build(x: np.ndarray, y: np.ndarray, n_classes: int, depth: int,
              max_depth: int, min_split: int) -> DtNode:
    counts = np.bincount(y, minlength=n_classes)
    majority = int(np.argmax(counts))
    if depth >= max_depth or len(y) < min_split or counts.max() == len(y):
        return DtNode(feature=-1, threshold=0.0, left=None, right=None, klass=majority)

    best = _best_split(x, y, n_classes)
    if best is None:
        return DtNode(feature=-1, threshold=0.0, left=None, right=None, klass=majority)

    _, j, threshold = best
    go_left = x[:, j] <= threshold
    left = _dt_build(x[go_left], y[go_left], n_classes, depth + 1, max_depth, min_split)
    right = _dt_build(x[~go_left], y[~go_left], n_classes, depth + 1, max_depth, min_split)
    return DtNode(feature=j, threshold=threshold, left=left, right=right, klass=majority)


def dt_train(
    matrix: DocTermMatrix, mask, row_subset, max_depth: int = 20, min_split: int = 2
) -> DtModel:
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    x = np.asarray(matrix.weights[rows][:, cols].todense())
    y = matrix.labels[rows]
    root = _dt_build(x, y, matrix.n_classes, 0, max_depth, min_split)
    return DtModel(root=root, feature_indices=cols, max_depth=max_depth, min_split=min_split)


def dt_predict(model: DtModel, row) -> int:
    if sp.issparse(row):
        row = row.toarray()
    return _dt_traverse(model.root, np.asarray(row).ravel()[model.feature_indices])


def stratified_folds(labels, k: int, seed: int) -> FoldAssignment:
    """Per-class shuffle (seeded) then round-robin deal into k folds."""
    labels = np.asarray(labels)
    if k < 2:
        raise ClassifierError("need k >= 2 folds")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.int64)
    for c in range(int(labels.max()) + 1):
        rows = np.flatnonzero(labels == c)
        if 0 < len(rows) < k:
            raise ClassifierError(f"class {c} has {len(rows)} rows, fewer than k={k}")
        rng.shuffle(rows)
        fold_of[rows] = np.arange(len(rows)) % k
    return FoldAssignment(k=k, fold_of=fold_of, seed=seed)


def cross_val_accuracy(
    matrix: DocTermMatrix,
    mask,
    classifier: str = "nb",
    k: int = 5,
    seed: int = 0,
    alpha: float = 1.0,
    max_depth: int = 20,
    min_split: int = 2,
) -> EvalReport:
    folds = stratified_folds(matrix.labels, k, seed)
    accs = []
    all_rows = np.arange(matrix.n_docs)
    for fold in range(k):
        test = all_rows[folds.fold_of == fold]
        train = all_rows[folds.fold_of != fold]
        if classifier == "nb":
            model = nb_train(matrix, mask, train, alpha=alpha)
            pred = _nb_predict_batch(model, matrix.weights[test])
        elif classifier == "dt":
            model = dt_train(matrix, mask, train, max_depth=max_depth, min_split=min_split)
            x = np.asarray(matrix.weights[test][:, model.feature_indices].todense())
            pred = np.array([_dt_traverse(model.root, r) for r in x])
        else:
            raise ClassifierError(f"unknown classifier: {classifier!r}")
        accs.append(float(np.mean(pred == matrix.labels[test])))
    return EvalReport(
        mean_accuracy=float(np.mean(accs)),
        fold_accuracies=tuple(accs),
        classifier=classifier,
    )


class NbFoldKernel:
    """Stratified k-fold multinomial-NB accuracy on folds fixed up front.

    Everything but the column choice is built once for all k folds. The
    training class mass over all M columns (nb_train's expression, with the
    fold's own rows as exact +0.0 terms) and its smoothed logs are (M, k*C)
    tables whose column f*C + c holds fold f and class c. Every document sits
    in one CSR matrix with column j of row i moved to j*k + fold(i), so its
    product with the (M*k, C) view of the log-likelihoods scores each row with
    its own fold's model, from the same nonzeros in the same order as that
    fold's test rows times its (M, C) block. A mask then costs one column sum
    over the selected rows of the mass, one masked subtract and one sparse
    product. Unselected columns carry 0.0 log-likelihoods, so every score
    sums the same terms in the same order as cross_val_accuracy(..., "nb"),
    plus exact +0.0 terms: accuracies, argmax ties included, are
    bit-identical to it.
    """

    def __init__(self, matrix: DocTermMatrix, k: int = 5, seed: int = 0,
                 alpha: float = 1.0):
        n, n_classes = matrix.n_docs, matrix.n_classes
        self.fold_of = stratified_folds(matrix.labels, k, seed).fold_of
        self.labels = matrix.labels
        self.n_test = np.bincount(self.fold_of, minlength=k)
        self.n_classes, self.alpha = n_classes, alpha
        onehot = np.zeros((n, k, n_classes))  # [i, f, c]: a training row of class c in fold f
        onehot[np.arange(n), :, matrix.labels] = 1.0
        onehot[np.arange(n), self.fold_of, :] = 0.0
        onehot = onehot.reshape(n, k * n_classes)
        self.mass = np.ascontiguousarray(np.asarray(onehot.T @ matrix.weights).T)
        self.log_mass = np.log(self.mass + alpha)
        counts = onehot.sum(axis=0).reshape(k, n_classes)
        with np.errstate(divide="ignore"):
            self.row_priors = np.log(counts / counts.sum(axis=1, keepdims=True))[self.fold_of]
        w = matrix.weights
        fold_of_nz = np.repeat(self.fold_of, np.diff(w.indptr))
        self.rows = sp.csr_matrix((w.data, w.indices * k + fold_of_nz, w.indptr),
                                  shape=(n, w.shape[1] * k))

    def _scores(self, mask) -> np.ndarray:
        """(N, C) NB scores of every document under its own fold's model."""
        cols = _mask_columns(mask)
        where = np.asarray(mask, dtype=bool)[:, None]
        # numpy adds the (M', k*C) rows one after another, sequentially along M'
        # as nb_train's (C, M') sum; summing along a contiguous M' axis would be
        # pairwise and could differ in the last bit
        totals = self.mass[cols].sum(axis=0) + self.alpha * len(cols)
        log_likelihoods = np.subtract(self.log_mass, np.log(totals), where=where,
                                      out=np.zeros_like(self.log_mass))
        return self.rows @ log_likelihoods.reshape(-1, self.n_classes) + self.row_priors

    def scores(self, mask) -> list[np.ndarray]:
        """Per fold, the (test rows, C) NB scores cross_val_accuracy computes."""
        s = self._scores(mask)
        return [s[self.fold_of == f] for f in range(len(self.n_test))]

    def mean_accuracy(self, mask) -> float:
        hits = np.argmax(self._scores(mask), axis=1) == self.labels
        return float(np.mean(np.bincount(self.fold_of, weights=hits) / self.n_test))


def _dt_traverse(node: DtNode, sel: np.ndarray) -> int:
    while node.feature >= 0:
        node = node.left if sel[node.feature] <= node.threshold else node.right
    return node.klass

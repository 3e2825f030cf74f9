"""Internal/evaluation classifiers and stratified cross-validated accuracy.

Multinomial Naive Bayes over fractional TF-IDF weights plus a Gini decision
tree, both operating on mask-restricted columns of a DocTermMatrix. All argmax
ties break to the lowest class index so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .corpus import DocTermMatrix
from .forked import side_by_side


class ClassifierError(Exception):
    pass


# Additive (Laplace) smoothing of every NB likelihood. nb_train and
# NbFoldKernel both read it, so the kernel and its oracle smooth alike.
ALPHA = 1.0


@dataclass(frozen=True)
class NbModel:
    log_priors: np.ndarray  # (C,)
    log_likelihoods: np.ndarray  # (C, M') over the selected features
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


@dataclass(frozen=True)
class EvalReport:
    mean_accuracy: float
    fold_accuracies: tuple[float, ...]


def _mask_columns(mask) -> np.ndarray:
    cols = np.flatnonzero(np.asarray(mask, dtype=bool))
    if len(cols) == 0:
        raise ClassifierError("empty feature mask")
    return cols


def nb_train(matrix: DocTermMatrix, mask, row_subset) -> NbModel:
    """P(t|c) = (W(t,c)+ALPHA) / (W(.,c)+ALPHA*M') with W summing TF-IDF weight."""
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
    totals = class_weight.sum(axis=1, keepdims=True) + ALPHA * m_prime
    log_likelihoods = np.log(class_weight + ALPHA) - np.log(totals)

    counts = np.bincount(labels, minlength=n_classes).astype(float)
    with np.errstate(divide="ignore"):
        log_priors = np.log(counts / len(rows))
    return NbModel(
        log_priors=log_priors,
        log_likelihoods=log_likelihoods,
        feature_indices=cols,
    )


def nb_predict(model: NbModel, rows) -> np.ndarray:
    """The class of each of the rows (dense or sparse, rows x the training
    matrix's columns); argmax takes the lowest class on ties."""
    sel = rows[:, model.feature_indices]
    return np.argmax(np.asarray(sel @ model.log_likelihoods.T + model.log_priors), axis=1)


# Cap on the cuts one split-search chunk scores at once, which keeps the
# scoring buffers of a node at a few MB; its per-run class counts grow with
# its entries.
_SPLIT_CHUNK_CUTS = 1 << 14


class _Entries(NamedTuple):
    """A tree node's rows and its entries, sorted once per tree.

    `rows` lists the node's rows (indices into the tree's labels y) in
    ascending order. Entry i says that row `row[i]` holds `value[i]` in column
    `col[i]`. The entries are every nonzero of the node's rows plus, for each
    column where some of those rows hold zero and some do not, one marker for
    the column's run of zeros (row len(y), value 0.0). They are sorted by
    (column, value), so a column's negatives, zeros and positives come in
    threshold order. A column with no entries is all zeros on the node.
    """

    rows: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


def _presort(x) -> _Entries:
    """The root of a tree on x (dense or sparse, rows x columns): the one sort."""
    x = sp.csr_matrix(x, dtype=float, copy=True)
    x.sum_duplicates()
    coo = x.tocoo()
    nz = coo.data != 0
    n, m = x.shape
    per_col = np.bincount(coo.col[nz], minlength=m)
    cols = np.flatnonzero((per_col > 0) & (per_col < n))
    row = np.concatenate([coo.row[nz], np.full(len(cols), n)])
    col = np.concatenate([coo.col[nz], cols])
    value = np.concatenate([coo.data[nz], np.zeros(len(cols))])
    order = np.lexsort((value, col))
    return _Entries(np.arange(n), row[order], col[order], value[order])


def _gini_best_split(values: np.ndarray, labels: np.ndarray, n_classes: int):
    """Best (threshold, impurity) for one feature, or None if constant.

    The per-feature reference: looped over a node's columns, keeping the
    first lowest impurity, it gives the (impurity, feature, threshold) that
    _best_split finds on the node's presorted entries, bit for bit.
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
    nl = lc.sum(axis=1)  # exact: any order gives the same integer
    nr = rc.sum(axis=1)
    # classes added one after another, as the formula reads: from 8 classes
    # numpy's .sum(axis=1) adds them pairwise, which can differ in the last bit
    gini_l = 1.0 - sum((lc[:, c] / nl) ** 2 for c in range(n_classes))
    gini_r = 1.0 - sum((rc[:, c] / nr) ** 2 for c in range(n_classes))
    weighted = (nl * gini_l + nr * gini_r) / n
    best = int(np.argmin(weighted))  # first index on ties -> lowest threshold
    b = boundaries[best]
    threshold = (v[b] + v[b + 1]) / 2.0
    return threshold, float(weighted[best])


def _class_sum(q: np.ndarray) -> np.ndarray:
    """The sum over classes of a class-major (C, cuts) array, the classes
    added one after another as the impurity's formula adds them. Not
    q.sum(axis=0): numpy adds a (C, 1) array pairwise."""
    s = q[0].copy()
    for row in q[1:]:
        s += row
    return s


def _best_split(node: _Entries, y: np.ndarray, n_classes: int):
    """Lowest-impurity (impurity, feature, threshold) over the columns of a
    node, or None when every column is constant on it.

    The presorted CART split search (SPRINT's attribute lists): the entries
    are already in threshold order, so one bincount counts the classes of
    every run of equal values in a column, a zero run holds the node's rows
    the column's nonzeros miss, and one cumsum over the runs gives the left
    class counts at every cut between two runs.

    The counts are class-major: a (C, runs) array, whose gathered cuts form
    a (C, cuts) array with one contiguous row per class. Every step of the
    scoring then runs along the cuts, C rows at a time, instead of reducing
    a short class axis one cut at a time. Each cut is still scored with
    _gini_best_split's arithmetic, element for element, so the impurities
    agree bit for bit.

    Cuts are listed column by column, lowest threshold first, and a later
    chunk wins only when strictly lower, so the first minimum keeps the
    oracle's tie rules: the lowest threshold within a column, then the
    lowest column.
    """
    row, col, value = node.row, node.col, node.value
    if len(col) == 0:
        return None
    n = len(node.rows)
    totals = np.bincount(y[node.rows], minlength=n_classes)[:, None]
    new_run = np.r_[True, (col[1:] != col[:-1]) | (value[1:] != value[:-1])]
    first = np.flatnonzero(new_run)
    run_col, run_value = col[first], value[first]
    labels = np.append(y, n_classes)[row]  # a marker counts in class C, dropped here
    counts = np.bincount(labels * len(first) + np.cumsum(new_run) - 1,
                         minlength=(n_classes + 1) * len(first))
    counts = counts.reshape(n_classes + 1, -1)[:n_classes]
    # a zero run holds the rows the column's nonzeros miss
    col_start = np.flatnonzero(np.r_[True, run_col[1:] != run_col[:-1]])
    zero = np.flatnonzero(run_value == 0.0)
    col_of_zero = np.searchsorted(col_start, zero, side="right") - 1
    counts[:, zero] = totals - np.add.reduceat(counts, col_start, axis=1)[:, col_of_zero]
    # every column's runs hold each of the node's rows once: taking the totals
    # off each column's first run (but the first column's) makes one cumsum
    # over all runs the left counts within each column
    counts[:, col_start[1:]] -= totals
    left = np.cumsum(counts, axis=1, dtype=float)
    cuts = np.flatnonzero(run_col[:-1] == run_col[1:])  # between run r and run r+1
    best = None
    for start in range(0, len(cuts), _SPLIT_CHUNK_CUTS):
        r = cuts[start:start + _SPLIT_CHUNK_CUTS]
        lc = left.take(r, axis=1)
        rc = totals - lc
        nl = _class_sum(lc)  # exact: any order gives the same integer
        nr = n - nl
        gini_l = 1.0 - _class_sum((lc / nl) ** 2)
        gini_r = 1.0 - _class_sum((rc / nr) ** 2)
        weighted = (nl * gini_l + nr * gini_r) / n
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            b = r[i]
            best = (float(weighted[i]), int(run_col[b]), (run_value[b] + run_value[b + 1]) / 2.0)
    return best


def _take(node: _Entries, inside: np.ndarray, n_rows: int) -> _Entries:
    """The entries of a node on the rows where `inside` (by row, n_rows + 1
    long) is True, still sorted.

    The rows take their nonzeros, counted per column with one bincount, and
    the node's marker of a column is kept exactly when 1 <= nonzeros <
    len(rows): the column holds both zeros and nonzeros on those rows. A
    column that is all zeros there drops out, and one with no zeros there
    keeps no empty zero run. The entries are then gathered once, still in
    (column, value) order.
    """
    rows = node.rows[inside[node.rows]]
    is_marker = node.row == n_rows
    marker = np.flatnonzero(is_marker)
    real = inside[node.row] & ~is_marker
    n_cols = node.col[-1] + 1 if len(node.col) else 0
    nonzeros = np.bincount(node.col[real], minlength=n_cols)[node.col[marker]]
    real[marker] = (1 <= nonzeros) & (nonzeros < len(rows))
    take = np.flatnonzero(real)
    return _Entries(rows, node.row[take], node.col[take], node.value[take])


def _split(node: _Entries, feature: int, threshold: float, n_rows: int):
    """The (left, right) children of a node, their entries still sorted.

    A row goes left when its value in `feature` is <= threshold; a row with no
    entry there holds 0.0, so it goes left exactly when 0.0 <= threshold.
    """
    lo, hi = np.searchsorted(node.col, [feature, feature + 1])
    left_of = np.full(n_rows + 1, 0.0 <= threshold)  # by row
    left_of[node.row[lo:hi]] = node.value[lo:hi] <= threshold
    return _take(node, left_of, n_rows), _take(node, ~left_of, n_rows)


def _fold_root(presorted: _Entries, rows: np.ndarray) -> _Entries:
    """_presort(x[rows]) for ascending rows, filtered from presorted = _presort(x).

    Filtering keeps the entries' order, and renumbering the rows by their
    place in `rows` (the marker row last) keeps it ascending, so the arrays
    equal those of the sub-matrix's own sort.
    """
    n = len(presorted.rows)
    inside = np.zeros(n + 1, dtype=bool)
    inside[rows] = True
    node = _take(presorted, inside, n)
    renumber = np.full(n + 1, len(rows))
    renumber[rows] = np.arange(len(rows))
    return _Entries(renumber[node.rows], renumber[node.row], node.col, node.value)


def _dt_build(x, y: np.ndarray, n_classes: int, max_depth: int, min_split: int) -> DtNode:
    """The Gini tree on x (dense or sparse, rows x columns) and its labels y."""
    return _grow(_presort(x), np.asarray(y), n_classes, 0, max_depth, min_split)


def _grow(node: _Entries, y: np.ndarray, n_classes: int, depth: int,
          max_depth: int, min_split: int) -> DtNode:
    counts = np.bincount(y[node.rows], minlength=n_classes)
    majority = int(np.argmax(counts))
    n = len(node.rows)
    if depth >= max_depth or n < min_split or counts.max() == n:
        return DtNode(feature=-1, threshold=0.0, left=None, right=None, klass=majority)

    best = _best_split(node, y, n_classes)
    if best is None:
        return DtNode(feature=-1, threshold=0.0, left=None, right=None, klass=majority)

    _, j, threshold = best
    left, right = _split(node, j, threshold, len(y))
    left = _grow(left, y, n_classes, depth + 1, max_depth, min_split)
    right = _grow(right, y, n_classes, depth + 1, max_depth, min_split)
    return DtNode(feature=j, threshold=threshold, left=left, right=right, klass=majority)


def dt_train(
    matrix: DocTermMatrix, mask, row_subset, max_depth: int = 20, min_split: int = 2,
    presorted: _Entries | None = None,
) -> DtModel:
    """The Gini tree on the mask's columns of the row subset. `presorted`, when
    given, is _presort of the mask's columns over all of matrix's rows, and
    the row subset must be ascending: the tree's root is then filtered from
    it instead of sorted again."""
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    y = matrix.labels[rows]
    if presorted is None:
        root = _dt_build(matrix.weights[rows][:, cols], y, matrix.n_classes, max_depth, min_split)
    else:
        root = _grow(_fold_root(presorted, rows), y, matrix.n_classes, 0, max_depth, min_split)
    return DtModel(root=root, feature_indices=cols)


def dt_predict(model: DtModel, rows) -> np.ndarray:
    """The class of each of the rows (dense or sparse, rows x the training
    matrix's columns). The rows go down the tree together; each split reads
    one column of them as sparse, whose missing entries are 0.0."""
    x = sp.csc_matrix(rows, copy=True)
    x.sum_duplicates()
    pred = np.empty(x.shape[0], dtype=np.int64)
    stack = [(model.root, np.arange(x.shape[0]))]
    while stack:
        node, at = stack.pop()
        if node.feature < 0:
            pred[at] = node.klass
            continue
        j = model.feature_indices[node.feature]
        column = np.zeros(x.shape[0])
        column[x.indices[x.indptr[j]:x.indptr[j + 1]]] = x.data[x.indptr[j]:x.indptr[j + 1]]
        go_left = column[at] <= node.threshold
        stack += [(node.left, at[go_left]), (node.right, at[~go_left])]
    return pred


def stratified_folds(labels, k: int, seed: int) -> np.ndarray:
    """The fold of each row: a per-class shuffle (seeded), then a round-robin
    deal into k folds."""
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
    return fold_of


def _fold_accuracies(matrix: DocTermMatrix, mask, fold_of: np.ndarray, folds,
                     train, predict) -> list[float]:
    """The test accuracy of each of the folds, each trained on the other folds' rows."""
    accs = []
    for fold in folds:
        model = train(matrix, mask, np.flatnonzero(fold_of != fold))
        test = np.flatnonzero(fold_of == fold)
        pred = predict(model, matrix.weights[test])
        accs.append(float(np.mean(pred == matrix.labels[test])))
    return accs


def cross_val_accuracies(
    matrix: DocTermMatrix,
    masks: list,
    kinds: tuple[str, ...],
    k: int = 5,
    seed: int = 0,
) -> list[tuple[dict[str, EvalReport], float]]:
    """Stratified k-fold accuracy of each named classifier ("nb", "dt") on the
    columns of each of the masks, with the seconds spent on each mask.

    One evaluation step. Its units are independent: the k fold trees of each
    mask, the widest mask's first, then one NB cross-validation per mask.
    With trees among them, the units run from one two-process work queue
    (forked.side_by_side), largest first, so whichever process is free takes
    the next. A process presorts a mask's columns over all rows the first
    time one of its trees needs them, and grows the mask's other trees from
    that presort. An NB cross-validation takes milliseconds, so without trees
    the units run here in turn, with no fork. Each mask's seconds are the
    durations of its own units summed, whichever process ran them. The
    accuracies are put back in fold order, so every report is the same as
    when the folds run one after another.
    """
    for kind in kinds:
        if kind not in ("nb", "dt"):
            raise ClassifierError(f"unknown classifier: {kind!r}")
    cols = [_mask_columns(mask) for mask in masks]
    fold_of = stratified_folds(matrix.labels, k, seed)
    presorted = {}  # mask index -> presort of its columns, made in each process on first use

    def unit(m: int, kind: str, folds) -> tuple[list[float], float]:
        t0 = time.monotonic()
        if kind == "nb":
            train, predict = nb_train, nb_predict
        else:
            if m not in presorted:
                presorted[m] = _presort(matrix.weights[:, cols[m]])
            train, predict = functools.partial(dt_train, presorted=presorted[m]), dt_predict
        accs = _fold_accuracies(matrix, masks[m], fold_of, folds, train, predict)
        return accs, time.monotonic() - t0

    units = {}  # name -> (mask index, classifier, folds)
    if "dt" in kinds:
        for m in sorted(range(len(masks)), key=lambda m: -len(cols[m])):
            units |= {f"mask {m} fold {fold} tree": (m, "dt", [fold]) for fold in range(k)}
    if "nb" in kinds:
        units |= {f"mask {m} nb cross-validation": (m, "nb", range(k))
                  for m in range(len(masks))}
    tasks = {name: functools.partial(unit, *spec) for name, spec in units.items()}
    if "dt" in kinds:
        with side_by_side(tasks, ClassifierError) as results:
            done = [result() for result in results]
    else:
        done = [task() for task in tasks.values()]

    accs = [{kind: [0.0] * k for kind in kinds} for _ in masks]
    seconds = [0.0] * len(masks)
    for (m, kind, folds), (fold_accs, s) in zip(units.values(), done):
        for fold, acc in zip(folds, fold_accs):
            accs[m][kind][fold] = acc
        seconds[m] += s
    return [({kind: EvalReport(mean_accuracy=float(np.mean(a)), fold_accuracies=tuple(a))
              for kind, a in by_kind.items()}, s)
            for by_kind, s in zip(accs, seconds)]


def cross_val_accuracy(
    matrix: DocTermMatrix,
    mask,
    classifier: str = "nb",
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold accuracy of the classifier on the mask's columns: an
    evaluation step of one mask (cross_val_accuracies), so the fold trees of
    "dt" run from the two-process work queue."""
    ((reports, _),) = cross_val_accuracies(matrix, [mask], (classifier,), k, seed)
    return reports[classifier]


# Twice the unit roundoff: the certification bound below is evaluated with it
# in place of u, which covers the rounding of the bound's own magnitudes and
# arithmetic.
_EPS = np.finfo(float).eps
# np.log is taken to be within this many ulps of the exact logarithm.
_LOG_ULPS = 4


def _gamma(n):
    """Higham's gamma_n = n*u / (1 - n*u), evaluated with u = eps."""
    nu = np.asarray(n, dtype=float) * _EPS
    return nu / (1.0 - nu)


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

    def __init__(self, matrix: DocTermMatrix, k: int = 5, seed: int = 0):
        n, n_classes = matrix.n_docs, matrix.n_classes
        self.fold_of = stratified_folds(matrix.labels, k, seed)
        self.labels = matrix.labels
        self.n_test = np.bincount(self.fold_of, minlength=k)
        self.n_classes = n_classes
        onehot = np.zeros((n, k, n_classes))  # [i, f, c]: a training row of class c in fold f
        onehot[np.arange(n), :, matrix.labels] = 1.0
        onehot[np.arange(n), self.fold_of, :] = 0.0
        onehot = onehot.reshape(n, k * n_classes)
        self.mass = np.ascontiguousarray(np.asarray(onehot.T @ matrix.weights).T)
        self.log_mass = np.log(self.mass + ALPHA)
        counts = onehot.sum(axis=0).reshape(k, n_classes)
        with np.errstate(divide="ignore"):
            self.row_priors = np.log(counts / counts.sum(axis=1, keepdims=True))[self.fold_of]
        w = matrix.weights
        fold_of_nz = np.repeat(self.fold_of, np.diff(w.indptr))
        self.rows = sp.csr_matrix((w.data, w.indices * k + fold_of_nz, w.indptr),
                                  shape=(n, w.shape[1] * k))
        # for accuracy_batch: each sum it needs is one product of these sparse
        # tables with a batch's masks, and the bound's constants
        log_mass = self.log_mass.reshape(-1, k, n_classes)[w.indices, fold_of_nz]
        self.products = sp.vstack(  # row c*N + i: x_ij * log_mass[j, fold(i)*C + c]
            [sp.csr_matrix((w.data * log_mass[:, c], w.indices, w.indptr), shape=w.shape)
             for c in range(n_classes)], format="csr")
        self.weights = w
        self.mass_t = sp.csr_matrix(self.mass.T)
        # the magnitudes' tables; None where no entry is negative, as the sums serve
        self.weights_abs = abs(w) if w.data.min(initial=0.0) < 0 else None
        self.mass_t_abs = abs(self.mass_t) if self.mass_t.data.min(initial=0.0) < 0 else None
        self.row_terms = int(np.diff(w.indptr).max(initial=0))
        self.terms = w.shape[1] + self.row_terms
        self.log_mass_max = float(np.abs(self.log_mass).max(initial=0.0))
        finite = np.isfinite(self.row_priors)
        self.prior_abs = np.where(finite, np.abs(self.row_priors), 0.0).max(axis=1)

    def _scores(self, mask) -> np.ndarray:
        """(N, C) NB scores of every document under its own fold's model."""
        cols = _mask_columns(mask)
        # numpy adds the (M', k*C) rows one after another, sequentially along M'
        # as nb_train's (C, M') sum; summing along a contiguous M' axis would be
        # pairwise and could differ in the last bit
        totals = self.mass[cols].sum(axis=0) + ALPHA * len(cols)
        log_likelihoods = self.log_mass - np.log(totals)
        log_likelihoods[~np.asarray(mask, dtype=bool)] = 0.0
        return self.rows @ log_likelihoods.reshape(-1, self.n_classes) + self.row_priors

    def _accuracies(self, predicted: np.ndarray) -> np.ndarray:
        """Per column of an (N, B) array of predicted classes, the mean over
        folds of the share of test rows whose class is predicted.

        One bincount counts the hits of every (mask, fold) pair. Each mask's
        shares are a row of a C-contiguous (B, k) array, which np.mean reduces
        along the row as it reduces a 1-D array of k shares (pairwise from
        k = 8 up), so each mean equals the one-mask expression
        np.mean(np.bincount(fold_of, weights=hits) / n_test) bit for bit.
        """
        k, batch = len(self.n_test), predicted.shape[1]
        cell = np.arange(0, batch * k, k) + self.fold_of[:, None]  # (N, B): mask b, fold f
        hits = np.bincount(cell[predicted == self.labels[:, None]], minlength=batch * k)
        return np.mean(hits.reshape(batch, k) / self.n_test, axis=1)

    def mean_accuracy(self, mask) -> float:
        predicted = np.argmax(self._scores(mask), axis=1)
        return float(self._accuracies(predicted[:, None])[0])

    def accuracy_batch(self, masks) -> list[float | None]:
        """mean_accuracy of each row of a (B, M) mask batch, or None where it
        is not certified equal to it; mean_accuracy then must score that mask.

        Over a mask's columns S, row i (fold f) and class c, the NB score is
        s[i, c] = a[i, c] - x[i] * log(T) + prior[i, c], where a sums
        x_ij * log_mass[j, f*C + c], x sums x_ij and T = t + ALPHA * |S| is
        the fold and class's mass t summed over S, smoothed. These are the
        reals _scores computes, rounded in another order. Each sum is one
        scipy product of a sparse table from __init__ with the batch's
        (M, B) masks (`products`, `weights`, `mass_t`, and the magnitudes'
        `weights_abs` and `mass_t_abs`), which adds a row's stored entries
        one after another, each times an exact 1.0 or 0.0; no BLAS call runs.

        Certification. Write u for the unit roundoff, gamma_n = n*u/(1-n*u),
        L = max |log_mass|, X = x_abs[i], P = max |finite prior[i, c]|, and
        let s* be the exact score with the exact log of the exact T. A sum
        whose terms each go through at most n roundings, in any order, is
        within gamma_n * (sum of |terms|) of the exact sum (Higham 2002,
        section 3.1). So:
        - Counts. A term of a is rounded once in its table entry and at most
          row_terms times in its row's sum, a term of x at most row_terms
          times, and a term of t, like each of the kernel's |S| <= M class
          masses, at most M times. `terms` = M + row_terms bounds each count.
        - T: both computations add ALPHA * |S| once more, so each is within
          e_T = gamma_{terms+1} * (t_abs + ALPHA * |S|) of T, and both are
          at least T_lo = T_batch - 2 * e_T. Where T_lo > 0, each computed
          log(T) is within delta = e_T / T_lo + _LOG_ULPS * 2u * lam of log T
          exact, with lam = |log T_batch| + 1 bounding each of their
          magnitudes when delta <= 1/4 (checked).
        - Kernel: its log-likelihood subtracts once, its product adds at
          most row_terms products, each rounded, and the prior adds once, so
          |s_kernel - s*| <= E_kernel = gamma_{row_terms+3} * (X * (L + lam)
          + P) + X * delta.
        - Batch: after the sums the score multiplies, subtracts and adds
          once each: |s_batch - s*| <= E_batch = gamma_{terms+3} * (X * (L +
          lam) + P) + X * delta.
        Magnitudes are bounded with absolute values, so no sign is assumed;
        a T near zero, or any infinity or NaN, only fails the check. If the
        batch's top score beats its second by more than 2 * (E_kernel +
        E_batch), it beats every other class in the kernel's scores too,
        with no tie, and the argmax is the kernel's. A class with a -inf
        prior scores -inf in both, so it cannot win; a row whose top two
        scores are not both finite fails.

        A row with no selected nonzero needs no margin. Every term of its
        sums is an entry times an exact 0.0, so its a and x are zeros, and
        where log T is finite its batch scores are its priors exactly; the
        kernel's row adds only entries times 0.0 log-likelihoods, so its
        scores are its priors exactly too, and the two argmaxes are equal,
        ties included. A log T that is not finite, or a table entry that is
        not (0.0 times either is NaN), makes a score NaN, and a NaN anywhere
        makes the row's top score NaN; so such a row needs only a finite top
        score. A row has no selected nonzero exactly when its x_abs is 0.0:
        a sum of non-negative terms with one positive term is positive,
        stored 0.0 and -0.0 entries add exact zeros, and a NaN or infinite
        entry makes x_abs NaN or infinite, not 0.0 (that row's scores are NaN
        too). A mask is certified when every row is; its accuracy then uses
        mean_accuracy's own expression.
        """
        masks = np.asarray(masks, dtype=bool)
        batch = len(masks)
        if not batch:
            return []
        k, n_classes, n = len(self.n_test), self.n_classes, len(self.labels)
        # every array below has the batch as its last axis; the (C, N, B)
        # scores, gathered through fold_of, are laid out row by row, so a
        # class's (N, B) slice of them is strided
        chosen = np.ascontiguousarray(masks.T).astype(float)  # (M, B)
        a = (self.products @ chosen).reshape(n_classes, n, batch)
        x = self.weights @ chosen  # (N, B)
        x_abs = x if self.weights_abs is None else self.weights_abs @ chosen
        t = self.mass_t @ chosen  # (k*C, B)
        t_abs = t if self.mass_t_abs is None else self.mass_t_abs @ chosen
        no_nonzero = x_abs == 0.0  # (N, B)
        size = masks.sum(axis=1).astype(float)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            total = t + ALPHA * size
            log_t = np.log(total)
            # a - x * log T + prior, rounded in that order, in one (C, N, B) buffer
            scores = log_t.reshape(k, n_classes, batch).swapaxes(0, 1)[:, self.fold_of]
            scores *= x
            np.subtract(a, scores, out=scores)
            scores += self.row_priors.T[:, :, None]
            # top is NaN where any class is; predicted is argmax's first top class
            top = np.maximum.reduce(scores)
            predicted = np.zeros((n, batch), dtype=np.intp)
            for c in range(n_classes - 1, -1, -1):
                predicted[scores[c] == top] = c
            np.put_along_axis(scores, predicted[None], -np.inf, axis=0)
            second = np.maximum.reduce(scores)
            # the bound, per mask and fold, then per row
            e_t = _gamma(self.terms + 1) * (t_abs + ALPHA * size)
            t_lo = total - 2.0 * e_t
            lam = np.abs(log_t) + 1.0
            delta = e_t / t_lo + 2.0 * _LOG_ULPS * _EPS * lam
            fold_ok = ((t_lo > 0.0) & (delta <= 0.25)).reshape(k, n_classes, batch).all(axis=1)
            lam = lam.reshape(k, n_classes, batch).max(axis=1)[self.fold_of]
            delta = delta.reshape(k, n_classes, batch).max(axis=1)[self.fold_of]
            magnitude = x_abs * (self.log_mass_max + lam) + self.prior_abs[:, None]
            gammas = _gamma(self.row_terms + 3) + _gamma(self.terms + 3)
            bound = 2.0 * (gammas * magnitude + 2.0 * x_abs * delta)
            margin_ok = (fold_ok[self.fold_of] & np.isfinite(second)
                         & (top - second > bound))
            certified = (np.isfinite(top) & (no_nonzero | margin_ok)).all(axis=0)
        accuracies = self._accuracies(predicted).tolist()
        return [value if ok else None for value, ok in zip(accuracies, certified)]

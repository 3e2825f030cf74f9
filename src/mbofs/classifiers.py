"""Internal/evaluation classifiers and stratified cross-validated accuracy.

Multinomial Naive Bayes over fractional TF-IDF weights plus a Gini decision
tree, both operating on mask-restricted columns of a DocTermMatrix. All argmax
ties break to the lowest class index so results are reproducible bit-for-bit.
NbFoldKernel scores batches of masks for the search; its accuracies equal
cross_val_accuracy's NB accuracies bit for bit, because nb_train and
nb_predict, the reference, round in the same order. NB takes non-negative
finite weights only; the tree takes any finite weights.
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
# NbFoldKernel both read it, so the batch and its reference smooth alike.
ALPHA = 1.0


@dataclass(frozen=True)
class NbModel:
    log_priors: np.ndarray  # (C,)
    log_mass: np.ndarray  # (C, M'): log(W(t,c) + ALPHA) over the selected features
    log_total: np.ndarray  # (C,): log(W(.,c) + ALPHA*M'), W(.,c) summed left to right
    feature_indices: np.ndarray  # columns of the training matrix the model uses

    @property
    def log_likelihoods(self) -> np.ndarray:
        """(C, M') log P(t|c)."""
        return self.log_mass - self.log_total[:, None]


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


def _check_nb_weights(weights) -> None:
    """Multinomial NB is defined on non-negative finite weights only; -0.0
    and subnormal weights are fine. (np.min and np.max return NaN if any
    weight is NaN.)"""
    data = weights.data
    if not (data.min(initial=0.0) >= 0.0 and data.max(initial=0.0) < np.inf):
        bad = data[~((data >= 0.0) & (data < np.inf))][0]
        raise ClassifierError(
            f"naive Bayes needs non-negative finite weights, and the matrix stores {bad}")


def _check_tree_weights(weights) -> None:
    """The tree orders any finite weights; NaN and infinite weights are
    refused."""
    data = weights.data
    finite = np.isfinite(data)
    if not finite.all():
        raise ClassifierError(
            f"the decision tree needs finite weights, and the matrix stores {data[~finite][0]}")


def nb_train(matrix: DocTermMatrix, mask, row_subset) -> NbModel:
    """P(t|c) = (W(t,c)+ALPHA) / (W(.,c)+ALPHA*M') with W summing TF-IDF weight.

    W(t,c) adds the subset's weights one row after another, in ascending
    row order, over all columns at once; W(.,c) adds the selected columns'
    W(t,c) left to right. A matrix with a negative or non-finite weight
    raises ClassifierError.
    """
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    _check_nb_weights(matrix.weights)
    n_classes = matrix.n_classes
    labels = matrix.labels[rows]
    onehot = np.zeros((matrix.n_docs, n_classes))
    np.add.at(onehot, (rows, labels), 1.0)
    mass = (matrix.weights.T @ onehot)[cols].T  # (C, M') summed TF-IDF mass
    counts = np.bincount(labels, minlength=n_classes).astype(float)
    with np.errstate(divide="ignore"):
        log_priors = np.log(counts / len(rows))
    return NbModel(
        log_priors=log_priors,
        log_mass=np.log(mass + ALPHA),
        log_total=np.log(np.cumsum(mass, axis=1)[:, -1] + ALPHA * len(cols)),
        feature_indices=cols,
    )


def nb_predict(model: NbModel, rows) -> np.ndarray:
    """The class of each of the rows (dense or sparse, rows x the training
    matrix's columns); argmax takes the lowest class on ties."""
    return np.argmax(_nb_scores(model, rows), axis=0)


def _nb_scores(model: NbModel, rows) -> np.ndarray:
    """(C, rows) scores a - x*log_total + log_prior, rounded in that order.

    The rows' selected stored entries are picked through a column-position
    table, and each product x_ij*log_mass is rounded before it is added. A
    row's a adds its products and its x adds its x_ij, one entry after
    another in stored order: a product with a 0/1 CSR whose row i picks row
    i's entries. This is NbFoldKernel.accuracy_batch's arithmetic.
    """
    x = sp.csr_matrix(rows)
    position = np.full(x.shape[1], -1)
    position[model.feature_indices] = np.arange(len(model.feature_indices))
    picked = position.take(x.indices)
    entries = np.flatnonzero(picked >= 0)
    weight = x.data[entries]
    terms = model.log_mass.take(picked[entries], axis=1) * weight  # (C, entries)
    member = sp.csr_matrix(
        (np.ones(len(entries)), np.arange(len(entries)), np.searchsorted(entries, x.indptr)),
        shape=(x.shape[0], len(entries)))
    scores = model.log_total[:, None] * (member @ weight)
    np.subtract([member @ t for t in terms], scores, out=scores)
    scores += model.log_priors[:, None]
    return scores


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
    """The root of a tree on x (dense or sparse, rows x columns): the one sort.
    A NaN or infinite weight in x raises ClassifierError."""
    x = sp.csr_matrix(x, dtype=float, copy=True)
    x.sum_duplicates()
    _check_tree_weights(x)
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

    The counts are class-major: a (C, runs) int32 array, whose gathered
    cuts form a (C, cuts) array with one contiguous row per class. Every
    step of the scoring then runs along the cuts, C rows at a time, instead
    of reducing a short class axis one cut at a time. The counts are summed
    as integers, in place, and the left counts of a chunk of cuts are turned
    to float when it is scored: each is an integer below 2**53, the float a
    float cumsum would give. Each cut is still scored with the arithmetic
    of the per-feature oracle in tests/test_classifiers.py
    (_gini_best_split), element for element, so the impurities agree bit
    for bit.

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
    key = np.append(y, n_classes)[row]  # a marker counts in class C, dropped here
    key *= len(first)  # the key of (class, run), built in place
    key += np.cumsum(new_run)
    key -= 1
    counts = np.bincount(key, minlength=(n_classes + 1) * len(first))
    del key
    # the counts, and below their cumsum, are exact integers in [-n, n]
    counts = counts.reshape(n_classes + 1, -1)[:n_classes].astype(np.int32)
    # a zero run holds the rows the column's nonzeros miss
    col_start = np.flatnonzero(np.r_[True, run_col[1:] != run_col[:-1]])
    zero = np.flatnonzero(run_value == 0.0)
    col_of_zero = np.searchsorted(col_start, zero, side="right") - 1
    in_col = np.add.reduceat(counts, col_start, axis=1, dtype=np.int32)  # not cast to int64
    counts[:, zero] = totals - in_col[:, col_of_zero]
    # every column's runs hold each of the node's rows once: taking the totals
    # off each column's first run (but the first column's) makes one cumsum
    # over all runs the left counts within each column
    counts[:, col_start[1:]] -= totals
    left = np.cumsum(counts, axis=1, out=counts)
    cuts = np.flatnonzero(run_col[:-1] == run_col[1:])  # between run r and run r+1
    best = None
    for start in range(0, len(cuts), _SPLIT_CHUNK_CUTS):
        r = cuts[start:start + _SPLIT_CHUNK_CUTS]
        lc = left.take(r, axis=1).astype(float)
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


def _grow(root: list, y: np.ndarray, n_classes: int, depth: int,
          max_depth: int, min_split: int) -> DtNode:
    """The tree grown from `root`, a one-item list of the root's entries at
    `depth`, which _grow takes out of the list: no caller's reference then
    keeps them alive while the tree grows.

    The nodes grow depth first, left before right, from an explicit stack.
    A split node's entries are dropped once its two children are filtered
    from them, before either child grows. So the entries alive at any time
    are those of the node being split and of the right siblings pending on
    the stack, which cover disjoint rows: about one root's worth, at any
    depth. Each node's (feature, threshold, class) is listed in preorder,
    and the DtNodes are built from that list, children before parents.
    """
    preorder = []
    pending = [(root.pop(), depth)]
    while pending:
        node, depth = pending.pop()
        counts = np.bincount(y[node.rows], minlength=n_classes)
        majority = int(np.argmax(counts))
        n = len(node.rows)
        best = None
        if not (depth >= max_depth or n < min_split or counts.max() == n):
            best = _best_split(node, y, n_classes)
        if best is None:
            preorder.append((-1, 0.0, majority))
        else:
            _, j, threshold = best
            preorder.append((j, threshold, majority))
            left, right = _split(node, j, threshold, len(y))
            pending += [(right, depth + 1), (left, depth + 1)]
            del left, right  # the stack alone holds the children
    built = []  # subtrees, the last one leftmost
    for j, threshold, majority in reversed(preorder):
        left, right = (built.pop(), built.pop()) if j >= 0 else (None, None)
        built.append(DtNode(feature=j, threshold=threshold, left=left, right=right,
                            klass=majority))
    return built.pop()


def dt_train(
    matrix: DocTermMatrix, mask, row_subset, max_depth: int = 20, min_split: int = 2,
    presorted: _Entries | None = None,
) -> DtModel:
    """The Gini tree on the mask's columns of the row subset, a set of rows
    in any order. `presorted` is _presort of the mask's columns over all of
    matrix's rows, made here when not given. The tree's root is filtered from
    it, as a child is filtered from its node, and keeps the matrix's own row
    numbers: the fold's own sort, its rows relabelled in the same order, so
    the tree is the same node for node."""
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    if presorted is None:
        presorted = _presort(matrix.weights[:, cols])
    inside = np.zeros(matrix.n_docs + 1, dtype=bool)
    inside[rows] = True
    root = [_take(presorted, inside, matrix.n_docs)]
    return DtModel(root=_grow(root, matrix.labels, matrix.n_classes, 0, max_depth, min_split),
                   feature_indices=cols)


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


def cross_val_accuracies(
    matrix: DocTermMatrix,
    masks: list,
    kinds: tuple[str, ...],
    k: int = 5,
    seed: int = 0,
) -> list[tuple[dict[str, EvalReport], float]]:
    """Stratified k-fold accuracy of each named classifier ("nb", "dt") on the
    columns of each of the masks, with the seconds spent on each mask.

    One evaluation step. Its units are independent, each one fold of one
    mask under one classifier: the fold trees, the widest mask's first, then
    the NB folds. With trees among them, each mask's columns are presorted
    over all rows here, once, and the units run from one two-process work
    queue (forked.side_by_side, which returns their results in unit order),
    largest first, so whichever process is free takes the next; the forked
    child reads the presorts it was forked with.
    An NB fold takes about a millisecond, so without trees the units run
    here in turn, with no fork. Each mask's seconds are its presort's and
    the durations of its own units summed, whichever process ran them. Every
    report is the same as when the folds run one after another.
    """
    for kind in kinds:
        if kind not in ("nb", "dt"):
            raise ClassifierError(f"unknown classifier: {kind!r}")
    cols = [_mask_columns(mask) for mask in masks]
    fold_of = stratified_folds(matrix.labels, k, seed)
    seconds = [0.0] * len(masks)
    presorted = {}  # mask index -> presort of its columns over all rows
    if "dt" in kinds:
        for m in range(len(masks)):
            t0 = time.monotonic()
            presorted[m] = _presort(matrix.weights[:, cols[m]])
            seconds[m] += time.monotonic() - t0

    def unit(m: int, kind: str, fold: int) -> tuple[float, float]:
        t0 = time.monotonic()
        train, test = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
        if kind == "nb":
            model, predict = nb_train(matrix, masks[m], train), nb_predict
        else:
            model, predict = dt_train(matrix, masks[m], train, presorted=presorted[m]), dt_predict
        acc = float(np.mean(predict(model, matrix.weights[test]) == matrix.labels[test]))
        return acc, time.monotonic() - t0

    units = {}  # name -> (mask index, classifier, fold)
    if "dt" in kinds:
        for m in sorted(range(len(masks)), key=lambda m: -len(cols[m])):
            units |= {f"mask {m} fold {fold} tree": (m, "dt", fold) for fold in range(k)}
    if "nb" in kinds:
        units |= {f"mask {m} fold {fold} nb": (m, "nb", fold)
                  for m in range(len(masks)) for fold in range(k)}
    tasks = {name: functools.partial(unit, *spec) for name, spec in units.items()}
    done = (side_by_side(tasks, ClassifierError) if "dt" in kinds
            else [task() for task in tasks.values()])

    accs = [{kind: [0.0] * k for kind in kinds} for _ in masks]
    for (m, kind, fold), (acc, s) in zip(units.values(), done):
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


class NbFoldKernel:
    """Stratified k-fold multinomial-NB accuracy of mask batches, on folds
    fixed up front.

    Everything but the column choice is built once for all k folds. The
    training class mass over all M columns (nb_train's expression, with the
    fold's own rows as exact +0.0 terms) and its smoothed logs are (M, k*C)
    tables whose column f*C + c holds fold f and class c; each document's
    row of `row_priors` is its fold's log priors. accuracy_batch equals
    cross_val_accuracy's NB accuracy bit for bit, on three premises:
    - on a mask's columns, fold f's block of `log_mass`, the log of its
      `mass_t` sum plus ALPHA*|S|, and `row_priors` are nb_train's fold-f
      model (a test pins it);
    - scipy's sparse products add a row's stored entries one after another,
      as _nb_scores does;
    - an unselected entry adds an exact zero, its finite table entry times
      0.0, so the kernel refuses weights that are negative or not finite,
      or so large that a table entry overflows.
    """

    def __init__(self, matrix: DocTermMatrix, k: int = 5, seed: int = 0):
        _check_nb_weights(matrix.weights)
        n, n_classes = matrix.n_docs, matrix.n_classes
        self.fold_of = stratified_folds(matrix.labels, k, seed)
        self.labels = matrix.labels
        self.n_test = np.bincount(self.fold_of, minlength=k)
        self.n_classes = n_classes
        onehot = np.zeros((n, k, n_classes))  # [i, f, c]: a training row of class c in fold f
        onehot[np.arange(n), :, matrix.labels] = 1.0
        onehot[np.arange(n), self.fold_of, :] = 0.0
        onehot = onehot.reshape(n, k * n_classes)
        mass = np.ascontiguousarray(np.asarray(onehot.T @ matrix.weights).T)
        self.log_mass = np.log(mass + ALPHA)
        counts = onehot.sum(axis=0).reshape(k, n_classes)
        with np.errstate(divide="ignore"):
            self.row_priors = np.log(counts / counts.sum(axis=1, keepdims=True))[self.fold_of]
        # each sum accuracy_batch needs is one product of these sparse tables
        # with a batch's masks
        w = matrix.weights
        fold_of_nz = np.repeat(self.fold_of, np.diff(w.indptr))
        log_mass = self.log_mass.reshape(-1, k, n_classes)[w.indices, fold_of_nz]
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.products = sp.vstack(  # row c*N + i: x_ij * log_mass[j, fold(i)*C + c]
                [sp.csr_matrix((w.data * log_mass[:, c], w.indices, w.indptr), shape=w.shape)
                 for c in range(n_classes)], format="csr")
        if not (np.isfinite(mass).all() and np.isfinite(self.products.data).all()):
            raise ClassifierError("naive Bayes weights too large: a class's summed "
                                  "weight, or a weight times its log, overflows")
        self.weights = w
        self.mass_t = sp.csr_matrix(mass.T)

    def _accuracies(self, predicted: np.ndarray) -> np.ndarray:
        """Per column of an (N, B) array of predicted classes, the mean over
        folds of the share of test rows whose class is predicted.

        One bincount counts the hits of every (mask, fold) pair, and a
        share, hits / n_test, is the mean of a fold's 0/1 hits as
        cross_val_accuracy takes it. Each mask's shares are a row of a
        C-contiguous (B, k) array, which np.mean reduces along the row as it
        reduces a 1-D array of k shares (pairwise from k = 8 up), so each
        mean equals cross_val_accuracy's mean of the k fold accuracies, and
        the one-mask expression np.mean(np.bincount(fold_of, weights=hits) /
        n_test), bit for bit.
        """
        k, batch = len(self.n_test), predicted.shape[1]
        cell = np.arange(0, batch * k, k) + self.fold_of[:, None]  # (N, B): mask b, fold f
        hits = np.bincount(cell[predicted == self.labels[:, None]], minlength=batch * k)
        return np.mean(hits.reshape(batch, k) / self.n_test, axis=1)

    def accuracy_batch(self, masks) -> list[float]:
        """cross_val_accuracy(matrix, mask, "nb", k, seed).mean_accuracy of
        each row of a (B, M) mask batch, bit for bit.

        Over a mask's columns S, row i (fold f) and class c, the NB score is
        a[i, c] - x[i] * log(T) + prior[i, c], rounded in that order, where
        a sums x_ij * log_mass[j, f*C + c], x sums x_ij and T is the fold and
        class's mass summed over S, plus ALPHA * |S|: _nb_scores's arithmetic
        with nb_train's fold-f model. Each sum is one scipy product of a
        sparse table from __init__ (`products`, `weights`, `mass_t`) with
        the batch's (M, B) masks, which adds a row's stored entries one
        after another, each times an exact 1.0 or 0.0; no BLAS call runs.
        np.argmax takes the lowest class on ties, as nb_predict does.
        """
        masks = np.asarray(masks, dtype=bool)
        batch = len(masks)
        if not batch:
            return []
        if not masks.any(axis=1).all():
            raise ClassifierError("empty feature mask")
        k, n_classes, n = len(self.n_test), self.n_classes, len(self.labels)
        # every array below has the batch as its last axis; the (C, N, B)
        # scores, gathered through fold_of, are laid out row by row
        chosen = np.ascontiguousarray(masks.T).astype(float)  # (M, B)
        a = (self.products @ chosen).reshape(n_classes, n, batch)
        log_t = np.log(self.mass_t @ chosen + ALPHA * masks.sum(axis=1))  # (k*C, B)
        scores = log_t.reshape(k, n_classes, batch).swapaxes(0, 1)[:, self.fold_of]
        scores *= self.weights @ chosen  # x, (N, B)
        np.subtract(a, scores, out=scores)
        scores += self.row_priors.T[:, :, None]
        return self._accuracies(np.argmax(scores, axis=0)).tolist()

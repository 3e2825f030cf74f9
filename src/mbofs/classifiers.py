"""Internal/evaluation classifiers and stratified cross-validated accuracy.

Multinomial Naive Bayes over fractional TF-IDF weights plus a Gini decision
tree, both operating on mask-restricted columns of a DocTermMatrix. All argmax
ties break to the lowest class index so results are reproducible bit-for-bit.
One NB scorer, NbFoldKernel, scores the search's mask batches and every NB
fold of an evaluation step, whose work queue runs its fold trees only. NB
takes non-negative finite weights only, small enough that no class mass or
score overflows; the tree takes any finite weights, signed ones included.
No corpus loader makes a weight either refuses: TF-IDF weights are positive
and finite.

The two fast kernels each keep a slow implementation as their test oracle:
NbFoldKernel has nb_train/nb_predict, which no pipeline code calls, and the
tree's split search (_best_split) has the per-feature _gini_best_split in
tests/test_classifiers.py, which a property test compares node for node.
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
    weight is NaN.)

    The weights must also be small enough that no class mass, table entry
    or score overflows. With S the summed weight, R the largest row sum and
    L = log(S + ALPHA*M), a class mass of any fold and columns is at most S,
    and a weight times its log, or a term of a row's score, at most R*L.
    Sums of n terms, in any order, round within a relative n * 2**-53 of
    exact, so the matrix is refused unless 2 * (S + R*L) is finite: 730
    weights of 2.46e305 have a finite S, but overflow in a class mass that
    scipy adds left to right, with no warning. The bound is computed with
    overflow silenced, since an overflow is what it looks for."""
    data = weights.data
    if not (data.min(initial=0.0) >= 0.0 and data.max(initial=0.0) < np.inf):
        bad = data[~((data >= 0.0) & (data < np.inf))][0]
        raise ClassifierError(
            f"naive Bayes needs non-negative finite weights, and the matrix stores {bad}")
    with np.errstate(over="ignore"):
        total = data.sum()
        largest = (weights @ np.ones(weights.shape[1])).max(initial=0.0)
        score = largest * np.log(total + ALPHA * weights.shape[1]) if largest else 0.0  # R*L
        bound = 2.0 * (total + score)
    if not np.isfinite(bound):
        raise ClassifierError("naive Bayes weights too large: a class's summed weight or a "
                              "row's score could overflow")


def _columns(matrix: DocTermMatrix, cols: np.ndarray):
    """The weights on _mask_columns's `cols`: not a copy when they are all."""
    w = matrix.weights
    return w if len(cols) == w.shape[1] else w[:, cols]


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
    i's entries. This is NbFoldKernel.fold_accuracies's arithmetic.
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


# Cap on the entries one split-search chunk counts, and on the runs whose
# cuts one chunk scores, at once: a node's counting and scoring buffers stay
# under a few MB whatever its entries; its (C, runs) int32 counts grow with them.
_SPLIT_CHUNK_CUTS = 1 << 14


class _Entries(NamedTuple):
    """A tree node's rows and its entries, sorted once per tree.

    `rows` lists the node's rows (indices into the tree's labels y) in
    ascending order. Entry i says that row `row[i]` holds `value[i]` in column
    `col[i]`. The entries are the nonzeros of the node's rows, and nothing
    else: a column's zeros on the node are the rows its entries miss, a run
    implied by the entries' count and never stored. They are sorted by
    (column, value), so a column's negatives come before its positives, and
    its zeros, when it has any, lie between the two. A column with no entries
    is all zeros on the node.

    `row` and `col` are int32, scipy's own index dtype for these matrices,
    whatever the dtype of the matrix's own indices (no corpus comes near
    2**31 rows or columns): an entry takes 16 bytes, 4 + 4 + 8. On the
    planted 500x2000 matrix the raw mask's 81,130 entries take 1.3 MB, the
    IG mask's 21,113 take 0.34 MB.
    """

    rows: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


def _presort(x) -> _Entries:
    """The root of a tree on x (dense or sparse, rows x columns): the one sort
    of its nonzeros, stored or summed zeros dropped. A NaN or infinite weight
    in x raises ClassifierError.

    A float CSR in canonical form, as a DocTermMatrix and its column slices
    are, is read where it lies: its nonzeros are copied once, into the
    entries, and then sorted. Any other x is converted first, and its
    duplicates summed on a copy; the caller's x is never changed. The peak
    is the unsorted entries, lexsort's int64 order and one sorted array, and
    x itself when it is a column slice: of tracemalloc, 2.6 MB for the
    planted raw mask, whose weights are read in place, and 14.0 MB for the
    64,567-term corpus of _grow's docstring, measured with a slice.
    """
    x = sp.csr_matrix(x, dtype=float)  # no copy of a float CSR
    if not x.has_canonical_format:
        x = x.copy()
        x.sum_duplicates()
    _check_tree_weights(x)
    coo = x.tocoo(copy=False)  # x's own col and data, and a new row
    nz = coo.data != 0
    row = coo.row[nz].astype(np.int32, copy=False)
    col = coo.col[nz].astype(np.int32, copy=False)
    value = coo.data[nz]
    del coo, nz
    order = np.lexsort((value, col))
    row = row[order]  # sorted one array at a time, each unsorted one freed
    col = col[order]
    value = value[order]
    return _Entries(np.arange(x.shape[0]), row, col, value)


def _class_sum(q: np.ndarray) -> np.ndarray:
    """The sum over classes of a class-major (C, cuts) array, the classes
    added one after another as the impurity's formula adds them, and as the
    benchmark's reference CART (perfbench/reference.py) does, so the trees
    match it at every class count. Not q.sum(axis=0): numpy adds a (C, 1)
    array pairwise."""
    s = q[0].copy()
    for row in q[1:]:
        s += row
    return s


def _weighted_gini(left: np.ndarray, totals: np.ndarray, n: int) -> np.ndarray:
    """The weighted Gini impurity (nl * gini_l + nr * gini_r) / n of each of
    a chunk's cuts, from their (C, cuts) integer left counts.

    Each step is the oracle's, in place where it can be: a square is x * x,
    which is x ** 2 bit for bit, and a product is exact in either order.
    The right counts come from the integer left counts, the same floats, so
    the left side's (C, cuts) float buffer goes before the right side's."""
    lc = left.astype(float)
    nl = _class_sum(lc)  # exact: any order gives the same integer
    nr = n - nl
    lc /= nl
    lc *= lc
    weighted = _class_sum(lc)
    del lc
    np.subtract(1.0, weighted, out=weighted)
    weighted *= nl  # nl * gini_l
    rc = np.subtract(totals, left, dtype=float)
    rc /= nr
    rc *= rc
    right = _class_sum(rc)
    del rc
    np.subtract(1.0, right, out=right)
    right *= nr
    weighted += right
    weighted /= n
    return weighted


def _best_split(node: _Entries, y: np.ndarray, n_classes: int):
    """Lowest-impurity (impurity, feature, threshold) over the columns of a
    node, or None when every column is constant on it.

    The presorted CART split search of SPRINT (Shafer, Agrawal & Mehta,
    VLDB 1996), whose attribute lists are the node's entries, with the
    sparsity-aware split finding of XGBoost (Chen & Guestrin, KDD 2016): a
    column's zeros are implied, never stored. The entries are in threshold
    order already, so a bincount counts the classes of every run of equal
    values in a column, and one cumsum over the runs gives `cum`, the
    classes of the entries before each run. A cut below a column's zeros
    has on its left the prefix sum from the column's first run; a cut above
    them, the node's totals less the suffix sum to the column's end. A
    column with fewer entries than the node has rows holds zeros, and has
    cuts (last negative, 0) and (0, first positive) where a column without
    zeros has one. A node's cost grows with its entries, so a tree's grows
    with the nonzeros times the depth, not with rows x columns.

    The counts are class-major: a (C, runs + 1) int32 array, exact below
    2**31 entries, whose gathered cuts form a (C, cuts) array with one
    contiguous row per class, so every step of the scoring runs along the
    cuts. Left counts are integers below 2**53, and each cut is scored with
    the arithmetic of the per-feature oracle in tests/test_classifiers.py
    (_gini_best_split), element for element: the impurities agree bit for
    bit. Cuts are listed column by column, lowest threshold first, and a
    later chunk wins only when strictly lower, so the first minimum keeps
    the oracle's tie rules: the lowest threshold within a column, then the
    lowest column.

    The entries are counted, and the runs' cuts scored, one chunk of at most
    _SPLIT_CHUNK_CUTS at a time: a chunk's keys (class * width + run), its
    (C, width) bincount and its cuts' positions and columns are its only
    int64 arrays. Beyond its entries, a node holds each run's value, counts
    and three flags, 27 bytes a run with 4 classes: at the root of the
    planted raw fold-0 tree (64,744 entries, as many runs) 1.75 MB, and a
    chunk's buffers 1.7 MB more (0.3 MB at a chunk of 1024).
    """
    row, col, value = node.row, node.col, node.value
    if len(col) == 0:
        return None
    n, chunk = len(node.rows), _SPLIT_CHUNK_CUTS
    totals = np.bincount(y[node.rows], minlength=n_classes)[:, None]
    new_run = np.empty(len(col), dtype=bool)
    new_run[0] = True
    np.not_equal(col[1:], col[:-1], out=new_run[1:])
    new_run[1:] |= value[1:] != value[:-1]
    run_value = value[new_run]
    n_runs = len(run_value)
    run_col = col[new_run]
    first = np.ones(n_runs + 1, dtype=bool)  # a column's first run, or the end
    np.not_equal(run_col[1:], run_col[:-1], out=first[1:-1])
    edges = np.flatnonzero(first)  # column g: runs edges[g]:edges[g+1]
    n_cols = len(edges) - 1
    features = run_col[edges[:-1]]
    del run_col
    cum = np.zeros((n_classes, n_runs + 1), dtype=np.int32)
    run = 0  # cum[:, run + 1] counts the chunk's first run begun in it
    for lo in range(0, len(col), chunk):
        starts = new_run[lo:lo + chunk]
        width = np.count_nonzero(starts) + 1
        key = y.take(row[lo:lo + chunk])  # take, not []: see _take
        key *= width  # the key of (class, run in the chunk), built in place
        key += np.cumsum(starts)  # run 0: the rest of a run begun before the chunk
        counts = np.bincount(key, minlength=n_classes * width).reshape(n_classes, width)
        del key
        cum[:, run] += counts[:, 0]
        cum[:, run + 1:run + width] = counts[:, 1:]
        run += width - 1
    del new_run, counts
    np.cumsum(cum, axis=1, out=cum)  # cum[:, b]: the classes of the entries of runs < b
    # Above its zeros, a cut's left counts are cum at it less base[:, g], cum
    # at its column g's end less the totals; below them, cum at it less
    # base[:, n_cols + g], cum at the column's first run.
    base = cum.take(np.concatenate((edges[1:], edges[:-1])), axis=1)
    zeros = (base[:, :n_cols] - base[:, n_cols:]).sum(axis=0) < n  # fewer entries than rows
    base[:, :n_cols] -= totals
    # cut[r, 0], just before run r, is above its column's zeros, and cut[r, 1],
    # just after it, below them. There is a cut before each positive run and
    # after each negative one, but a column without zeros has none before its
    # first positive run and none after its last run.
    cut = np.stack((run_value > 0, run_value < 0), axis=1)
    positive, negative = cut.T
    after_negative = np.flatnonzero(positive[1:] & negative[:-1]) + 1
    positive[after_negative] = zeros[np.searchsorted(edges, after_negative, side="right") - 1]
    positive[edges[:-1]] &= zeros
    negative[edges[1:] - 1] &= zeros
    flat = cut.reshape(-1)  # cut[r, j] is flat[2r + j], at cum[:, r + j]
    best = None
    for start in range(0, n_runs, chunk):
        keys = np.flatnonzero(flat[2 * start:2 * (start + chunk)])  # flat[2 start + keys]
        if len(keys) == 0:
            continue
        columns = np.cumsum(first[start:start + chunk]) + (np.searchsorted(edges, start) - 1)
        left = cum.take(start + ((keys + 1) >> 1), axis=1)
        left -= base.take(columns.take(keys >> 1) + (keys & 1) * n_cols, axis=1)
        del columns
        weighted = _weighted_gini(left, totals, n)
        i = int(np.argmin(weighted))
        if best is None or weighted[i] < best[0]:
            best = (float(weighted[i]), 2 * start + int(keys[i]))
    if best is None:
        return None
    r, j = divmod(best[1], 2)
    g, other = int(np.searchsorted(edges, r, side="right")) - 1, r + 2 * j - 1
    # the value across the cut from run r: 0.0 when the column's zeros lie there
    across = 0.0 if not edges[g] <= other < edges[g + 1] or (
        zeros[g] and (run_value[other] > 0) != (run_value[r] > 0)) else run_value[other]
    return best[0], int(features[g]), (run_value[r] + across) / 2.0


def _take(node: _Entries, inside: np.ndarray) -> _Entries:
    """The entries of a node on the rows where `inside` (by row, one flag for
    each of the tree's rows) is True, still sorted.

    The rows keep their own nonzeros, gathered once in (column, value)
    order, and nothing else: a column's zeros there are the rows its kept
    entries miss, and a column with none is all zeros there."""
    rows = node.rows[inside[node.rows]]
    # take copies the int32 row numbers to int64 at once; indexing with []
    # casts them in small buffered steps, which took 3 times as long
    take = np.flatnonzero(inside.take(node.row))
    return _Entries(rows, node.row[take], node.col[take], node.value[take])


def _split(node: _Entries, feature: int, threshold: float, n_rows: int):
    """The (left, right) children of a node, their entries still sorted.

    A row goes left when its value in `feature` is <= threshold; a row with no
    entry there holds 0.0, so it goes left exactly when 0.0 <= threshold.
    """
    # an int32 key: Python ints would make searchsorted copy node.col to int64
    lo, hi = np.searchsorted(node.col, np.array([feature, feature + 1], dtype=node.col.dtype))
    left_of = np.full(n_rows, 0.0 <= threshold)  # by row
    left_of[node.row[lo:hi]] = node.value[lo:hi] <= threshold
    return _take(node, left_of), _take(node, ~left_of)


def _grow(root: list, y: np.ndarray, n_classes: int, max_depth: int,
          min_split: int) -> DtNode:
    """The tree grown from `root`, a one-item list of the root's entries,
    which _grow takes out of the list: no caller's reference then keeps
    them alive while the tree grows.

    The nodes grow depth first, left before right, from an explicit stack.
    A split node's entries are dropped once its two children are filtered
    from them, before either child grows. So the entries alive at any time
    are those of the node being split and of the right siblings pending on
    the stack, which cover disjoint rows: about one root's worth, at any
    depth. Each node's (feature, threshold, class) is listed in preorder,
    and the DtNodes are built from that list, children before parents.

    On a generated 2500-document, 5-class corpus of 64,567 terms (318k
    presorted entries, the abstract's width), the raw fold-0 tree peaks at
    17.7 MB of tracemalloc, 3.5 times its presort's 5.1 MB. The planted raw
    fold-0 tree peaks at 4.5 MB, 3.5 times its presort's bytes.
    """
    preorder = []
    pending = [(root.pop(), 0)]
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
    the tree is the same node for node. A presort made here raises
    ClassifierError for a NaN or infinite weight in the mask's columns."""
    cols = _mask_columns(mask)
    rows = np.asarray(row_subset, dtype=np.int64)
    if len(rows) == 0:
        raise ClassifierError("empty row subset")
    if presorted is None:
        presorted = _presort(_columns(matrix, cols))
    inside = np.zeros(matrix.n_docs, dtype=bool)
    inside[rows] = True
    root = [_take(presorted, inside)]
    return DtModel(root=_grow(root, matrix.labels, matrix.n_classes, max_depth, min_split),
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

    One evaluation step. Each mask's columns are presorted over all rows
    here, once, and the fold trees, one fold of one mask each, the widest
    mask's first, run from one two-process work queue (forked.side_by_side,
    which returns their results in unit order); the forked child reads the
    presorts it was forked with. Once they are freed, one NbFoldKernel
    scores every mask's NB folds in one batch. A mask's seconds are its
    presort's, its own trees' durations, whichever process ran them, and an
    even share of the kernel's build and batch. Every report is the same as
    when the folds run one after another.
    """
    for kind in kinds:
        if kind not in ("nb", "dt"):
            raise ClassifierError(f"unknown classifier: {kind!r}")
    cols = [_mask_columns(mask) for mask in masks]
    fold_of = stratified_folds(matrix.labels, k, seed)
    seconds = np.zeros(len(masks))
    accs = {kind: np.empty((len(masks), k)) for kind in kinds}  # each mask's folds
    presorted = []  # each mask's presort, when the trees are asked for
    for m in range(len(masks)) if "dt" in kinds else ():
        t0 = time.monotonic()
        presorted.append(_presort(_columns(matrix, cols[m])))
        seconds[m] += time.monotonic() - t0

    def tree(m: int, fold: int) -> tuple[float, float]:
        t0 = time.monotonic()
        train, test = np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)
        model = dt_train(matrix, masks[m], train, presorted=presorted[m])
        acc = float(np.mean(dt_predict(model, matrix.weights[test]) == matrix.labels[test]))
        return acc, time.monotonic() - t0

    units = [(m, fold) for m in sorted(range(len(presorted)), key=lambda m: -len(cols[m]))
             for fold in range(k)]
    done = side_by_side({f"mask {m} fold {fold} tree": functools.partial(tree, m, fold)
                         for m, fold in units}, ClassifierError)
    presorted.clear()
    for (m, fold), (acc, s) in zip(units, done):
        accs["dt"][m, fold] = acc
        seconds[m] += s
    if "nb" in kinds and len(masks):
        t0 = time.monotonic()
        accs["nb"] = NbFoldKernel(matrix, fold_of).fold_accuracies(np.array(masks, dtype=bool))
        seconds += (time.monotonic() - t0) / len(masks)
    return [({kind: EvalReport(float(np.mean(accs[kind][m])), tuple(accs[kind][m].tolist()))
              for kind in kinds}, float(s)) for m, s in enumerate(seconds)]


def cross_val_accuracy(
    matrix: DocTermMatrix,
    mask,
    classifier: str = "nb",
    k: int = 5,
    seed: int = 0,
) -> EvalReport:
    """Stratified k-fold accuracy of the classifier on the mask's columns, in
    an evaluation step of one mask (cross_val_accuracies). `mbofs evaluate`
    (harness.evaluate_mask), the tests and the benchmark's checks call it."""
    ((reports, _),) = cross_val_accuracies(matrix, [mask], (classifier,), k, seed)
    return reports[classifier]


class NbFoldKernel:
    """Multinomial-NB accuracy of mask batches on a fixed fold assignment:
    `fold_of` gives each row's test fold, 0 to k-1, k >= 2 and none empty.

    Everything but the column choice is built once for all k folds, one
    fold at a time. Fold f's training class mass over all M columns is
    nb_train's expression, an (M, C) table with the fold's own rows as exact
    +0.0 terms. `mass_t[f]` keeps its sparse transpose, and its log is read
    once, at the entries fold f's rows store, into `products`: one CSR table
    per class over the matrix's own index arrays, each its own data array
    (scipy copies a CSR's data that views under half of its base). Each
    document's row of `row_priors` is its fold's log priors. Fold f's
    accuracy is that of nb_train's model of the rows outside fold f under
    nb_predict, bit for bit, on four premises:
    - on a mask's columns, the log of fold f's mass plus ALPHA, the log of
      its `mass_t[f]` sum plus ALPHA*|S|, and `row_priors` are nb_train's
      fold-f model (a test pins it);
    - scipy's sparse products add a row's stored entries one after another,
      as _nb_scores does;
    - an unselected entry adds an exact zero, its finite table entry times
      0.0 (a NaN entry times 0.0 is NaN): _check_nb_weights refuses weights
      that are negative or not finite, or so large that a table entry
      could overflow;
    - np.log gives the same bits for the same input whatever the array's
      length or layout. numpy's AVX2 and AVX-512 logs differ from each
      other in the last bits, so CI's avx2 job runs the NB property tests
      too.
    No dense ndarray @ ndarray product runs, so no BLAS thread pool
    competes with a search in the other process. The build peaks at 3.8 MB
    of tracemalloc on the planted 500x2000 matrix, and at 3.5 MB on the
    400-document, 8757-term corpus of the benchmark's text-wide workload.
    """

    def __init__(self, matrix: DocTermMatrix, fold_of):
        _check_nb_weights(matrix.weights)
        w, n_classes = matrix.weights, matrix.n_classes
        self.fold_of = fold_of = np.asarray(fold_of)
        n = matrix.n_docs
        if not (fold_of.shape == (n,) and fold_of.dtype.kind in "iu"
                and 0 <= fold_of.min(initial=0) and fold_of.max(initial=0) < n
                and len(n_test := np.bincount(fold_of)) >= 2 and n_test.all()):
            raise ClassifierError("fold_of must give each row an integer fold in [0, k), "
                                  "with k >= 2 and no fold empty")
        self.n_test = n_test
        self.labels = matrix.labels
        onehot = np.eye(n_classes)[matrix.labels]  # (N, C)
        # row i of products[c] holds x_ij * log(W(j, c) + ALPHA), W the mass
        # of row i's fold: each sum fold_accuracies needs is one product of
        # these sparse tables with a batch's masks
        data = [np.empty(w.nnz) for _ in range(n_classes)]
        self.mass_t, counts = [], []
        for f in range(len(self.n_test)):
            train = onehot * (fold_of != f)[:, None]  # [i, c]: a training row of class c
            counts.append(train.sum(axis=0))
            mass = w.T @ train
            self.mass_t.append(sp.csr_matrix(mass.T))
            log_mass = np.log(np.add(mass, ALPHA, out=mass), out=mass)
            at = np.flatnonzero(np.repeat(fold_of == f, np.diff(w.indptr)))  # fold f's entries
            cols, x = w.indices[at], w.data[at]
            for c, block in enumerate(data):
                block[at] = x * log_mass[cols, c]
        self.products = [sp.csr_matrix((b, w.indices, w.indptr), shape=w.shape) for b in data]
        counts = np.array(counts)
        with np.errstate(divide="ignore"):
            self.row_priors = np.log(counts / counts.sum(axis=1, keepdims=True))[fold_of]
        self.weights = w

    def _shares(self, predicted: np.ndarray) -> np.ndarray:
        """The (B, k) fold accuracies of the columns of an (N, B) array of
        predicted classes. One bincount counts the hits of every (mask,
        fold) pair, and a share, hits / n_test, is the mean of a fold's 0/1
        hits. Each mask's shares are a row of a C-contiguous (B, k) array,
        which np.mean reduces along the row as it reduces a 1-D array of k
        shares (pairwise from k = 8 up), so accuracy_batch's means equal the
        reports' and np.mean(np.bincount(fold_of, weights=hits) / n_test),
        bit for bit."""
        k, batch = len(self.n_test), predicted.shape[1]
        cell = np.arange(0, batch * k, k) + self.fold_of[:, None]  # (N, B): mask b, fold f
        hits = np.bincount(cell[predicted == self.labels[:, None]], minlength=batch * k)
        return hits.reshape(batch, k) / self.n_test

    def fold_accuracies(self, masks) -> np.ndarray:
        """The (B, k) fold accuracies of the rows of a (B, M) mask batch.

        Over a mask's columns S, row i (fold f) and class c, the NB score is
        a[i, c] - x[i] * log(T) + prior[i, c], rounded in that order, where
        a sums x_ij * log(W(j, c) + ALPHA), W fold f's mass, x sums x_ij and
        T is W(., c) summed over S, plus ALPHA * |S|: _nb_scores's arithmetic
        with nb_train's fold-f model. Each sum is one scipy product of a
        sparse table from __init__ (`products`, `weights`, `mass_t`) with
        the batch's (M, B) masks, which adds a row's stored entries one
        after another, each times an exact 1.0 or 0.0.
        np.argmax takes the lowest class on ties, as nb_predict does.
        """
        masks = np.asarray(masks, dtype=bool)
        if not masks.any(axis=1).all():
            raise ClassifierError("empty feature mask")
        k, n_classes, batch = len(self.n_test), len(self.products), len(masks)
        # every array below has the batch as its last axis; the (C, N, B)
        # scores, gathered through fold_of, are laid out row by row
        chosen = np.ascontiguousarray(masks.T).astype(float)  # (M, B)
        total = np.concatenate([t @ chosen for t in self.mass_t])  # (k*C, B)
        log_t = np.log(total + ALPHA * masks.sum(axis=1))
        scores = log_t.reshape(k, n_classes, batch).swapaxes(0, 1)[:, self.fold_of]
        scores *= self.weights @ chosen  # x, (N, B)
        for c, products in enumerate(self.products):
            np.subtract(products @ chosen, scores[c], out=scores[c])  # a
        scores += self.row_priors.T[:, :, None]
        return self._shares(np.argmax(scores, axis=0))

    def accuracy_batch(self, masks) -> list[float]:
        """The mean of each mask's fold accuracies, as cross_val_accuracy's
        mean_accuracy takes it, bit for bit."""
        return np.mean(self.fold_accuracies(masks), axis=1).tolist()

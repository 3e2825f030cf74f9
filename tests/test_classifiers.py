import hashlib
import importlib
import math
import multiprocessing
import os
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mbofs import classifiers
from mbofs.classifiers import (
    ClassifierError,
    DtNode,
    _best_split,
    _class_sum,
    _grow,
    _presort,
    _take,
    cross_val_accuracies,
    cross_val_accuracy,
    dt_predict,
    dt_train,
    nb_predict,
    nb_train,
    stratified_folds,
)
from mbofs.corpus import DocTermMatrix
from mbofs.filter_ig import ig_filter
from mbofs.synth import make_planted_matrix


def dtm(dense, labels):
    return DocTermMatrix(weights=sp.csr_matrix(np.asarray(dense, float)),
                         labels=np.asarray(labels))


@pytest.fixture
def two_class_matrix():
    # class 0 doc carries only f0, class 1 doc only f1
    return dtm([[2.0, 0.0], [0.0, 2.0]], [0, 1])


class TestNaiveBayes:
    def test_hand_likelihoods(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0, 1])
        # class 0: W(f0)=2, total 2+1*2 -> P(f0|0)=3/4, P(f1|0)=1/4
        assert model.log_likelihoods[0, 0] == pytest.approx(math.log(0.75), abs=1e-12)
        assert model.log_likelihoods[0, 1] == pytest.approx(math.log(0.25), abs=1e-12)
        assert model.log_likelihoods[1, 1] == pytest.approx(math.log(0.75), abs=1e-12)
        assert model.log_priors[0] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_likelihoods_normalize(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0, 1])
        per_class = np.exp(model.log_likelihoods).sum(axis=1)
        np.testing.assert_allclose(per_class, 1.0, atol=1e-9)
        assert np.exp(model.log_priors).sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_class_uniform(self):
        m = dtm([[0.0, 0.0], [0.0, 3.0]], [0, 1])
        model = nb_train(m, [True, True], [0, 1])
        np.testing.assert_allclose(np.exp(model.log_likelihoods[0]), 0.5, atol=1e-12)

    def test_single_class_prior(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0])
        assert model.log_priors[0] == pytest.approx(0.0, abs=1e-12)

    def test_predict_hand_example(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0, 1])
        assert nb_predict(model, np.array([[1.0, 0.0]]))[0] == 0
        assert nb_predict(model, np.array([[0.0, 1.0]]))[0] == 1

    def test_all_zero_row_uses_priors(self):
        m = dtm([[1.0, 0], [1.0, 0], [0, 1.0]], [0, 0, 1])
        model = nb_train(m, [True, True], [0, 1, 2])
        assert nb_predict(model, np.array([[0.0, 0.0]]))[0] == 0  # prior 2/3

    def test_tie_breaks_low_class(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0, 1])
        assert nb_predict(model, np.array([[0.0, 0.0]]))[0] == 0  # equal priors

    def test_shift_invariance(self, two_class_matrix):
        model = nb_train(two_class_matrix, [True, True], [0, 1])
        shifted = replace(model, log_priors=model.log_priors + 12.34)  # every score + 12.34
        rows = np.array([[0.7, 0.3], [0.3, 0.7]])
        assert nb_predict(model, rows).tolist() == nb_predict(shifted, rows).tolist()

    def test_empty_mask_errors(self, two_class_matrix):
        with pytest.raises(ClassifierError, match="empty"):
            nb_train(two_class_matrix, [False, False], [0, 1])


class TestDecisionTree:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_in_the_mask_is_refused(self, bad):
        m = dtm([[0.0, 1.0], [bad, 2.0], [1.0, 0.0]], [0, 1, 1])
        message = f"the decision tree needs finite weights, and the matrix stores {bad}"
        with pytest.raises(ClassifierError, match=f"^{message}$"):
            dt_train(m, [True, True], [0, 1, 2])
        with pytest.raises(ClassifierError, match=f"^{message}$"):
            _presort(m.weights)
        # a column outside the mask is not read
        assert dt_train(m, [False, True], [0, 1, 2]).root.feature == 0

    def test_pure_subset_single_leaf(self):
        m = dtm([[1.0], [2.0]], [0, 0])
        model = dt_train(m, [True], [0, 1])
        assert model.root.feature == -1
        assert model.root.klass == 0

    def test_one_dim_split(self):
        m = dtm([[0.0], [1.0]], [0, 1])
        model = dt_train(m, [True], [0, 1])
        assert model.root.threshold == pytest.approx(0.5)
        assert dt_predict(model, np.array([[0.7]]))[0] == 1
        assert dt_predict(model, np.array([[0.2]]))[0] == 0

    def test_max_depth_zero(self):
        m = dtm([[0.0], [1.0], [2.0]], [1, 1, 0])
        model = dt_train(m, [True], [0, 1, 2], max_depth=0)
        assert model.root.feature == -1
        assert model.root.klass == 1  # majority

    def test_missing_feature_treated_as_zero(self):
        m = dtm([[0.0], [1.0]], [0, 1])
        model = dt_train(m, [True], [0, 1])
        assert dt_predict(model, np.array([[0.0]]))[0] == 0

    def test_train_accuracy_monotone_in_depth(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 3))
        y = (x[:, 0] + x[:, 1] > 1.0).astype(int)
        m = dtm(x, y)
        rows = np.arange(40)
        accs = []
        for depth in (0, 1, 2, 4, 8):
            model = dt_train(m, [True] * 3, rows, max_depth=depth)
            accs.append(np.mean(dt_predict(model, x[rows]) == y))
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))


def _dt_build(x, y, n_classes, max_depth, min_split):
    """The Gini tree on x (dense or sparse, rows x columns) and its labels y,
    grown from x's own presort."""
    return _grow([_presort(x)], np.asarray(y), n_classes, 0, max_depth, min_split)


def _gini_best_split(values: np.ndarray, labels: np.ndarray, n_classes: int):
    """Best (threshold, impurity) for one feature, or None if constant.

    The per-feature oracle of classifiers._best_split: looped over a node's
    columns, keeping the first lowest impurity, it gives the (impurity,
    feature, threshold) that _best_split finds on the node's presorted
    entries, bit for bit.
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


def _reference_split(x, y, n_classes):
    """The per-feature loop over _gini_best_split: (impurity, feature, threshold)."""
    best = None
    for j in range(x.shape[1]):
        split = _gini_best_split(x[:, j], y, n_classes)
        if split is None:
            continue
        threshold, impurity = split
        if best is None or impurity < best[0]:
            best = (impurity, j, threshold)
    return best


def _reference_tree(x, y, n_classes, depth, max_depth, min_split):
    """_dt_build with _reference_split as its split search. At every node it also
    checks _best_split's (impurity, feature, threshold) on the node's presorted
    entries against it, bit for bit: a last-bit drift in an impurity need not
    change the tree."""
    counts = np.bincount(y, minlength=n_classes)
    majority = int(np.argmax(counts))
    leaf = DtNode(feature=-1, threshold=0.0, left=None, right=None, klass=majority)
    if depth >= max_depth or len(y) < min_split or counts.max() == len(y):
        return leaf
    best = _reference_split(x, y, n_classes)
    assert _best_split(_presort(x), y, n_classes) == best
    if best is None:
        return leaf
    _, j, threshold = best
    go_left = x[:, j] <= threshold
    grow = lambda rows: _reference_tree(x[rows], y[rows], n_classes, depth + 1,
                                        max_depth, min_split)
    return DtNode(feature=j, threshold=threshold, left=grow(go_left), right=grow(~go_left),
                  klass=majority)


@st.composite
def tree_problems(draw):
    """Rows x features with 2..12 classes, or with 129 or 200 (most of them
    empty), labelled from 2..12 of them: continuous or
    quantized values (ties, duplicate values), signed columns whose zeros sit
    between their negatives and positives, all-zero and constant columns, rows
    repeated under other labels; a tree depth, a split minimum and a
    split-search chunk size."""
    n_classes = draw(st.integers(2, 12) | st.sampled_from([129, 200]))
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 2, 3, 5]))  # 0: continuous
    x = rng.random((n, m))
    if levels:
        x = np.floor(x * levels) / levels
    x[:, rng.random(m) < draw(st.sampled_from([0.0, 0.5, 1.0]))] -= 0.5  # signed
    x *= rng.random((n, m)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    x[:, rng.random(m) < 0.15] = 0.0
    x[:, rng.random(m) < 0.15] = 0.5
    x[:, rng.random(m) < 0.1] = -0.25
    y = rng.choice(rng.choice(n_classes, min(n_classes, draw(st.integers(2, 12))),
                              replace=False), n)
    if draw(st.booleans()):
        for i in range(0, n - 1, 2):
            x[i + 1] = x[i]
    chunk = draw(st.sampled_from([1, 50, 200, classifiers._SPLIT_CHUNK_CUTS]))
    return x, y, n_classes, draw(st.integers(0, 12)), draw(st.integers(1, 5)), chunk


def _walk(node, row):
    """The class at the leaf a dense row reaches."""
    while node.feature >= 0:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.klass


def _stored_with_zeros(x, rng):
    """x as a CSR that also stores about half of its zeros explicitly."""
    stored = (x != 0) | (rng.random(x.shape) < 0.5)
    r, c = np.nonzero(stored)
    return sp.csr_matrix((x[r, c], (r, c)), shape=x.shape)


class TestClassSum:
    def test_adds_classes_one_after_another(self):
        """_class_sum on (C, cuts) equals, bit for bit, Python's sum of each
        cut's C values in class order, at every class count up to 140 and at
        counts around and past numpy's 128- and 256-element pairwise blocks,
        with many cuts and with one (where numpy's own sum is pairwise)."""
        rng = np.random.default_rng(0)
        for c in [*range(1, 141), 200, 256, 257, 1000]:
            for cuts in (64, 1):
                q = 10.0 ** rng.uniform(-300, 8, (c, cuts))
                q[rng.random(q.shape) < 0.1] = 0.0
                want = [sum(q[:, j].tolist()) for j in range(cuts)]
                assert _class_sum(q).tolist() == want, (c, cuts)


class TestTreeOracle:
    """_dt_build's presorted split search against the per-feature loop, exact."""

    @settings(max_examples=250, deadline=None)
    @given(tree_problems())
    def test_matches_per_feature_loop(self, problem):
        x, y, n_classes, max_depth, min_split, chunk = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_SPLIT_CHUNK_CUTS", chunk)  # 1: one cut a chunk
            assert _dt_build(x, y, n_classes, max_depth, min_split) == _reference_tree(
                x, y, n_classes, 0, max_depth, min_split)

    @settings(max_examples=100, deadline=None)
    @given(tree_problems(), st.integers(0, 2**32 - 1))
    def test_dt_train_on_sparse_rows(self, problem, seed):
        """dt_train on a CSR with stored zeros, a column mask and a row subset
        equals the per-feature loop on those rows and columns, and leaves the
        caller's arrays as they were; every row's prediction from the sparse
        rows equals a walk down the tree on its dense row."""
        x, y, _, max_depth, min_split, chunk = problem
        rng = np.random.default_rng(seed)
        matrix = DocTermMatrix(weights=_stored_with_zeros(x, rng), labels=y)
        before = [a.copy() for a in (matrix.weights.data, matrix.weights.indices,
                                     matrix.weights.indptr)]
        mask = rng.random(x.shape[1]) < 0.7
        mask[rng.integers(x.shape[1])] = True
        rows = np.flatnonzero(rng.random(len(y)) < 0.8)
        if len(rows) == 0:
            rows = np.arange(len(y))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_SPLIT_CHUNK_CUTS", chunk)
            model = dt_train(matrix, mask, rows, max_depth=max_depth, min_split=min_split)
        want = _reference_tree(x[np.ix_(rows, np.flatnonzero(mask))], y[rows],
                               matrix.n_classes, 0, max_depth, min_split)
        assert model.root == want
        after = (matrix.weights.data, matrix.weights.indices, matrix.weights.indptr)
        for a, b in zip(before, after):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        walked = [_walk(want, row) for row in x[:, mask]]
        assert dt_predict(model, matrix.weights).tolist() == walked

    @pytest.mark.parametrize("chunk", [1, classifiers._SPLIT_CHUNK_CUTS])
    @pytest.mark.parametrize("columns, labels, want", [
        pytest.param([[1, 2, 3, 4, 5, 6]], [0, 0, 0, 1, 1, 1], (0, 3.5),
                     id="positive-only-no-zeros"),
        pytest.param([[0, 0, 0, 1, 2, 3]], [0, 0, 0, 1, 1, 1], (0, 0.5),
                     id="positive-only-with-zeros"),
        pytest.param([[-3, -2, -1, 0, 0, 0]], [1, 1, 1, 0, 0, 0], (0, -0.5),
                     id="negative-only-with-zeros"),
        pytest.param([[-2, -1, 0, 0, 1, 2]], [0, 0, 1, 1, 1, 1], (0, -0.5),
                     id="negative-to-positive-with-zeros-cut-below"),
        pytest.param([[-2, -1, 0, 0, 1, 2]], [0, 0, 0, 0, 1, 1], (0, 0.5),
                     id="negative-to-positive-with-zeros-cut-above"),
        pytest.param([[-3, -2, -1, 1, 2, 3]], [0, 0, 0, 1, 1, 1], (0, 0.0),
                     id="negative-to-positive-no-zeros"),
        pytest.param([[0] * 6, [0, 0, 0, 1, 2, 3], [0] * 6], [0, 0, 2, 1, 1, 1], (1, 0.5),
                     id="all-zero-columns"),
        pytest.param([[0] * 4, [2] * 4, [-1] * 4], [0, 1, 0, 1], None,
                     id="all-zero-and-constant-only"),
        pytest.param([[-1, 0, 0, 1]], [0, 1, 1, 0], (0, -0.5),
                     id="tie-between-the-two-zero-cuts"),
        pytest.param([[0, 0, 0, 2, 2, 2], [-2, -2, -2, 0, 0, 0]], [0, 0, 1, 1, 1, 0], (0, 1.0),
                     id="tie-across-columns-zeros-left-first"),
        pytest.param([[-2, -2, -2, 0, 0, 0], [0, 0, 0, 2, 2, 2]], [0, 0, 1, 1, 1, 0], (0, -1.0),
                     id="tie-across-columns-zeros-right-first"),
        pytest.param([[1, 1, 1, 3, 3, 3], [0, 0, 0, 2, 2, 2]], [0, 0, 1, 1, 1, 0], (0, 2.0),
                     id="tie-across-columns-no-zeros-first"),
        pytest.param([[0, 1, 2, 3]], [0, 1, 1, 0], (0, 0.5),
                     id="tie-zero-cut-before-positive-cut"),
        pytest.param([[-3, -2, -1, 0]], [0, 1, 1, 0], (0, -2.5),
                     id="tie-negative-cut-before-zero-cut"),
    ])
    def test_zero_cuts_match_per_feature_loop(self, monkeypatch, chunk, columns, labels, want):
        """_best_split against the per-feature loop on hand-made columns, one
        for each way a column's zeros meet its cuts, and on exact impurity
        ties within a column, across columns and, one cut a chunk, across
        chunks: the winning (feature, threshold) is the one written here."""
        monkeypatch.setattr(classifiers, "_SPLIT_CHUNK_CUTS", chunk)
        x, y = np.array(columns, dtype=float).T, np.array(labels)
        got = _best_split(_presort(x), y, 3)
        assert got == _reference_split(x, y, 3)
        assert (got if got is None else got[1:]) == want

    def test_dt_train_matches_reference_cart_at_many_classes(self, monkeypatch):
        """dt_train equals the benchmark's brute-force CART, node for node, on
        small problems with 8..12 classes and features valued 0, 1 or 2, where
        two cuts' impurities often differ only in the last bit."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        reference = importlib.import_module("reference")
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n_classes = int(rng.integers(8, 13))
            n = int(rng.integers(16, 60))
            x = rng.integers(0, 3, (n, int(rng.integers(2, 6)))).astype(float)
            y = rng.integers(0, n_classes, n)
            matrix = dtm(x, y)
            model = dt_train(matrix, np.ones(x.shape[1], dtype=bool), np.arange(n))
            assert reference.same_tree(reference.cart(x, y, matrix.n_classes), model.root), seed

    def test_dt_train_on_planted_matrix(self):
        matrix, _ = make_planted_matrix(n_docs=60, n_classes=9, n_features=40,
                                        n_informative=12, seed=2)
        mask = np.ones(40, dtype=bool)
        rows = np.arange(48)
        x = np.asarray(matrix.weights[rows].todense())
        want = _reference_tree(x, matrix.labels[rows], 9, 0, 20, 2)
        assert dt_train(matrix, mask, rows).root == want


def _preorder_digest(node):
    """Node count and the first 16 hex digits of the SHA-256 of the tree's
    preorder `feature:threshold.hex():class` lines."""
    lines, stack = [], [node]
    while stack:
        node = stack.pop()
        lines.append(f"{node.feature}:{float(node.threshold).hex()}:{node.klass}")
        if node.feature >= 0:
            stack += [node.right, node.left]
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _int64_indices(csr):
    """A copy of the CSR whose indices and indptr are int64: scipy's own
    constructors would store them as int32."""
    wide = csr.copy()
    wide.indices, wide.indptr = csr.indices.astype(np.int64), csr.indptr.astype(np.int64)
    return wide


class TestPlantedTrees:
    """Full-size trees on the benchmark's planted matrix, pinned: the
    per-feature oracle is too slow at this size."""

    @pytest.fixture(scope="class")
    def planted(self):
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        return matrix, stratified_folds(matrix.labels, 5, 0), ig_filter(matrix, cap=500)

    @pytest.mark.parametrize("mask_name, fold, want", [
        ("raw", 0, (151, "72ca2220d81f192c")),
        ("raw", 1, (155, "bec8d0e623e293b2")),
        ("raw", 2, (157, "12de5340498d3aaf")),
        ("raw", 3, (155, "a7381c213aabbf45")),
        ("raw", 4, (145, "a8f1edc33d05d025")),
        ("ig", 0, (171, "1e7e57f9d2ecfda3")),
        ("ig", 1, (181, "a6f9c9d2df195c1c")),
        ("ig", 2, (159, "1181c2af20c9ce4b")),
        ("ig", 3, (163, "a126518c0b669173")),
        ("ig", 4, (149, "29fb0815c93c422e")),
    ])
    def test_tree_digest(self, planted, mask_name, fold, want):
        """Every fold tree of the planted raw and IG masks, pinned."""
        matrix, folds, ig = planted
        mask = ig if mask_name == "ig" else np.ones(matrix.n_features, dtype=bool)
        model = dt_train(matrix, mask, np.flatnonzero(folds != fold))
        assert _preorder_digest(model.root) == want

    @pytest.mark.parametrize("mask_name, fold, want", [
        ("raw", 0, (151, "72ca2220d81f192c")),
        ("ig", 0, (171, "1e7e57f9d2ecfda3")),
    ])
    def test_tree_digest_from_shared_presort(self, planted, mask_name, fold, want):
        matrix, folds, ig = planted
        mask = ig if mask_name == "ig" else np.ones(matrix.n_features, dtype=bool)
        presorted = _presort(matrix.weights[:, np.flatnonzero(mask)])
        model = dt_train(matrix, mask, np.flatnonzero(folds != fold), presorted=presorted)
        assert _preorder_digest(model.root) == want

    @pytest.mark.parametrize("mask_name, fold, want", [
        ("raw", 0, (151, "72ca2220d81f192c")),
        ("ig", 0, (171, "1e7e57f9d2ecfda3")),
    ])
    def test_int64_indices_do_not_reach_the_trees(self, planted, mask_name, fold, want):
        """The matrix stored with int64 indices and indptr gives the int32
        presort of the original, array for array, and the same trees."""
        matrix, folds, ig = planted
        mask = ig if mask_name == "ig" else np.ones(matrix.n_features, dtype=bool)
        cols = np.flatnonzero(mask)
        wide = _int64_indices(matrix.weights)
        assert wide.indices.dtype == wide.indptr.dtype == np.int64
        got = _presort(_int64_indices(matrix.weights[:, cols]))
        for name, a, b in zip(got._fields, got, _presort(matrix.weights[:, cols])):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        rows = np.flatnonzero(folds != fold)
        model = dt_train(DocTermMatrix(weights=wide, labels=matrix.labels), mask, rows)
        assert model.root == dt_train(matrix, mask, rows).root
        assert _preorder_digest(model.root) == want

    def test_cv_fold_accuracies(self, planted):
        matrix, _, ig = planted
        raw = np.ones(matrix.n_features, dtype=bool)
        assert cross_val_accuracy(matrix, raw, "dt", 5, 0).fold_accuracies == (
            0.32, 0.41, 0.36, 0.4, 0.33)
        assert cross_val_accuracy(matrix, ig, "dt", 5, 0).fold_accuracies == (
            0.38, 0.47, 0.43, 0.46, 0.36)

    def test_cv_nb_fold_accuracies(self, planted):
        matrix, _, ig = planted
        raw = np.ones(matrix.n_features, dtype=bool)
        assert cross_val_accuracy(matrix, raw, "nb", 5, 0).fold_accuracies == (
            0.39, 0.42, 0.35, 0.36, 0.47)
        assert cross_val_accuracy(matrix, ig, "nb", 5, 0).fold_accuracies == (
            0.8, 0.85, 0.86, 0.84, 0.83)

    @pytest.fixture(scope="class")
    def per_mask(self, planted):
        """Each classifier's report on the raw and the IG mask, one mask at a time."""
        matrix, _, ig = planted
        masks = [np.ones(matrix.n_features, dtype=bool), ig]
        return masks, [{kind: cross_val_accuracy(matrix, mask, kind, 5, 0)
                        for kind in ("nb", "dt")} for mask in masks]

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "no-fork"])
    @pytest.mark.parametrize("kinds", [("dt",), ("nb", "dt")], ids=["dt", "best"])
    def test_step_equals_per_mask_cross_validation(self, planted, per_mask, kinds, fork,
                                                   monkeypatch):
        """The raw and IG masks evaluated in one step get the reports of their
        own cross-validations, bit for bit; ("nb", "dt") is what
        eval_classifier = best evaluates."""
        matrix = planted[0]
        masks, want = per_mask
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        step = cross_val_accuracies(matrix, masks, kinds, 5, 0)
        assert [reports for reports, _ in step] == [
            {kind: reports[kind] for kind in kinds} for reports in want]


class TestTreeMemory:
    """A tree holds the entries of the node it splits and of the right
    siblings pending on its stack, never an ancestor's."""

    def test_ancestor_entries_are_freed(self, monkeypatch):
        """When a node's split search runs, every array of every ancestor's
        entries is gone: an ancestor is an earlier node whose rows hold the
        node's rows (children split a node's rows, both non-empty)."""
        matrix, _ = make_planted_matrix(200, 4, 300, 20, seed=0)
        seen = []  # (rows, weak references to the entry arrays) of each node
        depths = []  # each node's depth: the ancestors checked
        best_split = classifiers._best_split

        def watched(node, y, n_classes):
            rows = set(node.rows.tolist())
            ancestors = [refs for earlier, refs in seen if rows < earlier]
            assert all(ref() is None for refs in ancestors for ref in refs)
            depths.append(len(ancestors))
            seen.append((rows, [weakref.ref(a) for a in node]))
            return best_split(node, y, n_classes)

        monkeypatch.setattr(classifiers, "_best_split", watched)
        dt_train(matrix, np.ones(matrix.n_features, dtype=bool), np.arange(160))
        assert depths[0] == 0 and max(depths) >= 5 and len(depths) > 20

    @staticmethod
    def _traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_planted_tree_peak_is_a_few_presorts(self):
        """The traced peak of the planted raw fold-0 tree, grown from a given
        presort, stays within about 20% of its 4.54 MB on Python 3.11 (3.5
        times the presort's 1.30 MB, its nonzeros alone): int64 entries and
        the root's int64 class-run bincount would take it to 7.45 MB."""
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        rows = np.flatnonzero(stratified_folds(matrix.labels, 5, 0) != 0)
        presorted = _presort(matrix.weights)
        assert sum(a.nbytes for a in presorted) == 81_130 * 16 + 500 * 8
        peak = self._traced_peak(lambda: dt_train(
            matrix, np.ones(matrix.n_features, dtype=bool), rows, presorted=presorted))
        assert peak < 5.6e6

    def test_split_temporaries_are_chunk_sized(self, monkeypatch):
        """At _SPLIT_CHUNK_CUTS = 1024, the traced peak of the split search
        at the planted raw fold-0 root (64,744 entries, as many runs) stays
        within about 15% of its 2.06 MB on Python 3.11: 1.75 MB that grows
        with the runs (27 bytes a run) and buffers for 1024 entries or runs
        at a time. One more entries-long int64 array would add 0.52 MB, one
        more (C, runs) int32 array 1.04 MB. The split is the default chunk's."""
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        inside = stratified_folds(matrix.labels, 5, 0) != 0
        root = _take(_presort(matrix.weights), inside, matrix.n_docs)
        assert len(root.row) == 64_744
        want = _best_split(root, matrix.labels, 4)
        monkeypatch.setattr(classifiers, "_SPLIT_CHUNK_CUTS", 1024)
        got = []
        peak = self._traced_peak(lambda: got.append(_best_split(root, matrix.labels, 4)))
        assert got == [want]
        assert peak < 2.4e6

    def test_planted_presort_peak_is_pinned(self):
        """The traced peak of a presort made from a column slice of the
        matrix, as the evaluation step makes a narrower mask's, here of
        every column of the planted matrix, stays within about 20% of its
        3.58 MB on Python 3.11: two more copies of the slice and int64
        entries would take it to 6.08 MB."""
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        cols = np.arange(matrix.n_features)
        assert self._traced_peak(lambda: _presort(matrix.weights[:, cols])) < 4.4e6

    @pytest.mark.parametrize("make", ["step", "dt_train"])
    def test_raw_presort_reads_the_weights_in_place(self, monkeypatch, make):
        """The raw mask's presort, as the evaluation step and dt_train make
        it, reads the matrix's weights where they lie: its traced peak, the
        presort's argument included, stays within about 20% of its 2.62 MB
        on Python 3.11. A column slice of every column copied the whole
        matrix first, 1.0 MB more (3.58 MB)."""
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        raw = np.ones(matrix.n_features, dtype=bool)
        presort, peaks = classifiers._presort, []

        class Presorted(Exception):
            pass

        def traced(x):
            presort(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise Presorted

        monkeypatch.setattr(classifiers, "_presort", traced)
        call = {"step": lambda: cross_val_accuracies(matrix, [raw], ("dt",), 5, 0),
                "dt_train": lambda: dt_train(matrix, raw, np.arange(400))}[make]
        with pytest.raises(Presorted):
            self._traced_peak(call)
        assert peaks[0] < 3.3e6

    def test_nb_kernel_is_built_after_the_presorts_are_gone(self, monkeypatch):
        """In a step with both classifiers, the NB kernel is built once the
        fold trees are done and every presort array is freed."""
        matrix, _ = make_planted_matrix(60, 3, 40, 5, seed=1)
        masks = [np.ones(matrix.n_features, dtype=bool), np.arange(matrix.n_features) < 9]
        presort, kernel, arrays, built = classifiers._presort, classifiers.NbFoldKernel, [], []

        def watched_presort(x):
            entries = presort(x)
            arrays.extend(weakref.ref(a) for a in entries)
            return entries

        def watched_kernel(*args):
            built.append([ref() is None for ref in arrays])
            return kernel(*args)

        monkeypatch.setattr(classifiers, "_presort", watched_presort)
        monkeypatch.setattr(classifiers, "NbFoldKernel", watched_kernel)
        cross_val_accuracies(matrix, masks, ("nb", "dt"), 5, 0)
        assert built == [[True] * 8]


class TestStratifiedFolds:
    def test_balanced_deal(self):
        labels = [0] * 5 + [1] * 5
        fold_of = stratified_folds(labels, 5, seed=3)
        for fold in range(5):
            rows = np.flatnonzero(fold_of == fold)
            assert sorted(np.asarray(labels)[rows]) == [0, 1]

    def test_k2(self):
        fold_of = stratified_folds([0, 0, 1, 1], 2, seed=0)
        for fold in range(2):
            rows = fold_of == fold
            assert rows.sum() == 2

    def test_small_class_errors(self):
        with pytest.raises(ClassifierError, match="fewer than k"):
            stratified_folds([0] * 5 + [1], 5, seed=0)

    def test_partition_and_balance(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=47)
        labels = np.concatenate([labels, [0, 1, 2] * 5])  # every class >= k
        fold_of = stratified_folds(labels, 5, seed=9)
        assert len(fold_of) == len(labels)
        assert set(fold_of) <= set(range(5))
        for c in range(3):
            counts = np.bincount(fold_of[labels == c], minlength=5)
            assert counts.max() - counts.min() <= 1


class TestCrossVal:
    @pytest.mark.parametrize("kinds", [("nb",), ("dt",), ("nb", "dt")])
    def test_a_step_of_no_masks_is_empty(self, kinds):
        x = np.eye(4)
        assert cross_val_accuracies(dtm(x, np.arange(4) % 2), [], kinds, 2, 0) == []

    def test_separable_is_perfect(self):
        n = 20
        x = np.zeros((n, 2))
        y = np.arange(n) % 2
        x[y == 0, 0] = 1.0
        x[y == 1, 1] = 1.0
        rep = cross_val_accuracy(dtm(x, y), [True, True], "nb", 5, seed=0)
        assert rep.mean_accuracy == 1.0

    def test_noise_near_chance(self):
        rng = np.random.default_rng(7)
        x = rng.random((200, 5))
        y = np.arange(200) % 2
        rep = cross_val_accuracy(dtm(x, y), [True] * 5, "nb", 5, seed=0)
        assert abs(rep.mean_accuracy - 0.5) < 0.15

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.random((30, 4))
        y = np.arange(30) % 3
        m = dtm(x, y)
        r1 = cross_val_accuracy(m, [True] * 4, "nb", 5, seed=11)
        r2 = cross_val_accuracy(m, [True] * 4, "nb", 5, seed=11)
        assert r1 == r2

    def test_mean_matches_folds(self):
        rng = np.random.default_rng(3)
        x = rng.random((30, 4))
        y = np.arange(30) % 2
        rep = cross_val_accuracy(dtm(x, y), [True] * 4, "dt", 5, seed=0)
        assert rep.mean_accuracy == pytest.approx(
            sum(rep.fold_accuracies) / 5, abs=1e-12
        )
        assert 0.0 <= rep.mean_accuracy <= 1.0


@st.composite
def presort_problems(draw):
    """A CSR of quarter-step values (exact sums) with negatives, tied values,
    an all-zero column, a column with no zeros, duplicate stored entries
    (a value split into two halves, and +-0.5 pairs at zeros, which sum to
    0.0), and an ascending row subset."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round((rng.random((n, m)) - 0.5) * 8) / 4
    x *= rng.random((n, m)) < draw(st.sampled_from([0.2, 0.6, 1.0]))
    x[:, 0] = 0.0
    x[:, 1] = rng.choice([-1.0, 0.5, 2.0], n)
    data, indices, indptr = [], [], [0]
    for i in range(n):
        for j in range(m):
            if x[i, j] != 0 and rng.random() < 0.3:
                data += [x[i, j] / 2, x[i, j] / 2]
                indices += [j, j]
            elif x[i, j] == 0 and rng.random() < 0.1:
                data += [0.5, -0.5]
                indices += [j, j]
            elif x[i, j] != 0:
                data.append(x[i, j])
                indices.append(j)
        indptr.append(len(data))
    csr = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32), np.array(indptr)),
                        shape=(n, m))
    rows = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.3, 0.8, 1.0])))
    return csr, x, rows if len(rows) else np.array([0])


class TestFoldRoot:
    """A fold's root filtered from one presort of all rows."""

    @settings(max_examples=150, deadline=None)
    @given(presort_problems())
    def test_equals_presort_of_the_rows(self, problem):
        """The root dt_train filters from the presort of all rows is the
        sub-matrix's own sort, array for array, once its rows are numbered
        by their place in the subset: a monotone relabelling, under which the
        marker row stays last."""
        csr, _, rows = problem
        n = csr.shape[0]
        inside = np.zeros(n + 1, dtype=bool)
        inside[rows] = True
        got, want = _take(_presort(csr), inside, n), _presort(csr[rows])
        place = np.full(n + 1, len(rows))
        place[rows] = np.arange(len(rows))
        got = got._replace(rows=place[got.rows], row=place[got.row].astype(got.row.dtype))
        for name, a, b in zip(want._fields, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @staticmethod
    def _problem(problem, seed):
        csr, x, rows = problem
        labels = np.random.default_rng(seed).integers(0, 3, x.shape[0])
        mask = np.random.default_rng(seed).random(x.shape[1]) < 0.7
        mask[1] = True
        return DocTermMatrix(weights=csr, labels=labels), mask, rows

    @settings(max_examples=50, deadline=None)
    @given(presort_problems(), st.integers(0, 2**32 - 1))
    def test_dt_train_from_shared_presort(self, problem, seed):
        """The tree grown from the presort of all rows equals the tree grown
        on the fold's own sub-matrix."""
        matrix, mask, rows = self._problem(problem, seed)
        cols = np.flatnonzero(mask)
        presorted = _presort(matrix.weights[:, cols])
        shared = dt_train(matrix, mask, rows, presorted=presorted)
        own = _grow([_presort(matrix.weights[rows][:, cols])], matrix.labels[rows],
                    matrix.n_classes, 0, 20, 2)
        assert shared.root == own

    @settings(max_examples=50, deadline=None)
    @given(presort_problems(), st.integers(0, 2**32 - 1))
    def test_row_subset_in_any_order(self, problem, seed):
        matrix, mask, rows = self._problem(problem, seed)
        permuted = np.random.default_rng(seed).permutation(rows)
        assert dt_train(matrix, mask, permuted).root == dt_train(matrix, mask, rows).root


class TestForkedFolds:
    """DT cross-validation's fold trees run from a two-process work queue: this
    process starts on fold 0, a forked child on fold 1, and then each takes the
    next fold neither has taken."""

    @pytest.fixture
    def planted(self):
        matrix, _ = make_planted_matrix(60, 3, 40, 5, seed=1)
        return matrix, np.ones(matrix.n_features, dtype=bool)

    @staticmethod
    def _by_fold(monkeypatch, matrix, act):
        """Patches dt_train to call act(fold) before training each fold."""
        fold_of = stratified_folds(matrix.labels, 5, 0)
        train = classifiers.dt_train

        def patched(matrix, mask, rows, **kwargs):
            act(int(np.setdiff1d(fold_of, fold_of[rows])[0]))
            return train(matrix, mask, rows, **kwargs)

        monkeypatch.setattr(classifiers, "dt_train", patched)

    @staticmethod
    def _ran(path):
        """The (fold, pid) lines that both processes appended to path."""
        lines = path.read_text(encoding="utf-8").split()
        return [tuple(map(int, line.split(":"))) for line in lines]

    def _record(self, monkeypatch, matrix, path, act=lambda fold: None):
        def record(fold):
            with path.open("a", encoding="utf-8") as fh:
                fh.write(f"{fold}:{os.getpid()}\n")
            act(fold)

        self._by_fold(monkeypatch, matrix, record)

    def test_every_fold_runs_once_in_fold_order(self, planted, monkeypatch, tmp_path):
        matrix, mask = planted
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        serial = cross_val_accuracy(matrix, mask, "dt", 5, 0)
        monkeypatch.undo()
        ran = tmp_path / "ran"
        self._record(monkeypatch, matrix, ran)
        assert cross_val_accuracy(matrix, mask, "dt", 5, 0) == serial
        ran = self._ran(ran)
        assert sorted(fold for fold, _ in ran) == [0, 1, 2, 3, 4]
        pids = dict(ran)
        assert pids[0] == os.getpid() != pids[1]  # the child starts on fold 1
        assert set(pids.values()) <= {pids[0], pids[1]}
        assert multiprocessing.active_children() == []

    def test_slow_child_leaves_the_rest_here(self, planted, monkeypatch, tmp_path):
        matrix, mask = planted
        parent, ran = os.getpid(), tmp_path / "ran"
        self._record(monkeypatch, matrix, ran,
                     lambda fold: os.getpid() != parent and time.sleep(1))
        cross_val_accuracy(matrix, mask, "dt", 5, 0)
        pids = dict(self._ran(ran))
        assert [fold for fold in range(5) if pids[fold] == parent] == [0, 2, 3, 4]
        assert multiprocessing.active_children() == []

    def test_child_fold_error_comes_back(self, planted, monkeypatch, tmp_path):
        matrix, mask = planted
        pids = tmp_path / "pids"

        def act(fold):
            if fold == 1:  # the child's first fold
                pids.write_text(str(os.getpid()), encoding="utf-8")
                raise ValueError("fold 1 failed")

        self._by_fold(monkeypatch, matrix, act)
        with pytest.raises(ValueError) as info:
            cross_val_accuracy(matrix, mask, "dt", 5, 0)
        assert str(info.value) == "fold 1 failed"
        assert "ValueError: fold 1 failed" in str(info.value.__cause__)  # the child's traceback
        assert int(pids.read_text(encoding="utf-8")) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_dying_child_names_its_fold(self, planted, monkeypatch):
        matrix, mask = planted
        parent = os.getpid()

        def act(fold):
            if os.getpid() != parent:
                os._exit(7)

        self._by_fold(monkeypatch, matrix, act)
        with pytest.raises(ClassifierError, match="^the mask 0 fold 1 tree process exited "
                                                  "with code 7 and sent no result$"):
            cross_val_accuracy(matrix, mask, "dt", 5, 0)
        assert multiprocessing.active_children() == []

    def test_parent_fold_error_leaves_no_child(self, planted, monkeypatch):
        matrix, mask = planted
        parent = os.getpid()

        def act(fold):
            if os.getpid() == parent:
                raise ClassifierError(f"fold {fold} failed")
            time.sleep(60)

        self._by_fold(monkeypatch, matrix, act)
        started = time.monotonic()
        with pytest.raises(ClassifierError, match="^fold 0 failed$"):
            cross_val_accuracy(matrix, mask, "dt", 5, 0)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30  # the sleeping child was terminated

    def test_step_seconds_are_each_masks_own(self, planted, monkeypatch):
        matrix, mask = planted
        narrow = np.arange(matrix.n_features) < 5
        train = classifiers.dt_train

        def slow_on_the_wide_mask(matrix, mask, rows, **kwargs):
            if np.count_nonzero(mask) > 5:
                time.sleep(0.1)
            return train(matrix, mask, rows, **kwargs)

        monkeypatch.setattr(classifiers, "dt_train", slow_on_the_wide_mask)
        (_, wide_s), (_, narrow_s) = cross_val_accuracies(matrix, [mask, narrow], ("dt",), 5, 0)
        assert wide_s >= 0.5 > narrow_s  # five 0.1 s trees, in whichever process

    def test_without_fork_folds_run_here_alike(self, planted, monkeypatch):
        matrix, mask = planted
        forked = cross_val_accuracy(matrix, mask, "dt", 5, 0)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        ran = []
        self._by_fold(monkeypatch, matrix, lambda fold: ran.append((fold, os.getpid())))
        assert cross_val_accuracy(matrix, mask, "dt", 5, 0) == forked
        assert ran == [(fold, os.getpid()) for fold in range(5)]

    @pytest.mark.parametrize("classifier", ["nb", "dt"])
    def test_empty_mask_fails_before_fork(self, planted, monkeypatch, classifier):
        matrix, mask = planted
        forks = []
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: forks.append("asked") or ["fork"])
        with pytest.raises(ClassifierError, match="^empty feature mask$"):
            cross_val_accuracy(matrix, np.zeros_like(mask), classifier, 5, 0)
        assert forks == []

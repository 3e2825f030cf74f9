import dataclasses
import warnings
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from mbofs import heuristic
from mbofs.classifiers import (
    ALPHA,
    ClassifierError,
    NbFoldKernel,
    _check_nb_weights,
    _nb_scores,
    cross_val_accuracy,
    nb_predict,
    nb_train,
    stratified_folds,
)
from mbofs.corpus import DocTermMatrix
from mbofs.heuristic import (
    ChangeSchedule,
    FeatureMask,
    FitnessFn,
    HeuristicError,
    RngStream,
    change_count,
    flip,
    generate_neighbor,
    last_gain,
)
from mbofs.mbo import TourRecord
from mbofs.synth import make_planted_matrix

TABLE_MASK = "1100100110"  # the worked 10-feature example
TABLE_NEIGHBOR = "0100100111"  # same solution with f0 dropped and f9 added


class TestFeatureMask:
    def test_bitstring_roundtrip(self):
        m = FeatureMask.from_bitstring(TABLE_MASK)
        assert m.to_bitstring() == TABLE_MASK
        assert m.universe == 10
        assert m.popcount == 5

    @given(st.lists(st.booleans(), max_size=64))
    def test_bitstring_roundtrip_any(self, bits):
        m = FeatureMask.from_array(bits)
        assert m.popcount == sum(bits)
        assert FeatureMask.from_bitstring(m.to_bitstring()) == m

    @pytest.mark.parametrize("s", ["0120", "1 0", "10\n", "x", "\x00\x01", "1\u0661", "0\ud800"])
    def test_bitstring_rejects_other_characters(self, s):
        with pytest.raises(HeuristicError, match="other than 0 and 1"):
            FeatureMask.from_bitstring(s)

    def test_array_roundtrip(self):
        arr = np.array([True, False, True])
        m = FeatureMask.from_array(arr)
        np.testing.assert_array_equal(m.to_array(), arr)


class TestFlip:
    def test_table_example(self):
        m = FeatureMask.from_bitstring(TABLE_MASK)
        assert flip(flip(m, 0), 9).to_bitstring() == TABLE_NEIGHBOR

    def test_single_bit_from_zeros(self):
        m = flip(FeatureMask.zeros(8), 3)
        assert m.popcount == 1
        assert m.to_array()[3]

    def test_out_of_range(self):
        with pytest.raises(HeuristicError):
            flip(FeatureMask.zeros(4), 4)

    @given(st.integers(1, 64).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m - 1),
                            st.lists(st.booleans(), min_size=m, max_size=m))))
    def test_involution(self, args):
        m, pos, bits = args
        mask = FeatureMask.from_array(bits)
        assert flip(flip(mask, pos), pos) == mask


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(42).child("x", 1).generator().random(5)
        b = RngStream(42).child("x", 1).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(42).child("x", 1).generator().random(5)
        b = RngStream(42).child("x", 2).generator().random(5)
        assert not np.array_equal(a, b)

    def test_path_seeds_one_seed_sequence(self):
        # PSO's draw site for particle 7 of iteration 3 under search seed 42:
        # the entropy is the seed, then crc32(tag) and index for each step
        crcs = {b"swarm": 3920056993, b"iter": 2450729195, b"particle": 1445240801}
        assert {tag: zlib.crc32(tag) for tag in crcs} == crcs
        stream = RngStream(42).child("swarm").child("iter", 3).child("particle", 7)
        want = np.random.default_rng(np.random.SeedSequence(
            [42, 3920056993, 0, 2450729195, 3, 1445240801, 7]))
        np.testing.assert_array_equal(stream.generator().random((3, 50)), want.random((3, 50)))
        want = np.random.default_rng(np.random.SeedSequence([9]))
        np.testing.assert_array_equal(RngStream(9).generator().integers(0, 1000, 20),
                                      want.integers(0, 1000, 20))
        # ints of 2^32 and up: numpy splits each into its 32-bit words
        stream = RngStream(2**32 + 5).child("iter", 2**33 + 1).child("particle", 2**64 + 3)
        want = np.random.default_rng(np.random.SeedSequence(
            [2**32 + 5, 2450729195, 2**33 + 1, 1445240801, 2**64 + 3]))
        np.testing.assert_array_equal(stream.generator().random(50), want.random(50))

    def test_child_is_a_frozen_value(self):
        child = RngStream(5).child("tour", 2).child("step")
        same = RngStream(5, (("tour", 2), ("step", 0)))
        assert child == same and hash(child) == hash(same)
        assert child != RngStream(5).child("tour", 2).child("step", 1)
        assert child != RngStream(6).child("tour", 2).child("step")
        assert len({child, same, RngStream(5)}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            child.path = ()


class TestGenerateNeighbor:
    def test_table_example_is_reachable(self):
        # some seed draws exactly positions {0, 9}
        m = FeatureMask.from_bitstring(TABLE_MASK)
        for seed in range(500):
            n = generate_neighbor(m, 2, RngStream(seed))
            if n.to_bitstring() == TABLE_NEIGHBOR:
                return
        pytest.fail("positions {0,9} never drawn in 500 seeds")

    def test_all_ones_full_change_errors(self):
        with pytest.raises(HeuristicError, match="degenerate"):
            generate_neighbor(FeatureMask.ones(6), 6, RngStream(0))

    def test_change_out_of_range(self):
        with pytest.raises(HeuristicError):
            generate_neighbor(FeatureMask.ones(6), 7, RngStream(0))

    def test_hamming_distance_1000_seeds(self):
        rng = np.random.default_rng(0)
        for seed in range(1000):
            m_len = int(rng.integers(4, 40))
            change = int(rng.integers(1, m_len))  # change <= M-1
            bits = rng.random(m_len) < 0.5
            mask = FeatureMask.from_array(bits)
            n = generate_neighbor(mask, change, RngStream(seed))
            hamming = int((mask.to_array() != n.to_array()).sum())
            assert hamming == change
            assert n.popcount >= 1

    def test_deterministic(self):
        m = FeatureMask.ones(30)
        a = generate_neighbor(m, 4, RngStream(7).child("t", 3))
        b = generate_neighbor(m, 4, RngStream(7).child("t", 3))
        assert a == b


class TestChangeCount:
    def test_base_value(self):
        assert change_count(0, 2000, ChangeSchedule()) == 40

    def test_floors_at_one(self):
        assert change_count(6, 2000, ChangeSchedule()) == 1
        assert change_count(50, 2000, ChangeSchedule()) == 1

    def test_m_prime_one(self):
        for counter in range(10):
            assert change_count(counter, 1, ChangeSchedule()) == 1

    def test_full_fraction_leaves_one_bit(self):
        # flipping all m' bits of an all-ones input would leave it empty
        assert change_count(0, 30, ChangeSchedule(1.0)) == 29
        assert change_count(1, 30, ChangeSchedule(1.0)) == 15

    @given(st.integers(0, 20), st.integers(1, 10000))
    def test_non_increasing_and_positive(self, counter, m_prime):
        sched = ChangeSchedule()
        c0 = change_count(counter, m_prime, sched)
        c1 = change_count(counter + 1, m_prime, sched)
        assert c0 >= c1 >= 1


@pytest.fixture(scope="module")
def matrix():
    m, _ = make_planted_matrix(n_docs=80, n_features=40, n_informative=8, seed=2)
    return m


class TestFitness:
    def test_separable_mask_perfect(self):
        import scipy.sparse as sp
        from mbofs.corpus import DocTermMatrix
        x = np.zeros((20, 3))
        y = np.arange(20) % 2
        x[y == 0, 0] = 1.0
        x[y == 1, 1] = 1.0
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=y)
        fit = FitnessFn(m, seed=0)
        assert fit(FeatureMask.from_bitstring("110")) == 1.0

    def test_empty_mask_is_zero(self, matrix):
        fit = FitnessFn(matrix, seed=0)
        assert fit(FeatureMask.zeros(matrix.n_features)) == 0.0

    def test_bounds(self, matrix):
        fit = FitnessFn(matrix, seed=0)
        v = fit(FeatureMask.ones(matrix.n_features))
        assert 0.0 <= v <= 1.0

    def test_memo_transparent(self, matrix):
        rng = np.random.default_rng(4)
        masks = [FeatureMask.from_array(rng.random(matrix.n_features) < 0.5)
                 for _ in range(10)]
        masks.append(FeatureMask.zeros(matrix.n_features))  # scores 0.0, never evaluated
        fit = FitnessFn(matrix, seed=3)
        for m in masks + masks:  # revisit to hit the cache
            want = _oracle(matrix, m.to_array(), 5, 3) if m.popcount else 0.0
            assert fit(m) == want
        assert fit.evaluations == len({m.bits for m in masks if m.popcount})

    def test_fixed_seed_repeatable(self, matrix):
        mask = FeatureMask.ones(matrix.n_features)
        assert FitnessFn(matrix, seed=5)(mask) == FitnessFn(matrix, seed=5)(mask)


@st.composite
def nb_problems(draw, signed=False):
    """Small matrix with zero rows and columns, 2-6 classes each holding at
    least k rows (so the kernel's k*C table reaches 30 columns), a fold count
    k, a fold seed and a non-empty mask. Its weights are non-negative unless
    `signed`, which negates about a third of them."""
    k = draw(st.sampled_from([2, 3, 5]))
    sizes = draw(st.lists(st.integers(k, k + 6), min_size=2, max_size=6))
    n_features = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(labels)
    n = len(labels)
    # a few repeated values make equal class masses, and so score ties, likely
    values = rng.choice([0.25, 0.5, 1.0, 2.0], size=(n, n_features))
    values = np.where(rng.random((n, n_features)) < 0.5, values, rng.random((n, n_features)))
    dense = values * (rng.random((n, n_features)) < draw(st.sampled_from([0.1, 0.4, 0.9])))
    dense[rng.random(n) < 0.15] = 0.0
    dense[:, rng.random(n_features) < 0.15] = 0.0
    if draw(st.booleans()):  # duplicate rows across classes
        for i in range(0, n - 1, 2):
            dense[i + 1] = dense[i]
    mask = rng.random(n_features) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    mask[rng.integers(n_features)] = True
    if signed:
        dense[rng.random((n, n_features)) < 0.35] *= -1.0
    matrix = DocTermMatrix(weights=sp.csr_matrix(dense), labels=labels)
    return matrix, k, draw(st.integers(0, 1000)), mask


def _kernel(matrix, k, seed) -> NbFoldKernel:
    """The kernel on the stratified folds, as FitnessFn builds it."""
    return NbFoldKernel(matrix, stratified_folds(matrix.labels, k, seed))


def _oracle_folds(matrix, mask, fold_of) -> list[float]:
    """Each fold's reference NB accuracy: nb_train's model of the rows outside
    the fold, nb_predict on the fold's rows."""
    accs = []
    for fold in range(int(fold_of.max()) + 1):
        model = nb_train(matrix, mask, np.flatnonzero(fold_of != fold))
        test = np.flatnonzero(fold_of == fold)
        accs.append(float(np.mean(nb_predict(model, matrix.weights[test]) == matrix.labels[test])))
    return accs


def _oracle(matrix, mask, k, seed) -> float:
    """The reference NB accuracy of a mask, the mean of its stratified folds'
    accuracies, which FitnessFn and cross_val_accuracy must give."""
    return float(np.mean(_oracle_folds(matrix, mask, stratified_folds(matrix.labels, k, seed))))


def _oracle_scores(matrix, mask, k, seed) -> np.ndarray:
    """(N, C) scores of every row under its own fold's nb_train model, as
    nb_predict computes them before its argmax."""
    fold_of = stratified_folds(matrix.labels, k, seed)
    scores = np.empty((matrix.n_docs, matrix.n_classes))
    for fold in range(k):
        model = nb_train(matrix, mask, np.flatnonzero(fold_of != fold))
        scores[fold_of == fold] = _nb_scores(model, matrix.weights[fold_of == fold]).T
    return scores


class TestNbKernelOracle:
    """FitnessFn and NbFoldKernel's tables against the reference NB, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(nb_problems())
    def test_matches_cross_val_accuracy(self, problem):
        matrix, k, seed, mask = problem
        got = FitnessFn(matrix, k=k, seed=seed)(FeatureMask.from_array(mask))
        assert got == _oracle(matrix, mask, k, seed)
        report = cross_val_accuracy(matrix, mask, "nb", k, seed)
        folds = _oracle_folds(matrix, mask, stratified_folds(matrix.labels, k, seed))
        assert report.fold_accuracies == tuple(folds)
        assert report.mean_accuracy == got

    @settings(max_examples=200, deadline=None)
    @given(nb_problems(), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_any_fold_assignment_matches_the_oracle(self, problem, k, seed):
        # folds drawn at random, not dealt class by class: sizes and class
        # counts differ from fold to fold, and a fold's training rows may
        # miss a class
        matrix, _, _, mask = problem
        k = min(k, matrix.n_docs)
        rng = np.random.default_rng(seed)
        fold_of = rng.integers(0, k, matrix.n_docs)
        fold_of[rng.permutation(matrix.n_docs)[:k]] = np.arange(k)  # no fold is empty
        kernel = NbFoldKernel(matrix, fold_of)
        want = _oracle_folds(matrix, mask, fold_of)
        assert kernel.fold_accuracies(mask[None]).tolist() == [want]
        assert kernel.accuracy_batch(mask[None]) == [float(np.mean(want))]

    @settings(max_examples=300, deadline=None)
    @given(nb_problems())
    def test_fold_blocks_are_the_reference_models(self, problem):
        # the first premise of accuracy_batch's exactness: on the mask's
        # columns, each fold's block of the kernel's tables is nb_train's
        # model of that fold, bit for bit
        matrix, k, seed, mask = problem
        kernel = _kernel(matrix, k, seed)
        cols = np.flatnonzero(mask)
        for fold, mass_t in enumerate(kernel.mass_t):
            model = nb_train(matrix, mask, np.flatnonzero(kernel.fold_of != fold))
            log_mass = np.log(mass_t[:, cols].toarray() + ALPHA)
            np.testing.assert_array_equal(model.log_mass, log_mass)
            log_total = np.log(mass_t @ mask.astype(float) + ALPHA * len(cols))
            np.testing.assert_array_equal(model.log_total, log_total)
            priors = kernel.row_priors[kernel.fold_of == fold]
            np.testing.assert_array_equal(np.broadcast_to(model.log_priors, priors.shape), priors)

    @staticmethod
    def _reference_tables(matrix, fold_of):
        """(products, mass_t, row_priors) built the plain way: the mass as
        onehot.T @ weights, a log-mass table, and one CSR per class stacked."""
        n, n_classes, w = matrix.n_docs, matrix.n_classes, matrix.weights
        k = int(fold_of.max()) + 1
        onehot = np.zeros((n, k, n_classes))
        onehot[np.arange(n), :, matrix.labels] = 1.0
        onehot[np.arange(n), fold_of, :] = 0.0
        onehot = onehot.reshape(n, k * n_classes)
        mass = np.ascontiguousarray(np.asarray(onehot.T @ w).T)
        log_mass = np.log(mass + ALPHA).reshape(-1, k, n_classes)
        gathered = log_mass[w.indices, np.repeat(fold_of, np.diff(w.indptr))]
        products = sp.vstack([sp.csr_matrix((w.data * gathered[:, c], w.indices, w.indptr),
                                            shape=w.shape) for c in range(n_classes)],
                             format="csr")
        counts = onehot.sum(axis=0).reshape(k, n_classes)
        with np.errstate(divide="ignore"):
            priors = np.log(counts / counts.sum(axis=1, keepdims=True))[fold_of]
        return products, sp.csr_matrix(mass.T), priors

    def _assert_lean_build_is_the_reference(self, matrix, fold_of):
        kernel = NbFoldKernel(matrix, fold_of)
        products, mass_t, priors = self._reference_tables(matrix, fold_of)
        w = matrix.weights
        for p in kernel.products:  # the matrix's own index arrays, not copies
            assert np.shares_memory(p.indptr, w.indptr)
            assert np.shares_memory(p.indices, w.indices) or w.nnz == 0
        stacked = [sp.vstack(tables, format="csr") for tables in (kernel.products, kernel.mass_t)]
        for lean, plain in zip(stacked, (products, mass_t)):
            assert lean.shape == plain.shape
            for name in ("data", "indices", "indptr"):
                a, b = getattr(lean, name), getattr(plain, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        np.testing.assert_array_equal(kernel.row_priors, priors)
        assert not hasattr(kernel, "log_mass")

    @settings(max_examples=200, deadline=None)
    @given(nb_problems())
    def test_lean_build_equals_the_reference_build(self, problem):
        matrix, k, seed, _ = problem
        self._assert_lean_build_is_the_reference(
            matrix, stratified_folds(matrix.labels, k, seed))

    def test_lean_build_equals_the_reference_build_on_the_planted_matrix(self):
        matrix, _ = make_planted_matrix(500, 4, 2000, 50, seed=0)
        self._assert_lean_build_is_the_reference(matrix, stratified_folds(matrix.labels, 5, 0))

    @settings(max_examples=100, deadline=None)
    @given(nb_problems(signed=True))
    def test_signed_weights_are_refused(self, problem):
        matrix, k, seed, mask = problem
        assume(matrix.weights.data.min(initial=0.0) < 0.0)
        for refused in (lambda: nb_train(matrix, mask, np.arange(matrix.n_docs)),
                        lambda: _kernel(matrix, k, seed),
                        lambda: FitnessFn(matrix, k=k, seed=seed),
                        lambda: _oracle(matrix, mask, k, seed)):
            with pytest.raises(ClassifierError, match="non-negative finite weights"):
                refused()

    def test_duplicated_rows_of_different_classes_tie(self):
        # every row is the same document, in two equal classes: every score ties
        x = np.tile([[0.5, 0.0, 2.0, 1.0]], (12, 1))
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=np.arange(12) % 2)
        mask = np.array([True, True, False, True])
        got = FitnessFn(m, k=3, seed=1)(FeatureMask.from_array(mask))
        assert got == _oracle(m, mask, 3, 1)
        assert got == 0.5  # ties go to class 0


class TestWeightDomain:
    """NB's input domain: non-negative finite weights, -0.0 and subnormals included."""

    @pytest.mark.parametrize("bad", [-1.0, -5e-324, np.nan, np.inf, -np.inf])
    def test_negative_and_non_finite_weights_are_refused(self, bad):
        x = np.tile([[1.0, 0.5], [0.25, 2.0]], (5, 1))
        x[3, 1] = bad
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=np.arange(10) % 2)
        message = f"naive Bayes needs non-negative finite weights, and the matrix stores {bad}"
        for refused in (lambda: nb_train(m, [True, True], np.arange(10)),
                        lambda: _kernel(m, 2, 0),
                        lambda: FitnessFn(m, k=2, seed=0)):
            with pytest.raises(ClassifierError) as err:
                refused()
            assert str(err.value) == message
        # the tree still takes signed weights
        if np.isfinite(bad):
            assert 0.0 <= cross_val_accuracy(m, [True, True], "dt", 2, 0).mean_accuracy <= 1.0

    def test_negative_zero_and_subnormal_weights_are_accepted(self):
        x = np.tile([[1.0, 0.5, 0.0], [0.25, 2.0, 0.0]], (5, 1))
        w = sp.csr_matrix(x)
        w.data[[0, 3]] = [-0.0, 5e-324]
        m = DocTermMatrix(weights=w, labels=np.arange(10) % 2)
        assert np.signbit(w.data[0]) and w.data[3] == 5e-324
        for mask in ([True, False, False], [True, True, True], [False, True, True]):
            assert FitnessFn(m, k=2, seed=0)(FeatureMask.from_array(mask)) == _oracle(m, mask, 2, 0)

    @settings(max_examples=300, deadline=None)
    @given(nb_problems(), st.sampled_from(["one", "some", "all"]),
           st.sampled_from([200, 300, 305, 306, 307, 308]), st.floats(1.0, 1.79),
           st.integers(0, 2**32 - 1))
    def test_huge_weights_are_refused_or_scored_exactly(self, problem, which, exponent,
                                                        mantissa, seed):
        """With one, some or all of its weights set to a huge value, a matrix
        is either refused by NB's check, and then by nb_train, the kernel and
        FitnessFn alike, or scored with no RuntimeWarning and equal to the
        nb_train/nb_predict oracle."""
        matrix, k, fold_seed, mask = problem
        data = matrix.weights.data
        rng = np.random.default_rng(seed)
        huge = {"one": rng.integers(len(data), size=min(len(data), 1)),
                "some": rng.random(len(data)) < 0.3, "all": slice(None)}[which]
        data[huge] = mantissa * 10.0 ** exponent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                _check_nb_weights(matrix.weights)
            except ClassifierError as err:
                assert str(err).startswith("naive Bayes weights too large")
                for refused in (lambda: nb_train(matrix, mask, np.arange(matrix.n_docs)),
                                lambda: _kernel(matrix, k, fold_seed),
                                lambda: FitnessFn(matrix, k=k, seed=fold_seed)):
                    with pytest.raises(ClassifierError, match="naive Bayes weights too large"):
                        refused()
                return
            got = FitnessFn(matrix, k=k, seed=fold_seed)(FeatureMask.from_array(mask))
            assert got == _oracle(matrix, mask, k, fold_seed)

    def test_overflowing_tables_are_refused(self):
        # a class mass that overflows, and a weight times its log that does
        for w in (1.5e308, 1e307):
            m = DocTermMatrix(weights=sp.csr_matrix(np.full((8, 1), w)), labels=np.arange(8) % 2)
            with pytest.raises(ClassifierError, match="naive Bayes weights too large"):
                FitnessFn(m, k=2, seed=0)


def _flipped(mask: FeatureMask, rng, most: int) -> FeatureMask:
    """The mask with 1 to `most` distinct bits flipped; it may be empty."""
    bits = mask.to_array()
    n = int(rng.integers(1, min(most, len(bits)) + 1))
    bits[rng.choice(len(bits), size=n, replace=False)] ^= True
    return FeatureMask.from_array(bits)


class TestFitnessBatch:
    """FitnessFn.batch against the reference NB accuracy and against calls."""

    @settings(max_examples=300, deadline=None)
    @given(nb_problems(), st.integers(0, 2**32 - 1))
    def test_matches_kernel_along_flip_chains(self, problem, seed):
        # eight batches, each of random masks at densities from 2% to 100%,
        # children of the last batch's masks, and masks repeated in the batch
        # and from the batch before: every non-empty mask's accuracy_batch
        # value is the reference's
        matrix, k, fold_seed, mask = problem
        rng = np.random.default_rng(seed)
        kernel = _kernel(matrix, k, fold_seed)
        fit = FitnessFn(matrix, k=k, seed=fold_seed)
        calls = FitnessFn(matrix, k=k, seed=fold_seed)
        oracle = {}  # mask bits -> the reference's value, computed once per distinct mask

        def want(m: FeatureMask) -> float:
            if m.bits not in oracle:
                oracle[m.bits] = _oracle(matrix, m.to_array(), k, fold_seed) if m.popcount else 0.0
            return oracle[m.bits]

        parents = [FeatureMask.from_array(mask)]
        for _ in range(8):
            masks = [FeatureMask.from_array(rng.random(matrix.n_features) < density)
                     for density in rng.choice([0.02, 0.1, 0.3, 0.6, 1.0], size=4)]
            masks += [_flipped(p, rng, 3) for p in parents for _ in range(2)]
            masks += [masks[0], masks[-1], parents[0]]
            scored = [m for m in masks if m.popcount]
            if scored:
                values = kernel.accuracy_batch(np.array([m.to_array() for m in scored]))
                assert values == [want(m) for m in scored]
            for m, got in zip(masks, fit.batch(masks)):
                assert got == want(m) == calls(m)
            assert fit.evaluations == calls.evaluations
            pool = scored or parents
            parents = [pool[i] for i in rng.choice(len(pool), size=min(3, len(pool)),
                                                   replace=False)]

    def test_same_as_sequential_calls(self, matrix):
        rng = np.random.default_rng(7)
        base = FeatureMask.from_array(rng.random(matrix.n_features) < 0.6)
        seen = _flipped(base, rng, 4)
        children = [_flipped(base, rng, 4) for _ in range(5)]
        fresh = _flipped(base, rng, 4)
        empty = FeatureMask.zeros(matrix.n_features)
        masks = children + [children[1], seen, empty, children[0], fresh]
        batched, calls = FitnessFn(matrix, seed=2), FitnessFn(matrix, seed=2)
        assert batched(seen) == calls(seen)  # a memo hit inside the batch
        assert batched.batch(masks) == [calls(m) for m in masks]
        assert batched.batch([empty]) == [0.0]
        assert batched.batch([]) == []
        scored = {m.bits for m in children + [fresh]}
        assert batched.evaluations == calls.evaluations == 1 + len(scored)
        assert batched._memo == calls._memo

    def test_exact_ties_give_class_0_as_in_the_oracle(self):
        # the tied matrix of TestNbKernelOracle: every score ties, so every
        # row takes class 0 in the batch as in the reference
        x = np.tile([[0.5, 0.0, 2.0, 1.0]], (12, 1))
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=np.arange(12) % 2)
        kernel = _kernel(m, 3, 1)
        child = np.array([True, True, False, True])
        assert kernel.accuracy_batch(child[None]) == [0.5]
        assert kernel.accuracy_batch(np.ones((2, 4), dtype=bool)) == [0.5, 0.5]
        fit = FitnessFn(m, k=3, seed=1)
        assert fit.batch([FeatureMask.from_array(child)]) == [0.5] == [_oracle(m, child, 3, 1)]

    def test_empty_masks_are_refused_by_the_batch(self, matrix):
        kernel = _kernel(matrix, 5, 0)
        masks = np.ones((3, matrix.n_features), dtype=bool)
        masks[1] = False
        with pytest.raises(ClassifierError, match="empty feature mask"):
            kernel.accuracy_batch(masks)
        assert kernel.accuracy_batch(np.zeros((0, matrix.n_features), dtype=bool)) == []


class TestAccuracyBatch:
    """NbFoldKernel.accuracy_batch against the reference where the scores tie
    or the sums meet exact zeros."""

    def test_rows_without_selected_nonzeros_equal_the_oracle(self, monkeypatch):
        # balanced classes, so every fold's class priors tie: a row that has
        # lost every selected nonzero ties in all of its scores
        m, _ = make_planted_matrix(n_docs=120, n_features=80, n_informative=10, seed=4)
        kernel = _kernel(m, 5, 0)
        assert np.all(kernel.row_priors == kernel.row_priors[0, 0])
        rng = np.random.default_rng(0)
        chain = [np.ones(80, dtype=bool)]
        for _ in range(40):  # three-bit flips, one after another
            child = chain[-1].copy()
            child[rng.choice(80, size=3, replace=False)] ^= True
            chain.append(child)
        chain = np.array(chain[1:])
        lost = (m.weights != 0).astype(float) @ chain.T.astype(float) == 0  # (rows, masks)
        assert lost.any(axis=0).sum() >= 20
        values = kernel.accuracy_batch(chain)
        assert values == [_oracle(m, c, 5, 0) for c in chain]
        fit = FitnessFn(m, k=5, seed=0)
        monkeypatch.setattr(heuristic, "cross_val_accuracy",
                            lambda *args: pytest.fail("cross_val_accuracy called"))
        assert fit.batch([FeatureMask.from_array(c) for c in chain]) == values

    def test_rows_without_selected_nonzeros_need_finite_scores(self):
        # Class 1's mass in column 1 would be -6, so its log(mass + ALPHA)
        # would be NaN, and so would each class-1 entry of column 1 in the
        # product table; an unselected column's entry times 0.0 is still NaN.
        # The rows without a selected nonzero would then not score their
        # priors, so the kernel refuses the matrix, as nb_train does.
        labels = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
        x = np.zeros((10, 2))
        x[labels == 1, 1] = -2.0
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=labels)
        mask = np.array([True, False])
        for refused in (lambda: _kernel(m, 2, 0), lambda: FitnessFn(m, k=2, seed=0),
                        lambda: _oracle(m, mask, 2, 0)):
            with pytest.raises(ClassifierError, match="stores -2.0"):
                refused()

    def test_huge_uniform_weights_equal_the_oracle(self):
        # One column of weight w in every row, 6 rows of class 0 and 4 of
        # class 1, two folds: the reference scores every row by its fold's
        # priors, log 0.6 and log 0.4, and the sums grow with w. Over this
        # sweep the batch once left masks uncertified; now every value
        # equals the reference's 0.6.
        labels = np.array([0] * 6 + [1] * 4)
        for w in 2.0 ** np.arange(36.0, 44.0, 1 / 16):
            m = DocTermMatrix(weights=sp.csr_matrix(np.full((10, 1), w)), labels=labels)
            kernel = _kernel(m, 2, 0)
            assert kernel.accuracy_batch(np.ones((1, 1), dtype=bool)) == [0.6], w
            assert _oracle(m, [True], 2, 0) == 0.6, w

    @pytest.mark.parametrize("k", range(2, 13))
    def test_accuracies_equal_the_one_mask_expression(self, k):
        # The folds' sizes differ, so the shares are fractions that round, and
        # from k = 8 up numpy's 1-D mean adds them pairwise: each mask's mean
        # in a batch must be reduced in that order too.
        m, _ = make_planted_matrix(n_docs=157, n_classes=3, n_features=30, n_informative=5,
                                   seed=1)
        kernel = _kernel(m, k, k)
        rng = np.random.default_rng(k)

        def one_mask(predicted):
            hits = predicted == m.labels
            return np.mean(np.bincount(kernel.fold_of, weights=hits) / kernel.n_test)

        in_turn_differs = False
        for batch in (1, 2, 16, 41):
            predicted = rng.integers(0, 3, size=(m.n_docs, batch))
            want = [one_mask(column) for column in predicted.T]
            assert np.mean(kernel._shares(predicted), axis=1).tolist() == want
            # the folds' shares added one after another, which differs from k = 8 up
            shares = [np.bincount(kernel.fold_of, weights=column == m.labels) / kernel.n_test
                      for column in predicted.T]
            in_turn = [sum(row.tolist()) / k for row in shares]
            in_turn_differs |= in_turn != want
        assert in_turn_differs == (k >= 8)
        masks = rng.random((6, 30)) < 0.5
        for mask, value in zip(masks, kernel.accuracy_batch(masks)):
            want = one_mask(np.argmax(_oracle_scores(m, mask, k, k), axis=1))
            assert _oracle(m, mask, k, k) == want
            assert value == want

    def test_rows_without_nonzeros_are_found_by_their_magnitudes(self):
        # Stored zeros and subnormals meet the sums' exact zeros. Ten rows of
        # each class and two folds, so every fold's priors tie. Column 0
        # stores 0.0 and -0.0 in rows 0-5 and 1.0 in rows 10-19, column 1
        # subnormal weights in rows 6-9, and columns 2 and 3 one weight in
        # each of rows 6-19 by class. Every mask scores as the reference.
        labels = np.arange(20) % 2
        row_cols = ([[0]] * 6 + [[1, 2 + c] for c in labels[6:10]]
                    + [[0, 2 + c] for c in labels[10:]])
        row_data = ([[0.0], [-0.0]] * 3 + [[5e-324 * (i + 1), 2.0] for i in range(4)]
                    + [[1.0, 2.0]] * 10)
        indptr = np.cumsum([0] + [len(cols) for cols in row_cols])
        w = sp.csr_matrix((np.concatenate(row_data), np.concatenate(row_cols), indptr),
                          shape=(20, 4))
        assert w.nnz == 34 and np.signbit(w.data[1]) and w.data[6] == 5e-324
        matrix = DocTermMatrix(weights=w, labels=labels)
        kernel = _kernel(matrix, 2, 0)
        assert np.all(kernel.row_priors == kernel.row_priors[0, 0])
        masks = np.array([[bool(b >> j & 1) for j in range(4)] for b in range(1, 16)])
        assert kernel.accuracy_batch(masks) == [_oracle(matrix, mask, 2, 0) for mask in masks]
        # rows 0-5 select only stored zeros and tie in every score
        stored_zeros_only = np.isin(np.arange(4), [0, 2, 3])
        scores = _oracle_scores(matrix, stored_zeros_only, 2, 0)
        assert np.all(scores[:6] == scores[:6, :1])


def test_last_gain():
    records = [TourRecord(1, f, 0.0) for f in (0.5, 0.6, 0.6, 0.7, 0.7)]
    assert last_gain(records, 0.4) == 4
    assert last_gain(records[:3], 0.4) == 2
    assert last_gain(records[:1], 0.4) == 1
    assert last_gain(records[:1], 0.5) == 0
    assert last_gain([], 0.5) == 0

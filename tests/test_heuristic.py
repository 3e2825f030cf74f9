import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mbofs.classifiers import NbFoldKernel, cross_val_accuracy, nb_train, stratified_folds
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
            want = (cross_val_accuracy(matrix, m.to_array(), "nb", 5, 3).mean_accuracy
                    if m.popcount else 0.0)
            assert fit(m) == want
        assert fit.evaluations == len({m.bits for m in masks if m.popcount})

    def test_fixed_seed_repeatable(self, matrix):
        mask = FeatureMask.ones(matrix.n_features)
        assert FitnessFn(matrix, seed=5)(mask) == FitnessFn(matrix, seed=5)(mask)


@st.composite
def nb_problems(draw):
    """Small non-negative matrix with zero rows and columns, 2-6 classes each
    holding at least k rows (so the kernel's k*C table reaches 30 columns), a
    fold count k, a fold seed and a non-empty mask."""
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
    matrix = DocTermMatrix(weights=sp.csr_matrix(dense), labels=labels)
    return matrix, k, draw(st.integers(0, 1000)), mask


class TestNbKernelOracle:
    """FitnessFn's NB kernel against cross_val_accuracy, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(nb_problems())
    def test_matches_cross_val_accuracy(self, problem):
        matrix, k, seed, mask = problem
        got = FitnessFn(matrix, k=k, seed=seed)(FeatureMask.from_array(mask))
        assert got == cross_val_accuracy(matrix, mask, "nb", k, seed).mean_accuracy

    @settings(max_examples=300, deadline=None)
    @given(nb_problems())
    def test_scores_bit_identical(self, problem):
        # accuracies hide last-bit drift in the scores; the search needs none
        matrix, k, seed, mask = problem
        fold_of = stratified_folds(matrix.labels, k, seed)
        scores = NbFoldKernel(matrix, k, seed)._scores(mask)
        for fold in range(k):
            got = scores[fold_of == fold]
            model = nb_train(matrix, mask, np.flatnonzero(fold_of != fold))
            test = matrix.weights[np.flatnonzero(fold_of == fold)]
            want = test[:, model.feature_indices] @ model.log_likelihoods.T + model.log_priors
            np.testing.assert_array_equal(got, np.asarray(want))

    def test_duplicated_rows_of_different_classes_tie(self):
        # every row is the same document, in two equal classes: every score ties
        x = np.tile([[0.5, 0.0, 2.0, 1.0]], (12, 1))
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=np.arange(12) % 2)
        mask = np.array([True, True, False, True])
        got = FitnessFn(m, k=3, seed=1)(FeatureMask.from_array(mask))
        assert got == cross_val_accuracy(m, mask, "nb", 3, 1).mean_accuracy
        assert got == 0.5  # ties go to class 0


def _flipped(mask: FeatureMask, rng, most: int) -> FeatureMask:
    """The mask with 1 to `most` distinct bits flipped; it may be empty."""
    bits = mask.to_array()
    n = int(rng.integers(1, min(most, len(bits)) + 1))
    bits[rng.choice(len(bits), size=n, replace=False)] ^= True
    return FeatureMask.from_array(bits)


class TestFitnessBatch:
    """FitnessFn.batch against NbFoldKernel.mean_accuracy and against calls."""

    @settings(max_examples=300, deadline=None)
    @given(nb_problems(), st.integers(0, 2**32 - 1))
    def test_matches_kernel_along_flip_chains(self, problem, seed):
        # several parents a batch, children of children for eight batches, and
        # a child repeated in its batch and under another parent
        matrix, k, fold_seed, mask = problem
        rng = np.random.default_rng(seed)
        kernel = NbFoldKernel(matrix, k, fold_seed)
        fit = FitnessFn(matrix, k=k, seed=fold_seed)
        calls = FitnessFn(matrix, k=k, seed=fold_seed)
        parents = [FeatureMask.from_array(mask)]
        for _ in range(8):
            pairs = [(p, _flipped(p, rng, 3)) for p in parents for _ in range(4)]
            pairs += [pairs[0], (parents[-1], pairs[0][1])]
            for (_, child), got in zip(pairs, fit.batch(pairs)):
                want = kernel.mean_accuracy(child.to_array()) if child.popcount else 0.0
                assert got == want == calls(child)
            assert fit.evaluations == calls.evaluations
            children = [c for _, c in pairs if c.popcount] or parents
            parents = [children[i] for i in
                       rng.choice(len(children), size=min(3, len(children)), replace=False)]

    def test_same_as_sequential_calls(self, matrix):
        rng = np.random.default_rng(7)
        base = FeatureMask.from_array(rng.random(matrix.n_features) < 0.6)
        seen = _flipped(base, rng, 4)
        children = [_flipped(base, rng, 4) for _ in range(5)]
        fresh = _flipped(base, rng, 4)
        empty = FeatureMask.zeros(matrix.n_features)
        pairs = [(base, c) for c in children]
        pairs += [(seen, children[1]), (base, seen), (base, empty), (base, children[0])]
        pairs += [(empty, fresh)]  # scored from the empty mask's state
        batched, calls = FitnessFn(matrix, seed=2), FitnessFn(matrix, seed=2)
        assert batched(seen) == calls(seen)  # a memo hit inside the batch
        assert batched.batch(pairs) == [calls(c) for _, c in pairs]
        assert batched.batch([(base, empty)]) == [0.0]
        scored = {c.bits for c in children + [fresh]}
        assert batched.evaluations == calls.evaluations == 1 + len(scored)
        assert batched._memo == calls._memo

    def test_exact_ties_fall_back_to_the_kernel(self):
        # the tied matrix of TestNbKernelOracle: no delta margin is certified
        x = np.tile([[0.5, 0.0, 2.0, 1.0]], (12, 1))
        m = DocTermMatrix(weights=sp.csr_matrix(x), labels=np.arange(12) % 2)
        kernel = NbFoldKernel(m, 3, 1)
        full, child = np.ones(4, dtype=bool), np.array([True, True, False, True])
        [(_, value)] = kernel.delta_batch([(kernel.state(full), full, child)])
        assert value is None
        fit = FitnessFn(m, k=3, seed=1)
        assert fit.batch([(FeatureMask.ones(4), FeatureMask.from_array(child))]) == [0.5]

    def test_rebuilt_and_chained_states_score_alike(self):
        m, _ = make_planted_matrix(n_docs=120, n_features=80, n_informative=10, seed=4,
                                   noise_p=0.5)  # no row loses all its features
        kernel = NbFoldKernel(m, 5, 0)
        rng = np.random.default_rng(0)
        mask = np.ones(80, dtype=bool)
        none = np.zeros(80, dtype=bool)
        empty = kernel.state(none)
        for field in ("a", "x", "x_abs", "t", "t_abs"):
            assert not getattr(empty, field).any()
        assert empty.terms == 0
        [(_, value)] = kernel.delta_batch([(empty, none, mask)])
        assert value == kernel.mean_accuracy(mask)
        chained = kernel.state(mask)
        for _ in range(40):
            child = mask.copy()
            child[rng.choice(80, size=3, replace=False)] ^= True
            [(chained, from_chain)] = kernel.delta_batch([(chained, mask, child)])
            rebuilt = kernel.state(child)
            [(_, from_rebuilt)] = kernel.delta_batch([(rebuilt, child, child)])
            assert from_chain == from_rebuilt == kernel.mean_accuracy(child)
            # the sums; a rebuilt state is a one-step chain from the empty
            # mask, so its magnitudes count none of the columns the chain dropped
            for field in ("a", "x", "t"):
                np.testing.assert_allclose(getattr(chained, field), getattr(rebuilt, field),
                                           rtol=1e-12, atol=1e-12)
            mask = child


def test_last_gain():
    records = [TourRecord(1, f, 0.0) for f in (0.5, 0.6, 0.6, 0.7, 0.7)]
    assert last_gain(records, 0.4) == 4
    assert last_gain(records[:3], 0.4) == 2
    assert last_gain(records[:1], 0.4) == 1
    assert last_gain(records[:1], 0.5) == 0
    assert last_gain([], 0.5) == 0

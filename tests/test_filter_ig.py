import math

import numpy as np
import pytest
import scipy.sparse as sp

from mbofs.corpus import DocTermMatrix
from mbofs.filter_ig import (
    FilterError,
    class_entropy,
    ig_filter,
    ig_scores,
)


def dtm(dense, labels):
    return DocTermMatrix(weights=sp.csr_matrix(np.asarray(dense, float)),
                         labels=np.asarray(labels))


def brute_force_ig(presence: np.ndarray, labels: np.ndarray, feature: int) -> float:
    """Independent oracle: entropies straight from contingency counts."""
    def entropy(rows):
        if len(rows) == 0:
            return 0.0
        h = 0.0
        n = len(rows)
        for c in set(labels[rows]):
            p = np.sum(labels[rows] == c) / n
            h -= p * math.log2(p)
        return h

    all_rows = np.arange(len(labels))
    present = all_rows[presence[:, feature]]
    absent = all_rows[~presence[:, feature]]
    n = len(labels)
    return (
        entropy(all_rows)
        - len(present) / n * entropy(present)
        - len(absent) / n * entropy(absent)
    )


class TestClassEntropy:
    def test_uniform_binary(self):
        assert class_entropy([0, 1] * 25) == pytest.approx(1.0)

    def test_uniform_quaternary(self):
        assert class_entropy([0, 1, 2, 3] * 4) == pytest.approx(2.0)

    def test_three_one_split(self):
        assert class_entropy([0, 0, 0, 1]) == pytest.approx(0.811278, abs=1e-6)

    def test_empty_errors(self):
        with pytest.raises(FilterError):
            class_entropy([])


class TestInfoGain:
    def test_constant_feature_zero(self):
        m = dtm([[1.0], [1.0], [1.0], [1.0]], [0, 0, 1, 1])
        assert ig_scores(m).gain[0] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_feature(self):
        m = dtm([[1.0], [1.0], [0.0], [0.0]], [0, 0, 1, 1])
        assert ig_scores(m).gain[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        presence = rng.random((200, 30)) < 0.3
        labels = rng.integers(0, 3, size=200)
        m = dtm(presence.astype(float), labels)
        scores = ig_scores(m)
        for f in range(30):
            assert scores.gain[f] == pytest.approx(
                brute_force_ig(presence, labels, f), abs=1e-9
            )

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(8)
        presence = rng.random((60, 12)) < 0.4
        labels = rng.integers(0, 4, size=60)
        m = dtm(presence.astype(float), labels)
        scores = ig_scores(m)
        assert np.all(scores.gain >= -1e-12)
        assert np.all(scores.gain <= scores.class_entropy + 1e-9)
        perm = rng.permutation(60)
        m2 = dtm(presence[perm].astype(float), labels[perm])
        np.testing.assert_allclose(ig_scores(m2).gain, scores.gain, atol=1e-12)

    def test_ranking_is_permutation(self):
        rng = np.random.default_rng(9)
        m = dtm((rng.random((40, 9)) < 0.5).astype(float), rng.integers(0, 2, 40))
        r = ig_scores(m).ranking
        assert sorted(r) == list(range(9))


class TestIgFilter:
    def informative_matrix(self):
        # features 0-2 track the label, 3-9 are constant (zero gain)
        n = 40
        labels = np.arange(n) % 2
        x = np.ones((n, 10))
        for f in range(3):
            x[:, f] = (labels == 0).astype(float)
        return dtm(x, labels)

    def test_selects_only_informative(self):
        mask = ig_filter(self.informative_matrix(), cap=2500)
        assert mask.sum() == 3
        assert mask[:3].all()

    def test_cap_enforced(self):
        rng = np.random.default_rng(10)
        n = 60
        labels = np.arange(n) % 2
        x = (rng.random((n, 50)) < 0.3) | (labels[:, None] == 0)
        m = dtm(x.astype(float), labels)
        full = ig_filter(m, cap=2500)
        capped = ig_filter(m, cap=20)
        assert capped.sum() == 20
        assert full.sum() > 20

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(11)
        n = 80
        labels = np.arange(n) % 2
        x = rng.random((n, 40)) < (0.2 + 0.4 * (labels[:, None] == 0))
        m = dtm(x.astype(float), labels)
        prev = np.zeros(40, dtype=bool)
        for cap in (5, 10, 20, 40):
            mask = ig_filter(m, cap=cap)
            assert np.all(mask[prev])  # smaller cap's picks survive
            prev = mask

    def test_all_constant_errors(self):
        m = dtm(np.ones((10, 4)), np.arange(10) % 2)
        with pytest.raises(FilterError, match="no informative"):
            ig_filter(m, cap=10)

    def test_deterministic(self):
        m = self.informative_matrix()
        np.testing.assert_array_equal(ig_filter(m, 5), ig_filter(m, 5))

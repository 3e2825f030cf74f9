import hashlib

import numpy as np
import pytest

from mbofs import synth
from mbofs.synth import make_planted_matrix


def _digest(matrix) -> str:
    """The first 16 hex digits of the SHA-256 of the weights' data, indices
    and indptr and of the labels, in that order."""
    h = hashlib.sha256()
    for a in (matrix.weights.data, matrix.weights.indices, matrix.weights.indptr,
              matrix.labels):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kwargs, want", [
    (dict(n_docs=500, n_classes=4, n_features=2000, n_informative=50, seed=0),
     "1a6ec20f2275fb83"),
    # 80 rows: a last block shorter than the others
    (dict(n_docs=80, n_features=60, n_informative=10, seed=3), "d1d9df22d21d81e9"),
])
def test_planted_matrix_bytes_are_pinned(kwargs, want):
    """The benchmark's planted matrix and the tests' small one, byte for byte:
    the digests of drawing every row at once."""
    assert 80 % synth._BLOCK_ROWS
    matrix, _ = make_planted_matrix(**kwargs)
    w = matrix.weights
    assert (w.data.dtype, w.indices.dtype, w.indptr.dtype, matrix.labels.dtype) == (
        np.float64, np.int32, np.int32, np.int64)
    assert w.has_canonical_format
    assert _digest(matrix) == want

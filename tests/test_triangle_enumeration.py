"""The one-shot ``enumerate_triangles`` against the per-``j`` loop it
replaced.

``reference_enumerate`` (``tests/oracles``) is a literal copy of the
earlier implementation: for every middle index ``j`` it crossed ``A_hat``'s
column ``j`` with ``B_hat``'s row ``j`` and kept the pairs found in
``X_hat``'s sorted keys by ``searchsorted``.  The row-gather-and-mask
form must emit the same rows in the same order, byte for byte, on
random patterns, empty matrices, empty rows and columns, ``n = 1`` and
non-canonical CSR input (duplicates, unsorted indices, explicit zeros).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.families import as_csr
from repro.supported.triangles import TriangleSet, enumerate_triangles
from tests.oracles.triangles import reference_enumerate


def _same(a_hat, b_hat, x_hat) -> np.ndarray:
    got = enumerate_triangles(a_hat, b_hat, x_hat)
    want = reference_enumerate(a_hat, b_hat, x_hat)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def _pattern(rng, n, density, *, dead_rows, dead_cols, messy):
    """A random ``n x n`` pattern; ``messy`` builds a non-canonical CSR:
    shuffled indices within each row, duplicated entries and explicit
    zeros (stored at positions that may or may not also hold a one)."""
    mask = rng.random((n, n)) < density
    mask[dead_rows, :] = False
    mask[:, dead_cols] = False
    rows, cols = np.nonzero(mask)
    data = np.ones(rows.size)
    if messy and rows.size:
        dup = rng.random(rows.size) < 0.3
        zero_r = rng.integers(0, n, size=max(1, rows.size // 4))
        zero_c = rng.integers(0, n, size=zero_r.size)
        rows = np.concatenate([rows, rows[dup], zero_r])
        cols = np.concatenate([cols, cols[dup], zero_c])
        data = np.concatenate([data, np.full(int(dup.sum()), 2.0), np.zeros(zero_r.size)])
        order = np.lexsort((rng.random(rows.size), rows))  # rows grouped, columns shuffled
        rows, cols, data = rows[order], cols[order], data[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        return sp.csr_matrix((data, cols, indptr), shape=(n, n))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(3):
        density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.7, 1.0]))
        dead_rows = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
        dead_cols = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
        messy = draw(st.booleans())
        mats.append(
            _pattern(rng, n, density, dead_rows=dead_rows, dead_cols=dead_cols, messy=messy)
        )
    return mats


@given(instances())
@settings(max_examples=200, deadline=None)
def test_matches_reference(mats):
    _same(*mats)


def test_empty_operands():
    rng = np.random.default_rng(0)
    full = sp.csr_matrix(rng.random((12, 12)) < 0.5)
    empty = sp.csr_matrix((12, 12), dtype=bool)
    for mats in ((empty, full, full), (full, empty, full), (full, full, empty)):
        assert _same(*mats).shape == (0, 3)
    assert _same(full, full, full).shape[0] > 0


def test_single_computer():
    one = sp.csr_matrix(np.ones((1, 1), dtype=bool))
    assert _same(one, one, one).tolist() == [[0, 0, 0]]
    zero = sp.csr_matrix((1, 1), dtype=bool)
    assert _same(one, one, zero).shape == (0, 3)


def test_non_canonical_input():
    # row 0 of A lists column 2 twice and column 1 after it; an explicit
    # zero at A[1, 0] is not an entry; B and X carry the same defects
    a = sp.csr_matrix(
        (np.array([1.0, 1.0, 1.0, 0.0]), np.array([2, 2, 1, 0]), np.array([0, 3, 4, 4])),
        shape=(3, 3),
    )
    b = sp.csr_matrix(
        (np.array([1.0, 0.0, 1.0, 1.0]), np.array([0, 1, 2, 0]), np.array([0, 0, 2, 4])),
        shape=(3, 3),
    )
    x = sp.csr_matrix(
        (np.array([1.0, 1.0, 1.0]), np.array([2, 0, 2]), np.array([0, 3, 3, 3])),
        shape=(3, 3),
    )
    assert not a.has_canonical_format
    tri = _same(a, b, x)
    assert tri.tolist() == [[0, 1, 0], [0, 2, 0], [0, 2, 2]]
    assert len(TriangleSet.from_instance(a, b, x)) == 3


def test_as_csr_leaves_its_input_alone():
    # canonicalizing a float CSR used to sort and compact the index arrays
    # it shared with its input, so a second enumeration saw another matrix
    b = sp.csr_matrix(
        (np.array([1.0, 0.0, 1.0, 1.0]), np.array([0, 1, 2, 0]), np.array([0, 0, 2, 4])),
        shape=(3, 3),
    )
    before = (b.data.copy(), b.indices.copy(), b.indptr.copy())
    assert as_csr(b).toarray().tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]
    for arr, kept in zip((b.data, b.indices, b.indptr), before):
        assert arr.tolist() == kept.tolist()
    assert as_csr(b).toarray().tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]

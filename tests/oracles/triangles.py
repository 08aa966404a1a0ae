"""``enumerate_triangles`` as it was before the one-shot gather.

For every middle index ``j`` it crossed ``A_hat``'s column ``j`` with
``B_hat``'s row ``j`` and kept the pairs found in ``X_hat``'s sorted keys
by ``searchsorted``; ``reference_enumerate`` is a literal copy.
"""

import numpy as np

from repro.sparsity.families import as_csr


def reference_enumerate(a_hat, b_hat, x_hat) -> np.ndarray:
    """The old ``enumerate_triangles``: one pass per middle index ``j``."""
    a = as_csr(a_hat).tocsc()
    b = as_csr(b_hat)
    x = as_csr(x_hat)
    n = x.shape[0]

    # sorted key set of X_hat for membership filtering
    x_coo = x.tocoo()
    x_keys = np.sort(x_coo.row.astype(np.int64) * n + x_coo.col.astype(np.int64))
    if x_keys.size == 0:
        return np.empty((0, 3), dtype=np.int64)

    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_k: list[np.ndarray] = []
    for j in range(a.shape[1]):
        rows_j = a.indices[a.indptr[j] : a.indptr[j + 1]].astype(np.int64)
        cols_j = b.indices[b.indptr[j] : b.indptr[j + 1]].astype(np.int64)
        if rows_j.size == 0 or cols_j.size == 0:
            continue
        ii = np.repeat(rows_j, cols_j.size)
        kk = np.tile(cols_j, rows_j.size)
        keys = ii * n + kk
        pos = np.searchsorted(x_keys, keys)
        ok = (pos < x_keys.size) & (x_keys[np.minimum(pos, x_keys.size - 1)] == keys)
        if not ok.any():
            continue
        ii, kk = ii[ok], kk[ok]
        out_i.append(ii)
        out_j.append(np.full(ii.size, j, dtype=np.int64))
        out_k.append(kk)
    if not out_i:
        return np.empty((0, 3), dtype=np.int64)
    return np.stack(
        [np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_k)], axis=1
    )

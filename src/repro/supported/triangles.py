"""Triangles of a supported instance (paper §2.2).

A *triangle* is a triple ``{i, j, k}`` with ``A_hat[i, j] != 0``,
``B_hat[j, k] != 0`` and ``X_hat[i, k] != 0``.  Processing triangle
``{i, j, k}`` means adding ``A[i, j] * B[j, k]`` into ``X[i, k]``;
processing *all* triangles computes every requested entry of the product.

Indices live in three disjoint ground sets ``I``, ``J``, ``K`` of size
``n``; we store triangles as integer triples ``(i, j, k)`` with each
component in ``[0, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sparsity.families import as_csr

__all__ = ["TriangleSet", "enumerate_triangles"]


def enumerate_triangles(a_hat, b_hat, x_hat) -> np.ndarray:
    """All triangles of the instance, as an ``(m, 3)`` int64 array.

    One sparse row-gather-and-mask over ``A_hat``'s entries ``(i, j)`` in
    column-major order: row ``j`` of ``B_hat`` masked by row ``i`` of
    ``X_hat`` (``B[j] * X[i]``, elementwise) lists the ``k`` that close a
    triangle.  Rows come out ordered by ``j``, then ``i``, then ``k`` —
    for each ``j``, the cross product of ``A_hat``'s column ``j`` with
    ``B_hat``'s row ``j``, filtered by membership in ``X_hat``.
    """
    a = as_csr(a_hat).tocsc()
    b = as_csr(b_hat)
    x = as_csr(x_hat)
    i_e = a.indices.astype(np.int64)
    if i_e.size == 0 or b.nnz == 0 or x.nnz == 0:
        return np.empty((0, 3), dtype=np.int64)
    j_e = np.repeat(np.arange(a.shape[1], dtype=np.int64), np.diff(a.indptr))
    hit = b[j_e].multiply(x[i_e])
    e = np.repeat(np.arange(i_e.size, dtype=np.int64), np.diff(hit.indptr))
    return np.stack([i_e[e], j_e[e], hit.indices.astype(np.int64)], axis=1)


@dataclass(frozen=True)
class TriangleSet:
    """A set of triangles over ground sets of size ``n``, with the node /
    pair statistics the paper's lemmas are stated in terms of."""

    triangles: np.ndarray  # (m, 3) int64, columns (i, j, k)
    n: int

    def __post_init__(self):
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        object.__setattr__(self, "triangles", t)

    def __len__(self) -> int:
        return self.triangles.shape[0]

    @classmethod
    def from_instance(cls, a_hat, b_hat, x_hat) -> "TriangleSet":
        tri = enumerate_triangles(a_hat, b_hat, x_hat)
        return cls(tri, as_csr(x_hat).shape[0])

    # ------------------------------------------------------------------ #
    # Node statistics (t(v) in the paper)
    # ------------------------------------------------------------------ #
    @cached_property
    def counts_i(self) -> np.ndarray:
        return np.bincount(self.triangles[:, 0], minlength=self.n)

    @cached_property
    def counts_j(self) -> np.ndarray:
        return np.bincount(self.triangles[:, 1], minlength=self.n)

    @cached_property
    def counts_k(self) -> np.ndarray:
        return np.bincount(self.triangles[:, 2], minlength=self.n)

    def max_node_count(self) -> int:
        """max over nodes v of t(v) = number of triangles containing v."""
        if len(self) == 0:
            return 0
        return int(
            max(self.counts_i.max(), self.counts_j.max(), self.counts_k.max())
        )

    # ------------------------------------------------------------------ #
    # Pair statistics (the 'm' of Lemma 3.1)
    # ------------------------------------------------------------------ #
    def max_pair_count(self) -> int:
        """max over node pairs {u, v} of the number of triangles containing
        both — the multiplicity parameter ``m`` of Lemma 3.1."""
        if len(self) == 0:
            return 0
        t = self.triangles
        n = self.n
        best = 0
        for a, b in ((0, 1), (1, 2), (0, 2)):
            keys = t[:, a] * n + t[:, b]
            best = max(best, int(np.bincount(np.unique(keys, return_inverse=True)[1]).max()))
        return best

    # ------------------------------------------------------------------ #
    def subset(self, mask: np.ndarray) -> "TriangleSet":
        """The triangles selected by a boolean mask."""
        return TriangleSet(self.triangles[mask], self.n)

    def induced_by(self, i_set: np.ndarray, j_set: np.ndarray, k_set: np.ndarray) -> np.ndarray:
        """Boolean mask of triangles fully inside ``I' x J' x K'``."""
        i_mask = np.zeros(self.n, dtype=bool)
        j_mask = np.zeros(self.n, dtype=bool)
        k_mask = np.zeros(self.n, dtype=bool)
        i_mask[np.asarray(i_set, dtype=np.int64)] = True
        j_mask[np.asarray(j_set, dtype=np.int64)] = True
        k_mask[np.asarray(k_set, dtype=np.int64)] = True
        t = self.triangles
        return i_mask[t[:, 0]] & j_mask[t[:, 1]] & k_mask[t[:, 2]]

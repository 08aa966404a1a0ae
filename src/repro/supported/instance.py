"""A supported matrix-multiplication instance and its data distribution.

``X = A B`` for ``n x n`` matrices on ``n`` computers.  The *support*
(indicator matrices) is public; the numeric values are private inputs dealt
to their owner computers.  Ownership maps are part of the support-dependent
preprocessing:

* ``rows`` distribution (the default of the prior work): computer ``v``
  holds row ``v`` of ``A``, row ``v`` of ``B`` and reports row ``v`` of
  ``X`` — natural for uniformly sparse instances.
* ``balanced`` distribution: nonzeros are dealt round-robin in sorted
  order, at most ``ceil(nnz / n)`` per computer — the paper's convention
  for average-sparse instances ("each computer holds at most d elements",
  §2).  The paper notes input/output can be permuted between conventions
  in ``O(d)`` extra rounds, so either is equivalent for the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.model.network import LowBandwidthNetwork
from repro.semirings import Semiring, REAL_FIELD
from repro.sparsity.families import Family, as_csr
from repro.sparsity.generators import product_support, random_pattern, restrict_support
from repro.supported.triangles import TriangleSet

__all__ = ["SupportedInstance", "make_instance", "lookup_values"]


def lookup_values(mat: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray, sr: Semiring) -> np.ndarray:
    """Vectorized lookup of ``mat[rows[t], cols[t]]`` (zero when absent).

    Works on the sorted key array of the matrix's nonzeros — O((nnz + q) log
    nnz) instead of per-element sparse ``__getitem__``.  A position stored
    more than once takes the value stored last (see
    :func:`_sorted_value_arrays`).
    """
    return _lookup_sorted(_sorted_value_arrays(mat, sr), rows, cols, mat.shape[1], sr)


def _sorted_value_arrays(mat: sp.csr_matrix, sr: Semiring):
    """The one value table of a sparse matrix: its distinct stored keys
    ``row * n_cols + col``, sorted, and each key's value.  A key stored
    more than once (non-canonical CSR) takes the value stored last, as a
    dict assignment would — the rule every reader shares: dealing
    (:meth:`SupportedInstance.deal_into`), the columnar kernels'
    :meth:`SupportedInstance.a_values_at` and :func:`lookup_values`."""
    coo = sp.coo_matrix(mat)
    keys = coo.row.astype(np.int64) * mat.shape[1] + coo.col.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    return keys[last], np.asarray(coo.data, dtype=sr.dtype)[order[last]]


def _lookup_sorted(arrays, rows, cols, n_cols: int, sr: Semiring) -> np.ndarray:
    sorted_keys, sorted_vals = arrays
    q = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
    out = sr.zeros(q.size)
    if sorted_keys.size:
        pos = np.minimum(np.searchsorted(sorted_keys, q), sorted_keys.size - 1)
        hit = sorted_keys[pos] == q
        out[hit] = sorted_vals[pos[hit]]
    return out


def _owner_map_rows(pattern: sp.csr_matrix, axis: int) -> dict[tuple[int, int], int]:
    """Row-owner (axis=0) or column-owner (axis=1) assignment."""
    coo = as_csr(pattern).tocoo()
    rows, cols = coo.row.tolist(), coo.col.tolist()
    return dict(zip(zip(rows, cols), rows if axis == 0 else cols))


def _owner_map_balanced(pattern: sp.csr_matrix, n: int) -> dict[tuple[int, int], int]:
    coo = as_csr(pattern).tocoo()
    order = np.lexsort((coo.col, coo.row))
    per = -(-coo.nnz // n) if coo.nnz else 1  # ceil
    slots = (np.arange(coo.nnz, dtype=np.int64) // per).tolist()
    return dict(zip(zip(coo.row[order].tolist(), coo.col[order].tolist()), slots))


@dataclass
class SupportedInstance:
    """One instance: support + values + ownership.

    Attributes
    ----------
    semiring:
        Algebra the product is computed over.
    a_hat, b_hat, x_hat:
        Indicator matrices (boolean CSR) — *public* support.
    a, b:
        Value matrices (CSR over ``semiring.dtype``), supported on
        ``a_hat`` / ``b_hat`` — *private* inputs.
    d:
        The sparsity parameter the instance was generated at (metadata).
    """

    semiring: Semiring
    a_hat: sp.csr_matrix
    b_hat: sp.csr_matrix
    x_hat: sp.csr_matrix
    a: sp.csr_matrix
    b: sp.csr_matrix
    d: int = 0
    distribution: str = "rows"

    def __post_init__(self):
        self.a_hat = as_csr(self.a_hat)
        self.b_hat = as_csr(self.b_hat)
        self.x_hat = as_csr(self.x_hat)
        self.a = sp.csr_matrix(self.a, dtype=self.semiring.dtype)
        self.b = sp.csr_matrix(self.b, dtype=self.semiring.dtype)

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]

    # ------------------------------------------------------------------ #
    # Ownership (support-dependent preprocessing)
    # ------------------------------------------------------------------ #
    @cached_property
    def owner_a(self) -> dict[tuple[int, int], int]:
        if self.distribution == "balanced":
            return _owner_map_balanced(self.a_hat, self.n)
        return _owner_map_rows(self.a_hat, axis=0)

    @cached_property
    def owner_b(self) -> dict[tuple[int, int], int]:
        if self.distribution == "balanced":
            return _owner_map_balanced(self.b_hat, self.n)
        return _owner_map_rows(self.b_hat, axis=0)

    @cached_property
    def owner_x(self) -> dict[tuple[int, int], int]:
        if self.distribution == "balanced":
            return _owner_map_balanced(self.x_hat, self.n)
        return _owner_map_rows(self.x_hat, axis=0)

    # Vectorized ownership / value lookups.  These are support-dependent
    # preprocessing artifacts (free in the supported model, like the
    # structure-keyed schedule cache they feed): sorted key arrays over each
    # matrix's support, queried with searchsorted instead of per-pair dict
    # lookups.  The columnar fast path of Lemma 3.1 is built on these.
    def _owner_arrays(self, pattern: sp.csr_matrix, axis: int):
        coo = as_csr(pattern).tocoo()
        keys = coo.row.astype(np.int64) * self.n + coo.col.astype(np.int64)
        order = np.argsort(keys)
        sorted_keys = keys[order]
        if self.distribution == "balanced":
            per = -(-coo.nnz // self.n) if coo.nnz else 1
            owners = np.arange(coo.nnz, dtype=np.int64) // per
        else:
            owners = (coo.row if axis == 0 else coo.col).astype(np.int64)[order]
        return sorted_keys, owners

    @cached_property
    def _owner_arrays_a(self):
        return self._owner_arrays(self.a_hat, axis=0)

    @cached_property
    def _owner_arrays_b(self):
        return self._owner_arrays(self.b_hat, axis=0)

    @cached_property
    def _owner_arrays_x(self):
        return self._owner_arrays(self.x_hat, axis=0)

    def _index_of(self, arrays, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        sorted_keys, _ = arrays
        q = np.asarray(rows, dtype=np.int64) * self.n + np.asarray(cols, dtype=np.int64)
        if q.size == 0:
            return np.zeros(0, dtype=np.int64)
        pos = np.searchsorted(sorted_keys, q)
        pos_c = np.minimum(pos, max(sorted_keys.size - 1, 0))
        if sorted_keys.size == 0 or not (sorted_keys[pos_c] == q).all():
            raise KeyError("queried (row, col) pair outside the matrix support")
        return pos_c

    def _owner_of(self, arrays, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return arrays[1][self._index_of(arrays, rows, cols)]

    def entries(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, owners)`` of every support entry of ``"A"``,
        ``"B"`` or ``"X"``, in row-major order — the order of the owner
        dicts (``owner_a`` / ``owner_b`` / ``owner_x``), as arrays."""
        keys, owners = {
            "A": self._owner_arrays_a, "B": self._owner_arrays_b, "X": self._owner_arrays_x
        }[name]
        rows, cols = np.divmod(keys, self.n)
        return rows, cols, owners

    def x_index(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Position of each ``X[rows, cols]`` support entry in
        :meth:`entries` ``("X")`` order (``KeyError`` outside the support)."""
        return self._index_of(self._owner_arrays_x, rows, cols)

    def owner_of_a(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Owner computer of each ``A[rows, cols]`` support entry (vectorized
        form of ``owner_a[(i, j)]``)."""
        return self._owner_of(self._owner_arrays_a, rows, cols)

    def owner_of_b(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Owner computer of each ``B[rows, cols]`` support entry."""
        return self._owner_of(self._owner_arrays_b, rows, cols)

    def owner_of_x(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Owner computer of each ``X[rows, cols]`` support entry."""
        return self._owner_of(self._owner_arrays_x, rows, cols)

    @cached_property
    def _value_arrays_a(self):
        return _sorted_value_arrays(self.a, self.semiring)

    @cached_property
    def _value_arrays_b(self):
        return _sorted_value_arrays(self.b, self.semiring)

    def a_values_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Values ``A[rows, cols]`` (semiring zero where absent), via cached
        sorted-key arrays — the bulk twin of reading ``("A", i, j)`` from the
        dealt network memory."""
        return _lookup_sorted(self._value_arrays_a, rows, cols, self.a.shape[1], self.semiring)

    def b_values_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Values ``B[rows, cols]`` (semiring zero where absent)."""
        return _lookup_sorted(self._value_arrays_b, rows, cols, self.b.shape[1], self.semiring)

    def max_local_elements(self) -> int:
        """Largest number of input/output elements at any single computer."""
        load = np.zeros(self.n, dtype=np.int64)
        for owners in (self.owner_a, self.owner_b, self.owner_x):
            for comp in owners.values():
                load[comp] += 1
        return int(load.max()) if load.size else 0

    # ------------------------------------------------------------------ #
    # Dense views (absent entries become the semiring zero, which matters
    # for tropical semirings where "absent" means +inf, not 0.0)
    # ------------------------------------------------------------------ #
    def _densify(self, mat: sp.csr_matrix) -> np.ndarray:
        out = self.semiring.zeros(mat.shape)
        coo = mat.tocoo()
        out[coo.row, coo.col] = np.asarray(coo.data, dtype=self.semiring.dtype)
        return out

    def dense_a(self) -> np.ndarray:
        """Dense view of A with semiring zeros at absent positions."""
        return self._densify(self.a)

    def dense_b(self) -> np.ndarray:
        """Dense view of B with semiring zeros at absent positions."""
        return self._densify(self.b)

    # ------------------------------------------------------------------ #
    # Triangles
    # ------------------------------------------------------------------ #
    @cached_property
    def triangles(self) -> TriangleSet:
        return TriangleSet.from_instance(self.a_hat, self.b_hat, self.x_hat)

    # ------------------------------------------------------------------ #
    # Dealing inputs / collecting outputs
    # ------------------------------------------------------------------ #
    def deal_into(self, net: LowBandwidthNetwork) -> None:
        """Place input values at their owner computers, as arrays
        (:meth:`LowBandwidthNetwork.deal_words`): ``A[i, j]`` under
        ``("A", i, j)`` and ``B[j, k]`` under ``("B", j, k)``, in
        :meth:`entries` order."""
        if net.n != self.n:
            raise ValueError("network size must equal matrix dimension")
        sr = self.semiring
        zero = sr.scalar(sr.zero)
        # Iterate the support (ownership) rather than the stored values:
        # the support only upper-bounds the nonzeros, so hat positions with
        # no (or an explicit zero) value are dealt as the semiring zero.
        for prefix, (keys, stored), values_at in (
            ("A", self._value_arrays_a, self.a_values_at),
            ("B", self._value_arrays_b, self.b_values_at),
        ):
            rows, cols, owners = self.entries(prefix)
            outside = ~np.isin(keys, rows * self.n + cols)
            extra = [
                divmod(int(key), self.n)
                for key, v in zip(keys[outside], stored[outside])
                if not sr.close(v, zero)
            ]
            if extra:
                raise ValueError(
                    f"matrix {prefix} stores nonzero values outside its indicator support: {extra[:3]}"
                )
            net.deal_words(prefix, rows, cols, owners, values_at(rows, cols))

    def collect_result(self, net: LowBandwidthNetwork) -> sp.csr_matrix:
        """Read the computed ``X`` values from their owner computers —
        straight from the ``X`` words while they are array-resident."""
        words = net.instance_words("X")
        if words is not None:
            rows, cols, data = words.rows, words.cols, words.values
        else:
            rows, cols, owners = self.entries("X")
            data = net.read_many(
                owners.tolist(),
                [("X", i, k) for i, k in zip(rows.tolist(), cols.tolist())],
                self.semiring.dtype,
            )
        return sp.csr_matrix((data, (rows, cols)), shape=self.x_hat.shape)

    # ------------------------------------------------------------------ #
    # Ground truth
    # ------------------------------------------------------------------ #
    def ground_truth(self) -> sp.csr_matrix:
        """Reference product on the requested support, computed locally by
        semiring-summing over the triangle set (the defining equation)."""
        sr = self.semiring
        x_coo = self.x_hat.tocoo()
        n = self.n
        x_keys = x_coo.row.astype(np.int64) * n + x_coo.col.astype(np.int64)
        order = np.argsort(x_keys)
        sorted_keys = x_keys[order]

        tri = self.triangles.triangles
        values = sr.zeros(x_coo.nnz)
        if tri.shape[0]:
            av = lookup_values(self.a, tri[:, 0], tri[:, 1], sr)
            bv = lookup_values(self.b, tri[:, 1], tri[:, 2], sr)
            prods = sr.mul(av, bv)
            keys = tri[:, 0] * n + tri[:, 2]
            pos = order[np.searchsorted(sorted_keys, keys)]
            acc = sr.segment_sum(prods, pos, x_coo.nnz)
            values = acc
        mat = sp.csr_matrix((values, (x_coo.row, x_coo.col)), shape=self.x_hat.shape)
        return mat

    def verify(self, result: sp.csr_matrix) -> bool:
        """Does ``result`` equal the ground truth on the requested support?"""
        truth = self.ground_truth()
        a = sp.csr_matrix(result, dtype=self.semiring.dtype)
        # compare on the support of x_hat
        coo = self.x_hat.tocoo()
        lhs = np.asarray(a[coo.row, coo.col]).ravel()
        rhs = np.asarray(truth[coo.row, coo.col]).ravel()
        return self.semiring.close(lhs, rhs)


def make_hard_instance(
    n: int,
    d: int,
    rng: np.random.Generator,
    *,
    semiring: Semiring = REAL_FIELD,
    density: float = 1.0,
) -> SupportedInstance:
    """Worst-case-style ``[US:US:US]`` instance (triangle-rich).

    Random uniformly sparse matrices have very few triangles, so the
    trivial algorithm is far below its ``Theta(d^2)`` worst case on them.
    The hard instances here realize the worst case: indices are grouped
    into ``n/d`` blocks of size ``d`` (under independent random
    permutations of the three ground sets, consistently across ``A``,
    ``B`` and ``X``), and each aligned block triple is filled with density
    ``density`` — every node then touches ``~density^2 d^2`` triangles,
    which is the regime Theorem 4.2's clustering phase is built for.
    ``density < 1`` moves mass toward the residual-phase regime.
    """
    if d < 1 or d > n:
        raise ValueError("need 1 <= d <= n")
    perm_i = rng.permutation(n)
    perm_j = rng.permutation(n)
    perm_k = rng.permutation(n)

    def block_pattern(rows_perm, cols_perm) -> sp.csr_matrix:
        rows, cols = [], []
        for b in range(n // d):
            r_idx = rows_perm[b * d : (b + 1) * d]
            c_idx = cols_perm[b * d : (b + 1) * d]
            keep = rng.random((d, d)) < density
            rr, cc = np.nonzero(keep)
            rows.append(r_idx[rr])
            cols.append(c_idx[cc])
        if not rows:
            return sp.csr_matrix((n, n), dtype=bool)
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        return sp.csr_matrix(
            (np.ones(rows.size, dtype=bool), (rows, cols)), shape=(n, n)
        )

    a_hat = block_pattern(perm_i, perm_j)
    b_hat = block_pattern(perm_j, perm_k)
    x_hat = block_pattern(perm_i, perm_k)

    def values_on(pattern: sp.csr_matrix) -> sp.csr_matrix:
        coo = pattern.tocoo()
        vals = semiring.random_values(rng, coo.nnz)
        return sp.csr_matrix((vals, (coo.row, coo.col)), shape=pattern.shape)

    return SupportedInstance(
        semiring=semiring,
        a_hat=a_hat,
        b_hat=b_hat,
        x_hat=x_hat,
        a=values_on(a_hat),
        b=values_on(b_hat),
        d=d,
        distribution="rows",
    )


def make_instance(
    families: tuple[Family, Family, Family],
    n: int,
    d: int,
    rng: np.random.Generator,
    *,
    semiring: Semiring = REAL_FIELD,
    distribution: str | None = None,
) -> SupportedInstance:
    """Generate a random supported instance of type ``[X : Y : Z]``.

    ``families = (fam_A, fam_B, fam_X)``.  The output support is the product
    support pruned into ``fam_X(d)`` (requesting a sparse part of the
    product is exactly what the supported model permits).
    """
    fam_a, fam_b, fam_x = families
    a_hat = random_pattern(fam_a, n, d, rng)
    b_hat = random_pattern(fam_b, n, d, rng)
    support = product_support(a_hat, b_hat)
    x_hat = restrict_support(support, fam_x, d, rng)

    def values_on(pattern: sp.csr_matrix) -> sp.csr_matrix:
        coo = pattern.tocoo()
        vals = semiring.random_values(rng, coo.nnz)
        return sp.csr_matrix((vals, (coo.row, coo.col)), shape=pattern.shape)

    if distribution is None:
        distribution = "rows" if fam_a in (Family.US, Family.RS) and fam_b in (Family.US, Family.RS) else "balanced"

    return SupportedInstance(
        semiring=semiring,
        a_hat=a_hat,
        b_hat=b_hat,
        x_hat=x_hat,
        a=values_on(a_hat),
        b=values_on(b_hat),
        d=d,
        distribution=distribution,
    )

"""The sparsity families US/RS/CS/BD/AS/GM and their membership tests.

A sparsity *pattern* throughout this codebase is a ``scipy.sparse`` boolean
matrix (any format; CSR preferred).  Patterns describe indicator matrices
of the supported setting (paper §2.1): ``pattern[i, j] == True`` means the
entry may be nonzero / is requested.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Family",
    "US",
    "RS",
    "CS",
    "BD",
    "AS",
    "GM",
    "row_degrees",
    "col_degrees",
    "family_contains",
    "classify_tightest",
    "as_csr",
]

PatternLike = Union[np.ndarray, sp.spmatrix]


def as_csr(pattern: PatternLike) -> sp.csr_matrix:
    """Normalize a pattern to canonical boolean CSR.  The input is left as
    it was: a canonical boolean CSR comes back sharing its arrays, and any
    other is canonicalized in a copy (doing that in place would re-sort
    index arrays the result shares with the input, under the input's own
    ``data``)."""
    mat = sp.csr_matrix(pattern, dtype=bool)
    if not (mat.has_canonical_format and mat.data.all()):
        mat = mat.copy()
        mat.sum_duplicates()
        mat.eliminate_zeros()
    return mat


def row_degrees(pattern: PatternLike) -> np.ndarray:
    """Number of nonzeros per row."""
    return np.diff(as_csr(pattern).indptr)


def col_degrees(pattern: PatternLike) -> np.ndarray:
    """Number of nonzeros per column."""
    return np.diff(as_csr(pattern).tocsc().indptr)


class Family(enum.Enum):
    """The paper's sparsity families, ordered by containment.

    ``Family.US <= Family.BD`` etc. reflect the lattice
    ``US <= {RS, CS} <= BD <= AS <= GM`` (RS and CS are incomparable).

    Containment holds up to a constant factor in the parameter ``d`` — for
    example ``BD(d)`` is contained in ``AS(2d)`` exactly (a ``d``-degenerate
    bipartite graph on ``n + n`` nodes has at most ``2 d n`` edges).  This
    matches the paper's ``O(.)``-style use of the classes.
    """

    US = "US"
    RS = "RS"
    CS = "CS"
    BD = "BD"
    AS = "AS"
    GM = "GM"

    # ------------------------------------------------------------------ #
    def contains(self, pattern: PatternLike, d: int) -> bool:
        """Membership test: does ``pattern`` belong to this family at
        sparsity parameter ``d``?  (GM ignores ``d``.)"""
        return family_contains(self, pattern, d)

    @property
    def rank(self) -> int:
        """Position in the containment chain (RS/CS share a level)."""
        return {"US": 0, "RS": 1, "CS": 1, "BD": 2, "AS": 3, "GM": 4}[self.value]

    def __le__(self, other: "Family") -> bool:
        """Containment: every member of self is a member of other.

        RS and CS are incomparable with each other but both contain US and
        are contained in BD.
        """
        if self is other:
            return True
        if {self, other} == {Family.RS, Family.CS}:
            return False
        return self.rank <= other.rank

    def __lt__(self, other: "Family") -> bool:
        return self is not other and self <= other

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


US, RS, CS, BD, AS, GM = (
    Family.US,
    Family.RS,
    Family.CS,
    Family.BD,
    Family.AS,
    Family.GM,
)


def family_contains(family: Family, pattern: PatternLike, d: int) -> bool:
    """``pattern in family(d)``.

    Notes
    -----
    * ``US``: max row degree and max column degree at most ``d``.
    * ``RS``/``CS``: max row / column degree at most ``d``.
    * ``BD``: the bipartite graph of the pattern is ``d``-degenerate
      (recursive elimination of a row or column with ≤ d remaining
      nonzeros; see :func:`repro.sparsity.degeneracy.degeneracy`).
    * ``AS``: at most ``d * n`` nonzeros in total, ``n`` = number of rows.
    * ``GM``: always true.
    """
    if family is Family.GM:
        return True
    mat = as_csr(pattern)
    if family is Family.US:
        rd = row_degrees(mat)
        cd = col_degrees(mat)
        return bool((rd.size == 0 or rd.max() <= d) and (cd.size == 0 or cd.max() <= d))
    if family is Family.RS:
        rd = row_degrees(mat)
        return bool(rd.size == 0 or rd.max() <= d)
    if family is Family.CS:
        cd = col_degrees(mat)
        return bool(cd.size == 0 or cd.max() <= d)
    if family is Family.AS:
        return mat.nnz <= d * mat.shape[0]
    if family is Family.BD:
        from repro.sparsity.degeneracy import degeneracy

        return degeneracy(mat) <= d
    raise ValueError(f"unknown family {family}")


def classify_tightest(pattern: PatternLike, d: int) -> Family:
    """Smallest family (by containment rank) that contains ``pattern`` at
    parameter ``d``; prefers US, then RS, CS, BD, AS, finally GM."""
    for fam in (Family.US, Family.RS, Family.CS, Family.BD, Family.AS):
        if family_contains(fam, pattern, d):
            return fam
    return Family.GM

"""Algebraic structures for matrix multiplication.

The paper distinguishes two regimes:

* **semirings** — only ``(+, *)`` with identities are available; the dense
  distributed kernel is the 3D algorithm, ``O(n^{4/3})`` rounds;
* **fields** (more generally, rings admitting bilinear fast MM) — Strassen-type
  algorithms apply, giving a dense kernel with exponent below ``4/3``.

Every algorithm in :mod:`repro.algorithms` is parameterized by a
:class:`Semiring`.  Elements are represented as numpy scalars/arrays so that
bulk local computation is vectorized; a single element must fit in one
``O(log n)``-bit message of the low-bandwidth model, which the strict network
validator checks via :meth:`Semiring.is_scalar`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

__all__ = [
    "Semiring",
    "REAL_FIELD",
    "INTEGER_RING",
    "BOOLEAN",
    "GF2",
    "MIN_PLUS",
    "MAX_PLUS",
    "VITERBI",
    "ALL_SEMIRINGS",
    "FIELD_LIKE",
]


_KERNELS = None


def _kernels_mod():
    """Deferred import of :mod:`repro.model._kernels` (importing it at
    module scope would cycle through ``repro.model.__init__``, which pulls
    modules that import this one)."""
    global _KERNELS
    if _KERNELS is None:
        from repro.model import _kernels

        _KERNELS = _kernels
    return _KERNELS


@dataclasses.dataclass(frozen=True)
class Semiring:
    """A commutative semiring ``(S, +, *, 0, 1)`` with vectorized operations.

    Attributes
    ----------
    name:
        Human-readable identifier used in reports.
    dtype:
        Numpy dtype used to store elements.
    zero, one:
        Additive and multiplicative identities.
    add, mul:
        Vectorized binary operations (numpy ufunc-compatible callables).
    is_field:
        True when the structure supports subtraction and division, enabling
        Strassen-type dense kernels (the paper's "fields" column).
    """

    name: str
    dtype: Any
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    is_field: bool = False
    # Optional subtraction for ring/field structures (required by Strassen).
    sub: Callable[[Any, Any], Any] | None = None

    # ------------------------------------------------------------------ #
    # Bulk helpers
    # ------------------------------------------------------------------ #
    def scalar(self, value) -> Any:
        """Coerce a value to a single element of this semiring's dtype."""
        return np.dtype(self.dtype).type(value)

    def zeros(self, shape) -> np.ndarray:
        """An array filled with the additive identity."""
        out = np.empty(shape, dtype=self.dtype)
        out.fill(self.zero)
        return out

    def array(self, values) -> np.ndarray:
        """Coerce values to this semiring's dtype."""
        return np.asarray(values, dtype=self.dtype)

    def sum(self, values: np.ndarray, axis=None) -> Any:
        """Semiring sum reduction (``add.reduce`` when available)."""
        values = np.asarray(values, dtype=self.dtype)
        if values.size == 0:
            return self.array(self.zero) if axis is None else self.zeros(())
        if isinstance(self.add, np.ufunc):
            return self.add.reduce(values, axis=axis)
        result = values.take(0, axis=axis or 0) if axis is not None else None
        if axis is None:
            flat = values.ravel()
            acc = flat[0]
            for v in flat[1:]:
                acc = self.add(acc, v)
            return acc
        for i in range(1, values.shape[axis or 0]):
            result = self.add(result, values.take(i, axis=axis))
        return result

    def segment_sum(self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
        """Sum ``values`` grouped by ``segment_ids`` (used for X accumulation).

        For ordinary addition the scatter-add runs through
        :mod:`repro.model._kernels` (ordered ``np.bincount``), which
        accumulates in element order, bit-identical to ``np.add.at``.
        """
        values = np.asarray(values, dtype=self.dtype)
        out = self.zeros(num_segments)
        if values.size == 0:
            return out
        if self.add is np.add:
            return _kernels_mod().segment_sum_f8(values, segment_ids, out)
        self.accumulate_at(out, segment_ids, values)
        return out

    def accumulate_at(self, out: np.ndarray, segment_ids, values) -> None:
        """In-place ordered scatter: ``out[s] = add(out[s], v)`` for each
        ``(s, v)`` of ``zip(segment_ids, values)``, in element order.

        Exact for any starting ``out`` (unlike a ``bincount`` sum, which is
        order-exact only from a zero accumulator): ``ufunc.at`` applies the
        operation element by element, so every float addition happens in
        the same order, on the same operands, as the sequential loop.
        """
        if isinstance(self.add, np.ufunc):
            self.add.at(out, segment_ids, values)
            return
        for seg, val in zip(np.asarray(segment_ids).tolist(), values):
            out[seg] = self.add(out[seg], val)

    def segment_sum_batch(
        self, values: np.ndarray, segment_ids: np.ndarray, num_segments: int
    ) -> np.ndarray:
        """Batched :meth:`segment_sum`: ``values`` is ``(B, m)`` — one row
        per job of a coalesced batch — and every row accumulates
        independently, in element order, into a ``(B, num_segments)``
        plane.  Row ``b`` of the result is bit-identical to
        ``segment_sum(values[b], ...)`` on every dispatch path, which is
        what lets the replay engine execute a whole batch's segment sums
        in one call without perturbing the per-job reference results.
        """
        values = np.asarray(values, dtype=self.dtype)
        if values.ndim != 2:
            raise ValueError("segment_sum_batch expects a (B, m) value plane")
        B = values.shape[0]
        out = self.zeros((B, num_segments))
        if values.size == 0:
            return out
        segment_ids = np.ascontiguousarray(segment_ids, dtype=np.int64)
        if self.add is np.add:
            return _kernels_mod().segment_sum_batch(values, segment_ids, out)
        if isinstance(self.add, np.ufunc):
            self.add.at(out, (np.arange(B)[:, None], segment_ids[None, :]), values)
            return out
        for b in range(B):
            self.accumulate_at(out[b], segment_ids, values[b])
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense reference product (ground truth for tests/benches)."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if self is REAL_FIELD or self is INTEGER_RING:
            return a @ b
        n, k = a.shape
        k2, m = b.shape
        if k != k2:
            raise ValueError("shape mismatch")
        out = self.zeros((n, m))
        for j in range(k):
            # rank-1 update: out = add(out, outer(a[:, j], b[j, :]))
            contrib = self.mul(a[:, j][:, None], b[j, :][None, :])
            out = self.add(out, contrib)
        return out

    def is_scalar(self, value: Any) -> bool:
        """One semiring element == one O(log n)-bit message payload."""
        return np.isscalar(value) or (isinstance(value, np.generic)) or (
            isinstance(value, np.ndarray) and value.ndim == 0
        )

    def random_values(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Random nonzero-ish elements for instance generation."""
        if self is BOOLEAN:
            return np.ones(size, dtype=self.dtype)
        if self is GF2:
            return np.ones(size, dtype=self.dtype)
        if self in (MIN_PLUS, MAX_PLUS):
            return self.array(rng.integers(1, 100, size=size))
        if self is VITERBI:
            return self.array(np.round(rng.uniform(0.05, 1.0, size=size), 3))
        if self is INTEGER_RING:
            return self.array(rng.integers(-9, 10, size=size))
        return self.array(np.round(rng.uniform(-4, 4, size=size), 3))

    def close(self, a, b) -> bool:
        """Equality up to float tolerance (exact for discrete dtypes)."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if np.issubdtype(np.dtype(self.dtype), np.floating):
            both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
            return bool(np.all(both_inf | np.isclose(a, b, atol=1e-8, rtol=1e-8)))
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


REAL_FIELD = Semiring(
    name="real-field",
    dtype=np.float64,
    zero=0.0,
    one=1.0,
    add=np.add,
    mul=np.multiply,
    sub=np.subtract,
    is_field=True,
)

INTEGER_RING = Semiring(
    name="integer-ring",
    dtype=np.int64,
    zero=0,
    one=1,
    add=np.add,
    mul=np.multiply,
    sub=np.subtract,
    # A commutative ring: subtraction exists, so Strassen applies even though
    # division does not.  The paper's "fields" column only needs bilinear
    # algorithms, which work over any ring.
    is_field=True,
)

BOOLEAN = Semiring(
    name="boolean",
    dtype=np.bool_,
    zero=False,
    one=True,
    add=np.logical_or,
    mul=np.logical_and,
    is_field=False,
)

GF2 = Semiring(
    name="gf2",
    dtype=np.uint8,
    zero=np.uint8(0),
    one=np.uint8(1),
    add=np.bitwise_xor,
    mul=np.bitwise_and,
    sub=np.bitwise_xor,
    is_field=True,
)

MIN_PLUS = Semiring(
    name="min-plus",
    dtype=np.float64,
    zero=np.inf,
    one=0.0,
    add=np.minimum,
    mul=np.add,
    is_field=False,
)

MAX_PLUS = Semiring(
    name="max-plus",
    dtype=np.float64,
    zero=-np.inf,
    one=0.0,
    add=np.maximum,
    mul=np.add,
    is_field=False,
)

#: the Viterbi semiring ([0, 1], max, *): most-probable-path products
VITERBI = Semiring(
    name="viterbi",
    dtype=np.float64,
    zero=0.0,
    one=1.0,
    add=np.maximum,
    mul=np.multiply,
    is_field=False,
)

ALL_SEMIRINGS = (REAL_FIELD, INTEGER_RING, BOOLEAN, GF2, MIN_PLUS, MAX_PLUS, VITERBI)
FIELD_LIKE = tuple(s for s in ALL_SEMIRINGS if s.is_field)

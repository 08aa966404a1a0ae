"""NumPy kernels for the columnar gather/scatter hot loops.

Columnar value movement spends its time in two places: the segment sums
behind :meth:`repro.semirings.Semiring.segment_sum` (and its batched
replay form), and the per-segment offset enumeration behind the
collective batches (:mod:`repro.model.collectives`).

Determinism contract
--------------------
The segment sums accumulate ``out[seg[k]] += values[k]`` in index order,
the same float addition order as ``np.add.at``, so results are
bit-identical to it, not merely close.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kernel_info",
    "segment_sum_f8",
    "segment_sum_batch",
    "segment_offsets",
]


def kernel_info() -> dict:
    """The kernel configuration, recorded into bench artifacts.

    Keys: ``backend`` (always ``"numpy"``) and ``note``, one line
    naming the kernels.
    """
    return {"backend": "numpy", "note": "pure-numpy kernels"}


def segment_sum_f8(
    values: np.ndarray, seg_ids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Ordered scatter-add into ``out`` (float64/int64 value planes).

    The float64 path uses ``np.bincount`` with weights, whose C loop
    accumulates sequentially in input order: bit-identical to
    ``np.add.at`` and roughly an order of magnitude faster.
    """
    seg_ids = np.ascontiguousarray(seg_ids, dtype=np.int64)
    if values.dtype == np.float64 and out.dtype == np.float64:
        out += np.bincount(seg_ids, weights=values, minlength=out.shape[0])
        return out
    np.add.at(out, seg_ids, values)
    return out


def segment_sum_batch(
    values: np.ndarray, seg_ids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Batched ordered scatter-add: ``values`` is ``(B, m)``, ``out`` is
    ``(B, S)``, and every row accumulates independently in element order.

    This is the replay engine's workhorse (one call covers a whole batch
    of structurally identical jobs).  The float64 path flattens the batch
    into one ``np.bincount`` over row-offset segment ids; C-order ravel
    keeps each row's element order, so each row is bit-identical to a
    :func:`segment_sum_f8` call.
    """
    seg_ids = np.ascontiguousarray(seg_ids, dtype=np.int64)
    B, S = out.shape
    if values.dtype == np.float64 and out.dtype == np.float64:
        flat = (seg_ids[None, :] + (np.arange(B, dtype=np.int64) * S)[:, None]).ravel()
        out += np.bincount(
            flat, weights=np.ascontiguousarray(values).ravel(), minlength=B * S
        ).reshape(B, S)
        return out
    np.add.at(out, (np.arange(B)[:, None], seg_ids[None, :]), values)
    return out


def segment_offsets(counts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """For per-segment message counts, return ``(seg_of_msg, offset_in_seg)``
    — the segment-major enumeration the collective batch builders use."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    seg_of_msg = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    firsts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - firsts[seg_of_msg]
    return seg_of_msg, offsets

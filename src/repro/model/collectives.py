"""Collective-operation helpers layered on the network primitives.

The routing scheme of Lemma 3.1 repeatedly works with a *sorted triple
array* distributed over consecutive computers: runs of equal ``(i, j)``
pairs form segments, the first triple of a run is the *anchor*, and values
are spread (broadcast) or aggregated (convergecast) along each run.  The
helpers here build the per-level message batches of the doubling and
halving trees along such segments, and the scan and reduce collectives.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.model import _kernels

__all__ = [
    "broadcast_tree_rounds",
    "doubling_batches",
    "doubling_batches_arrays",
    "halving_batches",
    "halving_batches_arrays",
    "collective_tape",
]


def broadcast_tree_rounds(max_segment: int) -> int:
    """Rounds a binary doubling tree needs to cover ``max_segment`` nodes."""
    if max_segment <= 1:
        return 0
    return math.ceil(math.log2(max_segment))


def all_reduce(net, key, combine, *, label: str = "all-reduce") -> int:
    """Combine the values held under ``key`` by all computers and leave
    the result at every computer: convergecast + broadcast, ``2 ceil(log2
    n)`` rounds.

    The aggregation half is exactly the ``Omega(log n)``-hard SUM
    primitive of Corollary 6.10; the distribution half is the broadcast of
    Lemma 6.13 — so this is round-optimal up to the constant 2.
    """
    everyone = [list(range(net.n))]
    used = net.segmented_convergecast(everyone, [key], combine, label=f"{label}/reduce")
    used += net.segmented_broadcast(everyone, [key], label=f"{label}/bcast")
    return used


def prefix_scan(net, key, combine, *, label: str = "scan") -> int:
    """Exclusive prefix combine: computer ``i`` ends holding
    ``combine(v_0, ..., v_{i-1})`` under ``(key, "prefix")`` (computer 0
    gets no prefix key).  Hillis-Steele doubling, ``ceil(log2 n)`` rounds,
    each a legal one-in/one-out permutation.
    """
    import numpy as _np

    from repro.model.network import Message

    n = net.n
    if n <= 1:
        return 0
    acc_key = (key, "__scan_acc__")
    for comp in range(n):
        net.write(comp, acc_key, net.read(comp, key), provenance=(key,))
    used = 0
    step = 1
    while step < n:
        batch = []
        for src in range(n - step):
            batch.append(Message(src, src + step, acc_key, (key, "__scan_in__")))
        used += net.exchange(batch, label=f"{label}/step{step}")
        for dst in range(step, n):
            merged = combine(net.read(dst, (key, "__scan_in__")), net.read(dst, acc_key))
            net.write(dst, acc_key, merged, provenance=(acc_key, (key, "__scan_in__")))
            net.delete(dst, (key, "__scan_in__"))
        step <<= 1
    # the inclusive accumulator at i covers v_0..v_i; shift to exclusive
    batch = [Message(i, i + 1, acc_key, (key, "prefix")) for i in range(n - 1)]
    # can't reuse acc_key once shifted: send the value of v_0..v_{i} to i+1
    used += net.exchange(batch, label=f"{label}/shift")
    for comp in range(n):
        net.delete(comp, acc_key)
    return used


def _flatten_segments(
    segments: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate segments into ``(flat, starts, lengths)`` arrays."""
    lengths = np.fromiter((len(s) for s in segments), dtype=np.int64, count=len(segments))
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if lengths.size else np.empty(0, dtype=np.int64)
    flat = (
        np.concatenate([np.asarray(s, dtype=np.int64) for s in segments])
        if len(segments)
        else np.empty(0, dtype=np.int64)
    )
    return flat, starts.astype(np.int64), lengths


def _segment_offsets(counts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """For per-segment message counts, return ``(seg_of_msg, offset_in_seg)``
    enumerating messages segment-major, offsets ascending
    (:func:`repro.model._kernels.segment_offsets`)."""
    return _kernels.segment_offsets(counts, total)


def doubling_batches_arrays(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Array-native core of :func:`doubling_batches`: segments given as
    ``flat[starts[g] : starts[g] + lengths[g]]``."""
    if lengths.size == 0:
        return
    max_len = int(lengths.max())
    step = 1
    while step < max_len:
        counts = np.minimum(step, np.maximum(lengths - step, 0))
        total = int(counts.sum())
        if total:
            seg_of_msg, offsets = _segment_offsets(counts, total)
            base = starts[seg_of_msg] + offsets
            yield flat[base], flat[base + step], seg_of_msg
        step <<= 1


def doubling_batches(segments: Sequence[Sequence[int]]):
    """Per-step message batches of parallel binary *doubling* trees.

    For disjoint segments of computers, yields one ``(src, dst, seg_of_msg)``
    triple per tree level: at step ``2^t``, position ``p`` of each segment
    forwards to position ``p + 2^t`` for ``p < min(2^t, len - 2^t)``.  The
    batches are exactly those of the historical per-``Message`` loops
    (segment-major, positions ascending), built as arrays.
    """
    yield from doubling_batches_arrays(*_flatten_segments(segments))


def halving_batches_arrays(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Array-native core of :func:`halving_batches`."""
    if lengths.size == 0:
        return
    max_len = int(lengths.max())
    if max_len <= 1:
        return
    t = 1
    while (t << 1) < max_len:
        t <<= 1
    while t >= 1:
        counts = np.maximum(np.minimum(2 * t, lengths) - t, 0)
        total = int(counts.sum())
        if total:
            seg_of_msg, offsets = _segment_offsets(counts, total)
            pos = starts[seg_of_msg] + t + offsets
            yield flat[pos], flat[pos - t], seg_of_msg
        t >>= 1


def halving_batches(segments: Sequence[Sequence[int]]):
    """Per-step message batches of parallel binary *halving* (convergecast)
    trees: the mirror of :func:`doubling_batches`.

    At step ``t`` (descending powers of two), position ``p`` of each segment
    sends to position ``p - t`` for ``t <= p < min(2t, len)``.
    """
    yield from halving_batches_arrays(*_flatten_segments(segments))


def collective_tape(
    segments: Sequence[Sequence[int]], *, kind: str = "halving"
) -> tuple[int, int]:
    """The ``(rounds, messages)`` bill a doubling/halving collective over
    ``segments`` charges, computed without executing anything.

    Each batch the generators yield is one lockstep round whose message
    count is the batch size — exactly what
    :meth:`~repro.model.network.LowBandwidthNetwork.segmented_broadcast` /
    ``segmented_convergecast`` record per level.  The replay-plan compiler
    uses this to pre-bill deterministic collectives (e.g. the serve
    layer's triangle aggregation) without a network.
    """
    gen = halving_batches if kind == "halving" else doubling_batches
    rounds = 0
    messages = 0
    for src, _dst, _seg in gen(segments):
        rounds += 1
        messages += int(src.size)
    return rounds, messages

"""Optional compiled kernels for the simulator's two hottest inner loops.

Profiling the cold path (BENCH_simulator.json) puts nearly all
single-core time into two places:

1. **First-fit scheduling** — the sequential two-sided first-fit of
   :func:`repro.model.scheduling.greedy_two_sided_schedule` (without this
   kernel: the reference loop over Python big-int bitmasks, one step per
   message or, on phases of repeated pairs, one step per run).
2. **Columnar gather/scatter delivery** — the segment sums that realize
   value movement in the columnar algorithm paths
   (:meth:`repro.semirings.Semiring.segment_sum`, historically
   ``np.add.at``, which is an order of magnitude slower than a compiled
   loop) and the per-segment offset enumeration behind the collective
   batches (:mod:`repro.model.collectives`).

This module provides Numba-JIT implementations of both, selected through
``REPRO_KERNELS`` (:func:`repro.envconfig.env_kernels`):

* ``auto`` (default) — use Numba when importable, NumPy otherwise;
* ``numba`` — request Numba; **falls back silently to NumPy** when Numba
  is not installed (``kernel_info()`` records the fallback so benchmark
  artifacts stay honest);
* ``numpy`` — force the pure-NumPy path even when Numba is present (the
  bit-identity reference).

Determinism contract
--------------------
Every kernel here is semantically *sequential in message/element order*,
exactly like the reference implementations it replaces:

* the first-fit kernel assigns each message the lowest round free for
  both endpoints, processing messages in the given order — the same
  executable specification as
  :func:`repro.model.scheduling._first_fit_reference`;
* the segment-sum kernel accumulates ``out[seg[k]] += values[k]`` in
  index order — the same float addition order as ``np.add.at`` (and
  ``np.bincount``), so results are bit-identical, not merely close.

The pure-Python bodies below double as the executable specification: the
Numba backend is the *same function* compiled with ``njit``, so parity
between backends is structural, and the test-suite additionally asserts
byte-identical outputs across the golden instances.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "kernel_info",
    "reset_backend",
    "first_fit_words",
    "first_fit_available",
    "segment_sum_f8",
    "segment_sum_batch",
    "segment_offsets",
]

_UINT64_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #
def _probe_numba():
    """Import Numba if present; never raise (absence is a supported and
    silent configuration — the NumPy reference path takes over)."""
    try:
        import numba  # noqa: F401

        return numba
    except Exception:
        return None


_NUMBA = _probe_numba()

#: resolved backend name ("numba" | "numpy"); None until first resolve
_BACKEND: str | None = None
#: what the environment asked for, recorded for kernel_info()
_REQUESTED: str | None = None
#: compiled kernels, populated lazily on first numba-backend use
_JIT: dict = {}


def _resolve() -> str:
    global _BACKEND, _REQUESTED
    if _BACKEND is not None:
        return _BACKEND
    from repro.envconfig import env_kernels

    _REQUESTED = env_kernels()
    if _REQUESTED == "numpy":
        _BACKEND = "numpy"
    elif _REQUESTED == "numba":
        _BACKEND = "numba" if _NUMBA is not None else "numpy"
    else:  # auto
        _BACKEND = "numba" if _NUMBA is not None else "numpy"
    return _BACKEND


def backend() -> str:
    """The active kernel backend: ``"numba"`` or ``"numpy"``."""
    return _resolve()


def reset_backend() -> None:
    """Forget the resolved backend so the next call re-reads
    ``REPRO_KERNELS`` (tests flip the variable mid-process)."""
    global _BACKEND, _REQUESTED
    _BACKEND = None
    _REQUESTED = None


def kernel_info() -> dict:
    """Honest description of the kernel configuration for bench artifacts.

    Keys: ``backend`` (active), ``requested`` (environment ask),
    ``numba_available``, ``numba_version``, and ``note`` — one line
    explaining any silent fallback.
    """
    active = _resolve()
    info = {
        "backend": active,
        "requested": _REQUESTED,
        "numba_available": _NUMBA is not None,
        "numba_version": getattr(_NUMBA, "__version__", None),
    }
    if _REQUESTED == "numba" and active == "numpy":
        info["note"] = "numba requested but not importable; fell back to numpy"
    elif active == "numpy" and _NUMBA is None:
        info["note"] = "numba not installed; pure-numpy reference kernels"
    else:
        info["note"] = f"{active} kernels active"
    return info


def _jit(name: str, py_func):
    """Compile (once) and cache the Numba version of a kernel body."""
    fn = _JIT.get(name)
    if fn is None:
        fn = _NUMBA.njit(cache=True, fastmath=False)(py_func)
        _JIT[name] = fn
    return fn


# --------------------------------------------------------------------- #
# Kernel 1: two-sided first-fit over word bitsets
# --------------------------------------------------------------------- #
def _first_fit_words_body(s_inv, d_inv, send_occ, recv_occ, out):
    """Sequential two-sided first-fit; occupancy as uint64 word bitsets.

    ``send_occ``/``recv_occ`` are ``(endpoints, W)`` uint64 arrays; bit
    ``t`` of word ``w`` set means the endpoint is busy in round
    ``64 * w + t``.  The caller sizes ``W`` from the greedy bound
    ``s_max + r_max - 1``, within which first-fit provably lands, so the
    word scan always finds a free bit.
    """
    m = s_inv.shape[0]
    W = send_occ.shape[1]
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    one = np.uint64(1)
    for k in range(m):
        s = s_inv[k]
        d = d_inv[k]
        for w in range(W):
            u = send_occ[s, w] | recv_occ[d, w]
            if u != full:
                low = (~u) & (u + one)  # lowest zero bit of u
                t = 0
                while (low >> np.uint64(t)) & one == np.uint64(0):
                    t += 1
                out[k] = (w << 6) + t
                send_occ[s, w] |= low
                recv_occ[d, w] |= low
                break
    return out


def first_fit_available() -> bool:
    """Is the compiled first-fit kernel the active scheduling path?"""
    return backend() == "numba"


def first_fit_words(
    s_inv: np.ndarray,
    d_inv: np.ndarray,
    n_send: int,
    n_recv: int,
    bound: int,
    *,
    force_python: bool = False,
) -> np.ndarray:
    """First-fit round assignment for messages ``(s_inv[k], d_inv[k])``.

    ``bound`` is the greedy makespan bound ``s_max + r_max - 1``; the
    assignment never exceeds it.  With the numba backend the compiled
    kernel runs; ``force_python=True`` runs the same body interpreted
    (the parity tests exercise it on hosts without Numba).
    """
    m = int(s_inv.shape[0])
    W = (int(bound) + 63) >> 6
    send_occ = np.zeros((int(n_send), W), dtype=np.uint64)
    recv_occ = np.zeros((int(n_recv), W), dtype=np.uint64)
    out = np.empty(m, dtype=np.int64)
    s_inv = np.ascontiguousarray(s_inv, dtype=np.int64)
    d_inv = np.ascontiguousarray(d_inv, dtype=np.int64)
    if not force_python and backend() == "numba":
        return _jit("first_fit_words", _first_fit_words_body)(
            s_inv, d_inv, send_occ, recv_occ, out
        )
    return _first_fit_words_body(s_inv, d_inv, send_occ, recv_occ, out)


# --------------------------------------------------------------------- #
# Kernel 2: columnar gather/scatter (segment sum + segment offsets)
# --------------------------------------------------------------------- #
def _segment_sum_body(values, seg_ids, out):
    """``out[seg_ids[k]] += values[k]`` in index order (np.add.at order)."""
    for k in range(values.shape[0]):
        out[seg_ids[k]] += values[k]
    return out


def segment_sum_f8(
    values: np.ndarray, seg_ids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Ordered scatter-add into ``out`` (float64/int64 value planes).

    NumPy fallback uses ``np.bincount`` with weights, which accumulates in
    the same element order as the loop (and as ``np.add.at``), so all
    three agree bit-for-bit; the compiled loop and bincount both beat
    ``np.add.at`` by roughly an order of magnitude.
    """
    seg_ids = np.ascontiguousarray(seg_ids, dtype=np.int64)
    if backend() == "numba" and values.dtype in (np.float64, np.int64):
        return _jit("segment_sum", _segment_sum_body)(
            np.ascontiguousarray(values), seg_ids, out
        )
    if values.dtype == np.float64 and out.dtype == np.float64:
        # bincount's C loop accumulates sequentially in input order —
        # bit-identical to the reference loop, much faster than add.at
        out += np.bincount(seg_ids, weights=values, minlength=out.shape[0])
        return out
    np.add.at(out, seg_ids, values)
    return out


def _segment_sum_batch_body(values, seg_ids, out):
    """Row-wise ``out[b, seg_ids[k]] += values[b, k]`` in index order: the
    per-row accumulation order is exactly :func:`_segment_sum_body`'s, so
    every row of the batch is bit-identical to a per-job segment sum."""
    for b in range(values.shape[0]):
        for k in range(values.shape[1]):
            out[b, seg_ids[k]] += values[b, k]
    return out


def segment_sum_batch(
    values: np.ndarray, seg_ids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Batched ordered scatter-add: ``values`` is ``(B, m)``, ``out`` is
    ``(B, S)``, and every row accumulates independently in element order.

    This is the replay engine's workhorse (one call covers a whole batch
    of structurally identical jobs).  The NumPy float64 path flattens the
    batch into one ``np.bincount`` over row-offset segment ids — C-order
    ravel keeps each row's element order, so all three backends (compiled
    loop, bincount, ``np.add.at``) agree bit-for-bit with B independent
    :func:`segment_sum_f8` calls.
    """
    seg_ids = np.ascontiguousarray(seg_ids, dtype=np.int64)
    if backend() == "numba" and values.dtype in (np.float64, np.int64):
        return _jit("segment_sum_batch", _segment_sum_batch_body)(
            np.ascontiguousarray(values), seg_ids, out
        )
    B, S = out.shape
    if values.dtype == np.float64 and out.dtype == np.float64:
        flat = (seg_ids[None, :] + (np.arange(B, dtype=np.int64) * S)[:, None]).ravel()
        out += np.bincount(
            flat, weights=np.ascontiguousarray(values).ravel(), minlength=B * S
        ).reshape(B, S)
        return out
    np.add.at(out, (np.arange(B)[:, None], seg_ids[None, :]), values)
    return out


def _segment_offsets_body(counts, seg_of_msg, offsets):
    """Enumerate messages segment-major with ascending in-segment offsets."""
    pos = 0
    for g in range(counts.shape[0]):
        c = counts[g]
        for o in range(c):
            seg_of_msg[pos] = g
            offsets[pos] = o
            pos += 1
    return pos


def segment_offsets(counts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """For per-segment message counts, return ``(seg_of_msg, offset_in_seg)``
    — the fused equivalent of ``np.repeat`` + cumsum arithmetic used by the
    collective batch builders."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if backend() == "numba":
        seg_of_msg = np.empty(total, dtype=np.int64)
        offsets = np.empty(total, dtype=np.int64)
        _jit("segment_offsets", _segment_offsets_body)(counts, seg_of_msg, offsets)
        return seg_of_msg, offsets
    seg_of_msg = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    firsts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - firsts[seg_of_msg]
    return seg_of_msg, offsets

"""Zero-copy shared-memory data plane for the sweep executor.

The low-bandwidth model treats communication as the scarce resource — and
the execution engine should live by the same rule at the OS level.  The
historical parallel sweep path pickled instance matrices, freshly
computed schedule arrays, and whole ``CellResult`` objects through worker
pipes; on small hosts that serialization tax made ``workers=4`` *slower*
than serial (BENCH_sweeps.json recorded 0.43x).  This module provides the
shared-memory primitives that eliminate it:

* :class:`ShmArena` — the parent-side owner of every named
  ``multiprocessing.shared_memory`` segment of a sweep.  Creation is
  centralized in the parent so cleanup is unconditional: workers never
  create segments, and the arena's ``close()`` (also its context-manager
  exit) closes **and unlinks** everything even when workers crashed
  mid-cell — no leaked ``/dev/shm`` entries.
* :class:`ArrayDescriptor` — the only thing that ever crosses a pipe:
  ``(segment name, dtype, shape, offset)``.  :func:`attach_array` turns a
  descriptor back into a NumPy view without copying.
* Schedule-entry packing (:func:`pack_entries` / :func:`iter_entries`) —
  the structure-keyed schedule cache's ``digest -> rounds`` entries as a
  flat record stream inside one segment.  The parent packs its warm
  store once; every worker attaches zero-copy instead of re-reading the
  npz from disk.  Workers append their newly computed schedules to a
  per-worker *harvest* segment and report only byte ranges.
* Instance sharing (:func:`share_instance` / :func:`attach_instance`) —
  the five CSR arrays of a :class:`~repro.supported.instance.SupportedInstance`
  (values and indicator matrices) placed in segments and reattached as
  views, so an instance built once is readable by every worker with zero
  serialization and zero duplication.
* :func:`result_block` — a shared structured array with one row per sweep
  cell for the numeric ``CellResult`` fields; a worker finishes a cell by
  writing its row in place, and the completion message shrinks to a cell
  index plus optional error text.

Ownership is single-sided: the parent's arena creates, closes, and
unlinks; workers only attach and close.  The resource tracker is shared
across the process tree, so attach-side re-registration is a harmless
set-add and the parent's unlink performs the one unregister.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterator

import numpy as np

__all__ = [
    "ArrayDescriptor",
    "InstanceDescriptor",
    "ShmArena",
    "attach_segment",
    "attach_array",
    "pack_entries",
    "entries_nbytes",
    "iter_entries",
    "append_entry",
    "RESULT_ROW_DTYPE",
    "result_block",
    "share_instance",
    "attach_instance",
    "share_csr",
    "attach_csr",
    "active_segments",
    "register_cleanup",
    "cleanup_all",
    "install_sigterm_cleanup",
]

#: prefix of every segment this repo creates; tests glob ``/dev/shm`` for
#: it to prove nothing leaks
SEGMENT_PREFIX = "repro-sweep"

_DIGEST_BYTES = 16  # blake2b(digest_size=16) — see repro.model.schedule_cache
_LEN_BYTES = 8  # int64 payload length following each digest


@dataclass(frozen=True)
class ArrayDescriptor:
    """Address of one array inside a named shared segment.

    ``dtype`` is anything ``np.dtype()`` accepts — a dtype string for
    plain arrays, a field-description list for structured ones (a
    structured dtype's ``.str`` collapses to a fieldless void, so
    structured descriptors must carry ``.descr``).
    """

    name: str
    dtype: Any
    shape: tuple
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


@dataclass(frozen=True)
class InstanceDescriptor:
    """A :class:`SupportedInstance` flattened to shared-segment addresses.

    ``csr`` maps each matrix field (``a``, ``b``, ``a_hat``, ``b_hat``,
    ``x_hat``) to its ``(data, indices, indptr)`` descriptors plus shape;
    the scalar metadata (semiring, d, distribution) rides along in the
    (tiny) descriptor itself.
    """

    csr: dict
    semiring: Any
    d: int
    distribution: str
    n: int


# --------------------------------------------------------------------- #
# Process-exit cleanup: atexit + chained SIGTERM
# --------------------------------------------------------------------- #
# Every live arena registers itself here; anything else that owns OS
# resources (the serve pool with its resident workers) can join via
# ``register_cleanup``.  On normal interpreter exit the atexit hook
# unlinks whatever a ``finally`` did not reach; on SIGTERM — where
# CPython runs *no* atexit handlers under the default disposition — the
# chained handler installed by :func:`install_sigterm_cleanup` does the
# same sweep and then re-raises the signal with the default handler so
# the process still dies with the SIGTERM exit status supervisors expect.
_live_arenas: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()
_extra_cleanups: "weakref.WeakSet[Any]" = weakref.WeakSet()
# re-entrant: a SIGTERM landing while the atexit sweep holds the lock
# runs the handler on the same (main) thread
_cleanup_lock = threading.RLock()
_prev_sigterm: Any = None
#: the process that installed the hook (``None``: not installed)
_sigterm_pid: int | None = None


def register_cleanup(obj: Any) -> None:
    """Have ``obj.close()`` called at exit/SIGTERM (weakly referenced)."""
    _extra_cleanups.add(obj)


def cleanup_all() -> None:
    """Close every registered resource, pools before arenas; idempotent.

    Pools go first so resident workers (which hold attach-side mappings)
    are dead before their parent unlinks the segments.
    """
    with _cleanup_lock:
        for obj in list(_extra_cleanups):
            try:
                obj.close()
            except Exception:
                pass
        for arena in list(_live_arenas):
            try:
                arena.close()
            except Exception:
                pass


def _sigterm_cleanup(signum, frame) -> None:
    # a forked worker inherits this handler and a copy of the registry,
    # but the segments and workers in it are its parent's
    if os.getpid() == _sigterm_pid:
        cleanup_all()
    prev = _prev_sigterm
    if callable(prev):
        prev(signum, frame)
        return
    if prev is signal.SIG_IGN:
        return
    # default disposition: die of the signal (correct wait status)
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def install_sigterm_cleanup() -> bool:
    """Chain SIGTERM through :func:`cleanup_all`; idempotent.

    Returns ``True`` once installed.  A non-main thread cannot set signal
    handlers — that (and any exotic runtime refusing the call) degrades
    to ``False``, leaving the atexit hook as the cleanup of record.
    """
    global _prev_sigterm, _sigterm_pid
    if _sigterm_pid is not None:
        return True
    try:
        prev = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _sigterm_cleanup)
    except (ValueError, OSError, RuntimeError):
        return False
    _prev_sigterm = prev
    _sigterm_pid = os.getpid()
    return True


atexit.register(cleanup_all)


def active_segments() -> list[str]:
    """Names of live ``/dev/shm`` segments created by this repository
    (diagnostics and leak tests)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # non-Linux: nothing to report
        return []
    return sorted(p for p in os.listdir(root) if p.startswith(SEGMENT_PREFIX))


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking ownership.

    The attach-side resource-tracker registration is deliberately left
    alone: workers share the parent's tracker process (inherited under
    both fork and spawn), where re-registering an existing name is a
    no-op set-add and the parent's ``unlink()`` performs the single
    unregister.  Explicitly unregistering here would strip the parent's
    own registration and make that unlink-time unregister error out.
    """
    return shared_memory.SharedMemory(name=name, create=False)


def attach_array(
    desc: ArrayDescriptor, shm: shared_memory.SharedMemory | None = None
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Materialize a descriptor as a zero-copy NumPy view.

    Returns ``(view, segment)``; the view holds a reference to the
    segment's buffer, so the mapping stays valid for the view's lifetime.
    """
    if shm is None:
        shm = attach_segment(desc.name)
    view = np.ndarray(
        desc.shape, dtype=np.dtype(desc.dtype), buffer=shm.buf, offset=desc.offset
    )
    return view, shm


class ShmArena:
    """Parent-side registry of shared segments with unconditional cleanup.

    Every segment of a sweep is created here (workers only attach), so a
    single ``close()`` in the executor's ``finally`` releases everything
    whatever happened in between — worker crashes included.  Segment
    names are ``repro-sweep-<pid>-<token>`` so concurrent sweeps never
    collide and leak tests can glob for the prefix.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._attached: list[shared_memory.SharedMemory] = []
        self.closed = False
        _live_arenas.add(self)

    # -- creation (parent only) ------------------------------------------
    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """Create (and own) a fresh named segment of at least ``nbytes``."""
        name = f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(int(nbytes), 1))
        self._segments.append(shm)
        return shm

    def share_array(self, arr: np.ndarray) -> ArrayDescriptor:
        """Copy an array into a fresh segment; return its address."""
        arr = np.ascontiguousarray(arr)
        shm = self.create(arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        return ArrayDescriptor(shm.name, arr.dtype.str, tuple(arr.shape), 0)

    # -- attachment bookkeeping (any process) ----------------------------
    def track(self, shm: shared_memory.SharedMemory) -> shared_memory.SharedMemory:
        """Remember an attached segment so ``close()`` unmaps it (without
        unlinking — only created segments are unlinked)."""
        self._attached.append(shm)
        return shm

    # -- teardown --------------------------------------------------------
    def close(self) -> None:
        """Close every mapping; unlink every segment this arena created.

        Idempotent and exception-free: cleanup of one segment never
        blocks cleanup of the rest.
        """
        if self.closed:
            return
        self.closed = True
        for shm in self._attached:
            try:
                shm.close()
            except Exception:
                pass
        for shm in self._segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._attached.clear()
        _live_arenas.discard(self)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Schedule-entry record streams
# --------------------------------------------------------------------- #
# Record layout (8-byte aligned because payloads are int64 arrays):
#   [16-byte digest][int64 payload nbytes][payload bytes]
def entries_nbytes(entries: dict[bytes, np.ndarray]) -> int:
    """Bytes needed to pack ``entries`` as a record stream."""
    return sum(
        _DIGEST_BYTES + _LEN_BYTES + np.ascontiguousarray(v, dtype=np.int64).nbytes
        for v in entries.values()
    )


def append_entry(buf: memoryview, cursor: int, digest: bytes, rounds: np.ndarray) -> int:
    """Write one record at ``cursor``; return the new cursor.

    Raises :class:`ValueError` when the record does not fit — callers
    (the worker harvest path) fall back to shipping the entry through
    the pipe and count the spill.
    """
    rounds = np.ascontiguousarray(rounds, dtype=np.int64)
    end = cursor + _DIGEST_BYTES + _LEN_BYTES + rounds.nbytes
    if end > len(buf):
        raise ValueError("record does not fit in the harvest segment")
    buf[cursor : cursor + _DIGEST_BYTES] = digest
    buf[cursor + _DIGEST_BYTES : cursor + _DIGEST_BYTES + _LEN_BYTES] = int(
        rounds.nbytes
    ).to_bytes(_LEN_BYTES, "little")
    buf[cursor + _DIGEST_BYTES + _LEN_BYTES : end] = rounds.tobytes()
    return end


def pack_entries(arena: ShmArena, entries: dict[bytes, np.ndarray]) -> tuple[str, int] | None:
    """Pack schedule-cache entries into one fresh segment.

    Returns ``(segment name, used bytes)`` or ``None`` for an empty dict.
    """
    if not entries:
        return None
    shm = arena.create(entries_nbytes(entries))
    cursor = 0
    for digest, rounds in entries.items():
        cursor = append_entry(shm.buf, cursor, digest, rounds)
    return shm.name, cursor


def iter_entries(
    buf: memoryview, end: int, *, start: int = 0, copy: bool = False
) -> Iterator[tuple[bytes, np.ndarray]]:
    """Walk the records in ``buf[start:end]``.

    With ``copy=False`` the yielded arrays are zero-copy views into the
    segment — valid only while the mapping is; pass ``copy=True`` when
    the entries outlive the segment (the parent merging a worker harvest
    into the long-lived cache).
    """
    cursor = start
    while cursor + _DIGEST_BYTES + _LEN_BYTES <= end:
        digest = bytes(buf[cursor : cursor + _DIGEST_BYTES])
        nbytes = int.from_bytes(
            buf[cursor + _DIGEST_BYTES : cursor + _DIGEST_BYTES + _LEN_BYTES], "little"
        )
        payload_at = cursor + _DIGEST_BYTES + _LEN_BYTES
        if nbytes < 0 or payload_at + nbytes > end:
            return  # torn record: stop at the last complete one
        arr = np.frombuffer(buf, dtype=np.int64, count=nbytes // 8, offset=payload_at)
        if copy:
            arr = arr.copy()
        yield digest, arr
        cursor = payload_at + nbytes


# --------------------------------------------------------------------- #
# Shared result block
# --------------------------------------------------------------------- #
#: numeric CellResult fields, one row per cell.  Workers write rows in
#: place; strings (errors, details) travel in the tiny completion message.
RESULT_ROW_DTYPE = np.dtype(
    [
        ("rounds", "<i8"),
        ("messages", "<i8"),
        ("wall_s", "<f8"),
        ("cache_hits", "<i8"),
        ("cache_misses", "<i8"),
        ("new_schedules", "<i8"),
        ("worker_pid", "<i8"),
        ("baseline_bytes", "<i8"),  # what the pickle path would have shipped
        ("shipped_bytes", "<i8"),  # what actually crossed the pipe
        ("verified", "<i1"),  # -1 not requested, 0 false, 1 true
        ("status", "<i1"),  # 0 ok, 1 failed
    ]
)


def result_block(arena: ShmArena, num_cells: int) -> tuple[ArrayDescriptor, np.ndarray]:
    """Create the shared per-cell result table; returns (descriptor, view)."""
    shm = arena.create(max(num_cells, 1) * RESULT_ROW_DTYPE.itemsize)
    view = np.ndarray(num_cells, dtype=RESULT_ROW_DTYPE, buffer=shm.buf)
    view["verified"] = -1
    view["rounds"] = -1
    view["messages"] = -1
    return ArrayDescriptor(shm.name, RESULT_ROW_DTYPE.descr, (num_cells,), 0), view


# --------------------------------------------------------------------- #
# Instance sharing
# --------------------------------------------------------------------- #
_CSR_FIELDS = ("a", "b", "a_hat", "b_hat", "x_hat")


def share_csr(arena: ShmArena, mat) -> dict:
    """Place one CSR matrix's three arrays into shared segments.

    Returns the ``{"shape", "data", "indices", "indptr"}`` descriptor
    dict both the sweep executor's instance sharing and the serving
    layer's batch shipping use; rebuild with :func:`attach_csr`.
    """
    return {
        "shape": tuple(mat.shape),
        "data": arena.share_array(np.asarray(mat.data)),
        "indices": arena.share_array(np.asarray(mat.indices)),
        "indptr": arena.share_array(np.asarray(mat.indptr)),
    }


def attach_csr(spec: dict, arena: ShmArena):
    """Rebuild a CSR matrix over zero-copy views of a :func:`share_csr`
    descriptor; attached segments are tracked on ``arena`` for unmap."""
    import scipy.sparse as sp

    parts = []
    for part in ("data", "indices", "indptr"):
        view, seg = attach_array(spec[part])
        arena.track(seg)
        parts.append(view)
    return sp.csr_matrix(tuple(parts), shape=spec["shape"], copy=False)


def share_instance(arena: ShmArena, inst) -> InstanceDescriptor | None:
    """Place an instance's CSR arrays into shared segments.

    Returns ``None`` for instance types the zero-copy protocol does not
    understand (the executor falls back to per-cell factory calls).
    """
    from repro.supported.instance import SupportedInstance

    if type(inst) is not SupportedInstance:
        return None
    csr: dict = {}
    for field in _CSR_FIELDS:
        csr[field] = share_csr(arena, getattr(inst, field))
    return InstanceDescriptor(
        csr=csr,
        semiring=inst.semiring,
        d=inst.d,
        distribution=inst.distribution,
        n=inst.n,
    )


def attach_instance(desc: InstanceDescriptor, arena: ShmArena):
    """Rebuild a :class:`SupportedInstance` over zero-copy views.

    Bypasses ``__post_init__`` (whose normalizing constructors may copy):
    the CSR matrices are assembled directly from the attached buffers, so
    a worker's instance shares physical memory with every other worker's.
    Algorithms treat instances as read-only (the ``run_sweep`` contract),
    which is what makes the sharing sound.
    """
    from repro.supported.instance import SupportedInstance

    inst = SupportedInstance.__new__(SupportedInstance)
    inst.semiring = desc.semiring
    inst.d = desc.d
    inst.distribution = desc.distribution
    for field in _CSR_FIELDS:
        setattr(inst, field, attach_csr(desc.csr[field], arena))
    return inst

"""Structure-keyed caching of communication schedules.

In the *supported* low-bandwidth setting (arXiv:2404.15559) every computer
may perform arbitrary preprocessing that depends only on the *indicator
matrices* — the sparsity structure — before the actual values arrive.  A
communication schedule is a pure function of the endpoint arrays
``(src, dst)``, which in this codebase are themselves derived purely from
the structure (owners, anchors, slot assignments are all fixed by the
support).  Computing a schedule once per structure and replaying it for
every value-sweep over the same structure is therefore *free* in the
model's accounting and sound for the round counts: the cached assignment
is bit-identical to the one :func:`~repro.model.scheduling.greedy_two_sided_schedule`
would recompute.

The cache is keyed by a BLAKE2b digest of the raw endpoint bytes.  Digest
collisions are negligible (128-bit) and the cache is bounded LRU, so a
long-running sweep cannot grow it without bound.

Persistence
-----------
A cache persists as schedule records in the one on-disk container of
:mod:`repro.model.store` (:data:`SCHEDULE_STORE`): one ``int64`` round
array per structure digest, in ``schedules-v1.npz`` files (a single file
for batch sweeps, or ``shards/<p>/`` files for the resident service's
concurrent workers).  The module keeps the store's public names as
bindings: :func:`store_path`, :func:`save_store`, :func:`load_store`,
:func:`shard_store_path`, :func:`save_store_sharded` and
:func:`load_store_sharded`.  Loading never raises; a damaged store is a
cold cache.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.model.scheduling import greedy_two_sided_schedule
from repro.model.store import SHARD_PREFIX_CHARS, RecordStore, shard_prefix

__all__ = [
    "ScheduleCache",
    "default_schedule_cache",
    "phase_digest",
    "STORE_VERSION",
    "SCHEDULE_STORE",
    "SHARD_PREFIX_CHARS",
    "store_path",
    "save_store",
    "load_store",
    "shard_prefix",
    "shard_store_path",
    "save_store_sharded",
    "load_store_sharded",
    "store_crash_drill",
]

#: On-disk store format version.  Bump when the entry layout changes; the
#: loader rejects (silently, as a cold cache) any other version.
STORE_VERSION = 1


def phase_digest(src: np.ndarray, dst: np.ndarray) -> bytes:
    """128-bit structural fingerprint of a communication phase."""
    h = hashlib.blake2b(digest_size=16)
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    h.update(src.shape[0].to_bytes(8, "little"))
    h.update(src.tobytes())
    h.update(dst.tobytes())
    return h.digest()


class ScheduleCache:
    """Bounded LRU cache from phase structure to round assignments.

    One instance may be shared by many networks (the module-level
    :func:`default_schedule_cache` is shared by default), so repeated
    sweeps over the same instance structure — the entire Table 1/2
    benchmark suite — pay for each schedule exactly once.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: digests inserted by local computation since the last
        #: :meth:`drain_new_entries` call (merge-back bookkeeping for the
        #: parallel sweep executor; merged/loaded entries are excluded).
        self._new_keys: list[bytes] = []

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all cached schedules and reset the hit/miss counters."""
        self._entries.clear()
        self._new_keys.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict:
        """Hit/miss/occupancy counters as a plain dict.

        ``hit_rate`` is ``hits / (hits + misses)`` and is defined as
        ``0.0`` when no lookup has happened yet, so consumers (serve
        responses, ``selfcheck`` output) can always read it without
        guarding a division by zero.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "entries": len(self._entries),
            "maxsize": self.maxsize,
        }

    def get_or_compute(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        method: str = "auto",
    ) -> tuple[np.ndarray, bool]:
        """Return ``(rounds, was_hit)`` for the phase ``(src, dst)``.

        The returned array is shared between callers and marked
        read-only; copy before mutating.
        """
        key = phase_digest(src, dst)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry, True
        self.misses += 1
        rounds = greedy_two_sided_schedule(src, dst, method=method)
        rounds.setflags(write=False)
        self._entries[key] = rounds
        self._new_keys.append(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return rounds, False

    def warm(self, src: np.ndarray, dst: np.ndarray, *, method: str = "auto") -> None:
        """Precompute a phase's schedule (supported-model preprocessing)."""
        self.get_or_compute(src, dst, method=method)

    # ------------------------------------------------------------------ #
    # Persistence / cross-process merging
    # ------------------------------------------------------------------ #
    def export_entries(self) -> dict[bytes, np.ndarray]:
        """All cached entries, LRU-oldest first (a shallow copy; the arrays
        are the shared read-only schedules)."""
        return dict(self._entries)

    def drain_new_entries(self) -> dict[bytes, np.ndarray]:
        """Entries *computed* by this cache since the last drain.

        Used by sweep workers to ship only their newly derived schedules
        back to the parent process (entries merged in via :meth:`merge` or
        warm-loaded from disk are never re-shipped).  Keys evicted by the
        LRU bound between computation and drain are skipped.
        """
        out = {k: self._entries[k] for k in self._new_keys if k in self._entries}
        self._new_keys.clear()
        return out

    def merge(self, entries: dict[bytes, np.ndarray], *, copy: bool = False) -> int:
        """Insert externally computed schedules; returns how many were new.

        Existing keys win (they are bit-identical by construction — a
        schedule is a pure function of the digested endpoints), so merging
        is idempotent and order-independent.  The LRU bound still applies.

        ``copy=True`` materializes each array before insertion — required
        when the entries are zero-copy views into a shared-memory segment
        that may be unlinked while the cache lives on (the sweep
        executor's harvest path); the default keeps the historical
        no-copy behavior for arrays the cache may safely alias.
        """
        added = 0
        for key, rounds in entries.items():
            if key in self._entries:
                continue
            rounds = np.array(rounds, dtype=np.int64) if copy else np.asarray(
                rounds, dtype=np.int64
            )
            rounds.setflags(write=False)
            self._entries[key] = rounds
            added += 1
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return added


# ---------------------------------------------------------------------- #
# On-disk store: schedule records in the one container (repro.model.store)
# ---------------------------------------------------------------------- #
def _encode_schedule(key: bytes, rounds: np.ndarray) -> dict:
    return {f"e_{key.hex()}": np.ascontiguousarray(rounds, dtype=np.int64)}


def _decode_schedule(eid: str, fields: dict) -> tuple[bytes, np.ndarray]:
    rounds = np.asarray(fields[""], dtype=np.int64)
    if rounds.ndim != 1:
        raise ValueError("a schedule is one round per message")
    rounds.setflags(write=False)
    return bytes.fromhex(eid), rounds


SCHEDULE_STORE = RecordStore(
    magic="repro-schedule-store",
    stem="schedules-v",
    version=STORE_VERSION,
    tag="e",
    max_entries=4096,
    encode=_encode_schedule,
    decode=_decode_schedule,
    route=lambda key: key,
)

store_path = SCHEDULE_STORE.path
save_store = SCHEDULE_STORE.save
load_store = SCHEDULE_STORE.load
shard_store_path = SCHEDULE_STORE.shard_path
save_store_sharded = SCHEDULE_STORE.save_sharded
load_store_sharded = SCHEDULE_STORE.load_sharded


def store_crash_drill(cache_dir: str | os.PathLike) -> dict:
    """Prove the store's crash contract end to end inside ``cache_dir``.

    Simulates the failure modes a crashed or killed sweep can leave
    behind and checks that each one degrades to a cold cache rather than
    corrupting results:

    1. *round-trip*: a saved store loads back entry-for-entry;
    2. *crash before replace*: a leftover ``*.tmp`` from a writer killed
       mid-write is ignored and the committed store stays intact;
    3. *torn write*: a store truncated mid-file (the failure
       ``os.replace`` exists to prevent, injected directly) loads as
       ``{}`` — cold cache, no exception;
    4. *heal*: one :func:`save_store` over the torn file restores a
       loadable store;
    5. *stale version eviction*: saving removes store files of other
       format versions from the directory.

    Returns a report dict with one boolean per check plus ``"ok"`` (their
    conjunction).  Raises nothing on check failure — callers assert on
    the report — but does touch files inside ``cache_dir``.
    """
    cache_dir = Path(cache_dir)
    path = store_path(cache_dir)
    rng = np.random.default_rng(0)
    entries = {
        bytes([i]) * 16: np.ascontiguousarray(rng.integers(0, 8, size=6), dtype=np.int64)
        for i in range(4)
    }
    report: dict = {"path": str(path)}

    save_store(path, entries)
    loaded = load_store(path)
    report["round_trip"] = len(loaded) == len(entries) and all(
        np.array_equal(loaded[k], v) for k, v in entries.items()
    )

    # a writer killed between mkstemp and os.replace leaves a .tmp behind
    garbage = path.parent / f"{path.name}crashed.tmp"
    garbage.write_bytes(b"\x00garbage left by a killed writer")
    report["tmp_leftover_ignored"] = len(load_store(path)) == len(entries)
    garbage.unlink()

    # a torn/truncated store file (what os.replace prevents) = cold cache
    blob = path.read_bytes()
    path.write_bytes(blob[: max(1, len(blob) // 2)])
    report["torn_store_cold_load"] = load_store(path) == {}

    # healing: one save over the torn file makes it loadable again
    save_store(path, entries)
    report["heal_by_resave"] = len(load_store(path)) == len(entries)

    # stale-version stores are evicted on save
    stale = path.parent / f"{SCHEDULE_STORE.stem}{STORE_VERSION + 1}.npz"
    stale.write_bytes(b"stale format")
    save_store(path, entries)
    report["stale_version_evicted"] = not stale.exists()

    report["ok"] = all(
        report[k]
        for k in (
            "round_trip",
            "tmp_leftover_ignored",
            "torn_store_cold_load",
            "heal_by_resave",
            "stale_version_evicted",
        )
    )
    return report


_DEFAULT = ScheduleCache()


def default_schedule_cache() -> ScheduleCache:
    """The process-wide cache shared by all non-strict networks."""
    return _DEFAULT

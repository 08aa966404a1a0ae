"""One content-addressed npz container for support-derived artifacts.

Schedules and replay plans are both pure functions of the public support
(the supported model, arXiv:2404.15559 §2), so persisting them across
processes and runs is model-legal preprocessing.  They are two *record
types* of one container, and this module is the only code that knows the
container format:

* **file**: an ``numpy.savez_compressed`` archive holding a ``magic``
  member (the record type's magic string as ``uint8``), a ``__meta__``
  member (``[version]`` as ``int64``) and the record members.  A record
  is one or more members named ``<tag>_<id>`` or ``<tag>_<id>_<field>``;
  members sharing an id form one entry;
* **writes** go through a temporary file and ``os.replace``, so a crashed
  writer never leaves a torn store;
* **damage** degrades, never raises: a missing, truncated, foreign or
  other-version file loads as ``{}``, and a damaged entry is skipped;
* **caps**: a save keeps at most ``max_entries`` entries and stops adding
  them once ``max_bytes`` of payload is reached, newest entries first;
* **order**: a save writes its input (oldest first) newest first, and a
  load returns one file's entries oldest first again, so a load→save
  round keeps the members' order and a cap keeps the file's newest
  entries (a sharded load concatenates shards in prefix order, so its
  result is in recency order only within each shard);
* **stale versions**: a save deletes the record type's files of other
  versions in the same directory;
* **shards**: ``shards/<p>/<file>``, where ``<p>`` is the first
  :data:`SHARD_PREFIX_CHARS` hex characters of the record's routing
  digest.  A sharded save merges the shard's existing entries first and
  skips shards the new entries would not change.

Records hold only numeric arrays (no pickles), so a hostile or stale file
is at worst a cold cache, never code execution.
"""

from __future__ import annotations

import io
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["SHARD_PREFIX_CHARS", "RecordStore", "shard_prefix"]

#: hex characters of a routing digest that select a shard (2 -> up to 256
#: shard directories, created lazily as records appear)
SHARD_PREFIX_CHARS = 2

_SHARD_DIR = "shards"
_MAX_BYTES = 64 * 1024 * 1024


def shard_prefix(digest: bytes) -> str:
    """The shard a routing digest goes to (its leading hex chars)."""
    return digest.hex()[:SHARD_PREFIX_CHARS]


@dataclass(frozen=True)
class RecordStore:
    """The container format, bound to one record type.

    ``encode(key, value)`` flattens an entry into named arrays (every name
    ``<tag>_<id>`` or ``<tag>_<id>_<field>``); ``decode(id, fields)``
    rebuilds ``(key, value)`` from the arrays keyed by field name (``""``
    for a single-member record) and raises on any malformation;
    ``route(key)`` is the digest whose prefix picks the key's shard.
    """

    magic: str
    stem: str
    version: int
    tag: str
    max_entries: int
    encode: Callable
    decode: Callable
    route: Callable

    @property
    def filename(self) -> str:
        """The current-version file name, e.g. ``schedules-v1.npz``."""
        return f"{self.stem}{self.version}.npz"

    def path(self, cache_dir: str | os.PathLike) -> Path:
        """The current-version store file inside a cache directory."""
        return Path(cache_dir) / self.filename

    def shard_path(self, cache_dir: str | os.PathLike, digest: bytes) -> Path:
        """The shard file holding the record whose routing digest is
        ``digest``; different prefixes never share a file."""
        return self._shard_file(cache_dir, shard_prefix(digest))

    def _shard_file(self, cache_dir: str | os.PathLike, prefix: str) -> Path:
        return Path(cache_dir) / _SHARD_DIR / prefix / self.filename

    def save(
        self,
        path: str | os.PathLike,
        entries,
        *,
        max_entries: int | None = None,
        max_bytes: int = _MAX_BYTES,
    ) -> dict:
        """Atomically write ``entries`` (oldest first; or a cache with
        ``export_entries()``) to ``path``; returns save stats.

        The caps keep the newest entries; ``max_entries=None`` is the
        record type's default.  Other-version files are evicted.
        """
        if hasattr(entries, "export_entries"):
            entries = entries.export_entries()
        cap = self.max_entries if max_entries is None else max_entries
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        members: dict[str, np.ndarray] = {}
        payload = written = dropped = 0
        for key, value in reversed(list(entries.items())):
            arrays = self.encode(key, value)
            nbytes = sum(a.nbytes for a in arrays.values())
            if written >= cap or payload + nbytes > max_bytes:
                dropped += 1
                continue
            members.update(arrays)
            payload += nbytes
            written += 1
        members["__meta__"] = np.array([self.version], dtype=np.int64)

        buf = io.BytesIO()
        np.savez_compressed(
            buf, magic=np.frombuffer(self.magic.encode(), dtype=np.uint8), **members
        )
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # evict stale-version stores so cache dirs stay bounded across upgrades
        for stale in path.parent.glob(f"{self.stem}*.npz"):
            if stale != path:
                try:
                    stale.unlink()
                except OSError:
                    pass
        return {
            "path": str(path),
            "entries": written,
            "dropped": dropped,
            "bytes": path.stat().st_size,
            "version": self.version,
        }

    def load(self, path: str | os.PathLike) -> dict:
        """Load a store file's entries, oldest first (the order
        :meth:`save` and the caches' ``merge`` read); ``{}`` on any
        file-level problem (missing, garbage, truncated, wrong magic or
        version), and a damaged entry is skipped rather than failing the
        file."""
        try:
            with np.load(Path(path)) as data:
                if "magic" not in data.files or "__meta__" not in data.files:
                    return {}
                if data["magic"].tobytes() != self.magic.encode():
                    return {}
                if int(data["__meta__"].ravel()[0]) != self.version:
                    return {}
                groups: dict[str, dict[str, str]] = {}
                for name in data.files:
                    tag, _, rest = name.partition("_")
                    if tag == self.tag and rest:
                        eid, _, field = rest.partition("_")
                        groups.setdefault(eid, {})[field] = name
                out: dict = {}
                # a save writes newest first; entries come back oldest first
                for eid, names in reversed(groups.items()):
                    try:
                        key, value = self.decode(
                            eid, {field: data[name] for field, name in names.items()}
                        )
                    except Exception:
                        continue
                    out[key] = value
                return out
        except Exception:
            return {}

    def save_sharded(
        self,
        cache_dir: str | os.PathLike,
        entries,
        *,
        max_entries_per_shard: int | None = None,
        max_bytes_per_shard: int = _MAX_BYTES,
    ) -> dict:
        """Write entries across digest-prefix shards; returns aggregate
        stats (``shards_written``, ``entries``, ``bytes``).

        Each shard's existing entries are merged in first, so concurrent
        writers converge instead of clobbering each other, and a shard
        that already holds every new key is not rewritten.
        """
        if hasattr(entries, "export_entries"):
            entries = entries.export_entries()
        by_shard: dict[str, dict] = {}
        for key, value in entries.items():
            by_shard.setdefault(shard_prefix(self.route(key)), {})[key] = value
        stats = {"shards_written": 0, "entries": 0, "bytes": 0}
        for prefix, shard in sorted(by_shard.items()):
            path = self._shard_file(cache_dir, prefix)
            existing = self.load(path)
            if existing and all(key in existing for key in shard):
                continue
            s = self.save(
                path,
                {**existing, **shard},
                max_entries=max_entries_per_shard,
                max_bytes=max_bytes_per_shard,
            )
            stats["shards_written"] += 1
            stats["entries"] += s["entries"]
            stats["bytes"] += s["bytes"]
        return stats

    def load_sharded(
        self,
        cache_dir: str | os.PathLike,
        *,
        prefixes: "list[str] | None" = None,
    ) -> dict:
        """Load the named shards (``None``: every shard present); missing
        or damaged shards load as empty, exactly like :meth:`load`.
        Each shard's entries come oldest first, shard after shard in
        prefix order: the result is not in recency order across shards."""
        if prefixes is None:
            try:
                shard_root = Path(cache_dir) / _SHARD_DIR
                prefixes = sorted(p.name for p in shard_root.iterdir() if p.is_dir())
            except OSError:
                return {}
        out: dict = {}
        for prefix in prefixes:
            out.update(self.load(self._shard_file(cache_dir, prefix)))
        return out

"""The one store's container tests, over both record types (schedule and
plan records; see ``tests/store_codecs.py``), plus the schedule codec's own
checks and the network's cache-injection plumbing.

Every container test loops over the two codecs, so each behaviour (round
trip, damage tolerance, caps, stale-version eviction, on-disk
compatibility) is checked for schedules and plans alike.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model.network import LowBandwidthNetwork
from repro.model.schedule_cache import (
    ScheduleCache,
    load_store,
    phase_digest,
    save_store,
    store_path,
)
from tests.store_codecs import CODECS, PLANS, SCHEDULES

COMPAT = Path(__file__).parent / "data" / "store_compat"


def _filled_cache(phases=3):
    cache = ScheduleCache()
    rng = np.random.default_rng(0)
    for i in range(phases):
        size = 4 + i
        src = rng.integers(0, 8, size=size)
        dst = (src + 1 + rng.integers(0, 6, size=size)) % 8
        cache.get_or_compute(src, dst)
    return cache


def _saved(tmp_path, codec, count=3, seed=0):
    """Save ``count`` sample entries of ``codec`` in a fresh directory."""
    entries = codec.entries(count, seed)
    path = codec.store.path(tmp_path / codec.name)
    codec.save(path, entries)
    return path, entries


def _rewrite(path, **changes):
    """Rewrite a store file with some members replaced or added."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays.update(changes)
    np.savez_compressed(path, **arrays)


# ------------------------------------------------------------------ #
# round trip
# ------------------------------------------------------------------ #
def test_store_round_trip_bitwise(tmp_path):
    for codec in CODECS:
        entries = codec.entries(3, 0)
        path = codec.store.path(tmp_path / codec.name)
        stats = codec.save(path, entries)
        assert stats["entries"] == len(entries), codec.name
        assert stats["version"] == codec.store.version

        loaded = codec.load(path)
        assert loaded.keys() == entries.keys(), codec.name
        for key, value in entries.items():
            assert codec.same(key, loaded[key], value), codec.name
            if codec is SCHEDULES:
                assert not loaded[key].flags.writeable


def test_loaded_entries_replay_as_hits(tmp_path):
    cache = _filled_cache()
    src = np.array([0, 1, 2, 0])
    dst = np.array([1, 2, 0, 2])
    expected, _ = cache.get_or_compute(src, dst)
    save_store(store_path(tmp_path), cache)

    fresh = ScheduleCache()
    assert fresh.merge(load_store(store_path(tmp_path))) == len(cache)
    replayed, hit = fresh.get_or_compute(src, dst)
    assert hit
    np.testing.assert_array_equal(replayed, expected)


def test_store_digest_keys_match_phase_digest(tmp_path):
    cache = ScheduleCache()
    src = np.array([0, 1]); dst = np.array([1, 0])
    cache.get_or_compute(src, dst)
    save_store(store_path(tmp_path), cache)
    assert phase_digest(src, dst) in load_store(store_path(tmp_path))


# ------------------------------------------------------------------ #
# corruption / version tolerance: always degrade to a cold cache
# ------------------------------------------------------------------ #
def test_load_missing_file_is_cold(tmp_path):
    for codec in CODECS:
        assert codec.load(tmp_path / "nope.npz") == {}, codec.name


def test_load_garbage_is_cold(tmp_path):
    for codec in CODECS:
        path = codec.store.path(tmp_path / codec.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"this is not an npz archive at all")
        assert codec.load(path) == {}, codec.name


def test_load_truncated_store_is_cold(tmp_path):
    for codec in CODECS:
        path, _ = _saved(tmp_path, codec)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert codec.load(path) == {}, codec.name


def test_load_foreign_npz_is_cold(tmp_path):
    for codec in CODECS:
        path = codec.store.path(tmp_path / codec.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, something=np.arange(5))
        assert codec.load(path) == {}, codec.name
        np.savez(path, magic=np.frombuffer(b"wrong-magic", dtype=np.uint8))
        assert codec.load(path) == {}, codec.name
        # the other record type's store: right container, wrong magic
        (other,) = [c for c in CODECS if c is not codec]
        other_path, _ = _saved(tmp_path, other)
        assert codec.load(other_path) == {}, codec.name


def test_load_version_mismatch_is_cold(tmp_path):
    for codec in CODECS:
        path, _ = _saved(tmp_path, codec)
        _rewrite(path, __meta__=np.array([codec.store.version + 1], dtype=np.int64))
        assert codec.load(path) == {}, codec.name


def test_load_skips_malformed_entries(tmp_path):
    for codec in CODECS:
        path, entries = _saved(tmp_path, codec, count=2)
        _rewrite(path, **codec.malformed)
        loaded = codec.load(path)
        assert loaded.keys() == entries.keys(), codec.name


# ------------------------------------------------------------------ #
# bounds: the store cannot grow without limit
# ------------------------------------------------------------------ #
def test_save_caps_entry_count_keeping_most_recent(tmp_path):
    for codec in CODECS:
        entries = codec.entries(6, 1)
        newest = list(entries)[-2:]
        path = codec.store.path(tmp_path / codec.name)
        stats = codec.save(path, entries, max_entries=2)
        assert stats["entries"] == 2, codec.name
        assert stats["dropped"] == 4
        assert set(codec.load(path)) == set(newest)


def test_save_caps_payload_bytes(tmp_path):
    for codec in CODECS:
        entries = codec.entries(6, 2)
        one_entry = codec.nbytes(*next(iter(entries.items())))
        path = codec.store.path(tmp_path / codec.name)
        stats = codec.save(path, entries, max_bytes=one_entry)
        assert 1 <= stats["entries"] < 6, codec.name
        assert stats["dropped"] >= 1


def test_save_evicts_stale_version_files(tmp_path):
    for codec in CODECS:
        stale = tmp_path / codec.name / f"{codec.store.stem}0.npz"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"old format")
        path, _ = _saved(tmp_path, codec)
        assert not stale.exists(), codec.name
        assert path.exists()


# ------------------------------------------------------------------ #
# on-disk compatibility: store files written before the container was
# shared (tests/data/store_compat, with the values they were written
# from in expected.json) load entry for entry and re-save identically
# ------------------------------------------------------------------ #
def _sha(arr):
    import hashlib

    arr = np.ascontiguousarray(arr)
    return f"{arr.dtype.str}:{list(arr.shape)}:" + hashlib.sha256(arr.tobytes()).hexdigest()


def test_stored_files_of_the_previous_writer_load_entry_for_entry():
    expected = json.loads((COMPAT / "expected.json").read_text())
    schedules = SCHEDULES.load_sharded(COMPAT)
    assert {k.hex() for k in schedules} == set(expected["schedules"])
    for key, rounds in schedules.items():
        assert rounds.dtype == np.int64
        assert rounds.tolist() == expected["schedules"][key.hex()]
    plans = PLANS.load_sharded(COMPAT)
    assert {PLANS.route(k).hex() for k in plans} == set(expected["plans"])
    for key, plan in plans.items():
        want = expected["plans"][PLANS.route(key).hex()]
        assert (key[0].hex(), key[1], list(key[2])) == (want["digest"], want["semiring"], want["shape"])
        members = PLANS.store.encode(key, plan)
        assert {n: _sha(a) for n, a in members.items()} == want["members"]


def test_resaving_stored_entries_gives_the_same_members(tmp_path):
    for codec in CODECS:
        (committed,) = (COMPAT / "shards").glob(f"*/{codec.store.filename}")
        entries = codec.load_sharded(COMPAT)
        assert entries, codec.name
        stats = codec.save_sharded(tmp_path, entries)
        assert stats["shards_written"] == 1
        resaved = codec.store.shard_path(tmp_path, codec.route(next(iter(entries))))
        assert resaved.relative_to(tmp_path) == committed.relative_to(COMPAT)
        with np.load(committed) as old, np.load(resaved) as new:
            assert old.files == new.files, codec.name
            for name in old.files:
                assert old[name].dtype == new[name].dtype, name
                assert old[name].tobytes() == new[name].tobytes(), name


# ------------------------------------------------------------------ #
# recency: a load returns entries oldest first, the order a save and a
# cache's merge read, so caps keep the newest entries across rewrites
# ------------------------------------------------------------------ #
def _one_shard(codec, count, seed):
    """``count`` sample entries that route to one shard, oldest first."""
    pool = codec.entries(300 * count, seed)
    by_prefix = {}
    for key, value in pool.items():
        by_prefix.setdefault(codec.route(key)[:1], {})[key] = value
    fullest = max(by_prefix.values(), key=len)
    assert len(fullest) >= count
    return dict(list(fullest.items())[:count])


def test_full_store_keeps_the_newest_entries_across_rewrites(tmp_path):
    for codec in CODECS:
        entries = _one_shard(codec, 8, 3)
        keys = list(entries)
        old, new = dict(list(entries.items())[:6]), dict(list(entries.items())[6:])
        # one file: re-save what was loaded plus one new entry, capped at 4
        path = codec.store.path(tmp_path / codec.name / "file")
        codec.save(path, old)
        for k in keys[6:]:
            codec.save(path, {**codec.load(path), k: entries[k]}, max_entries=4)
        assert list(codec.load(path)) == keys[4:], codec.name
        # one shard: each sharded save merges the shard's entries first
        root = tmp_path / codec.name / "sharded"
        codec.save_sharded(root, old)
        for k in keys[6:]:
            stats = codec.save_sharded(root, {k: new[k]}, max_entries_per_shard=4)
            assert stats["shards_written"] == 1
        assert list(codec.load_sharded(root)) == keys[4:], codec.name


def test_warm_load_into_a_full_cache_keeps_the_newest_entries(tmp_path):
    for codec in CODECS:
        entries = codec.entries(6, 4)
        path = codec.store.path(tmp_path / codec.name)
        codec.save(path, entries)
        cache = codec.cache(2)
        cache.merge(codec.load(path))
        assert codec.held(cache, list(entries)) == list(entries)[-2:], codec.name


def test_load_save_round_trip_keeps_the_member_order(tmp_path):
    for codec in CODECS:
        path, entries = _saved(tmp_path, codec, count=5, seed=6)
        assert list(codec.load(path)) == list(entries), codec.name
        again = codec.store.path(tmp_path / codec.name / "again")
        codec.save(again, codec.load(path))
        with np.load(path) as old, np.load(again) as new:
            assert old.files == new.files, codec.name
            for name in old.files:
                assert old[name].tobytes() == new[name].tobytes(), name


def test_merge_respects_lru_bound():
    cache = ScheduleCache(maxsize=2)
    entries = {bytes([i]) * 16: np.array([i], dtype=np.int64) for i in range(5)}
    cache.merge(entries)
    assert len(cache) == 2


# ------------------------------------------------------------------ #
# network plumbing: warm-loading a cache straight from a store path
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("as_dir", [True, False])
def test_network_accepts_store_path(tmp_path, as_dir):
    cache = ScheduleCache()
    src = np.array([0, 1, 2]); dst = np.array([1, 2, 0])
    expected, _ = cache.get_or_compute(src, dst)
    save_store(store_path(tmp_path), cache)

    target = tmp_path if as_dir else store_path(tmp_path)
    net = LowBandwidthNetwork(3, schedule_cache=target)
    for comp in range(3):
        net.deal(comp, "v", comp)
    net.exchange_arrays(src, dst, ["v"] * 3, [("in", i) for i in range(3)])
    stats = net.schedule_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 0


def test_network_store_path_missing_is_cold(tmp_path):
    net = LowBandwidthNetwork(3, schedule_cache=tmp_path / "absent")
    assert net.schedule_cache_stats() == {
        "hits": 0, "misses": 0, "hit_rate": 0.0, "entries": 0, "maxsize": 4096,
    }


def test_network_rejects_bad_cache_argument():
    with pytest.raises(ValueError, match="schedule_cache"):
        LowBandwidthNetwork(3, schedule_cache=123)

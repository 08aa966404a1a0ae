"""Tests for the multi-tenant batched serving layer (``repro.serve``).

Covers the serving contract end to end: structure fingerprints and the
coalescing key (identical endpoint structure under different semirings
shares schedules but never a batch), window coalescing and its
economics, admission control on the bounded queue, per-tenant bills,
bit-identity of batched execution to serial single-job execution, the
digest-prefix sharded store (schedule and plan records), the resident
worker pool (shm transport, crash recovery), and opt-in in-model
certification.
"""

import asyncio
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.apps.graphs import planted_triangles_adjacency, random_regular_adjacency
from repro.model.schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    load_store_sharded,
    shard_prefix,
    shard_store_path,
)
from repro.semirings import ALL_SEMIRINGS, BOOLEAN, GF2, MIN_PLUS, REAL_FIELD
from repro.serve import (
    AdmissionError,
    Job,
    ServeConfig,
    ServeFrontend,
    ServePool,
    batch_key,
    execute_batch,
    multiply_job,
    revalue,
    run_load,
    shortest_path_job,
    structure_digest,
    synthetic_workload,
    triangle_job,
)
from repro.sparsity.families import US
from repro.supported.instance import make_instance
from tests.store_codecs import CODECS, SCHEDULES


def _base_instance(n=16, d=2, seed=0, semiring=REAL_FIELD):
    rng = np.random.default_rng(seed)
    return make_instance((US, US, US), n, d, rng, semiring=semiring)


def _same_values(x1, x2) -> bool:
    a, b = sp.csr_matrix(x1), sp.csr_matrix(x2)
    if a.shape != b.shape:
        return False
    d = (a != b)
    return d.nnz == 0 if sp.issparse(d) else not bool(np.any(d))


def _drive(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------- #
# Structure fingerprints and the coalescing key
# ---------------------------------------------------------------------- #
def test_structure_digest_ignores_values():
    inst = _base_instance(seed=1)
    rng = np.random.default_rng(99)
    again = revalue(inst, rng)
    assert not _same_values(inst.a, again.a)  # genuinely different inputs
    assert structure_digest(inst) == structure_digest(again)


def test_structure_digest_separates_structures():
    assert structure_digest(_base_instance(seed=1)) != structure_digest(
        _base_instance(seed=2)
    )


def test_batch_key_shares_schedule_but_not_results_across_semirings():
    """The satellite: same endpoints, different algebra -> same structure
    digest (schedules shared) but different coalescing keys (results
    never shared)."""
    inst_real = _base_instance(seed=3, semiring=REAL_FIELD)
    rng = np.random.default_rng(7)
    inst_bool = revalue(inst_real, rng, semiring=BOOLEAN)
    inst_gf2 = revalue(inst_real, rng, semiring=GF2)

    digests = {structure_digest(i) for i in (inst_real, inst_bool, inst_gf2)}
    assert len(digests) == 1  # one shared communication structure
    keys = {batch_key(i) for i in (inst_real, inst_bool, inst_gf2)}
    assert len(keys) == 3  # but three disjoint batches


def test_cross_semiring_jobs_coalesce_per_semiring_and_stay_correct():
    base = _base_instance(n=12, d=2, seed=4)
    rng = np.random.default_rng(11)
    jobs = []
    for sr in (REAL_FIELD, BOOLEAN, MIN_PLUS):
        for _ in range(2):
            jobs.append(multiply_job("t", revalue(base, rng, semiring=sr)))

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=50.0)) as fe:
            results = await asyncio.gather(*(fe.submit(j) for j in jobs))
            return results, fe.stats()

    results, stats = _drive(main())
    # exactly one batch per semiring, never one across semirings
    assert stats["batches"] == 3
    assert all(r.batch_size == 2 for r in results)
    for job, res in zip(jobs, results):
        assert res.ok, res.error
        assert job.instance.verify(res.x)


# ---------------------------------------------------------------------- #
# Batched == serial, for every registered semiring
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=[s.name for s in ALL_SEMIRINGS])
def test_batched_results_bit_identical_to_serial(sr):
    base = _base_instance(n=14, d=2, seed=5, semiring=sr)
    rng = np.random.default_rng(13)
    insts = [revalue(base, rng) for _ in range(3)]

    serial = [execute_batch([multiply_job("t", i)])[0] for i in insts]

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=50.0)) as fe:
            return await asyncio.gather(
                *(fe.submit(multiply_job("t", i)) for i in insts)
            )

    batched = _drive(main())
    assert all(r.batch_size == 3 for r in batched)
    for s, b in zip(serial, batched):
        assert b.ok and s.ok
        assert _same_values(s.x, b.x)
        assert s.x.dtype == b.x.dtype
        assert s.rounds == b.rounds


# ---------------------------------------------------------------------- #
# Coalescing economics
# ---------------------------------------------------------------------- #
def test_followers_replay_the_leaders_schedules():
    base = _base_instance(n=16, d=2, seed=6)
    rng = np.random.default_rng(17)
    insts = [revalue(base, rng) for _ in range(4)]

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=50.0)) as fe:
            results = await asyncio.gather(
                *(fe.submit(multiply_job("t", i)) for i in insts)
            )
            return results, fe.stats()

    results, stats = _drive(main())
    assert stats["batches"] == 1
    assert stats["coalesced_jobs"] == 3
    assert stats["coalesce_rate"] == pytest.approx(0.75)
    leader = [r for r in results if r.batch_leader]
    followers = [r for r in results if not r.batch_leader]
    assert len(leader) == 1 and len(followers) == 3
    for f in followers:  # followers never miss: pure replay
        assert f.cache_misses == 0
        assert f.cache_hits > 0


def test_jobs_outside_the_window_do_not_coalesce():
    inst = _base_instance(n=12, d=2, seed=7)
    rng = np.random.default_rng(19)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=0.0)) as fe:
            r1 = await fe.submit(multiply_job("t", revalue(inst, rng)))
            r2 = await fe.submit(multiply_job("t", revalue(inst, rng)))
            return r1, r2, fe.stats()

    r1, r2, stats = _drive(main())
    assert stats["batches"] == 2
    assert r1.batch_size == r2.batch_size == 1


# ---------------------------------------------------------------------- #
# Admission control
# ---------------------------------------------------------------------- #
def test_queue_full_rejects_immediately():
    inst = _base_instance(n=12, d=2, seed=8)
    rng = np.random.default_rng(23)

    async def main():
        async with ServeFrontend(
            ServeConfig(batch_window_ms=40.0, max_queue=2)
        ) as fe:
            first = [
                asyncio.ensure_future(
                    fe.submit(multiply_job("greedy", revalue(inst, rng)))
                )
                for _ in range(2)
            ]
            await asyncio.sleep(0)  # let both enter the open batch
            with pytest.raises(AdmissionError):
                await fe.submit(multiply_job("latecomer", revalue(inst, rng)))
            done = await asyncio.gather(*first)
            return done, fe.stats()

    done, stats = _drive(main())
    assert all(r.ok for r in done)
    assert stats["jobs_rejected"] == 1
    assert stats["tenants"]["latecomer"]["rejected"] == 1
    assert stats["tenants"]["latecomer"]["completed"] == 0
    assert stats["tenants"]["greedy"]["completed"] == 2


# ---------------------------------------------------------------------- #
# Tenant accounting
# ---------------------------------------------------------------------- #
def test_tenant_bills_add_up():
    base = _base_instance(n=12, d=2, seed=9)
    rng = np.random.default_rng(29)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=40.0)) as fe:
            results = await asyncio.gather(
                *(
                    fe.submit(multiply_job(f"tenant-{k % 2}", revalue(base, rng)))
                    for k in range(4)
                )
            )
            return results, fe.stats()

    results, stats = _drive(main())
    for name in ("tenant-0", "tenant-1"):
        bill = stats["tenants"][name]
        mine = [r for r in results if r.tenant == name]
        assert bill["submitted"] == bill["completed"] == 2
        assert bill["rounds"] == sum(r.rounds for r in mine)
        assert bill["messages"] == sum(r.messages for r in mine)
        assert bill["cache_hits"] == sum(r.cache_hits for r in mine)
        assert bill["p50_latency_ms"] > 0
        assert bill["p99_latency_ms"] >= bill["p50_latency_ms"]


# ---------------------------------------------------------------------- #
# Cache stats surfaced verbatim
# ---------------------------------------------------------------------- #
def test_hit_rate_defined_at_zero_lookups():
    stats = ScheduleCache().stats()
    assert stats["hits"] == stats["misses"] == 0
    assert stats["hit_rate"] == 0.0  # no division-by-zero, a number


def test_responses_carry_the_cache_stats_dict_verbatim():
    inst = _base_instance(n=12, d=2, seed=10)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=0.0)) as fe:
            res = await fe.submit(multiply_job("t", inst))
            return res, fe.stats()

    res, stats = _drive(main())
    expected_keys = set(default_schedule_cache().stats())
    assert set(res.cache) == expected_keys
    assert set(stats["cache"]) == expected_keys
    assert 0.0 <= res.cache["hit_rate"] <= 1.0


# ---------------------------------------------------------------------- #
# Job kinds: triangles and shortest paths through the front end
# ---------------------------------------------------------------------- #
def test_triangle_jobs_count_correctly():
    adj = planted_triangles_adjacency(18, 3, 4, np.random.default_rng(3))
    dense = adj.toarray().astype(np.int64)
    expected = int(np.trace(dense @ dense @ dense) // 6)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=30.0)) as fe:
            return await asyncio.gather(
                *(fe.submit(triangle_job(f"t{k}", adj)) for k in range(2))
            )

    results = _drive(main())
    assert all(r.ok for r in results)
    assert [r.value for r in results] == [expected, expected]
    assert all(r.batch_size == 2 for r in results)  # same graph coalesces


def test_shortest_path_jobs_match_two_hop_ground_truth():
    from repro.apps.shortest_paths import two_hop_distances

    adj = random_regular_adjacency(14, 3, seed=5)
    rng = np.random.default_rng(31)
    weights = sp.csr_matrix(
        (rng.uniform(1.0, 9.0, size=adj.nnz), adj.nonzero()), shape=adj.shape
    )
    expected, _, _ = two_hop_distances(weights)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=0.0)) as fe:
            return await fe.submit(shortest_path_job("t", weights))

    res = _drive(main())
    assert res.ok, res.error
    assert _same_values(expected, res.x)


# ---------------------------------------------------------------------- #
# Certification opt-in
# ---------------------------------------------------------------------- #
def test_certification_opt_in_is_billed_per_job():
    inst = _base_instance(n=12, d=2, seed=11)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=0.0)) as fe:
            plain = await fe.submit(multiply_job("t", inst))
            checked = await fe.submit(
                multiply_job("t", inst, certify_checks=3)
            )
            return plain, checked, fe.stats()

    plain, checked, stats = _drive(main())
    assert plain.certified is None and plain.cert_rounds == 0
    assert checked.certified is True
    assert checked.cert_rounds > 0
    assert checked.rounds > plain.rounds  # certification rounds are billed
    assert stats["tenants"]["t"]["certified_jobs"] == 1
    assert stats["tenants"]["t"]["cert_rounds"] == checked.cert_rounds


def test_bad_jobs_fail_their_own_result_not_the_batch():
    good = _base_instance(n=12, d=2, seed=12)
    bad = multiply_job("t", good, algorithm="no-such-algorithm")

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=30.0)) as fe:
            return await asyncio.gather(
                fe.submit(multiply_job("t", good)),
                fe.submit(bad),
                return_exceptions=True,
            )

    ok_res, bad_res = _drive(main())
    assert ok_res.ok
    assert not bad_res.ok and bad_res.error


def test_job_constructor_validation():
    inst = _base_instance(n=12, d=2, seed=13)
    with pytest.raises(ValueError, match="kind"):
        Job(tenant="t", instance=inst, kind="nonsense")
    with pytest.raises(ValueError, match="certify_checks"):
        Job(tenant="t", instance=inst, certify_checks=-1)


# ---------------------------------------------------------------------- #
# Sharded store, for both record types (schedules and plans)
# ---------------------------------------------------------------------- #
def test_sharded_store_round_trips(tmp_path):
    for codec in CODECS:
        entries = codec.entries(40, 1)
        stats = codec.save_sharded(tmp_path / codec.name, entries)
        assert stats["entries"] == 40, codec.name
        assert stats["shards_written"] == len({shard_prefix(codec.route(k)) for k in entries})
        loaded = codec.load_sharded(tmp_path / codec.name)
        assert set(loaded) == set(entries)
        for k in entries:
            assert codec.same(k, loaded[k], entries[k])
        # an incremental save with nothing fresh skips every shard
        assert codec.save_sharded(tmp_path / codec.name, entries)["shards_written"] == 0


def test_sharded_store_routes_by_digest_prefix(tmp_path):
    for codec in CODECS:
        entries = codec.entries(12, 2)
        codec.save_sharded(tmp_path / codec.name, entries)
        for key in entries:
            digest = codec.route(key)
            path = codec.store.shard_path(tmp_path / codec.name, digest)
            assert path.exists(), codec.name
            assert path.parent.name == shard_prefix(digest)
            only = codec.load_sharded(tmp_path / codec.name, prefixes=[shard_prefix(digest)])
            assert key in only
            assert all(shard_prefix(codec.route(k)) == shard_prefix(digest) for k in only)
    digest = next(iter(SCHEDULES.entries(1, 2)))
    assert shard_store_path(tmp_path, digest) == SCHEDULES.store.shard_path(tmp_path, digest)


def test_sharded_store_merges_incrementally(tmp_path):
    for codec in CODECS:
        first = codec.entries(10, 3)
        second = codec.entries(10, 4)
        codec.save_sharded(tmp_path / codec.name, first)
        codec.save_sharded(tmp_path / codec.name, second)
        loaded = codec.load_sharded(tmp_path / codec.name)
        assert set(loaded) == set(first) | set(second), codec.name


def test_load_sharded_on_empty_dir_is_empty(tmp_path):
    for codec in CODECS:
        assert codec.load_sharded(tmp_path) == {}, codec.name
        assert codec.load_sharded(tmp_path / "never-created") == {}, codec.name


# ---------------------------------------------------------------------- #
# Worker pool
# ---------------------------------------------------------------------- #
def test_pool_inline_mode_runs_without_processes():
    inst = _base_instance(n=12, d=2, seed=14)
    with ServePool(0) as pool:
        out = pool.run_batch([multiply_job("t", inst)])
        assert out[0].ok
        assert pool.stats()["inline_batches"] == 1
        assert pool.stats()["alive"] == 0


def test_pool_workers_execute_via_shared_memory_and_persist_shards(tmp_path):
    base = _base_instance(n=14, d=2, seed=15)
    rng = np.random.default_rng(37)

    # fork the pool BEFORE any parent-side multiply on this structure, so
    # the workers' inherited cache is cold and they really harvest
    with ServePool(2, cache_dir=tmp_path) as pool:
        batches = [
            [multiply_job("t", revalue(base, rng)) for _ in range(2)]
            for _ in range(3)
        ]
        outs = [pool.run_batch(b) for b in batches]
        stats = pool.stats()

    for out in outs:
        for r in out:
            assert r.ok, r.error
            assert r.worker_pid != os.getpid()  # really ran out of process
    assert stats["shm_batches"] == 3
    assert stats["pickle_batches"] == 0
    assert stats["new_schedules_persisted"] > 0
    # the parent persisted the workers' harvested schedules into shards
    assert load_store_sharded(tmp_path)
    serial = execute_batch([multiply_job("t", revalue(base, rng))])
    assert serial[0].ok  # and the serial path agrees structurally
    assert outs[0][0].rounds == serial[0].rounds


def test_pool_recovers_from_worker_crash(tmp_path):
    inst = _base_instance(n=12, d=2, seed=16)
    with ServePool(1, cache_dir=tmp_path) as pool:
        for w in list(pool._live):  # simulate a mid-service crash
            w["proc"].kill()
            w["proc"].join(timeout=5)
        out = pool.run_batch([multiply_job("t", inst)])
        stats = pool.stats()
        assert out[0].ok
        assert stats["crash_recoveries"] == 1
        assert stats["worker_replacements"] == 1
        assert stats["alive"] == 1  # the replacement is serving


# ---------------------------------------------------------------------- #
# Config and load generation
# ---------------------------------------------------------------------- #
def test_serve_config_from_env_parses_and_overrides(tmp_path):
    env = {
        "REPRO_SERVE_WORKERS": "2",
        "REPRO_SERVE_BATCH_WINDOW_MS": "12.5",
        "REPRO_SERVE_MAX_QUEUE": "8",
        "REPRO_SWEEP_CACHE_DIR": str(tmp_path),
    }
    cfg = ServeConfig.from_env(environ=env)
    assert (cfg.workers, cfg.batch_window_ms, cfg.max_queue) == (2, 12.5, 8)
    assert cfg.cache_dir == str(tmp_path)
    assert ServeConfig.from_env(environ=env, workers=0).workers == 0
    with pytest.raises(ValueError):
        ServeConfig(max_queue=0)


def test_synthetic_load_coalesces_and_matches_serial_ground_truth():
    jobs = synthetic_workload(tenants=2, jobs=15, n=12, d=2, seed=42)

    async def main():
        async with ServeFrontend(ServeConfig(batch_window_ms=40.0)) as fe:
            return await run_load(fe, jobs, burst=15)

    report = _drive(main())
    assert report.completed == 15 and report.failed == 0
    assert report.coalesce_rate > 0  # the acceptance-criterion economics
    assert report.p99_latency_ms >= report.p50_latency_ms > 0
    # ground truth: re-execute every job serially and compare products
    for job, served in zip(jobs, sorted(report.results, key=lambda r: r.job_id)):
        serial = execute_batch(
            [Job(tenant=job.tenant, instance=job.instance, kind=job.kind)]
        )[0]
        assert serial.ok and served.ok
        assert _same_values(serial.x, served.x)
        assert serial.value == served.value


# ---------------------------------------------------------------------- #
# Job deadlines: wedged workers are killed, never waited on forever
# ---------------------------------------------------------------------- #
def _wedge_forever(jobs):
    import time

    time.sleep(60)
    raise AssertionError("the deadline should have killed this worker")


def _fork_only():
    from repro.analysis.executor import preferred_context

    return preferred_context().get_start_method() != "fork"


@pytest.mark.skipif(
    _fork_only(), reason="wedge injection rides fork-inherited monkeypatching"
)
def test_pool_deadline_kills_wedged_worker_and_raises_typed(monkeypatch):
    import repro.serve.pool as pool_mod
    from repro.serve import DeadlineExceeded

    monkeypatch.setattr(pool_mod, "execute_batch", _wedge_forever)
    inst = _base_instance(n=12, d=2, seed=21)
    with ServePool(1, job_timeout_s=0.25) as pool:
        with pytest.raises(DeadlineExceeded) as ei:
            pool.run_batch([multiply_job("t", inst)])
        assert ei.value.jobs == 1
        assert ei.value.deadline_s == 0.25
        assert ei.value.elapsed_s >= 0.25
        assert "wedged worker killed" in str(ei.value)
        stats = pool.stats()
        assert stats["deadline_exceeded"] == 1
        assert stats["worker_replacements"] == 1
        assert stats["alive"] == 1  # a fresh worker is back in service


@pytest.mark.skipif(
    _fork_only(), reason="wedge injection rides fork-inherited monkeypatching"
)
def test_frontend_deadline_fails_jobs_with_partial_bill(monkeypatch):
    import repro.serve.pool as pool_mod

    monkeypatch.setattr(pool_mod, "execute_batch", _wedge_forever)
    inst = _base_instance(n=12, d=2, seed=22)

    async def main():
        cfg = ServeConfig(workers=1, batch_window_ms=1.0, job_timeout_s=0.25)
        async with ServeFrontend(cfg) as fe:
            res = await fe.submit(multiply_job("tenant-a", inst))
            return res, fe.stats()

    res, stats = _drive(main())
    # the job fails typed — never hangs, never silently succeeds
    assert not res.ok
    assert "DeadlineExceeded" in res.error
    assert res.x is None
    # partial billing: the wasted wall is on the tenant's bill
    assert res.wall_s >= 0.25
    assert stats["deadline_exceeded_jobs"] == 1
    assert stats["pool"]["deadline_exceeded"] == 1
    acct = stats["tenants"]["tenant-a"]
    assert acct["failed"] == 1 and acct["completed"] == 0
    assert acct["wall_s"] >= 0.25


def test_job_timeout_validation_and_env():
    assert ServeConfig().job_timeout_s == 0.0  # off by default
    with pytest.raises(ValueError, match="job_timeout_s"):
        ServeConfig(job_timeout_s=-1.0)
    with pytest.raises(ValueError, match="job_timeout_s"):
        ServePool(0, job_timeout_s=-0.5)
    cfg = ServeConfig.from_env(environ={"REPRO_SERVE_JOB_TIMEOUT_S": "1.5"})
    assert cfg.job_timeout_s == 1.5


def test_pool_without_deadline_still_completes_normal_batches():
    inst = _base_instance(n=12, d=2, seed=23)
    with ServePool(0, job_timeout_s=5.0) as pool:
        out = pool.run_batch([multiply_job("t", inst)])
        assert out[0].ok
        assert pool.stats()["deadline_exceeded"] == 0

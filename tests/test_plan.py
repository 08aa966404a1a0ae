"""Tests for compiled replay plans and tensor-batched warm execution
(``repro.model.plan`` + the plan-aware ``execute_batch``).

The hard contract under test is *bit-identity*: a job executed through
batched plan replay must be byte-identical — product values, round and
message counts, phase bills, finalized scalars — to the same job run
through the pinned per-job ``multiply`` path, for every registered
semiring and every job kind.  Alongside it: the batched segment-sum
kernels agree with their per-row references bit-for-bit, plans fall
back *honestly* (certification, fault plans, algorithm mismatches, and
unplannable structures all run per-job with the reason recorded), the
plan cache counts its economics, and the sharded plan store survives
round trips, damage, and version skew exactly like the schedule store.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.algorithms.api import multiply
from repro.model import network as network_mod
from repro.model.network import LowBandwidthNetwork
from repro.model.faults import FaultPlan
from repro.model.plan import (
    PLAN_VERSION,
    PlanCache,
    PlanRecorder,
    PlanUnplannable,
    compile_plan,
    default_plan_cache,
    load_plans,
    load_plans_sharded,
    plan_store_path,
    save_plans,
    save_plans_sharded,
)
from repro.model.schedule_cache import default_schedule_cache
from repro.semirings import ALL_SEMIRINGS, REAL_FIELD
from repro.serve import (
    Job,
    execute_batch,
    revalue,
    shortest_path_job,
    synthetic_workload,
    triangle_job,
)
from repro.serve.frontend import percentile
from repro.serve.loadgen import LoadReport
from repro.sparsity.families import US
from repro.supported.instance import make_hard_instance, make_instance

from repro.apps.graphs import random_regular_adjacency


@pytest.fixture(autouse=True)
def _fresh_caches():
    default_schedule_cache().clear()
    default_plan_cache().clear()
    yield
    default_schedule_cache().clear()
    default_plan_cache().clear()


def _base_instance(n=16, d=2, seed=0, semiring=REAL_FIELD):
    rng = np.random.default_rng(seed)
    return make_instance((US, US, US), n, d, rng, semiring=semiring)


def _assert_identical(ref, got):
    """Byte-level equality of two job results (the bit-identity gate)."""
    assert got.ok == ref.ok, (got.error, ref.error)
    assert got.rounds == ref.rounds, (got.kind, got.rounds, ref.rounds)
    assert got.messages == ref.messages
    assert got.algorithm == ref.algorithm
    assert got.value == ref.value
    assert got.phases == ref.phases
    if ref.x is None:
        assert got.x is None
    else:
        a, b = sp.csr_matrix(ref.x), sp.csr_matrix(got.x)
        assert a.shape == b.shape
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.data.tobytes() == b.data.tobytes()


# --------------------------------------------------------------------- #
# Batched kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_segment_sum_batch_matches_per_row(sr):
    rng = np.random.default_rng(3)
    B, m, segs = 5, 64, 9
    values = sr.array(sr.random_values(rng, B * m).reshape(B, m))
    ids = rng.integers(0, segs, size=m).astype(np.int64)
    got = sr.segment_sum_batch(values, ids, segs)
    for b in range(B):
        row = sr.segment_sum(values[b], ids, segs)
        assert got[b].tobytes() == np.asarray(row).tobytes(), sr.name


def test_segment_sum_batch_empty_and_shape_checks():
    sr = REAL_FIELD
    out = sr.segment_sum_batch(np.empty((3, 0)), np.empty(0, dtype=np.int64), 4)
    assert out.shape == (3, 4) and not out.any()
    with pytest.raises(ValueError):
        sr.segment_sum_batch(np.zeros(5), np.zeros(5, dtype=np.int64), 2)


# --------------------------------------------------------------------- #
# Bit-identity of batched replay
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
def test_replay_bit_identical_per_semiring(sr):
    """A warm coalesced group replays byte-identically to serial per-job
    execution — and actually replays (non-vacuity is asserted)."""
    base = _base_instance(n=16, d=2, seed=11, semiring=sr)
    rng = np.random.default_rng(7)
    jobs = [
        Job(tenant=f"t{i}", instance=revalue(base, rng), kind="multiply")
        for i in range(5)
    ]
    ref = [execute_batch([j], use_plans=False)[0] for j in jobs]
    got = execute_batch(jobs)
    assert sum(1 for r in got if r.plan_replayed) == len(jobs) - 1
    assert got[0].plan_compiled
    for r, g in zip(ref, got):
        _assert_identical(r, g)
    # warm pass: every job replays, still bit-identical
    warm = execute_batch(jobs)
    assert all(r.plan_replayed for r in warm)
    for r, g in zip(ref, warm):
        _assert_identical(r, g)


@pytest.mark.parametrize("kind", ["multiply", "triangles", "shortest_paths"])
def test_replay_bit_identical_per_kind(kind):
    """All three job kinds round-trip through batched replay, including
    the triangle finalizer's billed convergecast tape."""
    if kind == "multiply":
        base = _base_instance(n=16, d=2, seed=4)
        rng = np.random.default_rng(5)
        jobs = [
            Job(tenant="t", instance=revalue(base, rng), kind="multiply")
            for _ in range(4)
        ]
    elif kind == "triangles":
        adj = random_regular_adjacency(16, 4, seed=2)
        jobs = [triangle_job("t", adj) for _ in range(4)]
    else:
        adj = random_regular_adjacency(16, 4, seed=3)
        rng = np.random.default_rng(9)
        w = sp.csr_matrix(
            (rng.uniform(1.0, 9.0, size=adj.nnz), adj.nonzero()), shape=adj.shape
        )
        jobs = [shortest_path_job("t", w) for _ in range(4)]
    ref = [execute_batch([j], use_plans=False)[0] for j in jobs]
    got = execute_batch(jobs)
    assert any(r.plan_replayed for r in got), "batched path never replayed"
    for r, g in zip(ref, got):
        assert r.ok and g.ok, (r.error, g.error)
        _assert_identical(r, g)


def test_replay_zero_dispatches_and_schedule_hit_accounting():
    """Replayed jobs drive the simulator zero times and report the
    leader's schedule lookups as pure hits — exactly what a real warm
    follower would bill."""
    base = _base_instance(n=16, d=2, seed=21)
    rng = np.random.default_rng(1)
    jobs = [
        Job(tenant="t", instance=revalue(base, rng), kind="multiply")
        for _ in range(4)
    ]
    leader = execute_batch(jobs)  # warm the plan
    follower_ref = [r for r in leader if not r.plan_replayed][0]
    d0 = network_mod.dispatch_count()
    warm = execute_batch(jobs)
    assert network_mod.dispatch_count() - d0 == 0
    assert all(r.plan_replayed for r in warm)
    for r in warm:
        assert r.dispatch_phases == 0
        assert r.cache_misses == 0
        assert r.cache_hits == follower_ref.cache_hits + follower_ref.cache_misses
        assert r.plan["replayed_jobs"] > 0


def test_mixed_key_batch_groups_independently():
    """One batch holding several coalescing keys replays each group
    against its own plan, in arrival order."""
    jobs = synthetic_workload(tenants=2, jobs=20, n=16, d=2, seed=6)
    ref = [execute_batch([j], use_plans=False)[0] for j in jobs]
    got = execute_batch(jobs)
    assert [r.job_id for r in got] == [r.job_id for r in ref]
    for r, g in zip(ref, got):
        _assert_identical(r, g)
    assert any(r.plan_replayed for r in got)


# --------------------------------------------------------------------- #
# Honest fallbacks
# --------------------------------------------------------------------- #
def test_fault_plan_disables_replay_and_stays_bit_identical():
    """An active fault plan forces per-message delivery: every job falls
    back (with the reason recorded) and batched equals serial under the
    same deterministic faults."""
    base = _base_instance(n=16, d=2, seed=8)
    rng = np.random.default_rng(2)
    jobs = [
        Job(tenant="t", instance=revalue(base, rng), kind="multiply")
        for _ in range(4)
    ]
    execute_batch(jobs)  # warm the plan: faults must still win over it
    fp = FaultPlan(seed=13, drop_rate=0.02)
    ref = [execute_batch([j], fault_plan=fp)[0] for j in jobs]
    got = execute_batch(jobs, fault_plan=fp)
    for r, g in zip(ref, got):
        assert not g.plan_replayed
        assert g.plan_fallback == "fault plan active: per-message delivery required"
        _assert_identical(r, g)


def test_certified_jobs_fall_back_with_reason():
    base = _base_instance(n=16, d=2, seed=14)
    rng = np.random.default_rng(3)
    jobs = [
        Job(tenant="t", instance=revalue(base, rng), kind="multiply",
            certify_checks=(2 if i % 2 else 0))
        for i in range(4)
    ]
    execute_batch(jobs)
    got = execute_batch(jobs)  # warm: uncertified replay, certified fall back
    for g in got:
        if g.certified is not None:
            assert not g.plan_replayed
            assert "certification" in g.plan_fallback
            assert g.certified
        else:
            assert g.plan_replayed


def test_unplannable_algorithm_negative_cached():
    """A structure whose run is not pure Lemma 3.1 lands in the negative
    cache; followers fall back per-job and stay bit-identical."""
    base = _base_instance(n=12, d=2, seed=17)
    rng = np.random.default_rng(4)
    jobs = [
        Job(tenant="t", instance=revalue(base, rng), kind="multiply",
            algorithm="gather_all")
        for _ in range(3)
    ]
    ref = [execute_batch([j], use_plans=False)[0] for j in jobs]
    got = execute_batch(jobs)
    assert not any(r.plan_replayed for r in got)
    assert any(
        r.plan_fallback and r.plan_fallback.startswith("structure unplannable")
        for r in got
    )
    for r, g in zip(ref, got):
        _assert_identical(r, g)
    assert default_plan_cache().stats()["negative"] == 1


@pytest.mark.parametrize(
    "alg, kernel",
    [
        ("two_phase", "cluster_solve_3d"),
        ("naive", "naive_triangles"),
        ("sparse_3d", "sparse_3d"),
        ("dense_3d", "dense_3d"),
    ],
)
def test_columnar_kernels_mark_the_run_unplannable(alg, kernel):
    """The naive, 3D and Lemma 2.1 kernels compute their values outside
    the recorded Lemma 3.1 stages, so a recorder marks their runs
    unplannable — the compiler's refusal does not rest on ``_PLANNABLE``
    or the wave count alone."""
    inst = make_hard_instance(64, 8, np.random.default_rng(0))
    net = LowBandwidthNetwork(inst.n)
    net.plan_recorder = recorder = PlanRecorder()
    res = multiply(inst, algorithm=alg, network=net)
    if alg == "two_phase":
        assert res.details["stats"].waves >= 1
    assert all(p.columnar for p in net.phases)
    with pytest.raises(PlanUnplannable, match=f"^{kernel} computes values outside"):
        compile_plan(inst, res, recorder, digest=b"\0" * 16)


def test_algorithm_mismatch_falls_back():
    """A follower explicitly requesting an algorithm the plan does not
    cover runs per-job."""
    base = _base_instance(n=16, d=2, seed=19)
    rng = np.random.default_rng(5)
    execute_batch([Job(tenant="t", instance=revalue(base, rng))])  # auto plan
    other = Job(
        tenant="t", instance=revalue(base, rng), kind="multiply",
        algorithm="two_phase",
    )
    ref = execute_batch([other], use_plans=False)[0]
    got = execute_batch([other])[0]
    if got.plan_fallback is not None:
        assert "not covered" in got.plan_fallback
        assert not got.plan_replayed
    _assert_identical(ref, got)


# --------------------------------------------------------------------- #
# Plan cache + persistence
# --------------------------------------------------------------------- #
def test_plan_cache_economics_and_lru():
    cache = PlanCache(maxsize=2)
    assert cache.lookup(("a",)) == (None, None)
    cache.put_negative(("a",), "because")
    assert cache.lookup(("a",)) == (None, "because")
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["negative_hits"] == 1
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_plan_store_round_trip(tmp_path):
    base = _base_instance(n=16, d=2, seed=23)
    rng = np.random.default_rng(6)
    jobs = [
        Job(tenant="t", instance=revalue(base, rng), kind="multiply")
        for _ in range(3)
    ]
    ref = [execute_batch([j], use_plans=False)[0] for j in jobs]
    execute_batch(jobs)
    plans = default_plan_cache()
    new = plans.drain_new_plans()
    assert len(new) == 1
    path = plan_store_path(tmp_path)
    stats = save_plans(path, new)
    assert stats["entries"] == 1 and path.exists()

    loaded = load_plans(path)
    assert set(loaded) == set(new)
    (key, plan), (_, orig) = next(iter(loaded.items())), next(iter(new.items()))
    assert plan.version == PLAN_VERSION
    assert plan.rounds == orig.rounds and plan.messages == orig.messages
    assert plan.phases == orig.phases
    assert len(plan.stages) == len(orig.stages)
    for a, b in zip(plan.stages, orig.stages):
        for fld in ("a_gather", "b_gather", "x_inv", "seg_of_slot", "seg_counts", "out_idx"):
            assert np.array_equal(getattr(a, fld), getattr(b, fld))
        assert (a.use_trees, a.negate, a.label) == (b.use_trees, b.negate, b.label)

    # a fresh process that warm-loads this store replays immediately
    plans.clear()
    default_schedule_cache().clear()
    plans.merge(loaded)
    got = execute_batch(jobs)
    assert all(r.plan_replayed for r in got)
    for r, g in zip(ref, got):
        _assert_identical(r, g)


def test_plan_store_tolerates_damage(tmp_path):
    path = plan_store_path(tmp_path)
    assert load_plans(path) == {}  # missing
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"not an npz at all")
    assert load_plans(path) == {}  # garbage
    np.savez(path, magic=np.frombuffer(b"wrong-magic", dtype=np.uint8))
    assert load_plans(path) == {}  # wrong magic


def test_plan_store_evicts_stale_versions(tmp_path):
    base = _base_instance(n=12, d=2, seed=29)
    execute_batch([Job(tenant="t", instance=base)])
    new = default_plan_cache().drain_new_plans()
    stale = tmp_path / f"plans-v{PLAN_VERSION + 1}.npz"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_bytes(b"old format")
    save_plans(plan_store_path(tmp_path), new)
    assert not stale.exists(), "other-version store file was not evicted"


def test_version_one_plan_entry_loads_as_nothing_and_recompiles(tmp_path):
    """Version 1 plans summed each run linearly: a stored one must never
    replay.  The next batch recompiles, and its values are the
    per-message path's."""
    base = _base_instance(n=16, d=2, seed=37)
    rng = np.random.default_rng(8)
    jobs = [Job(tenant="t", instance=revalue(base, rng)) for _ in range(3)]
    execute_batch(jobs[:1])
    path = plan_store_path(tmp_path)
    save_plans(path, default_plan_cache().drain_new_plans())
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    (meta_name,) = [name for name in arrays if name.endswith("_meta")]
    meta = json.loads(arrays[meta_name].tobytes().decode())
    meta["version"] = 1
    arrays[meta_name] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    assert load_plans(path) == {}

    plans = default_plan_cache()
    plans.clear()
    default_schedule_cache().clear()
    plans.merge(load_plans(path))
    got = execute_batch(jobs)
    assert got[0].plan_compiled
    assert all(r.plan_replayed for r in got[1:])
    for job, r in zip(jobs, got):
        ref = multiply(job.instance, network=LowBandwidthNetwork(job.instance.n, columnar=False))
        assert (r.rounds, r.messages) == (ref.rounds, ref.messages)
        assert r.x.data.tobytes() == sp.csr_matrix(ref.x).data.tobytes()


def test_sharded_plan_store_round_trip(tmp_path):
    jobs = synthetic_workload(tenants=2, jobs=15, n=16, d=2, seed=31)
    execute_batch(jobs)
    new = default_plan_cache().drain_new_plans()
    assert new
    stats = save_plans_sharded(tmp_path, new)
    assert stats["shards_written"] >= 1
    loaded = load_plans_sharded(tmp_path)
    assert set(loaded) == set(new)
    # incremental save with nothing fresh skips every shard
    again = save_plans_sharded(tmp_path, new)
    assert again["shards_written"] == 0
    assert load_plans_sharded("does/not/exist") == {}


# --------------------------------------------------------------------- #
# Serving stats stay finite (the NaN guard satellites)
# --------------------------------------------------------------------- #
def test_percentile_guards_empty_and_nonfinite():
    assert percentile([], 50) == 0.0
    assert percentile([float("nan")], 99) == 0.0
    assert percentile([float("nan"), 3.0, float("inf")], 50) == 3.0
    assert percentile([1.0], 50) == 1.0  # one-sample stream


def test_load_report_serialises_finite():
    import json
    import math

    report = LoadReport(jobs=0, wall_s=float("nan"), coalesce_rate=float("inf"))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["wall_s"] == 0.0 and payload["coalesce_rate"] == 0.0
    assert all(
        not (isinstance(v, float) and not math.isfinite(v))
        for v in payload.values()
    )
    assert {"plan_replays", "plan_compiles", "plan_fallbacks"} <= payload.keys()

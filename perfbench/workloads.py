"""The four benchmark workloads, each driven through the public API.

A workload has four steps, which :func:`drive` times:

``setup``
    everything from workload start to the first timed job: input
    generation, pool or mesh start, store warm-load and warm-up passes.
    It runs :data:`SETUP_REPEATS` times (tearing down in between) and the
    median is ``setup_s``.
``timed``
    a closed loop until the deadline; each job records its latency.
``teardown``
    stops pools and meshes, so every child process is reaped.
``check``
    the correctness gate (:mod:`check`), after the timed phase, so no
    reference computation counts toward any timing.

Inputs come from ``--seed`` alone; the program only sees generated
instances.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import repro.algorithms.api as api
import repro.apps.shortest_paths as shortest_paths
import repro.apps.triangles as triangles
import repro.supported.instance as instance
from repro.analysis.executor import cell_rng
from repro.analysis.sweeps import run_sweep
from repro.apps.graphs import random_regular_adjacency
from repro.model.network import LowBandwidthNetwork
from repro.model.plan import default_plan_cache
from repro.model.schedule_cache import default_schedule_cache
from repro.semirings import ALL_SEMIRINGS
from repro.serve.frontend import ServeConfig, ServeFrontend
from repro.serve.jobs import Job
from repro.serve.loadgen import revalue
from repro.serve.pool import ServePool
from repro.sparsity.families import AS, GM, US
from repro.transport import TransportConfig
from repro.transport.runner import values_digest
from repro.transport.socket_mesh import SocketTransport

import check
import host
import spans

WORKERS = 2
CLIENTS = 8
SETUP_REPEATS = 5

FAMILIES = {"US": US, "AS": AS, "GM": GM}


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def clear_caches() -> None:
    """Forget every schedule and plan this process holds."""
    default_schedule_cache().clear()
    default_plan_cache().clear()


@dataclass
class Outcome:
    """What one driven workload produced."""

    setup_s: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: ``(completed at, latency)`` per job, seconds from the timed start,
    #: in completion order
    jobs: list = field(default_factory=list)
    #: jobs that complete together (a sweep pass answers all its cells)
    quantum: int = 1
    #: peak RSS once the workload is torn down, before the correctness
    #: gate starts reference processes of its own
    peak_rss_mb: float = 0.0
    ok: list = field(default_factory=list)
    #: program counters over the timed phase (per-layer figures that need
    #: no span, plus the mechanism ratios every serve run prints)
    counters: dict = field(default_factory=dict)
    #: perf_counter_ns marks: last set-up start, timed start, timed end
    marks: tuple = (0, 0, 0)


async def drive(workload, seconds: float, *, repeats: int = SETUP_REPEATS) -> Outcome:
    out = Outcome()
    tracer = spans.active()
    t_setup = 0
    for rep in range(repeats):
        if rep:
            await workload.teardown()
        t_setup = time.perf_counter_ns()
        t0 = time.perf_counter()
        await workload.setup()
        out.setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.count_dispatches()
    t_lo = time.perf_counter_ns()
    t0 = time.perf_counter()
    try:
        await workload.timed(t0 + seconds)
    finally:
        out.elapsed_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.count_dispatches()
        t_hi = time.perf_counter_ns()
        await workload.teardown()
    out.marks = (t_setup, t_lo, t_hi)
    out.jobs = sorted((done - t0, lat) for done, lat in zip(workload.done, workload.latencies))
    out.quantum = getattr(workload, "quantum", 1)
    out.peak_rss_mb = host.peak_rss_mb()
    out.counters = workload.counters()
    out.ok = workload.check()
    return out


def _delta(after: dict, before: dict, key: str) -> int:
    return int(after.get(key, 0)) - int(before.get(key, 0))


# ---------------------------------------------------------------------- #
# sweep-cold
# ---------------------------------------------------------------------- #
#: the Table 1 cells: (algorithm, instance family, n, d); "hard" is the
#: worst-case triangle-rich [US:US:US] construction
TABLE1_CELLS = (
    ("two_phase", "US:US:AS", 256, 64),
    ("two_phase", "hard", 256, 16),
    ("naive", "hard", 256, 16),
    ("general", "AS:AS:AS", 128, 8),
    ("sparse_3d", "US:US:US", 216, 4),
    ("dense_3d", "GM:GM:GM", 27, 27),
    ("strassen", "GM:GM:GM", 27, 27),
)
#: the same algorithms on small instances: the set-up warm-up pass
WARMUP_CELLS = (
    ("two_phase", "US:US:AS", 128, 32),
    ("two_phase", "hard", 128, 8),
    ("naive", "hard", 128, 8),
    ("general", "AS:AS:AS", 64, 8),
    ("sparse_3d", "US:US:US", 125, 4),
    ("dense_3d", "GM:GM:GM", 8, 8),
    ("strassen", "GM:GM:GM", 8, 8),
)


def table1_instance(cell, rng):
    """Sweep factory: builds the cell's instance in the worker from the
    executor's per-cell generator.  ``cell`` is ``(pass, index,
    algorithm, family, n, d)``; the pass number only tags the request,
    so every pass of one run builds the same instances."""
    pass_no, index, algorithm, family, n, d = cell
    tracer = spans.active()
    if tracer is not None:
        tracer.set_request(f"pass{pass_no}.cell{index}")
    if family == "hard":
        inst = instance.make_hard_instance(n, d, rng)
    else:
        fams = tuple(FAMILIES[f] for f in family.split(":"))
        dist = "rows" if family == "GM:GM:GM" else None
        inst = instance.make_instance(fams, n, d, rng, distribution=dist)
    inst.table1_algorithm = algorithm
    return inst


def table1_cell(inst):
    """The sweep's one algorithm entry: run the cell's Table 1 algorithm."""
    return api.multiply(inst, algorithm=inst.table1_algorithm)


def table1_detail(inst, res):
    """In-worker detail hook: the product's digest (checked after the
    timed phase) and, in a traced run, the worker's spans."""
    return values_digest(res.x), spans.drain()


class SweepCold:
    """The Table 1 grid through ``run_sweep(workers=2, engine="shm")``.

    Each pass is one ``run_sweep`` call on cold caches: the parent's
    schedule and plan caches are cleared first, no store is persisted,
    and every cell builds a fresh seeded instance in its worker.  A
    cell's latency is its pass's wall, since ``run_sweep`` answers all
    cells of a pass at once.
    """

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.sweep_seed = int(rng_for(seed, 1).integers(2**31))
        self.latencies: list = []
        self.done: list = []
        self.passes: list = []
        self.quantum = len(TABLE1_CELLS)

    def _sweep(self, cells, pass_no: int):
        clear_caches()
        tracer = spans.active()
        cell_fn = table1_cell if tracer is None else tracer.wrap("executor.cell", table1_cell)
        axis = [(pass_no, i, *cell) for i, cell in enumerate(cells)]
        kwargs = dict(
            axis=("cell", axis),
            instance_factory=table1_instance,
            algorithms={"table1": cell_fn},
            verify=False,
            workers=WORKERS,
            seed=self.sweep_seed,
            engine="shm",
            detail=table1_detail,
        )
        if tracer is None:
            return run_sweep(**kwargs)
        with tracer.span("executor.run_sweep") as sid:
            res = run_sweep(**kwargs)
            for _digest, payload in res.details["table1"]:
                tracer.ingest(payload, sid)
        return res

    async def setup(self):
        self._sweep(WARMUP_CELLS, -1)
        clear_caches()

    async def timed(self, deadline: float):
        pass_no = 0
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            res = self._sweep(TABLE1_CELLS, pass_no)
            end = time.perf_counter()
            self.passes.append(res)
            self.latencies.extend([end - t0] * len(TABLE1_CELLS))
            self.done.extend([end] * len(TABLE1_CELLS))
            pass_no += 1

    async def teardown(self):
        clear_caches()

    def counters(self) -> dict:
        cells = sum(r.stats["cells"] for r in self.passes)
        idle = sum(WORKERS * r.stats["wall_s"] - r.stats["cell_wall_s_sum"] for r in self.passes)
        shipped = sum(r.stats.get("payload", {}).get("shipped_bytes", 0) for r in self.passes)
        return {
            "executor.overhead_ms_per_cell": idle * 1e3 / cells if cells else 0.0,
            "executor.payload_bytes_per_cell": shipped / cells if cells else 0.0,
        }

    def check(self) -> list:
        """Rebuild each cell's instance from the same per-cell generator,
        recompute the product on the default path (its digest must match
        every pass) and verify it, and bill it on the per-message path."""
        expected = []
        for i, cell in enumerate(TABLE1_CELLS):
            inst = table1_instance((0, i, *cell), cell_rng(self.sweep_seed, i, 0))
            res = api.multiply(inst, algorithm=cell[0])
            bill = check.reference_bill(inst, algorithm=cell[0])
            expected.append(
                (values_digest(res.x), inst.verify(res.x), bill.rounds, bill.messages)
            )
        ok = []
        for res in self.passes:
            for i in range(len(TABLE1_CELLS)):
                digest, verified, rounds, messages = expected[i]
                ok.append(
                    res.cell_status["table1"][i] == "ok"
                    and res.details["table1"][i][0] == digest
                    and verified
                    and res.rounds["table1"][i] == rounds
                    and res.messages["table1"][i] == messages
                )
        return ok


# ---------------------------------------------------------------------- #
# serve-hot / serve-unique
# ---------------------------------------------------------------------- #
def _weights(adj, rng) -> sp.csr_matrix:
    return sp.csr_matrix((rng.uniform(1.0, 9.0, size=adj.nnz), adj.nonzero()), shape=adj.shape)


class _Serve:
    """Closed loop of :data:`CLIENTS` tenants, each keeping one job
    outstanding against a :class:`ServeFrontend` with a 2-worker pool."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.frontend: ServeFrontend | None = None
        self.latencies: list = []
        self.done: list = []
        self.records: list = []
        #: (instance, product digest) pairs whose product a record holds
        self.kept: set = set()
        self.before: dict = {}
        self.after: dict = {}

    async def _start_frontend(self, cache_dir: str | None) -> None:
        self.frontend = ServeFrontend(ServeConfig(workers=WORKERS, cache_dir=cache_dir))
        await self.frontend.start()

    def next_job(self, client: int) -> Job:
        raise NotImplementedError

    async def timed(self, deadline: float):
        fe = self.frontend
        self.before = fe.stats()

        async def client(c: int):
            while time.perf_counter() < deadline:
                job = self.next_job(c)
                t0 = time.perf_counter()
                try:
                    res = await fe.submit(job)
                except Exception:  # rejected or failed batch: counts as not ok
                    res = None
                end = time.perf_counter()
                self.latencies.append(end - t0)
                self.done.append(end)
                self.records.append((job, self.answer(job, res)))

        await asyncio.gather(*(client(c) for c in range(CLIENTS)))
        self.after = fe.stats()

    async def teardown(self):
        if self.frontend is not None:
            await self.frontend.stop()
            self.frontend = None

    def answer(self, job: Job, res) -> check.Answer | None:
        """What the gate and the counters read of ``res``.  A product is
        kept the first time its instance returns it; a repeat keeps only
        its digest.  Holding every result made the process grow through
        the run, and serving slowed by a quarter within 30 seconds."""
        if res is None:
            return None
        digest = check.product_digest(res.x)
        key = (id(job.instance), digest)
        x = None
        if key not in self.kept:
            self.kept.add(key)
            x = res.x
        return check.Answer(
            ok=res.ok, rounds=res.rounds, messages=res.messages, digest=digest, x=x,
            value=res.value, certified=res.certified, wall_s=res.wall_s,
            cache_hits=res.cache_hits, cache_misses=res.cache_misses,
            plan_replayed=res.plan_replayed, plan_fallback=res.plan_fallback,
        )

    def counters(self) -> dict:
        b, a = self.before, self.after
        done = _delta(a, b, "jobs_completed")
        pa, pb = a.get("pool") or {}, b.get("pool") or {}
        results = [res for _job, res in self.records if res is not None]
        exec_ms = sorted(res.wall_s * 1e3 for res in results)
        lookups = sum(res.cache_hits + res.cache_misses for res in results)
        return {
            "frontend.coalesce_rate": _delta(a, b, "coalesced_jobs") / done if done else 0.0,
            "frontend.rejected": _delta(a, b, "jobs_rejected"),
            "pool.shm_batches": _delta(pa, pb, "shm_batches"),
            "pool.pickle_batches": _delta(pa, pb, "pickle_batches"),
            "pool.recoveries": _delta(pa, pb, "crash_recoveries") + _delta(pa, pb, "error_recoveries"),
            "plan.fallbacks": sum(1 for res in results if res.plan_fallback is not None),
            "jobs.exec_ms_p50": spans.nearest_rank(exec_ms, 0.5) if exec_ms else 0.0,
            "jobs.exec_samples": len(exec_ms),
            # the mechanism ratios, from the results the workers returned
            "serve.plan_replay_share": (
                sum(1 for res in results if res.plan_replayed) / len(results) if results else 0.0
            ),
            "serve.schedule_hit_ratio": (
                sum(res.cache_hits for res in results) / lookups if lookups else 0.0
            ),
        }

    def check(self) -> list:
        return check.serve_jobs_ok(self.records)


#: Zipf exponent of the hot structure popularity
ZIPF_S = 1.1
HOT_STRUCTURES = 8
HOT_TEMPLATES = 1024


class ServeHot(_Serve):
    """Hot traffic: Zipf over 8 [US:US:US] n=64 d=4 structures, each
    revalued per job under its own semiring, plus triangle and
    shortest-path jobs on one graph.  Set-up compiles every plan into the
    store through an inline pool; the serving pool's workers then
    warm-load it at spawn."""

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.store = work_dir / "store"

    async def setup(self):
        clear_caches()
        shutil.rmtree(self.store, ignore_errors=True)
        self.store.mkdir(parents=True)
        rng = rng_for(self.seed, 2)
        bases = [
            instance.make_instance(
                (US, US, US), 64, 4, rng, semiring=ALL_SEMIRINGS[k % len(ALL_SEMIRINGS)]
            )
            for k in range(HOT_STRUCTURES)
        ]
        adj = random_regular_adjacency(64, 6, seed=int(rng.integers(2**31)))
        tri = ("triangles", triangles.triangle_instance(adj))
        dist = ("shortest_paths", shortest_paths.distance_instance(_weights(adj, rng)))
        popularity = np.arange(1, HOT_STRUCTURES + 1, dtype=float) ** -ZIPF_S
        popularity /= popularity.sum()
        self.templates = []
        for _ in range(HOT_TEMPLATES):
            u = rng.random()
            if u < 0.8:
                k = int(rng.choice(HOT_STRUCTURES, p=popularity))
                self.templates.append(("multiply", revalue(bases[k], rng)))
            else:
                self.templates.append(tri if u < 0.9 else dist)
        keys = [("multiply", b) for b in bases] + [tri, dist]
        with ServePool(0, cache_dir=str(self.store)) as pool:
            for kind, inst in keys:
                pool.run_batch([Job(tenant="warmup", instance=inst, kind=kind)])
        await self._start_frontend(str(self.store))
        await asyncio.gather(
            *(self.frontend.submit(Job(tenant="warmup", instance=inst, kind=kind)) for kind, inst in keys)
        )
        self.cursor = [c for c in range(CLIENTS)]

    def next_job(self, client: int) -> Job:
        kind, inst = self.templates[self.cursor[client] % HOT_TEMPLATES]
        self.cursor[client] += CLIENTS
        return Job(tenant=f"tenant-{client}", instance=inst, kind=kind)


class ServeUnique(_Serve):
    """Cold traffic: every job is a fresh structure (n=32, d=3) across all
    7 semirings, with the hot workload's kinds; one job in ten asks for
    two certification checks.  Clients build each job just before
    submitting it (outside its latency), since no input repeats.

    The pool persists no store: every batch of fresh structures would
    rewrite whole shards whose size grows through the run, which halved
    the job rate within 20 seconds, so no run length gave a steady
    figure.  The store is written and read in serve-hot's set-up."""

    UNIQUE_TAG = 3
    WARMUP_TAG = 4

    def make_job(self, index: int, client: int, tag: int) -> Job:
        rng = rng_for(self.seed, tag, index)
        slot = index % 10
        checks = 2 if slot == (index // 10) % 10 else 0
        if slot < 8:
            sr = ALL_SEMIRINGS[index % len(ALL_SEMIRINGS)]
            inst = instance.make_instance((US, US, US), 32, 3, rng, semiring=sr)
            kind = "multiply"
        else:
            adj = random_regular_adjacency(32, 5, seed=int(rng.integers(2**31)))
            if slot == 8:
                inst, kind = triangles.triangle_instance(adj), "triangles"
            else:
                inst, kind = shortest_paths.distance_instance(_weights(adj, rng)), "shortest_paths"
        return Job(tenant=f"tenant-{client}", instance=inst, kind=kind, certify_checks=checks)

    async def setup(self):
        clear_caches()
        await self._start_frontend(None)
        await asyncio.gather(
            *(self.frontend.submit(self.make_job(i, i, self.WARMUP_TAG)) for i in range(CLIENTS))
        )
        self.index = 0

    def next_job(self, client: int) -> Job:
        self.index += 1
        return self.make_job(self.index, client, self.UNIQUE_TAG)


# ---------------------------------------------------------------------- #
# wire-tcp
# ---------------------------------------------------------------------- #
WIRE_TRIPLES = (
    (US, US, US),
    (US, US, AS),
    (AS, US, US),
    (US, AS, US),
    (AS, AS, AS),
)
WIRE_N, WIRE_D = 24, 3
#: instances per triple, cycled: enough that one seed's draws average out
WIRE_PER_TRIPLE = 8


class WireTcp:
    """One client running the five Table 1 triples over one long-lived
    2-worker :class:`SocketTransport`, a fresh network per job."""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.plane: SocketTransport | None = None
        self.latencies: list = []
        self.done: list = []
        self.records: list = []
        self.before: dict = {}
        self.after: dict = {}

    def _run(self, inst):
        net = LowBandwidthNetwork(inst.n, transport=self.plane, columnar=False)
        return api.multiply(inst, network=net)

    async def setup(self):
        clear_caches()
        rng = rng_for(self.seed, 5)
        self.instances = [
            instance.make_instance(triple, WIRE_N, WIRE_D, rng)
            for _ in range(WIRE_PER_TRIPLE)
            for triple in WIRE_TRIPLES
        ]
        # structure-only preprocessing: schedule every instance in-process
        # (same phases as over the wire), so timed jobs measure delivery
        for inst in self.instances:
            api.multiply(inst, network=LowBandwidthNetwork(inst.n, columnar=False))
        self.plane = SocketTransport(TransportConfig(workers=WORKERS))
        self.plane.ensure_started(WIRE_N)
        for inst in self.instances[: len(WIRE_TRIPLES)]:
            self._run(inst)

    async def timed(self, deadline: float):
        self.before = self.plane.stats()
        tracer = spans.active()
        k = 0
        while time.perf_counter() < deadline:
            index = k % len(self.instances)
            if tracer is not None:
                tracer.set_request(k)
            t0 = time.perf_counter()
            try:
                res = self._run(self.instances[index])
                got = (values_digest(res.x), res.rounds, res.messages)
            except Exception:  # a typed abort counts as not ok
                got = None
            end = time.perf_counter()
            self.latencies.append(end - t0)
            self.done.append(end)
            self.records.append((index, got))
            k += 1
        self.after = self.plane.stats()

    async def teardown(self):
        if self.plane is not None:
            self.plane.close()
            self.plane = None

    def counters(self) -> dict:
        wa, wb = self.after.get("wire", {}), self.before.get("wire", {})
        return {
            "transport.resends": _delta(wa, wb, "resends"),
            "transport.reconnects": _delta(wa, wb, "reconnects"),
            "transport.respawns": _delta(self.after, self.before, "respawns"),
        }

    def check(self) -> list:
        """Digest, rounds and messages against the in-process
        per-message run (the ``LocalTransport`` reference), whose
        product is itself verified."""
        expected = {}
        for index in sorted({index for index, _ in self.records}):
            inst = self.instances[index]
            bill = check.reference_bill(inst)
            if inst.verify(bill.x):
                expected[index] = (values_digest(bill.x), bill.rounds, bill.messages)
        return [got is not None and expected.get(index) == got for index, got in self.records]


WORKLOADS = {
    "sweep-cold": SweepCold,
    "serve-hot": ServeHot,
    "serve-unique": ServeUnique,
    "wire-tcp": WireTcp,
}

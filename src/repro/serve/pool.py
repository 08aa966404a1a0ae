"""Resident worker pool for the serving front end.

The sweep executor spins workers up per sweep and tears them down; a
serving layer needs workers that outlive any one request.  This module
provides that: :class:`ServePool` starts ``workers`` resident processes
through the worker lifecycle it shares with the sweep engine
(:func:`repro.analysis.executor.spawn_worker`, ``kill_worker`` and
``stop_workers``, on :func:`~repro.analysis.executor.preferred_context`):
each worker owns a private task queue and a one-writer result pipe (a
killed worker can never leave a shared queue lock held), a dead or
wedged worker is killed and replaced, and shutdown sends a sentinel and
then kills stragglers.  The pool dispatches one *batch* of coalesced
jobs at a time to whichever worker is idle.

Data plane
----------
Batches ship through the PR 6 shared-memory arena when the host has one:
the parent places every job instance's five CSR arrays into named
segments (:func:`repro.analysis.shm.share_instance`) and sends only
descriptors; the worker attaches zero-copy views, runs the batch, and
ships back the (small) per-job results plus any newly computed schedule
entries.  Hosts without ``/dev/shm`` — or instance types the protocol
does not understand — fall back to pickling the jobs through the task
queue, and the pool's stats say which transport each batch used.

Schedule and plan persistence
-----------------------------
With ``cache_dir`` set, workers warm-load the *sharded* schedule store
(:func:`repro.model.schedule_cache.load_store_sharded`) **and** the
compiled replay-plan store (:func:`repro.model.plan.load_plans_sharded`)
once at spawn, and the parent — the single writer — persists every
harvested new schedule and plan back through the sharded savers, which
route each entry to the shard file its digest prefix names.  N workers
therefore never contend on one npz: workers only read (at spawn), and
writes land on per-prefix files under one parent-side lock.  A restarted
service thus replays warm structures through compiled plans immediately,
without a single first-fit or plan-lowering pass.

Resilience
----------
A worker that dies mid-batch is detected by liveness polling; the batch
is re-executed inline in the parent (bit-identical — batches are
deterministic in their jobs alone) and the worker is replaced.  A batch
whose worker reports an engine-level error (not a per-job error, which
:func:`~repro.serve.jobs.execute_batch` captures on the job's result) is
also recovered inline.  ``workers=0`` skips processes entirely and runs
every batch inline — the mode any host supports.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from typing import Any

from repro.analysis import shm
from repro.analysis.executor import (
    kill_worker,
    preferred_context,
    spawn_worker,
    stop_workers,
)
from repro.model.plan import (
    default_plan_cache,
    load_plans_sharded,
    save_plans_sharded,
)
from repro.model.schedule_cache import (
    default_schedule_cache,
    load_store_sharded,
    save_store_sharded,
)
from repro.serve.jobs import Job, JobResult, execute_batch

__all__ = ["ServePool", "ServePoolClosed", "DeadlineExceeded"]


class ServePoolClosed(RuntimeError):
    """A batch was submitted to a pool that has been closed."""


class DeadlineExceeded(RuntimeError):
    """A worker batch blew its deadline; the wedged worker was killed.

    Carries ``elapsed_s`` (how long the batch ran), ``deadline_s`` (the
    budget it blew), and ``jobs`` (how many jobs died with it) so the
    front end can bill the partial work honestly.
    """

    def __init__(self, message: str, *, elapsed_s: float, deadline_s: float, jobs: int):
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.deadline_s = deadline_s
        self.jobs = jobs


def _job_parts(job: Job) -> dict:
    """The picklable fields of a job, minus its instance (which travels
    through the shared-memory arena)."""
    return {
        "tenant": job.tenant,
        "kind": job.kind,
        "algorithm": job.algorithm,
        "certify_checks": job.certify_checks,
        "job_id": job.job_id,
        "digest": job.digest,
    }


def _serve_worker_main(cache_dir: str | None, task_q, result_conn) -> None:
    """Loop of one resident worker: attach, execute, report, repeat.

    Warm-loads the sharded schedule store once, then serves batches until
    the ``None`` sentinel.  Per-job exceptions are captured inside
    :func:`execute_batch`; anything escaping a batch is engine breakage
    and is shipped as a transport-level error so the parent can recover
    the batch inline.
    """
    cache = default_schedule_cache()
    plans = default_plan_cache()
    if cache_dir:
        cache.merge(load_store_sharded(cache_dir))
        plans.merge(load_plans_sharded(cache_dir))
    cache.drain_new_entries()
    plans.drain_new_plans()
    while True:
        task = task_q.get()
        if task is None:
            return
        batch_id, transport, payload = task
        tracker = shm.ShmArena()  # attach-side bookkeeping for this batch
        try:
            if transport == "shm":
                jobs = []
                for parts, desc in payload:
                    inst = shm.attach_instance(desc, tracker)
                    jobs.append(Job(instance=inst, **parts))
            else:
                jobs = payload
            results = execute_batch(jobs)
            new = cache.drain_new_entries()
            new_plans = plans.drain_new_plans()
            result_conn.send((batch_id, results, new, new_plans, None))
        except BaseException as exc:
            try:
                result_conn.send(
                    (batch_id, None, {}, {}, f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                return
        finally:
            # drop the zero-copy views before unmapping; a still-referenced
            # mapping survives (close() swallows the BufferError) and is
            # reclaimed when the parent unlinks the segments
            jobs = None
            tracker.close()


class ServePool:
    """Executes coalesced job batches on resident worker processes.

    ``run_batch`` is blocking and thread-safe: the front end calls it
    from its executor threads, and each call checks out one idle worker
    (or runs inline when ``workers=0``).  Use as a context manager or
    call :meth:`close` — workers are daemonic, but an explicit close
    drains them deterministically.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        cache_dir: str | os.PathLike | None = None,
        job_timeout_s: float = 0.0,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process execution)")
        if job_timeout_s < 0:
            raise ValueError("job_timeout_s must be >= 0 (0 = no deadline)")
        self.workers = int(workers)
        self.job_timeout_s = float(job_timeout_s)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._ctx = preferred_context()
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        self._live: list[dict[str, Any]] = []
        self._seq = itertools.count()
        self._persist_lock = threading.Lock()
        self._warm_lock = threading.Lock()
        self._warm_loaded = False
        self._closed = False
        self.counters = {
            "batches": 0,
            "jobs": 0,
            "shm_batches": 0,
            "pickle_batches": 0,
            "inline_batches": 0,
            "crash_recoveries": 0,
            "error_recoveries": 0,
            "worker_replacements": 0,
            "new_schedules_persisted": 0,
            "shards_written": 0,
            "plans_persisted": 0,
            "plan_shards_written": 0,
            "deadline_exceeded": 0,
        }
        # died-by-signal cleanup: a SIGTERM'd parent must still unlink its
        # arenas and reap resident workers (atexit alone never runs under
        # the default SIGTERM disposition)
        shm.register_cleanup(self)
        shm.install_sigterm_cleanup()
        if self.workers:
            # Start the shared-memory resource tracker *before* forking:
            # workers inherit its fd and register attachments with the
            # parent's tracker (whose entries the parent's unlink clears).
            # A worker forked trackerless spawns a private tracker that
            # mis-reports every attachment as leaked at exit.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:
                pass
        for _ in range(self.workers):
            self._idle.put(self._spawn())

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self) -> dict[str, Any]:
        w = spawn_worker(self._ctx, _serve_worker_main, self.cache_dir)
        self._live.append(w)
        return w

    def _replace(self, w: dict[str, Any]) -> None:
        kill_worker(w)
        self._live.remove(w)
        self.counters["worker_replacements"] += 1
        self._idle.put(self._spawn())

    def close(self) -> None:
        """Drain and stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        stop_workers(self._live)
        self._live.clear()

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def _pack(self, jobs: "list[Job]", arena: shm.ShmArena):
        """Choose the batch transport: shared-memory descriptors when
        every instance shares, pickled jobs otherwise."""
        payload = []
        for job in jobs:
            try:
                desc = shm.share_instance(arena, job.instance)
            except OSError:
                desc = None
            if desc is None:
                return "pickle", jobs
            payload.append((_job_parts(job), desc))
        return "shm", payload

    def _run_inline(self, jobs: "list[Job]") -> "list[JobResult]":
        """Execute a batch in this process against the parent caches."""
        cache = default_schedule_cache()
        plans = default_plan_cache()
        if self.cache_dir:
            with self._warm_lock:
                if not self._warm_loaded:
                    cache.merge(load_store_sharded(self.cache_dir))
                    plans.merge(load_plans_sharded(self.cache_dir))
                    self._warm_loaded = True
            cache.drain_new_entries()
            plans.drain_new_plans()
        results = execute_batch(jobs)
        if self.cache_dir:
            self._persist(cache.drain_new_entries(), plans.drain_new_plans())
        return results

    def _persist(self, new: dict, new_plans: "dict | None" = None) -> None:
        """Single-writer persistence of harvested schedules and compiled
        plans into the digest-prefix shards."""
        new_plans = new_plans or {}
        if (not new and not new_plans) or not self.cache_dir:
            return
        with self._persist_lock:
            if new:
                default_schedule_cache().merge(new, copy=True)
                stats = save_store_sharded(self.cache_dir, new)
                self.counters["new_schedules_persisted"] += len(new)
                self.counters["shards_written"] += stats["shards_written"]
            if new_plans:
                default_plan_cache().merge(new_plans)
                pstats = save_plans_sharded(self.cache_dir, new_plans)
                self.counters["plans_persisted"] += len(new_plans)
                self.counters["plan_shards_written"] += pstats["shards_written"]

    def run_batch(self, jobs: "list[Job]") -> "list[JobResult]":
        """Run one coalesced batch to completion; blocking, thread-safe."""
        if self._closed:
            raise ServePoolClosed("pool is closed")
        if not jobs:
            return []
        self.counters["batches"] += 1
        self.counters["jobs"] += len(jobs)
        if self.workers == 0:
            self.counters["inline_batches"] += 1
            return self._run_inline(jobs)

        w = self._idle.get()
        batch_id = next(self._seq)
        arena = shm.ShmArena()
        # batches execute their jobs sequentially, so the batch budget is
        # the per-job deadline times the batch size (0 = no deadline)
        deadline_s = self.job_timeout_s * len(jobs) if self.job_timeout_s else 0.0
        started = time.monotonic()
        try:
            try:
                transport, payload = self._pack(jobs, arena)
            except Exception:
                transport, payload = "pickle", jobs
            self.counters[f"{transport}_batches"] += 1
            w["task_q"].put((batch_id, transport, payload))
            while True:
                if deadline_s and time.monotonic() - started > deadline_s:
                    # a wedged job must not hold a worker hostage: kill
                    # and replace the worker, fail the batch typed — the
                    # front end bills the partial wall and fails the jobs
                    elapsed = time.monotonic() - started
                    self.counters["deadline_exceeded"] += 1
                    self._replace(w)
                    w = None
                    raise DeadlineExceeded(
                        f"batch of {len(jobs)} jobs exceeded its deadline "
                        f"({elapsed:.2f}s > {deadline_s:.2f}s = "
                        f"{len(jobs)} * job_timeout_s {self.job_timeout_s:g}s); "
                        f"wedged worker killed",
                        elapsed_s=elapsed,
                        deadline_s=deadline_s,
                        jobs=len(jobs),
                    )
                try:
                    if w["conn"].poll(0.05):
                        got_id, results, new, new_plans, err = w["conn"].recv()
                        if got_id != batch_id:
                            continue  # stale result of an abandoned batch
                        break
                except (EOFError, OSError):
                    err = "worker pipe closed mid-batch"
                    results, new, new_plans = None, {}, {}
                    break
                if not w["proc"].is_alive():
                    err = f"worker pid {w['proc'].pid} died mid-batch"
                    results, new, new_plans = None, {}, {}
                    break
            if results is None:
                # crash or engine error: recover inline (bit-identical —
                # batches are deterministic in their jobs alone)
                if not w["proc"].is_alive():
                    self.counters["crash_recoveries"] += 1
                else:
                    self.counters["error_recoveries"] += 1
                self._replace(w)
                w = None
                return self._run_inline(jobs)
            self._persist(new, new_plans)
            return results
        finally:
            arena.close()
            if w is not None:
                self._idle.put(w)

    def stats(self) -> dict:
        """Pool counters plus liveness, for the front end's stats dict."""
        return {
            "workers": self.workers,
            "alive": sum(1 for w in self._live if w["proc"].is_alive()),
            "cache_dir": self.cache_dir,
            "job_timeout_s": self.job_timeout_s,
            **self.counters,
        }

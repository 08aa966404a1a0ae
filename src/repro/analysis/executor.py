"""Parallel sweep execution engine.

Every evaluation artifact in this repository (Tables 1-4, the §1.2
figure) is produced by a parameter sweep: a grid of independent
``(axis value, algorithm)`` *cells*, each of which builds a fresh
instance, runs one algorithm on the simulator, and reports rounds and
messages.  The cells share no state — the only cross-cell coupling is
the structure-keyed schedule cache, which is a pure memo (replaying a
cached schedule is bit-identical to recomputing it) — so the grid can be
fanned out over worker processes without changing a single round count.

:func:`execute_cells` is that engine.  It decomposes a sweep into
:class:`SweepCell` work items, runs them in-process or on a pool of
worker processes, and reassembles :class:`CellResult` rows in
deterministic cell order, so ``workers=N`` is bit-identical to
``workers=1`` for any ``N``.

Determinism contract
--------------------
* Each cell derives its RNG from the *root seed* and the cell's grid
  coordinates alone — ``cell_rng(seed, axis_index, algo_index)`` spawns
  ``numpy.random.SeedSequence(seed, spawn_key=(axis_index, algo_index))``
  — never from execution order, worker identity, or wall clock.  Two runs
  with the same seed produce identical instances cell-for-cell, whatever
  the worker count.
* Factories that ignore the engine's RNG (the legacy one-argument form
  ``factory(value)``) must be deterministic in ``value`` alone; all the
  in-repo workloads are.
* Results are reassembled by cell index, not completion order.

Schedule-cache persistence
--------------------------
With ``cache_dir`` set, the engine warm-loads the versioned on-disk
store (:func:`repro.model.schedule_cache.load_store`) into the
process-wide default cache once, before running — forked workers inherit
the warm cache — and afterwards merges every schedule newly computed by
any worker back into the parent cache and rewrites the store.  First-fit
scheduling cost is therefore paid once per structure across all
processes and all future runs.

Start methods: the engine prefers ``fork`` (the work specification is
inherited by the children, so factories and algorithms may be arbitrary
callables — closures and lambdas included).  On platforms without
``fork`` the specification is pickled to the workers; if it cannot be
pickled the engine runs the sweep in-process and says so in the run
stats rather than failing the sweep.

The worker engine: shared memory, work stealing, supervision
------------------------------------------------------------
Multi-process sweeps run on one engine built on
:mod:`repro.analysis.shm`:

* instance matrices (legacy deterministic ``factory(value)`` form), the
  warm schedule store (spawned workers only), and a per-cell result
  table live in named ``multiprocessing.shared_memory`` segments;
  workers receive only ``(segment name, dtype, shape, offset)``
  descriptors and attach zero-copy views;
* newly computed schedules are appended to a per-worker *harvest*
  segment; a cell's completion message shrinks to its index, optional
  error text, and a byte range — per-cell serialized payload drops by
  orders of magnitude (both sides are measured and reported in
  ``stats["payload"]`` and per cell on :class:`CellResult`);
* dispatch is work stealing: the parent hands the next pending cell to
  whichever worker frees up, so one slow cell never idles the rest;
* each worker owns a private task queue (the parent always knows which
  cell a dead worker held) and a one-writer result pipe (a killed worker
  can never leave a shared lock held and wedge its siblings); a worker
  that dies mid-cell, or overruns ``cell_timeout_s``, is killed and
  replaced by a fresh process, and its cell goes to the retry policy;
* every segment is unlinked in a ``finally``: a crashed sweep leaks
  nothing in ``/dev/shm``.

The retry policy is the same for every execution path:

* plain runs (``max_attempts=1``, no ``cell_timeout_s``): a cell that
  raises is recorded ``status="failed"`` with its error, without retry;
  a cell whose worker crashes is re-dispatched once to a fresh worker,
  and if that worker dies too the cell is recorded ``failed`` with an
  error naming the crash.  A cell never runs in the parent process, so a
  cell that kills its process cannot take the sweep down with it;
* self-healing runs (``cell_timeout_s`` set or ``max_attempts > 1``): a
  raise, a worker crash, and a timeout each cost one attempt; between
  attempts the cell waits ``retry_backoff_s * 2**(attempt-1)`` (bounded
  exponential backoff), and a cell that fails ``max_attempts`` times is
  *quarantined* — the sweep completes, the cell reports
  ``status="quarantined"`` with its per-attempt failure log, and every
  other cell is bit-identical to a fault-free run (retries reuse the
  same deterministic per-cell RNG).  With ``cell_timeout_s`` set the
  parent prebuilds no shared instances, so the deadline covers the
  instance factory too, and a self-healing run uses a worker process
  even at ``workers=1``.

The engine needs real worker processes and shared-memory segments.
Sweeps run in-process — same retry policy, no preemption — for plain
runs at ``workers=1``, when the work spec cannot be pickled under
``spawn``, and under ``engine="auto"`` on a host where segments cannot
be created; the last two are reported in ``stats["fallback"]``.  ``engine="shm"`` raises
instead of degrading.

Crash-safe checkpointing
------------------------
With ``checkpoint_dir`` set the engine periodically writes an atomic
manifest of every completed cell (:mod:`repro.analysis.checkpoint`) and,
on the next run with ``resume=True``, restores completed cells from a
manifest whose sweep signature matches — same grid, seed, ``verify``
flag, and factory/algorithm identities — executing only the missing or
unfinished cells.  Because cells are deterministic in ``(seed, grid
coordinates)`` alone, a resumed sweep is bit-identical to an
uninterrupted one; a mid-sweep ``kill -9`` costs at most the cells that
had not yet been checkpointed.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.analysis import shm
from repro.analysis.checkpoint import (
    load_manifest,
    manifest_path,
    row_complete,
    save_manifest,
    sweep_signature,
)
from repro.model.schedule_cache import (
    default_schedule_cache,
    load_store,
    save_store,
    store_path,
)

__all__ = [
    "SweepCell",
    "CellResult",
    "cell_rng",
    "resolve_workers",
    "build_cells",
    "execute_cells",
    "preferred_context",
    "spawn_worker",
    "kill_worker",
    "stop_workers",
]


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work: run ``algo_name`` on a fresh
    instance built at ``axis_value``."""

    index: int
    axis_index: int
    axis_value: Any
    algo_index: int
    algo_name: str


@dataclass
class CellResult:
    """Measured outcome of one cell (plus engine instrumentation)."""

    index: int
    axis_index: int
    axis_value: Any
    algo_name: str
    rounds: int = -1
    messages: int = -1
    verified: bool | None = None  # None: verification was not requested
    error: str | None = None
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    new_schedules: int = 0
    worker_pid: int = 0
    #: "ok" | "failed" | "quarantined" — "failed" means a plain run
    #: recorded the cell's error (a raise, or a second worker crash);
    #: "quarantined" means a self-healing run exhausted ``max_attempts``
    status: str = "ok"
    #: number of attempts the cell took (a plain run re-dispatches a
    #: cell once after a worker crash)
    attempts: int = 1
    #: one line per failed attempt: ``"attempt N: <what happened>"``
    failure_log: list[str] = field(default_factory=list)
    #: output of the sweep's ``detail`` hook (small picklable payload
    #: extracted in-worker; the full MultiplyResult never crosses the
    #: process boundary)
    details: Any = None
    #: True when this result was restored from a sweep checkpoint
    #: manifest instead of being executed in this run
    restored: bool = False
    #: bytes a pickling transport would have shipped for this cell (the
    #: pickled ``(CellResult, new schedules)`` pair), measured in-worker
    payload_baseline_bytes: int = 0
    #: bytes that actually crossed the worker pipe (the tiny completion
    #: message); 0 for in-process execution
    payload_shipped_bytes: int = 0


def cell_rng(root_seed: int, axis_index: int, algo_index: int) -> np.random.Generator:
    """The deterministic per-cell generator (see the module docstring)."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(axis_index, algo_index))
    return np.random.default_rng(ss)


def resolve_workers(workers: int | None) -> int:
    """``None``/``0`` means auto: one worker per core, at most four."""
    if workers is None or workers == 0:
        return max(1, min(4, os.cpu_count() or 1))
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = auto)")
    return int(workers)


def build_cells(
    values: Sequence, algorithms: Mapping[str, Callable]
) -> list[SweepCell]:
    """The canonical cell grid: axis-major, algorithm-minor (the serial
    loop order of the historical ``run_sweep``)."""
    cells = []
    for ai, value in enumerate(values):
        for gi, name in enumerate(algorithms):
            cells.append(SweepCell(len(cells), ai, value, gi, name))
    return cells


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #
# The work specification lives in a module global.  Under the fork start
# method the parent sets it *before* any worker exists and children
# inherit it (this is what lets closures through); under spawn it travels
# in the worker's spec.  Keys: factory, algorithms, verify, seed, persist,
# detail.
_STATE: dict[str, Any] | None = None


def _worker_init() -> None:
    # Only schedules computed *by this process from here on* are shipped
    # back to the parent; inherited or warm-loaded entries are not.
    default_schedule_cache().drain_new_entries()


def _exec_cell(
    cell: SweepCell, *, instance: Any | None = None
) -> tuple[CellResult, dict[bytes, np.ndarray]]:
    state = _STATE
    assert state is not None, "executor worker used before initialization"
    cache = default_schedule_cache()
    hits0, misses0 = cache.hits, cache.misses
    result = CellResult(cell.index, cell.axis_index, cell.axis_value, cell.algo_name)
    t0 = time.perf_counter()
    try:
        if instance is not None:
            # prebuilt (shared-memory) instance: sound because the legacy
            # factory(value) contract requires determinism in value alone
            inst = instance
        elif state["seed"] is not None:
            rng = cell_rng(state["seed"], cell.axis_index, cell.algo_index)
            inst = state["factory"](cell.axis_value, rng)
        else:
            inst = state["factory"](cell.axis_value)
        res = state["algorithms"][cell.algo_name](inst)
        result.rounds = int(res.rounds)
        result.messages = int(res.messages)
        if state["verify"]:
            result.verified = bool(inst.verify(res.x))
        if state["detail"] is not None:
            result.details = state["detail"](inst, res)
    except Exception as exc:  # reassembly decides whether this is fatal
        result.error = f"{type(exc).__name__}: {exc}"
        result.status = "failed"
    result.wall_s = time.perf_counter() - t0
    result.cache_hits = cache.hits - hits0
    result.cache_misses = cache.misses - misses0
    result.worker_pid = os.getpid()
    new = cache.drain_new_entries() if state["persist"] else {}
    result.new_schedules = len(new)
    return result, new


#: per-worker capacity for newly computed schedule arrays; overflow spills
#: to the (counted) pipe instead of failing the cell
_HARVEST_SEGMENT_BYTES = 8 << 20


class _ShmUnavailable(RuntimeError):
    """Shared-memory segments cannot be created on this host; raised
    before any worker starts, so ``engine="auto"`` can run the sweep
    in-process instead."""


# Like _STATE: the engine's work spec, inherited by forked children.
# Holds only segment descriptors plus the state dict — a few hundred
# bytes however large the sweep data is.
_SHM_SPEC: dict[str, Any] | None = None


def _result_row_write(row: np.void, res: CellResult) -> None:
    """Store a cell's numeric outcome into its shared result-table row."""
    row["rounds"] = res.rounds
    row["messages"] = res.messages
    row["wall_s"] = res.wall_s
    row["cache_hits"] = res.cache_hits
    row["cache_misses"] = res.cache_misses
    row["new_schedules"] = res.new_schedules
    row["worker_pid"] = res.worker_pid
    row["verified"] = -1 if res.verified is None else int(res.verified)
    row["status"] = 0 if res.status == "ok" else 1


def _result_from_row(
    cell: SweepCell, row: np.void, error: str | None, details: Any
) -> CellResult:
    """Rebuild a :class:`CellResult` from its shared row plus the (tiny)
    completion-message fields that do not fit a fixed-width table."""
    res = CellResult(cell.index, cell.axis_index, cell.axis_value, cell.algo_name)
    res.rounds = int(row["rounds"])
    res.messages = int(row["messages"])
    res.wall_s = float(row["wall_s"])
    res.cache_hits = int(row["cache_hits"])
    res.cache_misses = int(row["cache_misses"])
    res.new_schedules = int(row["new_schedules"])
    res.worker_pid = int(row["worker_pid"])
    v = int(row["verified"])
    res.verified = None if v < 0 else bool(v)
    res.status = "ok" if int(row["status"]) == 0 else "failed"
    res.error = error
    res.details = details
    res.payload_baseline_bytes = int(row["baseline_bytes"])
    res.payload_shipped_bytes = int(row["shipped_bytes"])
    return res


def _shm_worker_main(spec, task_q, result_conn) -> None:
    """Loop of one engine worker (see "The worker engine" above).

    The worker attaches to the segments named in its spec — warm schedule
    pack (spawn only; forked children inherit the warm cache), shared
    instances, result table, and its private harvest segment — then pulls
    cells off its task queue.  Finishing a cell means: write the numeric
    outcome into the cell's result row, append new schedules to the
    harvest segment, and send a completion message that is nothing but
    ``(index, error, details, spill, byte range)``.  Both payload sizes —
    what pickling the whole result would ship and what actually crossed
    the pipe — are measured here and recorded in the row.
    """
    global _STATE
    if spec is None:
        spec = _SHM_SPEC
    assert spec is not None, "shm worker started without a work spec"
    if spec.get("state") is not None:
        _STATE = spec["state"]
    tracker = shm.ShmArena()  # attach-side bookkeeping only; creates nothing
    try:
        cache = default_schedule_cache()
        warm = spec.get("warm")
        if warm is not None:
            name, end = warm
            seg = tracker.track(shm.attach_segment(name))
            # zero-copy views are safe here: the mapping outlives the cache
            # use (worker lifetime), so no copy is forced
            cache.merge(dict(shm.iter_entries(seg.buf, end)), copy=False)
        _worker_init()
        rows, row_seg = shm.attach_array(spec["results"])
        tracker.track(row_seg)
        harvest = tracker.track(shm.attach_segment(spec["harvest"]))
        cursor = 0
        attached: dict[int, Any] = {}
        while True:
            cell = task_q.get()
            if cell is None:
                return
            inst = None
            desc = spec["instances"].get(cell.axis_index)
            if desc is not None:
                inst = attached.get(cell.axis_index)
                if inst is None:
                    inst = attached[cell.axis_index] = shm.attach_instance(desc, tracker)
            res, new = _exec_cell(cell, instance=inst)
            # what pickling the whole result would ship for this cell
            baseline = len(pickle.dumps((res, new)))
            start = cursor
            spill: dict[bytes, np.ndarray] = {}
            for digest, arr in new.items():
                try:
                    cursor = shm.append_entry(harvest.buf, cursor, digest, arr)
                except ValueError:
                    spill[digest] = arr  # harvest segment full: ship via pipe
            row = rows[cell.index]
            _result_row_write(row, res)
            payload = pickle.dumps(
                (cell.index, res.error, res.details, spill, start, cursor)
            )
            row["baseline_bytes"] = baseline
            row["shipped_bytes"] = len(payload)
            result_conn.send_bytes(payload)
    finally:
        tracker.close()


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
def preferred_context() -> mp.context.BaseContext:
    """The multiprocessing context every worker pool in this repository
    uses: ``fork`` when the platform has it (closures reach children by
    inheritance), the platform default otherwise.  Public because the
    resident serving pool (:mod:`repro.serve.pool`) spawns its workers
    from the same context."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


def spawn_worker(ctx: mp.context.BaseContext, target: Callable, *args) -> dict[str, Any]:
    """Start one daemonic worker running ``target(*args, task_q, result_conn)``.

    The worker owns a private ``SimpleQueue`` of tasks, so the parent
    always knows what a dead worker was holding, and the write end of a
    one-writer result pipe, so killing a worker can never leave a shared
    lock held and wedge its siblings.  Returns the worker record
    ``{"proc", "task_q", "conn"}`` (``conn`` is the parent's read end)
    taken by :func:`kill_worker` and :func:`stop_workers`.  Shared by
    the sweep engine and the resident serving pool.
    """
    task_q = ctx.SimpleQueue()
    recv_conn, send_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, task_q, send_conn), daemon=True)
    proc.start()
    send_conn.close()  # parent keeps only the read end
    return {"proc": proc, "task_q": task_q, "conn": recv_conn}


def kill_worker(w: dict[str, Any]) -> None:
    """Kill a worker from :func:`spawn_worker` (if still alive), reap it,
    and close the parent's end of its pipe."""
    proc = w["proc"]
    if proc.is_alive():
        proc.kill()
    proc.join(timeout=5)
    w["conn"].close()


def stop_workers(workers: Sequence[dict[str, Any]]) -> None:
    """Shut workers from :func:`spawn_worker` down: a ``None`` sentinel
    to every live one, a bounded join, then kill whatever still runs."""
    for w in workers:
        if w["proc"].is_alive():
            try:
                w["task_q"].put(None)
            except OSError:
                pass
    for w in workers:
        w["proc"].join(timeout=2)
        if w["proc"].is_alive():
            w["proc"].kill()
            w["proc"].join(timeout=5)
        try:
            w["conn"].close()
        except OSError:
            pass


class _WorkerReaper:
    """Kills a sweep's live workers at interpreter exit or SIGTERM (see
    :func:`repro.analysis.shm.register_cleanup`), before the arena's
    segments are unlinked; ``workers`` is the engine's live list."""

    def __init__(self, workers: list[dict[str, Any]]) -> None:
        self.workers = workers

    def close(self) -> None:
        for w in self.workers:
            kill_worker(w)


class _RetryPolicy:
    """What happens to a failed attempt (see the module docstring); one
    per run, shared by the worker engine and the in-process loop.

    ``counters`` holds the run's retry and worker counters, which both
    loops update.
    """

    def __init__(self, *, resilient: bool, max_attempts: int, backoff_s: float):
        self.resilient = resilient
        # plain runs re-dispatch a crashed cell once
        self.budget = max_attempts if resilient else 2
        self.backoff_s = backoff_s
        self.counters = dict.fromkeys(
            (
                "worker_crashes",
                "worker_replacements",
                "requeued_cells",
                "timeouts",
                "quarantined",
                "harvest_spills",
            ),
            0,
        )

    def settles(self, res: CellResult) -> bool:
        """Whether an attempt that ran to completion settles its cell: a
        success always does, a raise does on plain runs (as ``failed``)."""
        return res.error is None or not self.resilient

    def fail(
        self, cell: SweepCell, attempt: int, log: list[str], msg: str
    ) -> CellResult | None:
        """Log a failed attempt.  Returns ``None`` when the cell gets
        another attempt (after :meth:`delay_s`), otherwise its final
        ``quarantined`` (self-healing) or ``failed`` (plain) result."""
        log.append(f"attempt {attempt}: {msg}")
        if attempt < self.budget:
            self.counters["requeued_cells"] += 1
            return None
        res = CellResult(cell.index, cell.axis_index, cell.axis_value, cell.algo_name)
        if self.resilient:
            res.status = "quarantined"
            self.counters["quarantined"] += 1
        else:
            res.status = "failed"
        res.attempts = attempt
        res.failure_log = log
        res.error = log[-1]
        return res

    def delay_s(self, attempt: int) -> float:
        """Bounded exponential backoff before attempt ``attempt + 1``."""
        return min(self.backoff_s * 2 ** (attempt - 1), 2.0)


def _share_instances(arena: shm.ShmArena, state: dict[str, Any], cells) -> dict:
    """Build one shared instance per axis value (legacy ``factory(value)``
    form only).

    Sound because that form's contract requires determinism in ``value``
    alone — every cell of an axis value would build the same instance, so
    building it once in the parent and attaching zero-copy views in every
    worker is bit-identical and skips ``algorithms - 1`` rebuilds per
    value.  Seeded factories draw a distinct per-cell RNG, so their
    instances stay per-cell and are built in the workers as before.
    A factory error or an unshareable instance type simply leaves the
    value out of the map: workers rebuild and report errors per cell,
    preserving the per-cell error semantics.
    """
    if state["seed"] is not None:
        return {}
    out: dict[int, Any] = {}
    seen: set[int] = set()
    for cell in cells:
        if cell.axis_index in seen:
            continue
        seen.add(cell.axis_index)
        try:
            inst = state["factory"](cell.axis_value)
        except Exception:
            continue  # workers rebuild and report the error per cell
        desc = shm.share_instance(arena, inst)
        if desc is None:
            return {}  # unsupported instance type: don't build the rest
        out[cell.axis_index] = desc
    return out


def _execute_shm(
    cells: Sequence[SweepCell],
    ctx: mp.context.BaseContext,
    state: dict[str, Any],
    policy: _RetryPolicy,
    *,
    workers: int,
    cell_timeout_s: float | None,
    num_rows: int,
    results: list[CellResult | None],
    harvested: dict[bytes, np.ndarray],
    on_result: Callable[[], None] | None = None,
) -> dict[str, Any]:
    """The multi-process engine (see "The worker engine" above).

    The parent owns every shared segment through one :class:`ShmArena`
    and hands the next ready cell to whichever worker frees up.  It polls
    results, liveness, and deadlines; a worker that dies or overruns is
    killed and replaced, and its cell goes to ``policy``.  The arena is
    closed in a ``finally``: no ``/dev/shm`` entry survives the call,
    crashes included.  Returns the engine's segment statistics.

    Raises :class:`_ShmUnavailable` before any worker starts when
    segments cannot be created.
    """
    global _SHM_SPEC
    from multiprocessing.connection import wait as _conn_wait

    counters = policy.counters
    info: dict[str, Any] = {
        "shared_instances": 0,
        "instance_bytes": 0,
        "warm_pack_bytes": 0,
        "harvest_segment_bytes": _HARVEST_SEGMENT_BYTES,
        "segments": 0,
    }
    arena = shm.ShmArena()
    try:
        cache = default_schedule_cache()
        fork = ctx.get_start_method() == "fork"
        try:
            warm = None
            if not fork:
                # spawned workers cannot inherit the warm cache; pack it
                # once and let every worker attach zero-copy
                warm = shm.pack_entries(arena, cache.export_entries())
                if warm is not None:
                    info["warm_pack_bytes"] = warm[1]
            # a deadline must cover the instance factory, so with one set
            # every instance is built in its worker
            instances = (
                _share_instances(arena, state, cells) if cell_timeout_s is None else {}
            )
            results_desc, rows = shm.result_block(arena, num_rows)
        except OSError as exc:
            raise _ShmUnavailable(
                f"cannot create shared-memory segments: {exc}"
            ) from exc
        info["shared_instances"] = len(instances)
        info["instance_bytes"] = sum(
            spec[part].nbytes
            for desc in instances.values()
            for spec in desc.csr.values()
            for part in ("data", "indices", "indptr")
        )

        spec_base = {
            "state": None if fork else state,
            "warm": warm,
            "instances": instances,
            "results": results_desc,
        }

        def spawn() -> dict[str, Any]:
            global _SHM_SPEC
            harvest = arena.create(_HARVEST_SEGMENT_BYTES)
            spec = dict(spec_base, harvest=harvest.name)
            _SHM_SPEC = spec  # snapshot inherited by the forked child
            w = spawn_worker(ctx, _shm_worker_main, None if fork else spec)
            # job: (cell, attempt, failure log, deadline) currently dispatched
            w.update(harvest=harvest, job=None)
            return w

        # (cell, attempt, earliest start, failure log); attempts count from 1
        ready: list[tuple[SweepCell, int, float, list[str]]] = [
            (cell, 1, 0.0, []) for cell in cells
        ]
        completed = 0

        def finish(res: CellResult) -> None:
            nonlocal completed
            results[res.index] = res
            completed += 1
            if on_result is not None:
                on_result()

        def fail(cell: SweepCell, attempt: int, log: list[str], msg: str) -> None:
            final = policy.fail(cell, attempt, log, msg)
            if final is not None:
                finish(final)
            else:
                not_before = time.monotonic() + policy.delay_s(attempt)
                ready.append((cell, attempt + 1, not_before, log))

        def consume(w: dict[str, Any]) -> None:
            """Handle everything currently readable on one worker's pipe."""
            while True:
                try:
                    if not w["conn"].poll():
                        return
                    payload = w["conn"].recv_bytes()
                except (EOFError, OSError):
                    return  # peer died; liveness polling recovers the cell
                index, error, details, spill, h_start, h_end = pickle.loads(payload)
                job = w["job"]
                if job is None or job[0].index != index:
                    continue  # result of a cell the parent already gave up on
                cell, attempt, log, _ = job
                w["job"] = None
                if h_end > h_start:
                    # copy=True: these arrays outlive the arena's segments
                    harvested.update(
                        shm.iter_entries(
                            w["harvest"].buf, h_end, start=h_start, copy=True
                        )
                    )
                if spill:
                    counters["harvest_spills"] += len(spill)
                    harvested.update(spill)
                res = _result_from_row(cell, rows[index], error, details)
                if policy.settles(res):
                    res.attempts = attempt
                    res.failure_log = log
                    finish(res)
                else:
                    fail(cell, attempt, log, error)

        def retire(w: dict[str, Any]) -> None:
            """Kill a dead or overrunning worker; replace it while work remains."""
            kill_worker(w)
            if completed < len(cells):
                w.update(spawn())
                counters["worker_replacements"] += 1

        def next_ready(tnow: float) -> tuple[SweepCell, int, float, list[str]] | None:
            for i, job in enumerate(ready):
                if job[2] <= tnow:
                    return ready.pop(i)
            return None

        timeout = math.inf if cell_timeout_s is None else cell_timeout_s
        # died-by-signal cleanup: a SIGTERM'd sweep must still reap its
        # workers and unlink its segments (the default SIGTERM disposition
        # runs neither ``finally`` nor atexit).  The registry holds the
        # reaper weakly; this local keeps it alive for the whole sweep.
        workers_live: list[dict[str, Any]] = []
        reaper = _WorkerReaper(workers_live)
        shm.register_cleanup(reaper)
        shm.install_sigterm_cleanup()
        try:
            workers_live.extend(spawn() for _ in range(workers))
            while completed < len(cells):
                readable = _conn_wait([w["conn"] for w in workers_live], timeout=0.02)
                for w in workers_live:
                    if w["conn"] in readable:
                        consume(w)

                tnow = time.monotonic()
                for w in workers_live:
                    proc = w["proc"]
                    if not proc.is_alive():
                        consume(w)  # the result may have raced the death
                        if w["job"] is not None:
                            cell, attempt, log, _ = w["job"]
                            w["job"] = None
                            counters["worker_crashes"] += 1
                            fail(
                                cell, attempt, log,
                                f"worker crash: pid {proc.pid} exited with code "
                                f"{proc.exitcode} mid-cell",
                            )
                        retire(w)
                    elif w["job"] is not None and tnow > w["job"][3]:
                        cell, attempt, log, _ = w["job"]
                        w["job"] = None
                        counters["timeouts"] += 1
                        fail(
                            cell, attempt, log,
                            f"timeout: cell exceeded {cell_timeout_s:.3g}s "
                            f"(worker pid {proc.pid} killed)",
                        )
                        retire(w)

                # work stealing: the next ready cell goes to whichever
                # worker is idle right now
                tnow = time.monotonic()
                for w in workers_live:
                    if w["job"] is not None or not w["proc"].is_alive():
                        continue
                    job = next_ready(tnow)
                    if job is None:
                        break
                    cell, attempt, _, log = job
                    w["job"] = (cell, attempt, log, tnow + timeout)
                    w["task_q"].put(cell)
        finally:
            stop_workers(workers_live)
        info["segments"] = len(arena._segments)
    finally:
        arena.close()
        _SHM_SPEC = None
    return info


def _execute_inline(
    cells: Sequence[SweepCell],
    policy: _RetryPolicy,
    *,
    results: list[CellResult | None],
    harvested: dict[bytes, np.ndarray],
    on_result: Callable[[], None] | None = None,
) -> None:
    """Run cells one after another in this process under ``policy``: the
    same retries and quarantine as the worker engine, but no preemption —
    a hung cell hangs the sweep."""
    _worker_init()
    for cell in cells:
        attempt, log = 1, []
        while True:
            res, new = _exec_cell(cell)
            harvested.update(new)
            if policy.settles(res):
                res.attempts = attempt
                res.failure_log = log
                break
            final = policy.fail(cell, attempt, log, res.error)
            if final is not None:
                res = final
                break
            time.sleep(policy.delay_s(attempt))
            attempt += 1
        results[cell.index] = res
        if on_result is not None:
            on_result()


def execute_cells(
    cells: Sequence[SweepCell],
    *,
    instance_factory: Callable,
    algorithms: Mapping[str, Callable],
    verify: bool = True,
    workers: int | None = 1,
    seed: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    detail: Callable[[Any, Any], Any] | None = None,
    cell_timeout_s: float | None = None,
    max_attempts: int = 1,
    retry_backoff_s: float = 0.05,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 1,
    resume: bool = True,
    engine: str = "auto",
) -> tuple[list[CellResult], dict[str, Any]]:
    """Run every cell; return ``(results_in_cell_order, run_stats)``.

    ``detail(instance, multiply_result)`` runs in the worker right after
    a successful cell and its (small, picklable) return value is attached
    to the cell's :class:`CellResult` — the way to keep algorithm
    diagnostics (wave counts, phase splits) without shipping whole
    ``MultiplyResult``/network objects across the process boundary.

    Exceptions inside a cell are *captured* on its :class:`CellResult`
    (``error``), never raised here — the caller chooses the failure
    policy (``run_sweep(strict=True)`` re-raises, ``strict=False``
    records).  See the module docstring for the determinism and cache
    contracts.

    ``cell_timeout_s`` / ``max_attempts`` / ``retry_backoff_s`` select
    the self-healing retry policy (see the module docstring): cells that
    hang, crash their worker, or raise are retried with exponential
    backoff on a fresh worker and quarantined after ``max_attempts``
    failures, and the sweep always completes with a per-cell ``status``.

    ``checkpoint_dir`` engages crash-safe checkpointing (see
    :mod:`repro.analysis.checkpoint`): every ``checkpoint_every``
    completed cells the engine atomically rewrites a manifest of all
    finished cells, and with ``resume=True`` (the default) a fresh run
    restores completed cells from a matching manifest — same grid, seed,
    ``verify`` flag, and factory/algorithm identities — and executes
    only the missing or unfinished ones.  Restored cells are marked
    ``CellResult.restored``; a mid-sweep ``kill -9`` costs at most the
    cells that had not yet been checkpointed.

    ``engine`` says what happens on a host where shared-memory segments
    cannot be created: ``"auto"`` (the default) runs the sweep in-process
    and records why in ``stats["fallback"]``; ``"shm"`` raises
    ``RuntimeError``.  Every multi-process run uses the shared-memory
    engine.
    """
    global _STATE
    if engine not in ("auto", "shm"):
        raise ValueError(f"engine must be 'auto' or 'shm', got {engine!r}")
    if cell_timeout_s is not None and cell_timeout_s <= 0:
        raise ValueError("cell_timeout_s must be positive (None = no timeout)")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if retry_backoff_s < 0:
        raise ValueError("retry_backoff_s must be >= 0")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    resilient = cell_timeout_s is not None or max_attempts > 1

    results: list[CellResult | None] = [None] * len(cells)
    manifest_file: Path | None = None
    signature = ""
    restored_cells = 0
    if checkpoint_dir is not None:
        manifest_file = manifest_path(checkpoint_dir)
        signature = sweep_signature(
            cells,
            instance_factory=instance_factory,
            algorithms=algorithms,
            verify=verify,
            seed=seed,
        )
        if resume:
            known = load_manifest(manifest_file, signature)
            for cell in cells:
                row = known.get(cell.index)
                if (
                    row is None
                    or not row_complete(row)
                    or row.get("algo_name") != cell.algo_name
                    or row.get("axis_index") != cell.axis_index
                ):
                    continue
                try:
                    res = CellResult(**row)
                except TypeError:
                    continue  # row from an incompatible layout: re-run
                res.axis_value = cell.axis_value  # keep the live grid's type
                res.restored = True
                results[cell.index] = res
                restored_cells += 1
    pending_cells = [c for c in cells if results[c.index] is None]

    checkpoint_saves = 0

    def _checkpoint_save() -> None:
        nonlocal checkpoint_saves
        save_manifest(
            manifest_file, signature, [asdict(r) for r in results if r is not None]
        )
        checkpoint_saves += 1

    completed_new = 0

    def _on_checkpointable_result() -> None:
        nonlocal completed_new
        completed_new += 1
        if completed_new % checkpoint_every == 0:
            _checkpoint_save()

    on_result = _on_checkpointable_result if manifest_file is not None else None

    workers_requested = resolve_workers(workers)
    workers_effective = min(workers_requested, max(len(pending_cells), 1))
    store_file: Path | None = None
    warm_loaded = 0
    cache = default_schedule_cache()
    if cache_dir is not None:
        store_file = store_path(cache_dir)
        warm_loaded = cache.merge(load_store(store_file))
    state = {
        "factory": instance_factory,
        "algorithms": dict(algorithms),
        "verify": bool(verify),
        "seed": seed,
        "persist": store_file is not None,
        "detail": detail,
    }
    _STATE = state  # inherited by forked workers; read by the in-process loop

    t0 = time.perf_counter()
    harvested: dict[bytes, np.ndarray] = {}
    policy = _RetryPolicy(
        resilient=resilient, max_attempts=max_attempts, backoff_s=retry_backoff_s
    )
    shm_info: dict[str, Any] | None = None
    fallback_reason = None
    ctx = preferred_context()
    method = ctx.get_start_method()
    # self-healing runs use a worker even at workers=1: a deadline needs
    # a killable process, and a crash must not take this process down
    if workers_effective > 1 or resilient:
        if method != "fork":
            try:
                pickle.dumps(state)
            except Exception as exc:
                fallback_reason = (
                    f"work spec not picklable under {method!r} "
                    f"start method ({type(exc).__name__}); ran serially"
                )
        if fallback_reason is None:
            try:
                shm_info = _execute_shm(
                    pending_cells, ctx, state, policy,
                    workers=workers_effective,
                    cell_timeout_s=cell_timeout_s,
                    num_rows=len(results),
                    results=results,
                    harvested=harvested,
                    on_result=on_result,
                )
            except _ShmUnavailable as exc:
                if engine == "shm":
                    raise
                fallback_reason = f"{exc}; ran serially"
    if shm_info is not None:
        mode = f"{'resilient' if resilient else 'shm'}-{method}"
    else:
        mode = "resilient-serial" if resilient else "serial"
        workers_effective = 1
        if fallback_reason and resilient:
            fallback_reason += "; retries in-process, no timeout preemption"
        _execute_inline(
            pending_cells, policy,
            results=results,
            harvested=harvested,
            on_result=on_result,
        )

    wall_s = time.perf_counter() - t0
    out = [r for r in results if r is not None]
    assert len(out) == len(cells), "executor lost cells during reassembly"
    if manifest_file is not None:
        _checkpoint_save()  # the final manifest always covers every cell

    store_stats = None
    if store_file is not None:
        merged_new = cache.merge(harvested)
        # keep counters honest in serial modes, where the worker cache *is*
        # the parent cache and harvested entries are already present
        store_stats = save_store(store_file, cache)
        store_stats["warm_entries_loaded"] = warm_loaded
        store_stats["new_schedules_merged"] = (
            merged_new if shm_info is not None else len(harvested)
        )

    busy = sum(r.wall_s for r in out if not r.restored)
    stats = {
        "cells": len(out),
        "errors": sum(1 for r in out if r.error is not None),
        "workers_requested": workers_requested,
        "workers_effective": workers_effective,
        "mode": mode,
        "wall_s": wall_s,
        "cell_wall_s_sum": busy,
        "utilization": busy / (workers_effective * wall_s) if wall_s > 0 else 0.0,
        "cache": {
            "hits": sum(r.cache_hits for r in out),
            "misses": sum(r.cache_misses for r in out),
            "new_schedules": sum(r.new_schedules for r in out),
            "store": store_stats,
        },
        "seed": seed,
        "statuses": {
            s: sum(1 for r in out if r.status == s)
            for s in ("ok", "failed", "quarantined")
        },
        "per_cell": [asdict(r) for r in out],
    }
    if manifest_file is not None:
        stats["checkpoint"] = {
            "dir": str(checkpoint_dir),
            "manifest": str(manifest_file),
            "resume": bool(resume),
            "checkpoint_every": checkpoint_every,
            "restored_cells": restored_cells,
            "executed_cells": len(pending_cells),
            "saves": checkpoint_saves,
        }
    counters = policy.counters
    if shm_info is not None:
        stats["shm"] = {**shm_info, **counters}
        executed = [r for r in out if not r.restored]
        baseline = sum(r.payload_baseline_bytes for r in executed)
        shipped = sum(r.payload_shipped_bytes for r in executed)
        stats["payload"] = {
            "baseline_bytes": baseline,
            "shipped_bytes": shipped,
            "reduction_x": (baseline / shipped) if shipped else None,
        }
    if resilient:
        stats["resilience"] = {
            "cell_timeout_s": cell_timeout_s,
            "max_attempts": max_attempts,
            "retry_backoff_s": retry_backoff_s,
            "preemptive": shm_info is not None,
            "retries": counters["requeued_cells"],
            "timeouts": counters["timeouts"],
            "worker_crashes": counters["worker_crashes"],
            "worker_replacements": counters["worker_replacements"],
            "quarantined": counters["quarantined"],
        }
    if fallback_reason:
        stats["fallback"] = fallback_reason
    return out, stats

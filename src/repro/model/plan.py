"""Compiled replay plans: flat, versioned warm-path execution artifacts.

The paper's central object is the communication *schedule*, not the
values: in the supported model every schedule is a pure function of the
sparsity structure, so once a structure has been executed once, any
value assignment can replay it.  PR 7's structure-keyed schedule cache
exploits this for *scheduling* — warm jobs skip the first-fit solver —
but a warm job still re-walks the whole per-round Python pipeline:
dedup, slot assignment, run boundaries, collective bucketing, phase
dispatch.  This module removes that too.

Lemma 3.1 fixes the order in which each output entry's products are
added: per-slot partials at the virtual hosts, per-computer partials at
the slot computers, then each run's partials combined along its
parity-split halving tree (or the anchor's chain).  :class:`StageFold`
is that arithmetic, written once over ``(B, triangles)`` operand planes;
the columnar Lemma 3.1 path runs it with ``B = 1`` and replay runs it
for a whole batch, so both give the per-message path's bits.

A :class:`ReplayPlan` is the columnar Lemma 3.1 pipeline lowered into
flat index arrays, compiled once per structure from an observed leader
run:

* per-stage **gather** indices from the A/B payload planes (the hat
  supports in ``tocoo`` order) to the triangle endpoints;
* the stage's :class:`StageFold` (triangle → slot and slot →
  (run, computer) maps, per-run segment counts, tree or chain) and the
  **scatter** indices from run totals into the X output plane;
* the leader's complete bill — rounds, messages, per-phase summary,
  schedule-cache lookups — plus the deterministic triangle-aggregation
  tape, so a replayed job reports byte-identical accounting.

Replay is then :func:`replay_batch`: stack B structurally identical
jobs' payload planes into one ``(B, nnz)`` array and run each stage's
gathers and fold *once* for the whole batch — pure NumPy/Numba indexed
ops, zero simulator dispatches (:func:`repro.model.network.dispatch_count`
is the proof), and row ``b`` of the output is bit-identical to job
``b``'s per-job execution because every kernel in the chain preserves
per-row element order (:meth:`repro.semirings.Semiring.segment_sum_batch`).

Plans persist next to the sharded schedule store — same digest-prefix
shard directories, ``plans-v2.npz`` files with the schedule store's
magic/version/atomic-replace/corruption-tolerance discipline — so serve
workers warm-load plans at spawn and a restarted service replays
without ever re-walking a structure.  Version 1 plans summed each run
linearly, so they are never loaded.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.model.collectives import collective_tape, halving_batches_arrays

__all__ = [
    "PLAN_VERSION",
    "PlanUnplannable",
    "StageFold",
    "ReplayStage",
    "ReplayPlan",
    "PlanRecorder",
    "compile_plan",
    "plan_payloads",
    "replay_batch",
    "plan_fallback_reason",
    "PlanCache",
    "default_plan_cache",
    "plan_key_digest",
    "plan_store_path",
    "save_plans",
    "load_plans",
    "save_plans_sharded",
    "load_plans_sharded",
]

#: On-disk plan format version; the loader silently rejects others.
PLAN_VERSION = 2

_PLAN_MAGIC = "repro-plan-store"
_PLAN_STEM = "plans-v"
_SHARD_DIR = "shards"

#: algorithms whose entire value computation is columnar Lemma 3.1 stages
#: (``two_phase`` qualifies only when it ran zero clustering waves — a
#: pure phase-2 run; waves use the cluster kernels the plan cannot see)
_PLANNABLE = ("general", "us_as_gm", "bd_as_as", "two_phase")


class PlanUnplannable(RuntimeError):
    """This run cannot be lowered to a flat replay plan (the structure is
    recorded as a negative cache entry; jobs fall back per-job)."""


# --------------------------------------------------------------------- #
# Recording (attached to a network by the serve leader run)
# --------------------------------------------------------------------- #
class PlanRecorder:
    """Collects the columnar value-pipeline stages of one multiply run.

    Attached as ``net.plan_recorder``; :func:`~repro.algorithms.fewtriangles.process_few_triangles`
    records one stage per columnar invocation (its triangles, run
    endpoints, label and :class:`StageFold`) and marks the run
    unplannable when the per-message path executes instead.
    """

    def __init__(self) -> None:
        self.stages: list[dict] = []
        self.unplannable_reason: str | None = None

    def record_stage(self, **stage) -> None:
        """Append one columnar stage's raw arrays (keyword form)."""
        self.stages.append(stage)

    def mark_unplannable(self, reason: str) -> None:
        """Record why this run cannot replay (first reason wins)."""
        if self.unplannable_reason is None:
            self.unplannable_reason = reason


# --------------------------------------------------------------------- #
# The plan itself
# --------------------------------------------------------------------- #
@dataclass
class StageFold:
    """The value arithmetic of one Lemma 3.1 invocation, in the order the
    algorithm fixes (see :meth:`totals`)."""

    x_inv: np.ndarray  # triangle -> (vid, i, k) slot
    seg_of_slot: np.ndarray  # slot -> (run, computer) segment
    seg_counts: np.ndarray  # run -> its number of segments (computers)
    use_trees: bool
    negate: bool

    def __post_init__(self) -> None:
        counts = self.seg_counts
        self._anchors = np.cumsum(counts) - counts
        if self.use_trees:
            # every run's halving tree at once (their positions are disjoint)
            span = counts > 1
            self._levels = [
                (src, dst)
                for src, dst, _ in halving_batches_arrays(
                    np.arange(int(counts.sum())), self._anchors[span], counts[span]
                )
            ]
        else:
            # the anchor adds its run's other partials one at a time
            self._levels = [
                (self._anchors[counts > o] + o, self._anchors[counts > o])
                for o in range(1, int(counts.max(initial=1)))
            ]

    def totals(self, sr, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-run totals, ``(B, runs)``, of the operand planes ``a`` and
        ``b`` (``(B, triangles)``):

        1. multiply the operands, negated if the stage asks for it;
        2. segment-sum the products by slot;
        3. segment-sum the slot partials by (run, computer);
        4. combine each run's partials into its anchor along the halving
           tree's levels (``dst = add(dst, src)``), or along the anchor's
           chain when ``use_trees`` is off.
        """
        prods = np.asarray(sr.mul(a, b), dtype=sr.dtype)
        if self.negate:
            prods = np.asarray(sr.sub(sr.zeros(prods.shape), prods), dtype=sr.dtype)
        slots = sr.segment_sum_batch(prods, self.x_inv, self.seg_of_slot.size)
        segs = sr.segment_sum_batch(slots, self.seg_of_slot, int(self.seg_counts.sum()))
        for src, dst in self._levels:
            segs[:, dst] = sr.add(segs[:, dst], segs[:, src])
        return segs[:, self._anchors]


@dataclass
class ReplayStage(StageFold):
    """One Lemma 3.1 invocation as flat index arrays over payload planes."""

    a_gather: np.ndarray  # payload-plane positions of A[tri_i, tri_j]
    b_gather: np.ndarray  # payload-plane positions of B[tri_j, tri_k]
    out_idx: np.ndarray  # run -> position in the X output plane
    label: str


@dataclass
class ReplayPlan:
    """Everything a warm job needs: index arrays plus the leader's bill."""

    version: int
    digest: bytes  # structure digest the plan was compiled for
    semiring: str
    shape: tuple
    n: int
    d: int
    algorithm: str  # what actually ran (the leader's selection)
    requested: str  # what the leader asked for ("auto" usually)
    rounds: int
    messages: int
    schedule_lookups: int  # schedule-cache lookups a warm run performs
    phases: dict  # base label -> (rounds, messages), the leader's summary
    tri_rounds: int  # deterministic serve/triangle-aggregate tape
    tri_messages: int
    a_nnz: int
    b_nnz: int
    x_nnz: int
    x_row: np.ndarray
    x_col: np.ndarray
    stages: list = field(default_factory=list)

    def stats(self) -> dict:
        """Small JSON-able description for results and reports."""
        return {
            "version": self.version,
            "algorithm": self.algorithm,
            "stages": len(self.stages),
            "rounds": self.rounds,
            "messages": self.messages,
            "triangles": int(sum(s.a_gather.size for s in self.stages)),
        }


def _sorted_support(hat: sp.csr_matrix):
    """Sorted linear keys of a hat support plus the map back to ``tocoo``
    order (the payload-plane order)."""
    coo = hat.tocoo()
    keys = coo.row.astype(np.int64) * hat.shape[1] + coo.col.astype(np.int64)
    order = np.argsort(keys).astype(np.int64)
    return keys[order], order


def _gather_into(sorted_keys, order, keys, what: str) -> np.ndarray:
    """Positions of ``keys`` inside the payload plane; every key must hit."""
    if sorted_keys.size == 0:
        raise PlanUnplannable(f"{what} support is empty but stages reference it")
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    if not np.array_equal(sorted_keys[pos], keys):
        raise PlanUnplannable(f"stage references {what} entries outside the support")
    return order[pos]


def compile_plan(
    inst,
    res,
    recorder: PlanRecorder,
    *,
    digest: bytes,
    requested: str = "auto",
    schedule_lookups: int = 0,
) -> ReplayPlan:
    """Lower one observed run into a :class:`ReplayPlan`.

    ``res`` is the leader's :class:`~repro.algorithms.base.MultiplyResult`
    *before* any kind-specific finalization (its phase summary is the
    pure multiply bill).  Raises :class:`PlanUnplannable` when the run's
    value computation was not purely columnar Lemma 3.1 stages.
    """
    selected = res.details.get("selected", res.algorithm)
    if recorder.unplannable_reason is not None:
        raise PlanUnplannable(recorder.unplannable_reason)
    if selected not in _PLANNABLE:
        raise PlanUnplannable(f"algorithm {selected!r} is not a pure Lemma 3.1 run")
    if selected == "two_phase":
        stats = res.details.get("stats")
        waves = getattr(stats, "waves", None)
        if waves != 0:
            raise PlanUnplannable(
                f"two_phase ran {waves} clustering wave(s); only pure phase-2 "
                "runs lower to flat plans"
            )
    if len(inst.triangles) > 0 and not recorder.stages:
        raise PlanUnplannable("no columnar stages were recorded")

    a_sorted, a_order = _sorted_support(inst.a_hat)
    b_sorted, b_order = _sorted_support(inst.b_hat)
    x_sorted, x_order = _sorted_support(inst.x_hat)
    x_coo = inst.x_hat.tocoo()

    stages: list[ReplayStage] = []
    for raw in recorder.stages:
        tri = raw["tri"]
        a_keys = tri[:, 0] * inst.a_hat.shape[1] + tri[:, 1]
        b_keys = tri[:, 1] * inst.b_hat.shape[1] + tri[:, 2]
        run_keys = raw["run_i"] * inst.x_hat.shape[1] + raw["run_k"]
        fold = raw["fold"]
        stages.append(
            ReplayStage(
                **{f.name: getattr(fold, f.name) for f in fields(StageFold)},
                a_gather=_gather_into(a_sorted, a_order, a_keys, "A"),
                b_gather=_gather_into(b_sorted, b_order, b_keys, "B"),
                out_idx=_gather_into(x_sorted, x_order, run_keys, "X"),
                label=str(raw["label"]),
            )
        )

    tri_rounds, tri_messages = collective_tape([list(range(inst.n))], kind="halving")
    return ReplayPlan(
        version=PLAN_VERSION,
        digest=bytes(digest),
        semiring=inst.semiring.name,
        shape=tuple(int(s) for s in inst.x_hat.shape),
        n=int(inst.n),
        d=int(inst.d),
        algorithm=str(selected),
        requested=str(requested),
        rounds=int(res.rounds),
        messages=int(res.messages),
        schedule_lookups=int(schedule_lookups),
        phases={str(k): (int(v[0]), int(v[1])) for k, v in res.phase_summary().items()},
        tri_rounds=int(tri_rounds),
        tri_messages=int(tri_messages),
        a_nnz=int(inst.a_hat.nnz),
        b_nnz=int(inst.b_hat.nnz),
        x_nnz=int(x_coo.nnz),
        x_row=x_coo.row.astype(np.int64),
        x_col=x_coo.col.astype(np.int64),
        stages=stages,
    )


def plan_fallback_reason(plan: ReplayPlan, job) -> str | None:
    """Why ``job`` cannot ride ``plan`` (``None``: it can).

    The coalescing key already guarantees structure, semiring and shape
    agree; what remains is everything else that feeds execution: the
    sparsity parameter ``d`` (it steers algorithm selection but is not
    part of the structure digest), an explicit algorithm request the
    plan does not cover, and certification (which needs a live network).
    """
    if job.certify_checks > 0:
        return "certification requested (needs a live network)"
    if int(job.instance.d) != plan.d:
        return f"instance d={job.instance.d} differs from plan d={plan.d}"
    if job.algorithm not in (plan.requested, plan.algorithm):
        return f"algorithm {job.algorithm!r} is not covered by this plan"
    if int(job.instance.a_hat.nnz) != plan.a_nnz or int(job.instance.b_hat.nnz) != plan.b_nnz:
        return "payload plane sizes differ from the plan"  # digest collision guard
    return None


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
def plan_payloads(inst) -> tuple[np.ndarray, np.ndarray]:
    """A job's private values as flat payload planes over the hat supports
    (``tocoo`` order, semiring-zero at valueless support positions) —
    exactly the values the columnar pipeline reads via ``a_values_at`` /
    ``b_values_at``, so gathers from these planes are bit-identical."""
    a_coo = inst.a_hat.tocoo()
    b_coo = inst.b_hat.tocoo()
    return (
        inst.a_values_at(a_coo.row, a_coo.col),
        inst.b_values_at(b_coo.row, b_coo.col),
    )


def replay_batch(
    plan: ReplayPlan, a_stack: np.ndarray, b_stack: np.ndarray, sr
) -> np.ndarray:
    """Execute the plan for a whole batch of stacked payload planes.

    ``a_stack``/``b_stack`` are ``(B, a_nnz)`` / ``(B, b_nnz)``; returns
    the ``(B, x_nnz)`` output plane aligned with ``plan.x_row/x_col``.
    Row ``b`` is bit-identical to the per-job run of job ``b``: the same
    :meth:`StageFold.totals` the columnar path calls, then the same
    ``sr.add`` accumulation from semiring zeros (which matters for
    ``-0.0``).
    """
    out = sr.zeros((int(a_stack.shape[0]), plan.x_nnz))
    for st in plan.stages:
        totals = st.totals(sr, a_stack[:, st.a_gather], b_stack[:, st.b_gather])
        out[:, st.out_idx] = sr.add(out[:, st.out_idx], totals)
    return out


# --------------------------------------------------------------------- #
# Process-wide plan cache (positive and negative entries)
# --------------------------------------------------------------------- #
class PlanCache:
    """Bounded LRU cache from coalescing key to :class:`ReplayPlan`.

    Negative entries remember *why* a structure refused to compile so
    warm batches do not retry the compile on every leader.  Thread-safe:
    the serve pool's inline path calls it from bridge threads.
    """

    def __init__(self, maxsize: int = 512):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._plans: OrderedDict[tuple, ReplayPlan] = OrderedDict()
        self._negative: OrderedDict[tuple, str] = OrderedDict()
        self._lock = threading.RLock()
        self._new_keys: list[tuple] = []
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.compiles = 0
        self.replayed_jobs = 0
        self.fallback_jobs = 0

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every plan, negative entry, and counter."""
        with self._lock:
            self._plans.clear()
            self._negative.clear()
            self._new_keys.clear()
            self.hits = self.misses = self.negative_hits = 0
            self.compiles = self.replayed_jobs = self.fallback_jobs = 0

    def lookup(self, key: tuple, *, count: bool = True):
        """``(plan, negative_reason)`` — at most one is non-``None``."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                if count:
                    self.hits += 1
                self._plans.move_to_end(key)
                return plan, None
            reason = self._negative.get(key)
            if reason is not None:
                if count:
                    self.negative_hits += 1
                return None, reason
            if count:
                self.misses += 1
            return None, None

    def put(self, key: tuple, plan: ReplayPlan) -> None:
        """Insert a freshly compiled plan (clears any negative entry)."""
        with self._lock:
            self._plans[key] = plan
            self._negative.pop(key, None)
            self._new_keys.append(key)
            self.compiles += 1
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def put_negative(self, key: tuple, reason: str) -> None:
        """Remember that this key refuses to compile, and why."""
        with self._lock:
            self._negative[key] = str(reason)
            while len(self._negative) > 4 * self.maxsize:
                self._negative.popitem(last=False)

    def note_replays(self, jobs: int) -> None:
        """Count jobs served through batched plan replay."""
        with self._lock:
            self.replayed_jobs += int(jobs)

    def note_fallbacks(self, jobs: int) -> None:
        """Count jobs that fell back to per-job execution."""
        with self._lock:
            self.fallback_jobs += int(jobs)

    def drain_new_plans(self) -> dict:
        """Plans compiled here since the last drain (merge-back shipping,
        the :meth:`~repro.model.schedule_cache.ScheduleCache.drain_new_entries`
        discipline)."""
        with self._lock:
            out = {k: self._plans[k] for k in self._new_keys if k in self._plans}
            self._new_keys.clear()
            return out

    def merge(self, plans: dict) -> int:
        """Insert externally compiled plans; existing keys win."""
        added = 0
        with self._lock:
            for key, plan in plans.items():
                if key in self._plans:
                    continue
                self._plans[key] = plan
                added += 1
                while len(self._plans) > self.maxsize:
                    self._plans.popitem(last=False)
        return added

    def stats(self) -> dict:
        """Cache economics: sizes, hit/miss/negative counts, zero-safe
        hit rate, compile/replay/fallback totals."""
        with self._lock:
            lookups = self.hits + self.misses + self.negative_hits
            return {
                "plans": len(self._plans),
                "negative": len(self._negative),
                "hits": self.hits,
                "misses": self.misses,
                "negative_hits": self.negative_hits,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "compiles": self.compiles,
                "replayed_jobs": self.replayed_jobs,
                "fallback_jobs": self.fallback_jobs,
                "maxsize": self.maxsize,
            }


_DEFAULT_PLANS = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache shared by the serving layer."""
    return _DEFAULT_PLANS


# --------------------------------------------------------------------- #
# Persistence (the schedule store's discipline, plan-shaped entries)
# --------------------------------------------------------------------- #
def plan_key_digest(key: tuple) -> bytes:
    """128-bit fingerprint of a coalescing key ``(digest, semiring, shape)``
    — the stable on-disk entry name and shard router for plans."""
    digest, semiring, shape = key
    h = hashlib.blake2b(digest_size=16)
    h.update(bytes(digest))
    h.update(str(semiring).encode())
    for s in shape:
        h.update(int(s).to_bytes(8, "little", signed=True))
    return h.digest()


def plan_store_path(cache_dir: str | os.PathLike) -> Path:
    """The current-version plan store file inside a cache directory."""
    return Path(cache_dir) / f"{_PLAN_STEM}{PLAN_VERSION}.npz"


def _plan_arrays(key: tuple, plan: ReplayPlan) -> dict:
    """Flatten one plan into named npz arrays (no pickled objects: ints,
    index arrays, and one JSON metadata blob as utf-8 bytes)."""
    kd = plan_key_digest(key).hex()
    meta = {
        "version": plan.version,
        "semiring": plan.semiring,
        "shape": list(plan.shape),
        "n": plan.n,
        "d": plan.d,
        "algorithm": plan.algorithm,
        "requested": plan.requested,
        "rounds": plan.rounds,
        "messages": plan.messages,
        "schedule_lookups": plan.schedule_lookups,
        "phases": {k: list(v) for k, v in plan.phases.items()},
        "tri_rounds": plan.tri_rounds,
        "tri_messages": plan.tri_messages,
        "a_nnz": plan.a_nnz,
        "b_nnz": plan.b_nnz,
        "x_nnz": plan.x_nnz,
        "stages": [
            {"use_trees": bool(st.use_trees), "negate": bool(st.negate),
             "label": st.label}
            for st in plan.stages
        ],
    }
    out = {
        f"p_{kd}_meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        f"p_{kd}_digest": np.frombuffer(plan.digest, dtype=np.uint8),
        f"p_{kd}_xrow": np.ascontiguousarray(plan.x_row, dtype=np.int64),
        f"p_{kd}_xcol": np.ascontiguousarray(plan.x_col, dtype=np.int64),
    }
    for j, st in enumerate(plan.stages):
        for part, arr in (
            ("ag", st.a_gather), ("bg", st.b_gather), ("xi", st.x_inv),
            ("ss", st.seg_of_slot), ("sc", st.seg_counts), ("ou", st.out_idx),
        ):
            out[f"p_{kd}_s{j}_{part}"] = np.ascontiguousarray(arr, dtype=np.int64)
    return out


def _plan_from_group(fields: dict) -> tuple[tuple, ReplayPlan]:
    """Rebuild ``(key, plan)`` from one entry's named arrays; raises on any
    malformation (the loader skips the entry)."""
    meta = json.loads(bytes(fields["meta"].tobytes()).decode())
    if int(meta["version"]) != PLAN_VERSION:
        raise ValueError("plan version mismatch")
    digest = bytes(fields["digest"].tobytes())
    shape = tuple(int(s) for s in meta["shape"])
    stages = []
    for j, st in enumerate(meta["stages"]):
        arr = {
            part: np.asarray(fields[f"s{j}_{part}"], dtype=np.int64)
            for part in ("xi", "ss", "sc", "ag", "bg", "ou")
        }
        stages.append(
            ReplayStage(
                x_inv=arr["xi"],
                seg_of_slot=arr["ss"],
                seg_counts=arr["sc"],
                use_trees=bool(st["use_trees"]),
                negate=bool(st["negate"]),
                a_gather=arr["ag"],
                b_gather=arr["bg"],
                out_idx=arr["ou"],
                label=str(st["label"]),
            )
        )
    plan = ReplayPlan(
        version=int(meta["version"]),
        digest=digest,
        semiring=str(meta["semiring"]),
        shape=shape,
        n=int(meta["n"]),
        d=int(meta["d"]),
        algorithm=str(meta["algorithm"]),
        requested=str(meta["requested"]),
        rounds=int(meta["rounds"]),
        messages=int(meta["messages"]),
        schedule_lookups=int(meta["schedule_lookups"]),
        phases={str(k): (int(v[0]), int(v[1])) for k, v in meta["phases"].items()},
        tri_rounds=int(meta["tri_rounds"]),
        tri_messages=int(meta["tri_messages"]),
        a_nnz=int(meta["a_nnz"]),
        b_nnz=int(meta["b_nnz"]),
        x_nnz=int(meta["x_nnz"]),
        x_row=np.asarray(fields["xrow"], dtype=np.int64),
        x_col=np.asarray(fields["xcol"], dtype=np.int64),
        stages=stages,
    )
    key = (digest, plan.semiring, shape)
    return key, plan


def save_plans(
    path: str | os.PathLike,
    plans: dict,
    *,
    max_entries: int = 1024,
    max_bytes: int = 64 * 1024 * 1024,
) -> dict:
    """Atomically write a versioned plan store; returns save stats.

    Same contract as :func:`repro.model.schedule_cache.save_store`:
    temp-file + ``os.replace`` (a crash never leaves a torn store),
    entry/byte caps, and eviction of other-version store files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    kept: dict[str, np.ndarray] = {}
    payload = 0
    written = 0
    dropped = 0
    for key, plan in reversed(list(plans.items())):
        arrays = _plan_arrays(key, plan)
        nbytes = sum(a.nbytes for a in arrays.values())
        if written >= max_entries or payload + nbytes > max_bytes:
            dropped += 1
            continue
        kept.update(arrays)
        payload += nbytes
        written += 1
    kept["__meta__"] = np.array([PLAN_VERSION], dtype=np.int64)

    buf = io.BytesIO()
    np.savez_compressed(
        buf, magic=np.frombuffer(_PLAN_MAGIC.encode(), dtype=np.uint8), **kept
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
    for stale in path.parent.glob(f"{_PLAN_STEM}*.npz"):
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
        "version": PLAN_VERSION,
    }


def load_plans(path: str | os.PathLike) -> dict:
    """Load a plan store; ``{}`` on any damage (cold-plans fallback).

    Tolerates missing/garbage files, wrong magic, version mismatch, and
    per-entry malformation — a damaged entry is skipped, not fatal.
    """
    try:
        with np.load(Path(path)) as data:
            magic = data["magic"] if "magic" in data.files else None
            if magic is None or bytes(magic.tobytes()) != _PLAN_MAGIC.encode():
                return {}
            meta = data["__meta__"] if "__meta__" in data.files else None
            if meta is None or int(np.asarray(meta).ravel()[0]) != PLAN_VERSION:
                return {}
            groups: dict[str, dict] = {}
            for name in data.files:
                if not name.startswith("p_") or len(name) < 36:
                    continue
                kd, field_name = name[2:34], name[35:]
                groups.setdefault(kd, {})[field_name] = data[name]
            out: dict = {}
            for kd, fields in groups.items():
                try:
                    key, plan = _plan_from_group(fields)
                except Exception:
                    continue
                out[key] = plan
            return out
    except Exception:
        return {}


def save_plans_sharded(
    cache_dir: str | os.PathLike,
    plans: dict,
    *,
    max_entries_per_shard: int = 1024,
    max_bytes_per_shard: int = 64 * 1024 * 1024,
) -> dict:
    """Write plans across the digest-prefix shard directories the schedule
    store already uses (``shards/<p>/plans-v2.npz`` next to each shard's
    ``schedules-v1.npz``); merges existing shard entries first and skips
    shards the new plans would not change."""
    from repro.model.schedule_cache import SHARD_PREFIX_CHARS

    by_shard: dict[str, dict] = {}
    for key, plan in plans.items():
        prefix = plan_key_digest(key).hex()[:SHARD_PREFIX_CHARS]
        by_shard.setdefault(prefix, {})[key] = plan
    stats = {"shards_written": 0, "entries": 0, "bytes": 0}
    for prefix, shard_plans in sorted(by_shard.items()):
        path = Path(cache_dir) / _SHARD_DIR / prefix / f"{_PLAN_STEM}{PLAN_VERSION}.npz"
        existing = load_plans(path)
        fresh = [k for k in shard_plans if k not in existing]
        if not fresh and existing:
            continue
        merged = dict(existing)
        merged.update(shard_plans)
        s = save_plans(
            path,
            merged,
            max_entries=max_entries_per_shard,
            max_bytes=max_bytes_per_shard,
        )
        stats["shards_written"] += 1
        stats["entries"] += s["entries"]
        stats["bytes"] += s["bytes"]
    return stats


def load_plans_sharded(
    cache_dir: str | os.PathLike,
    *,
    prefixes: "list[str] | None" = None,
) -> dict:
    """Load plans from a sharded cache directory (``{}`` on any damage)."""
    shard_root = Path(cache_dir) / _SHARD_DIR
    if prefixes is None:
        try:
            prefixes = sorted(p.name for p in shard_root.iterdir() if p.is_dir())
        except OSError:
            return {}
    out: dict = {}
    for prefix in prefixes:
        out.update(load_plans(shard_root / prefix / f"{_PLAN_STEM}{PLAN_VERSION}.npz"))
    return out

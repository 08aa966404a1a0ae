"""Span tracing from outside the program, for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public functions of each traced layer with thin wrappers that record
one span per call -- ``(id, parent, name, start_ns, end_ns, request,
attrs)`` -- in an in-memory list.  Parents come from a
per-thread stack, so a span's children are the wrapped calls made while
it was open.  Start and end are ``perf_counter_ns`` readings, which on
Linux is the system-wide monotonic clock, so spans recorded in forked
worker processes line up with the parent's.

Wrappers are installed before any pool, sweep or mesh process forks, so
workers inherit them.  A worker ships its spans home with its results:
:func:`drain` empties the worker's buffer and the benchmark attaches the
payload to the first ``JobResult`` of a batch or returns it from the
sweep's ``detail`` hook; :meth:`Tracer.ingest` re-parents the worker's
root spans under the parent-side span that waited for them.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "install", "active", "drain", "layer_metrics"]

_ACTIVE: "Tracer | None" = None


def active() -> "Tracer | None":
    """The installed tracer, or ``None`` in an untraced run."""
    return _ACTIVE


def drain():
    """Spans and counters recorded in this worker process since the last
    drain, or ``None`` in the parent (whose spans stay where they are)."""
    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.main_pid:
        return None
    return tracer.take()


class Tracer:
    """In-memory span collector shared by every thread of a process."""

    def __init__(self, dispatch_count):
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._dispatch_count = dispatch_count
        self._dispatch0 = dispatch_count()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[tuple] = []
        #: ``(pid, t_ns, dispatches)`` deltas of the simulator's
        #: process-wide dispatch counter, one per drain
        self.dispatches: list[tuple] = []

    def after_fork(self) -> None:
        """Start a forked child with an empty buffer of its own."""
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans = []
        self.dispatches = []
        self._dispatch0 = self._dispatch_count()

    def new_id(self) -> int:
        return (self._pid << 32) | next(self._ids)

    def stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local.stack

    def set_request(self, request) -> None:
        """Tag the spans this thread records from now on."""
        self.stack()
        self._local.request = request

    def request(self):
        self.stack()
        return self._local.request

    def record(self, sid, parent, name, t0, t1, attrs=None) -> None:
        self.spans.append((sid, parent, name, t0, t1, self.request(), attrs))

    def count_dispatches(self) -> None:
        """Record the dispatch-counter delta since the previous call."""
        now = self._dispatch_count()
        self.dispatches.append((self._pid, time.perf_counter_ns(), now - self._dispatch0))
        self._dispatch0 = now

    def take(self) -> tuple[list, list]:
        self.count_dispatches()
        spans, self.spans = self.spans, []
        counts, self.dispatches = self.dispatches, []
        return spans, counts

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span around every call."""
        return _wrap(self, name, fn, attrs)

    @contextmanager
    def span(self, name: str, attrs=None):
        """A span around a block of the benchmark's own code; yields its
        id so worker spans collected inside can be ingested under it."""
        stack = self.stack()
        sid = self.new_id()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.record(sid, parent, name, t0, t1, attrs)

    def ingest(self, payload, parent: int) -> None:
        """Adopt a worker's drained spans; its roots hang under ``parent``."""
        if not payload:
            return
        spans, counts = payload
        self.spans.extend(
            (s[0], s[1] or parent, *s[2:]) for s in spans
        )
        self.dispatches.extend(counts)


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    """A synchronous span around ``fn``; ``attrs(args, kwargs, out)``
    adds per-call counts once the call has returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        sid = tracer.new_id()
        parent = stack[-1] if stack else 0
        stack.append(sid)
        out = None
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            extra = attrs(args, kwargs, out) if attrs is not None and out is not None else None
            tracer.record(sid, parent, name, t0, t1, extra)

    return wrapper


def _patch(owner, attr: str, wrapper_factory) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, wrapper_factory(raw))


def _arg(args, kwargs, pos: int, name: str):
    """A wrapped call's argument, whether passed by position or name."""
    return args[pos] if len(args) > pos else kwargs[name]


def _size(args, kwargs, pos: int, name: str) -> int:
    value = _arg(args, kwargs, pos, name)
    return int(value.size) if hasattr(value, "size") else len(value)


def install(dispatch_count) -> Tracer:
    """Create the tracer and wrap every traced public function.

    Idempotent per process; must run before any worker process forks.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    tracer = Tracer(dispatch_count)
    _ACTIVE = tracer
    os.register_at_fork(after_in_child=lambda: _ACTIVE and _ACTIVE.after_fork())

    import repro.algorithms.api as api
    import repro.apps.shortest_paths as shortest_paths
    import repro.apps.triangles as triangles
    import repro.model.certify as certify
    import repro.model.network as network
    import repro.model.plan as plan
    import repro.model.schedule_cache as schedule_cache
    import repro.model.scheduling as scheduling
    import repro.semirings as semirings
    import repro.serve.pool as pool
    import repro.supported.instance as instance
    import repro.transport.socket_mesh as socket_mesh

    def span(name, attrs=None):
        return lambda fn: _wrap(tracer, name, fn, attrs)

    # supported: instance construction
    for mod, attr in (
        (instance, "make_instance"),
        (instance, "make_hard_instance"),
        (triangles, "triangle_instance"),
        (shortest_paths, "distance_instance"),
    ):
        _patch(mod, attr, span("supported.build"))

    # algorithms: selection and the per-algorithm body
    _patch(api, "select_algorithm", span("algorithms.select"))
    _patch(api, "multiply", span("algorithms.multiply"))

    # model.scheduling: first-fit, patched where network and the cache
    # look it up
    greedy = span("scheduling.greedy", lambda a, k, out: {"msgs": _size(a, k, 0, "src")})(
        scheduling.greedy_two_sided_schedule
    )
    for mod in (scheduling, network, schedule_cache):
        mod.greedy_two_sided_schedule = greedy

    # model.schedule_cache
    _patch(
        schedule_cache.ScheduleCache,
        "get_or_compute",
        span("schedule_cache.lookup", lambda a, k, out: {"hit": bool(out[1])}),
    )

    # model.network: delivery entry points and the two collectives
    net_cls = network.LowBandwidthNetwork
    _patch(net_cls, "exchange", span("network.exchange", lambda a, k, out: {"msgs": _size(a, k, 1, "messages")}))
    for attr in ("exchange_arrays", "exchange_columnar"):
        _patch(net_cls, attr, span(f"network.{attr}", lambda a, k, out: {"msgs": _size(a, k, 1, "src")}))
    for attr in ("segmented_broadcast", "segmented_convergecast"):
        _patch(net_cls, attr, span(f"network.{attr}"))

    # semirings: ordered segment sums
    for attr in ("segment_sum", "segment_sum_batch"):
        _patch(
            semirings.Semiring,
            attr,
            span("semirings.segment_sum", lambda a, k, out: {"elems": _size(a, k, 1, "values")}),
        )

    # model.plan: compile, batched replay, cache lookups that count
    _patch(
        plan,
        "compile_plan",
        span("plan.compile", lambda a, k, out: {"key": (out.digest.hex(), out.semiring)}),
    )
    _patch(
        plan,
        "replay_batch",
        span(
            "plan.replay",
            lambda a, k, out: {
                "jobs": int(_arg(a, k, 1, "a_stack").shape[0]),
                "key": (_arg(a, k, 0, "plan").digest.hex(), _arg(a, k, 0, "plan").semiring),
            },
        ),
    )
    lookup = plan.PlanCache.__dict__["lookup"]

    def counted_lookup(self, key, *, count=True):
        if not count:
            return lookup(self, key, count=False)
        return traced_lookup(self, key)

    traced_lookup = _wrap(
        tracer, "plan.lookup", lambda self, key: lookup(self, key),
        lambda a, k, out: {"hit": out[0] is not None},
    )
    plan.PlanCache.lookup = counted_lookup

    # model.certify
    _patch(certify, "certify_product", span("certify.certify", lambda a, k, out: {"rounds": int(out.rounds)}))

    # stores: the sharded schedule and plan stores, under the names the
    # pool looks them up by
    for attr, name in (("save_store_sharded", "entries"), ("save_plans_sharded", "plans")):
        _patch(pool, attr, span("store.save", lambda a, k, out, name=name: {
            "entries": len(_arg(a, k, 1, name)),
            "shards": int(out.get("shards_written", 0)),
        }))
    for attr in ("load_store_sharded", "load_plans_sharded"):
        _patch(pool, attr, span("store.load", lambda a, k, out: {"entries": len(out)}))

    # transport: one scheduled round over the socket mesh
    _patch(
        socket_mesh.SocketTransport,
        "deliver_step",
        span("transport.deliver_step", lambda a, k, out: {"words": _size(a, k, 1, "entries")}),
    )

    _install_serve(tracer)
    return tracer


def _install_serve(tracer: Tracer) -> None:
    """Spans for the serving path: front-end submit (asynchronous, so it
    keeps no stack), pool batches, and in-worker batch execution, which
    ships the worker's spans back on the batch's first result."""
    import repro.serve.frontend as frontend
    import repro.serve.jobs as jobs
    import repro.serve.pool as pool

    submit = frontend.ServeFrontend.__dict__["submit"]

    @functools.wraps(submit)
    async def traced_submit(self, job):
        sid = tracer.new_id()
        t0 = time.perf_counter_ns()
        try:
            return await submit(self, job)
        finally:
            t1 = time.perf_counter_ns()
            tracer.spans.append((sid, 0, "frontend.submit", t0, t1, job.job_id, {"async": True}))

    frontend.ServeFrontend.submit = traced_submit

    execute = _wrap(tracer, "jobs.execute_batch", jobs.execute_batch)

    @functools.wraps(jobs.execute_batch)
    def traced_execute(batch, **kwargs):
        previous = tracer.request()
        tracer.set_request(batch[0].job_id if batch else None)
        try:
            results = execute(batch, **kwargs)
        finally:
            tracer.set_request(previous)
        payload = drain()
        if payload is not None and results:
            results[0]._perfbench_trace = payload
        return results

    jobs.execute_batch = traced_execute
    pool.execute_batch = traced_execute

    run_batch = pool.ServePool.__dict__["run_batch"]

    @functools.wraps(run_batch)
    def traced_run_batch(self, batch):
        stack = tracer.stack()
        sid = tracer.new_id()
        parent = stack[-1] if stack else 0
        tracer.set_request(batch[0].job_id if batch else None)
        now = time.monotonic()
        waits = [now - job.submitted_s for job in batch if job.submitted_s]
        stack.append(sid)
        t0 = time.perf_counter_ns()
        results = None
        try:
            results = run_batch(self, batch)
            return results
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            exec_s = 0.0
            for res in results or ():
                tracer.ingest(res.__dict__.pop("_perfbench_trace", None), sid)
                exec_s += res.wall_s
            tracer.record(
                sid, parent, "pool.run_batch", t0, t1,
                {"jobs": len(batch), "waits": waits, "exec_s": exec_s},
            )

    pool.ServePool.run_batch = traced_run_batch


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
def _union(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the part of its
    interval that its direct children cover.  Asynchronous spans (the
    front end's ``submit``) have no children and no self time."""
    children: dict[int, list] = {}
    for s in spans:
        if s[1]:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        if s[6] and s[6].get("async"):
            continue
        out[s[0]] = (s[4] - s[3]) - _union(children.get(s[0], ()), s[3], s[4])
    return out


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile (0 <= q <= 1) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 1)) - 1))
    return ordered[k]


def layer_metrics(tracer: Tracer, t_lo: int, t_hi: int, t_setup: int) -> tuple[dict, dict]:
    """Per-layer figures for spans that started in ``[t_lo, t_hi)`` (the
    timed phase); the set-up figures take ``[t_setup, t_lo)`` as well.
    Returns ``(metrics, samples)``; ``samples`` holds the count behind
    each percentile and ratio."""
    spans = tracer.spans
    self_ns = self_times(spans)
    by_id = {s[0]: s for s in spans}
    timed = [s for s in spans if t_lo <= s[3] < t_hi]
    setup = [s for s in spans if t_setup <= s[3] < t_lo]

    def layer(s) -> str:
        return s[2].split(".", 1)[0]

    def outermost(s) -> bool:
        parent = by_id.get(s[1])
        return parent is None or layer(parent) != layer(s)

    def named(prefix, pool=timed):
        return [s for s in pool if s[2].startswith(prefix)]

    def dur(ss) -> float:
        return sum(s[4] - s[3] for s in ss) / 1e9

    def self_s(ss) -> float:
        return sum(self_ns.get(s[0], 0) for s in ss) / 1e9

    def attr_sum(ss, key) -> int:
        return sum(int((s[6] or {}).get(key, 0)) for s in ss)

    m: dict[str, float] = {}
    n: dict[str, int] = {}

    build = [s for s in named("supported.") if outermost(s)]
    m["supported.build_s"] = dur(build)
    m["supported.build_setup_s"] = dur([s for s in named("supported.", setup) if outermost(s)])

    m["algorithms.select_s"] = dur(named("algorithms.select"))
    m["algorithms.self_s"] = self_s(named("algorithms."))

    greedy = named("scheduling.")
    m["scheduling.calls"] = len(greedy)
    m["scheduling.msgs"] = attr_sum(greedy, "msgs")
    m["scheduling.self_s"] = self_s(greedy)

    lookups = named("schedule_cache.")
    hits = sum(1 for s in lookups if (s[6] or {}).get("hit"))
    m["schedule_cache.lookups"] = len(lookups)
    m["schedule_cache.hit_ratio"] = hits / len(lookups) if lookups else 0.0
    m["schedule_cache.miss_s"] = dur([s for s in lookups if not (s[6] or {}).get("hit")])

    net = named("network.")
    outer_net = [s for s in net if outermost(s)]
    m["network.dispatches"] = sum(d for _pid, t, d in tracer.dispatches if t_lo <= t <= t_hi)
    m["network.msgs"] = attr_sum(outer_net, "msgs")
    m["network.self_s"] = self_s(net)
    m["network.collective_s"] = dur([s for s in outer_net if "segmented_" in s[2]])

    sums = [s for s in named("semirings.") if outermost(s)]
    m["semirings.segment_sum_calls"] = len(sums)
    m["semirings.segment_sum_elems"] = attr_sum(sums, "elems")
    m["semirings.segment_sum_s"] = dur(sums)

    replays = named("plan.replay")
    plan_lookups = named("plan.lookup")
    plan_hits = sum(1 for s in plan_lookups if (s[6] or {}).get("hit"))
    # compiles span the whole traced run: serve-hot compiles in set-up and
    # replays in the timed phase
    compiles = named("plan.compile", setup + timed)
    m["plan.compiles"] = len(compiles)
    m["plan.compile_s"] = dur(compiles)
    m["plan.replays"] = attr_sum(replays, "jobs")
    m["plan.replay_s"] = dur(replays)
    m["plan.hit_ratio"] = plan_hits / len(plan_lookups) if plan_lookups else 0.0
    n["plan.hit_ratio"] = len(plan_lookups)
    compiled = [(s[6] or {}).get("key") for s in compiles]
    replayed = {(s[6] or {}).get("key") for s in named("plan.replay", setup + timed)}
    m["plan.useful_compile_ratio"] = (
        sum(1 for key in compiled if key in replayed) / len(compiled) if compiled else 0.0
    )
    n["plan.useful_compile_ratio"] = len(compiled)

    certs = named("certify.")
    m["certify.calls"] = len(certs)
    m["certify.s"] = dur(certs)
    m["certify.rounds"] = attr_sum(certs, "rounds")

    batches = named("pool.run_batch")
    waits_ms = [w * 1e3 for s in batches for w in (s[6] or {}).get("waits", ())]
    jobs_in = attr_sum(batches, "jobs")
    m["frontend.queue_wait_ms_p50"] = nearest_rank(waits_ms, 0.50) if waits_ms else 0.0
    m["frontend.queue_wait_ms_p99"] = nearest_rank(waits_ms, 0.99) if waits_ms else 0.0
    n["frontend.queue_wait_ms_p50"] = n["frontend.queue_wait_ms_p99"] = len(waits_ms)
    m["frontend.batch_size_mean"] = jobs_in / len(batches) if batches else 0.0
    m["pool.run_batch_s"] = dur(batches)
    exec_s = sum(float((s[6] or {}).get("exec_s", 0.0)) for s in batches)
    m["pool.overhead_ms_per_job"] = (dur(batches) - exec_s) * 1e3 / jobs_in if jobs_in else 0.0

    # the store is written and read in serve-hot's set-up, so its figures
    # cover set-up and timed phase alike
    saves = named("store.save", setup + timed)
    m["store.save_s"] = dur(saves)
    m["store.load_s"] = dur(named("store.load", setup + timed))
    m["store.entries_written"] = attr_sum(saves, "entries")
    m["store.shards_written"] = attr_sum(saves, "shards")

    m["executor.cell_s"] = dur(named("executor.cell"))

    steps = named("transport.")
    m["transport.steps"] = len(steps)
    m["transport.step_ms"] = dur(steps) * 1e3 / len(steps) if steps else 0.0
    m["transport.words"] = attr_sum(steps, "words")

    # share of the timed wall the parent spent outside every traced call
    roots = [
        (s[3], s[4]) for s in timed
        if (s[0] >> 32) == tracer.main_pid and (not s[1] or (s[6] or {}).get("async"))
    ]
    m["trace.unattributed_share"] = 1.0 - _union(roots, t_lo, t_hi) / max(t_hi - t_lo, 1)
    m["trace.spans"] = len(timed)
    return m, n

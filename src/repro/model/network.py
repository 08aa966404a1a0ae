"""Round-counting execution engine for the low-bandwidth model.

The network holds, per computer, a key-value memory (``mem[c][key]``).  An
algorithm is a sequence of

* *local phases* — computers transform their own memory (free: the model
  grants unlimited local computation, paper Definition 6.3), and
* *communication phases* — batches of point-to-point messages that the
  engine schedules into rounds (see :mod:`repro.model.scheduling`) and
  executes.  ``network.rounds`` advances only here.

Two execution modes:

``strict=True``
    Every phase is re-executed round by round.  The engine asserts the
    model's constraints: at most one message sent and one received per
    computer per round; a sender possesses the value it sends (provenance —
    values can only originate from the input distribution or from local
    writes justified by values already held); payloads are single machine
    words.  Used by the test-suite on small instances.

``strict=False``
    Identical schedules and round counts, bulk value movement.  Used for
    benchmark sweeps.  Two fast-path features are active here:

    * **Schedule cache** — schedules are pure functions of the endpoint
      arrays, which in this codebase are derived from the sparsity
      structure alone; the supported model (paper §2.1) makes structure-only
      preprocessing free, so schedules are memoized per structure in a
      shared :class:`~repro.model.schedule_cache.ScheduleCache` and replayed
      across sweeps.  Round counts are bit-identical with the cache on or
      off.
    * **Columnar delivery** — callers that keep their values in NumPy
      arrays ("value planes" indexed by slot) can execute a phase with
      :meth:`exchange_columnar` / ``src_keys=None``: the engine schedules
      the endpoints, charges rounds and messages exactly as for a
      dict-keyed phase, but moves no per-message dict entries — the caller
      realizes the data movement as a single array gather.  Strict mode
      refuses this path; it always executes the checked per-message
      deliveries.

The *supported setting* (paper §2.1) allows arbitrary preprocessing that
depends only on the sparsity structure: all schedules, anchor arrays, and
tree shapes in this codebase are functions of the indicator matrices alone,
never of the numeric values.

Scheduling and the columnar gather/scatter aggregation both dispatch
through :mod:`repro.model._kernels` (Numba-compiled loops when available,
bit-identical NumPy reference otherwise; ``REPRO_KERNELS`` selects).
:meth:`LowBandwidthNetwork.engine_info` reports which backend a run used.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

from repro.model.collectives import doubling_batches, halving_batches
from repro.model.schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    load_store,
    store_path,
)
from repro.model.scheduling import (
    greedy_two_sided_schedule,
    schedule_makespan,
    validate_schedule,
)

__all__ = [
    "LowBandwidthNetwork",
    "Message",
    "NetworkError",
    "PhaseRecord",
    "dispatch_count",
]

Key = Hashable

#: Process-wide count of per-phase Python dispatches: every scheduled
#: exchange and every lockstep collective level that runs through the
#: simulator's per-round machinery increments it once.  The compiled
#: replay path (:mod:`repro.model.plan`) never touches the simulator, so
#: the benchmark snapshots deltas of this counter to *prove* that warm
#: replay does zero per-round scheduling or bucketing work.
_DISPATCH_COUNT = 0


def dispatch_count() -> int:
    """Total per-phase Python dispatches executed by this process."""
    return _DISPATCH_COUNT


class NetworkError(RuntimeError):
    """A violation of the low-bandwidth model's rules."""


@dataclass(frozen=True)
class Message:
    """One point-to-point message: ``src`` sends its value under ``src_key``
    to ``dst``, stored there under ``dst_key``."""

    src: int
    dst: int
    src_key: Key
    dst_key: Key


@dataclass
class PhaseRecord:
    """Accounting entry for one executed phase."""

    label: str
    rounds: int
    messages: int
    wall_ns: int = 0  # wall-clock spent executing the phase (scheduling + delivery)
    cache_hit: bool = False  # schedule served from the structure-keyed cache
    columnar: bool = False  # values moved as arrays, not per-message dict writes


_SCALAR_TYPES = (int, float, bool, np.generic)


def _is_word(value: Any) -> bool:
    """A payload must fit in one O(log n)-bit message: a single semiring
    element (scalar).  Arrays and containers are rejected."""
    if isinstance(value, _SCALAR_TYPES):
        return True
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return True
    return False


class LowBandwidthNetwork:
    """A network of ``n`` computers in the (supported) low-bandwidth model.

    Parameters
    ----------
    n:
        Number of computers.
    strict:
        Checked round-by-round execution (see module docstring).
    track_memory:
        Sample per-computer peak key counts on writes and deliveries.
    schedule_method:
        Passed to :func:`~repro.model.scheduling.greedy_two_sided_schedule`
        (``"auto"``, ``"vectorized"`` or ``"reference"``; all produce
        identical schedules).
    schedule_cache:
        ``"auto"`` (default) shares the process-wide cache in non-strict
        mode and disables caching in strict mode; ``None`` disables
        caching; a :class:`ScheduleCache` instance is used as given; a
        filesystem path (``str``/``Path`` naming a store file or a cache
        directory) builds a private cache warm-loaded from that persistent
        store (see :func:`~repro.model.schedule_cache.load_store` — a
        missing or corrupt store degrades to a cold cache).
    columnar:
        Allow the columnar (array) delivery path in non-strict mode.
        Algorithms consult ``net.columnar`` to choose their bulk
        implementations; strict mode forces it off.
    fault_plan:
        A :class:`~repro.model.faults.FaultPlan` describing deterministic
        message drops, duplications, word corruptions, crash-stop
        failures and link delays to inject into every communication
        phase.  ``None`` (default) and *null* plans (all rates zero, no
        crashes/delays) leave every delivery path bit-identical to the
        fault-free engine.  An active plan disables the columnar path:
        per-word faults need per-message delivery.
    resilience:
        A :class:`~repro.model.faults.ResilienceConfig` (or ``True`` for
        the defaults): route every exchange through the ack/resend
        protocol of :class:`~repro.model.faults.ResilientExchange`, so
        unmodified algorithms recover from transient faults.  All
        protocol rounds (acks, backoff, retries) are real rounds,
        recorded in :meth:`phase_summary`.
    transport:
        The delivery plane (:mod:`repro.transport`).  ``None`` or
        ``"local"`` keep the historical in-process delivery (the
        :class:`~repro.transport.base.LocalTransport` semantics,
        inlined).  ``"tcp"`` (or a started
        :class:`~repro.transport.base.Transport` instance) routes every
        scheduled model round through a real multi-process TCP mesh:
        payloads are gathered per round, shipped as framed messages
        with ack/resend, and committed at the round barrier.  Schedules
        and billing are computed *before* delivery, so rounds and
        message counts are bit-identical across transports by
        construction; a wire transport disables the columnar planes
        (a wire needs the actual words) and is incompatible with
        ``strict`` (per-message checked delivery is in-process by
        definition) and with ``fault_plan``/``resilience`` (those
        *simulate* faults — over a wire, real faults come from the
        transport's drill).  The network owns its wire transport and
        shuts it down in :meth:`close`.
    """

    def __init__(
        self,
        n: int,
        *,
        strict: bool = False,
        track_memory: bool = False,
        schedule_method: str = "auto",
        schedule_cache: ScheduleCache | str | None = "auto",
        columnar: bool = True,
        fault_plan: "object | None" = None,
        resilience: "object | bool | None" = None,
        transport: "object | str | None" = None,
    ):
        if n <= 0:
            raise ValueError("need at least one computer")
        self.n = int(n)
        self.strict = bool(strict)
        self.schedule_method = schedule_method
        if isinstance(schedule_cache, str) and schedule_cache == "auto":
            self._schedule_cache = None if self.strict else default_schedule_cache()
        elif schedule_cache is None:
            self._schedule_cache = None
        elif isinstance(schedule_cache, ScheduleCache):
            self._schedule_cache = schedule_cache
        elif isinstance(schedule_cache, (str, os.PathLike)):
            path = Path(schedule_cache)
            if path.is_dir() or path.suffix == "":
                path = store_path(path)
            cache = ScheduleCache()
            cache.merge(load_store(path))
            self._schedule_cache = cache
        else:
            raise ValueError(
                "schedule_cache must be 'auto', None, a ScheduleCache or a store path"
            )
        self._injector = None
        self._resilience = None
        if fault_plan is not None:
            from repro.model.faults import FaultInjector, FaultPlan

            if not isinstance(fault_plan, FaultPlan):
                raise ValueError("fault_plan must be a repro.model.faults.FaultPlan")
            self._injector = FaultInjector(fault_plan, n=self.n)
        if resilience is not None and resilience is not False:
            from repro.model.faults import ResilienceConfig

            if resilience is True:
                resilience = ResilienceConfig()
            if not isinstance(resilience, ResilienceConfig):
                raise ValueError(
                    "resilience must be a ResilienceConfig, True, or None"
                )
            resilience.validate()
            self._resilience = resilience
        self._transport = None
        self.transport_name = "local"
        if transport is not None:
            from repro.transport.base import make_transport

            resolved = make_transport(transport)
            if resolved.is_wire:
                if self.strict:
                    raise ValueError(
                        "strict mode requires the local transport: per-message "
                        "checked delivery is in-process by definition"
                    )
                if self._injector is not None or self._resilience is not None:
                    raise ValueError(
                        "fault_plan/resilience simulate faults in-process; over "
                        "a wire transport real faults come from the transport "
                        "drill (SocketTransport.arm_drill)"
                    )
                resolved.ensure_started(self.n)
                self._transport = resolved
            self.transport_name = resolved.name
        fault_active = self._injector is not None and self._injector.active
        self.columnar = (
            bool(columnar)
            and not self.strict
            and not fault_active
            and self._resilience is None
            and self._transport is None
        )
        self.rounds = 0
        self.mem: list[dict[Key, Any]] = [dict() for _ in range(self.n)]
        self.phases: list[PhaseRecord] = []
        self.messages_sent = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # peak number of keys simultaneously held per computer (the model's
        # space bound: computers hold O(d) input/output elements plus the
        # algorithm's working set).  Sampled on writes/deliveries when
        # track_memory is on.
        self.track_memory = bool(track_memory)
        self._peak_mem = np.zeros(self.n, dtype=np.int64) if track_memory else None
        #: optional hook for the plan compiler (repro.model.plan): when a
        #: PlanRecorder is attached, the columnar Lemma 3.1 path records
        #: each value-pipeline stage as it executes.  Purely observational
        #: — never changes scheduling, rounds, or values.
        self.plan_recorder = None

    def _sample_memory(self, comp: int) -> None:
        if self._peak_mem is not None:
            size = len(self.mem[comp])
            if size > self._peak_mem[comp]:
                self._peak_mem[comp] = size

    def peak_memory(self) -> np.ndarray:
        """Per-computer peak key counts (requires ``track_memory=True``)."""
        if self._peak_mem is None:
            raise RuntimeError("construct the network with track_memory=True")
        current = np.fromiter((len(m) for m in self.mem), dtype=np.int64, count=self.n)
        return np.maximum(self._peak_mem, current)

    # ------------------------------------------------------------------ #
    # Memory / local computation
    # ------------------------------------------------------------------ #
    def deal(self, comp: int, key: Key, value: Any) -> None:
        """Place an *input* value at a computer (part of the instance, not a
        computation step)."""
        self.mem[comp][key] = value
        self._sample_memory(comp)

    def read(self, comp: int, key: Key) -> Any:
        """Read a value a computer holds; NetworkError if absent."""
        try:
            return self.mem[comp][key]
        except KeyError as exc:
            raise NetworkError(f"computer {comp} does not hold {key!r}") from exc

    def holds(self, comp: int, key: Key) -> bool:
        """Does the computer currently hold ``key``?"""
        return key in self.mem[comp]

    def write(self, comp: int, key: Key, value: Any, *, provenance: Iterable[Key] = ()) -> None:
        """Local computation at ``comp``: derive ``value`` from values the
        computer already holds.  In strict mode the provenance keys must be
        present in ``comp``'s memory."""
        if self.strict:
            missing = [k for k in provenance if k not in self.mem[comp]]
            if missing:
                raise NetworkError(
                    f"local write at computer {comp} uses values it does not hold: {missing!r}"
                )
        self.mem[comp][key] = value
        self._sample_memory(comp)

    def delete(self, comp: int, key: Key) -> None:
        """Drop a value from local memory (frees working-set space)."""
        self.mem[comp].pop(key, None)

    def read_many(self, comps: Sequence[int], keys: Sequence[Key], dtype) -> np.ndarray:
        """Bulk :meth:`read`: ``out[t]`` is the value ``comps[t]`` holds
        under ``keys[t]``, as one ``dtype`` array.  A missing key raises the
        same :class:`NetworkError` as :meth:`read`, so the gather is the
        possession check of a local step."""
        mem = self.mem
        try:
            values = [mem[c][k] for c, k in zip(comps, keys)]
        except KeyError:
            for c, k in zip(comps, keys):
                if k not in mem[c]:
                    raise NetworkError(f"computer {c} does not hold {k!r}") from None
            raise
        return np.fromiter(values, dtype=dtype, count=len(values))

    def write_many(self, comps: Sequence[int], keys: Sequence[Key], values: np.ndarray) -> None:
        """Bulk local :meth:`write` of ``values[t]`` to ``keys[t]`` at
        ``comps[t]``, in order.  The caller derived the values from a
        :meth:`read_many` gather, which already checked possession."""
        mem = self.mem
        for c, k, v in zip(comps, keys, values):
            mem[c][k] = v
        if self._peak_mem is not None:
            for c in set(comps):
                self._sample_memory(c)

    def delete_many(self, comps: Sequence[int], keys: Sequence[Key]) -> None:
        """Bulk :meth:`delete`."""
        mem = self.mem
        for c, k in zip(comps, keys):
            mem[c].pop(k, None)

    # ------------------------------------------------------------------ #
    # Communication phases
    # ------------------------------------------------------------------ #
    def exchange(self, messages: Sequence[Message], *, label: str = "exchange") -> int:
        """Execute a batch of messages; returns the number of rounds used.

        The batch is edge-coloured greedily, giving at most
        ``max_send_degree + max_recv_degree - 1`` rounds.  (Thin wrapper
        over :meth:`exchange_arrays` — there is exactly one delivery path.)
        """
        if not messages:
            return 0
        src = np.fromiter((m.src for m in messages), dtype=np.int64, count=len(messages))
        dst = np.fromiter((m.dst for m in messages), dtype=np.int64, count=len(messages))
        return self.exchange_arrays(
            src,
            dst,
            [m.src_key for m in messages],
            [m.dst_key for m in messages],
            label=label,
        )

    def exchange_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: Sequence[Key] | None,
        dst_keys: Sequence[Key] | None = None,
        *,
        label: str = "exchange",
    ) -> int:
        """Array-friendly form of :meth:`exchange` (no per-message objects;
        the path the algorithms use for large batches).

        ``src_keys=None`` requests *columnar* execution: the phase is
        scheduled and charged exactly as usual, but no dict entries move —
        the caller performs the equivalent data movement as an array gather
        (see :meth:`exchange_columnar`).  Only legal in non-strict mode.
        """
        if dst_keys is None:
            dst_keys = src_keys
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src_keys is not None:
            src_keys = list(src_keys)
            dst_keys = list(dst_keys)
        return self._exchange_raw(src, dst, src_keys, dst_keys, label=label)

    def exchange_columnar(
        self, src: np.ndarray, dst: np.ndarray, *, label: str = "exchange"
    ) -> int:
        """Charge a communication phase whose values travel in value planes.

        Message ``i`` goes from ``src[i]`` to ``dst[i]``; because payloads
        stay positionally aligned, the caller moves them with one gather
        over its own arrays.  Round counts, message counts, schedules and
        phase records are identical to the dict-keyed path.
        """
        return self.exchange_arrays(src, dst, None, label=label)

    def _schedule(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, bool]:
        cache = self._schedule_cache
        if cache is not None:
            rounds_arr, hit = cache.get_or_compute(src, dst, method=self.schedule_method)
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            return rounds_arr, hit
        return greedy_two_sided_schedule(src, dst, method=self.schedule_method), False

    def _exchange_raw(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
    ) -> int:
        global _DISPATCH_COUNT
        if src.size == 0:
            return 0
        _DISPATCH_COUNT += 1
        if src_keys is not None and not (
            src.size == dst.size == len(src_keys) == len(dst_keys)
        ):
            raise ValueError("message component lengths differ")
        if src.size != dst.size:
            raise ValueError("message component lengths differ")
        if (self._injector is not None and self._injector.active) or (
            self._resilience is not None
        ):
            return self._exchange_disturbed(src, dst, src_keys, dst_keys, label=label)
        t0 = time.perf_counter_ns()
        self._check_ids(src, dst, label=label)
        rounds_arr, cache_hit = self._schedule(src, dst)
        total = schedule_makespan(rounds_arr)

        if self.strict:
            if src_keys is None:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] columnar delivery is "
                    "unavailable in strict mode"
                )
            validate_schedule(src, dst, rounds_arr)
            order = np.argsort(rounds_arr, kind="stable")
            for i in order:
                i = int(i)
                self._deliver_checked(
                    Message(int(src[i]), int(dst[i]), src_keys[i], dst_keys[i]),
                    label=label,
                    round_index=self.rounds + int(rounds_arr[i]),
                )
        elif self._transport is not None:
            if src_keys is None:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] columnar delivery is "
                    "unavailable over a wire transport"
                )
            return self._deliver_wire(
                src, dst, src_keys, dst_keys, rounds_arr,
                label=label, cache_hit=cache_hit, t0=t0,
            )
        elif src_keys is not None:
            mem = self.mem
            sample = self._sample_memory if self.track_memory else None
            for idx, (s, d, sk, dk) in enumerate(
                zip(src.tolist(), dst.tolist(), src_keys, dst_keys)
            ):
                mem_src = mem[s]
                if sk not in mem_src:
                    raise NetworkError(
                        f"[{label} @ round {self.rounds + int(rounds_arr[idx])}] "
                        f"computer {s} cannot send {sk!r}: not held"
                    )
                mem[d][dk] = mem_src[sk]
                if sample is not None:
                    sample(d)
        # src_keys is None: columnar — the caller moves the values as arrays

        self.rounds += total
        self.messages_sent += src.size
        self.phases.append(
            PhaseRecord(
                label,
                total,
                int(src.size),
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=cache_hit,
                columnar=src_keys is None,
            )
        )
        return total

    # ------------------------------------------------------------------ #
    # Wire delivery (see repro.transport)
    # ------------------------------------------------------------------ #
    def _deliver_wire(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list,
        dst_keys: list,
        rounds_arr: np.ndarray,
        *,
        label: str,
        cache_hit: bool,
        t0: int,
    ) -> int:
        """Execute an already-scheduled phase over the wire transport:
        for each model round, gather that round's payload words from the
        source memories, ship them through
        :meth:`~repro.transport.base.Transport.deliver_step` (one
        barriered wire round), and commit the delivered words into the
        destination memories.  Billing is fixed by the schedule before
        any byte moves, so rounds/messages are identical to local
        delivery; only wall-clock sees the wire.

        Graceful degradation: if the transport declares a peer dead
        (:class:`~repro.transport.base.PeerDied`, i.e. respawn budget
        exhausted), the completed prefix of the phase is salvaged into
        the bill under ``<label>/aborted`` and the failure surfaces as a
        :class:`NetworkError` carrying the phase label and model round —
        a clean typed abort, never a hang and never a silent result.
        """
        from repro.transport.base import PeerDied
        from repro.transport.framing import decode_value, encode_value

        mem = self.mem
        sample = self._sample_memory if self.track_memory else None
        total = schedule_makespan(rounds_arr)
        src_l = src.tolist()
        dst_l = dst.tolist()
        rounds_l = rounds_arr.tolist()
        order = [int(i) for i in np.argsort(rounds_arr, kind="stable")]
        m = int(src.size)
        delivered_msgs = 0
        completed = 0
        pos = 0
        # self-messages are scheduled at round -1 (a computer talking to
        # itself costs nothing on the wire): commit them locally first,
        # exactly like the inline path and the PR 5 fault exemption
        while pos < m and rounds_l[order[pos]] < 0:
            i = order[pos]
            pos += 1
            s, sk = src_l[i], src_keys[i]
            if sk not in mem[s]:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] "
                    f"computer {s} cannot send {sk!r}: not held"
                )
            mem[dst_l[i]][dst_keys[i]] = mem[s][sk]
            if sample is not None:
                sample(dst_l[i])
            delivered_msgs += 1
        try:
            for r in range(total):
                entries = []
                while pos < m and rounds_l[order[pos]] == r:
                    i = order[pos]
                    pos += 1
                    s, sk = src_l[i], src_keys[i]
                    mem_src = mem[s]
                    if sk not in mem_src:
                        raise NetworkError(
                            f"[{label} @ round {self.rounds + r}] "
                            f"computer {s} cannot send {sk!r}: not held"
                        )
                    entries.append((i, s, dst_l[i], encode_value(mem_src[sk])))
                payloads = self._transport.deliver_step(
                    entries, label=label, round_no=self.rounds + r
                )
                for i, blob in payloads.items():
                    mem[dst_l[i]][dst_keys[i]] = decode_value(blob)
                    if sample is not None:
                        sample(dst_l[i])
                delivered_msgs += len(entries)
                completed = r + 1
        except PeerDied as exc:
            # salvage the completed prefix of the phase into the bill,
            # then abort with phase/round context
            aborted_at = self.rounds + completed
            self.rounds += completed
            self.messages_sent += delivered_msgs
            self.phases.append(
                PhaseRecord(
                    f"{label}/aborted",
                    completed,
                    delivered_msgs,
                    wall_ns=time.perf_counter_ns() - t0,
                    cache_hit=cache_hit,
                    columnar=False,
                )
            )
            raise NetworkError(
                f"[{label} @ round {aborted_at}] transport peer failure after "
                f"{completed}/{total} rounds: {exc}"
            ) from exc
        self.rounds += total
        self.messages_sent += m
        self.phases.append(
            PhaseRecord(
                label,
                total,
                m,
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=cache_hit,
                columnar=False,
            )
        )
        return total

    def transport_stats(self) -> dict[str, Any]:
        """Honest counters from the delivery plane (steps, words, wire
        retries/reconnects/respawns for a socket mesh)."""
        if self._transport is None:
            return {"transport": self.transport_name}
        return self._transport.stats()

    def close(self) -> None:
        """Shut down an owned wire transport (idempotent; local-delivery
        networks have nothing to release)."""
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "LowBandwidthNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Fault-injected / resilient delivery (see repro.model.faults)
    # ------------------------------------------------------------------ #
    def charge_idle_rounds(self, k: int, *, label: str = "idle") -> int:
        """Advance the round counter by ``k`` rounds in which every
        computer stays silent (backoff waits are real, billable time)."""
        k = int(k)
        if k <= 0:
            return 0
        self.rounds += k
        self.phases.append(PhaseRecord(label, k, 0))
        return k

    def _exchange_disturbed(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
    ) -> int:
        """Exchange under an active fault plan and/or resilient delivery."""
        if src_keys is None:
            raise NetworkError(
                f"[{label} @ round {self.rounds}] columnar delivery is "
                "unavailable under fault injection"
            )
        if self._resilience is not None:
            from repro.model.faults import ResilientExchange

            return ResilientExchange(self, self._resilience)._run(
                src, dst, src_keys, dst_keys, label=label
            )
        used, _lost = self._faulty_attempt(
            src, dst, src_keys, dst_keys, label=label, attempt=0
        )
        return used

    def _faulty_attempt(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list,
        dst_keys: list,
        *,
        label: str,
        attempt: int,
    ) -> tuple[int, np.ndarray]:
        """One delivery attempt of a scheduled phase with faults applied.

        Returns ``(rounds_charged, lost_indices)``.  Scheduling, round
        and message accounting are identical to the fault-free path; the
        injector then withholds lost payloads, perturbs undetected
        corruptions, and extends the phase for delays/duplicates."""
        if src.size == 0:
            return 0, np.empty(0, dtype=np.int64)
        t0 = time.perf_counter_ns()
        self._check_ids(src, dst, label=label)
        rounds_arr, cache_hit = self._schedule(src, dst)
        total = schedule_makespan(rounds_arr)
        inj = self._injector
        dec = (
            inj.decide_phase(src, dst, rounds_arr, base_round=self.rounds, label=label)
            if inj is not None and inj.active
            else None
        )
        phase_label = label if attempt == 0 else f"{label}/retry{attempt}"

        if self.strict:
            validate_schedule(src, dst, rounds_arr)
            order = np.argsort(rounds_arr, kind="stable")
            for i in order:
                i = int(i)
                if dec is not None and not dec.deliver[i]:
                    continue
                corrupt_h = (
                    int(dec.corrupt_h[i])
                    if dec is not None and dec.corrupt[i]
                    else None
                )
                self._deliver_checked(
                    Message(int(src[i]), int(dst[i]), src_keys[i], dst_keys[i]),
                    label=label,
                    round_index=self.rounds + int(rounds_arr[i]),
                    corrupt_h=corrupt_h,
                )
        else:
            from repro.model.faults import corrupt_word

            mem = self.mem
            sample = self._sample_memory if self.track_memory else None
            for idx, (s, d, sk, dk) in enumerate(
                zip(src.tolist(), dst.tolist(), src_keys, dst_keys)
            ):
                if dec is not None and not dec.deliver[idx]:
                    continue
                mem_src = mem[s]
                if sk not in mem_src:
                    raise NetworkError(
                        f"[{label} @ round {self.rounds + int(rounds_arr[idx])}] "
                        f"computer {s} cannot send {sk!r}: not held"
                    )
                value = mem_src[sk]
                if dec is not None and dec.corrupt[idx]:
                    value = corrupt_word(value, int(dec.corrupt_h[idx]))
                mem[d][dk] = value
                if sample is not None:
                    sample(d)

        extra = dec.extra_rounds if dec is not None else 0
        dups = dec.duplicates if dec is not None else 0
        total += extra
        self.rounds += total
        self.messages_sent += int(src.size) + dups
        self.phases.append(
            PhaseRecord(
                phase_label,
                total,
                int(src.size) + dups,
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=cache_hit,
                columnar=False,
            )
        )
        lost = dec.lost_idx if dec is not None else np.empty(0, dtype=np.int64)
        return total, lost

    def _ack_attempt(
        self, src: np.ndarray, dst: np.ndarray, *, label: str
    ) -> tuple[int, np.ndarray]:
        """Charge the reverse acknowledgement phase for delivered messages.

        Each receiver sends one ack word back to its sender (scheduled
        and charged like any phase); the fault plan may drop acks or lose
        them to crashes.  Acks move no payload state — presence is the
        signal — so they are accounting-only on the memory side.  Returns
        ``(rounds_charged, indices_whose_ack_was_lost)``."""
        if src.size == 0:
            return 0, np.empty(0, dtype=np.int64)
        t0 = time.perf_counter_ns()
        rounds_arr, cache_hit = self._schedule(dst, src)  # reverse direction
        total = schedule_makespan(rounds_arr)
        inj = self._injector
        if inj is not None and inj.active:
            dec = inj.decide_phase(
                dst, src, rounds_arr, base_round=self.rounds, acks=True
            )
            lost = dec.lost_idx
        else:
            lost = np.empty(0, dtype=np.int64)
        self.rounds += total
        self.messages_sent += int(src.size)
        self.phases.append(
            PhaseRecord(
                f"{label}/ack",
                total,
                int(src.size),
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=cache_hit,
                columnar=False,
            )
        )
        return total, lost

    def segmented_broadcast(
        self,
        segments: Sequence[Sequence[int]],
        keys: Sequence[Key],
        *,
        label: str = "broadcast",
    ) -> int:
        """Broadcast, within each segment, the value held by the segment's
        first computer to all other computers of the segment — in parallel
        across segments, via binary doubling trees (paper Lemma 3.1).

        Segments must be pairwise disjoint (each computer participates in at
        most one tree), which is what makes the parallel doubling rounds
        legal.  Rounds used: ``ceil(log2(max segment size))``.  Per-step
        batches are built as arrays (:func:`~repro.model.collectives.doubling_batches`);
        strict mode still delivers each message through the checked path.
        """
        segments = [list(map(int, seg)) for seg in segments if len(seg) > 0]
        if not segments:
            return 0
        if len(keys) != len(segments):
            raise ValueError("one key per segment required")
        if self.strict:
            seen: set[int] = set()
            for seg in segments:
                for c in seg:
                    if c in seen:
                        raise NetworkError(
                            f"[{label} @ round {self.rounds}] broadcast segments "
                            "overlap; parallel trees illegal"
                        )
                    seen.add(c)
        total = 0
        for src, dst, seg_of_msg in doubling_batches(segments):
            step_keys = [keys[s] for s in seg_of_msg.tolist()]
            total += self._execute_lockstep_arrays(
                src, dst, step_keys, step_keys, label=f"{label}/doubling"
            )
        return total

    def segmented_convergecast(
        self,
        segments: Sequence[Sequence[int]],
        keys: Sequence[Key],
        combine: Callable[[Any, Any], Any],
        *,
        label: str = "convergecast",
    ) -> int:
        """Aggregate, within each segment, the values held under ``key`` by
        all members into the first computer, using ``combine`` (an
        associative, commutative operation — semiring addition).  Binary
        halving trees, ``ceil(log2(max segment size))`` rounds.

        Partial values arrive under transient ``("__cc__", key, sender)``
        keys that are combined and deleted immediately; strict mode asserts
        after the phase that none survive.
        """
        segments = [list(map(int, seg)) for seg in segments if len(seg) > 0]
        if not segments:
            return 0
        if len(keys) != len(segments):
            raise ValueError("one key per segment required")
        total = 0
        for src, dst, seg_of_msg in halving_batches(segments):
            src_list = src.tolist()
            dst_list = dst.tolist()
            step_keys = [keys[s] for s in seg_of_msg.tolist()]
            tmp_keys = [("__cc__", k, c) for k, c in zip(step_keys, src_list)]
            total += self._execute_lockstep_arrays(
                src, dst, step_keys, tmp_keys, label=f"{label}/halving"
            )
            for comp, key, tmp_key in zip(dst_list, step_keys, tmp_keys):
                try:
                    acc = combine(self.mem[comp][key], self.mem[comp][tmp_key])
                except KeyError as exc:
                    raise NetworkError(
                        f"[{label} @ round {self.rounds}] convergecast combine at "
                        f"computer {comp} is missing {exc.args[0]!r} "
                        "(partial value never arrived?)"
                    ) from exc
                self.write(comp, key, acc, provenance=(key, tmp_key))
                self.delete(comp, tmp_key)
        if self.strict:
            # cheap invariant: the transient convergecast keys never leak
            for seg in segments:
                for comp in seg:
                    for k in self.mem[comp]:
                        if isinstance(k, tuple) and k and k[0] == "__cc__":
                            raise NetworkError(
                                f"[{label} @ round {self.rounds}] convergecast temp "
                                f"key {k!r} leaked at computer {comp}"
                            )
        return total

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _execute_lockstep(self, messages: Sequence[Message], *, label: str) -> int:
        """Execute a batch that must fit in exactly one round (wrapper for
        ``Message``-object callers; the array form does the work)."""
        src = np.fromiter((m.src for m in messages), dtype=np.int64, count=len(messages))
        dst = np.fromiter((m.dst for m in messages), dtype=np.int64, count=len(messages))
        return self._execute_lockstep_arrays(
            src,
            dst,
            [m.src_key for m in messages],
            [m.dst_key for m in messages],
            label=label,
        )

    def _execute_lockstep_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
    ) -> int:
        """Execute a single-round batch given as arrays.  ``src_keys=None``
        is the columnar rounds-only form (non-strict callers moving values
        in planes)."""
        global _DISPATCH_COUNT
        _DISPATCH_COUNT += 1
        t0 = time.perf_counter_ns()
        self._check_ids(src, dst, label=label)
        if self.strict:
            if src_keys is None:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] columnar delivery is "
                    "unavailable in strict mode"
                )
            if np.unique(src).size != src.size:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] computer sends twice in one round"
                )
            if np.unique(dst).size != dst.size:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] computer receives twice in one round"
                )
        if (self._injector is not None and self._injector.active) or (
            self._resilience is not None
        ):
            return self._lockstep_disturbed(src, dst, src_keys, dst_keys, label=label)
        if self._transport is not None and src.size:
            if src_keys is None:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] columnar delivery is "
                    "unavailable over a wire transport"
                )
            return self._deliver_wire(
                src, dst, src_keys, dst_keys,
                np.zeros(src.size, dtype=np.int64),
                label=label, cache_hit=False, t0=t0,
            )
        if self.strict:
            for s, d, sk, dk in zip(src.tolist(), dst.tolist(), src_keys, dst_keys):
                self._deliver_checked(
                    Message(s, d, sk, dk), label=label, round_index=self.rounds
                )
        elif src_keys is not None:
            mem = self.mem
            sample = self._sample_memory if self.track_memory else None
            for s, d, sk, dk in zip(src.tolist(), dst.tolist(), src_keys, dst_keys):
                mem_src = mem[s]
                if sk not in mem_src:
                    raise NetworkError(
                        f"[{label} @ round {self.rounds}] "
                        f"computer {s} cannot send {sk!r}: not held"
                    )
                mem[d][dk] = mem_src[sk]
                if sample is not None:
                    sample(d)
        self.rounds += 1
        self.messages_sent += int(src.size)
        self.phases.append(
            PhaseRecord(
                label,
                1,
                int(src.size),
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=False,
                columnar=src_keys is None,
            )
        )
        return 1

    def _lockstep_disturbed(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
    ) -> int:
        """Single-round batch under faults: apply the plan to the one
        round, then (if resilient) recover the losses through the generic
        ack/resend protocol — the retried subset becomes an ordinary
        scheduled exchange."""
        from repro.model.faults import ResilientExchange, corrupt_word

        if src_keys is None:
            raise NetworkError(
                f"[{label} @ round {self.rounds}] columnar delivery is "
                "unavailable under fault injection"
            )
        t0 = time.perf_counter_ns()
        zero_rounds = np.zeros(src.size, dtype=np.int64)
        inj = self._injector
        dec = (
            inj.decide_phase(src, dst, zero_rounds, base_round=self.rounds, label=label)
            if inj is not None and inj.active
            else None
        )
        mem = self.mem
        sample = self._sample_memory if self.track_memory else None
        for idx, (s, d, sk, dk) in enumerate(
            zip(src.tolist(), dst.tolist(), src_keys, dst_keys)
        ):
            if dec is not None and not dec.deliver[idx]:
                continue
            if self.strict:
                corrupt_h = (
                    int(dec.corrupt_h[idx])
                    if dec is not None and dec.corrupt[idx]
                    else None
                )
                self._deliver_checked(
                    Message(s, d, sk, dk),
                    label=label,
                    round_index=self.rounds,
                    corrupt_h=corrupt_h,
                )
                continue
            mem_src = mem[s]
            if sk not in mem_src:
                raise NetworkError(
                    f"[{label} @ round {self.rounds}] "
                    f"computer {s} cannot send {sk!r}: not held"
                )
            value = mem_src[sk]
            if dec is not None and dec.corrupt[idx]:
                value = corrupt_word(value, int(dec.corrupt_h[idx]))
            mem[d][dk] = value
            if sample is not None:
                sample(d)
        extra = dec.extra_rounds if dec is not None else 0
        dups = dec.duplicates if dec is not None else 0
        total = 1 + extra
        self.rounds += total
        self.messages_sent += int(src.size) + dups
        self.phases.append(
            PhaseRecord(
                label,
                total,
                int(src.size) + dups,
                wall_ns=time.perf_counter_ns() - t0,
                cache_hit=False,
                columnar=False,
            )
        )
        if self._resilience is None:
            return total
        # resilient continuation: ack the delivered subset, then drive the
        # generic retry loop over losses and unconfirmed deliveries
        lost = dec.lost_idx if dec is not None else np.empty(0, dtype=np.int64)
        all_idx = np.arange(src.size, dtype=np.int64)
        delivered = np.setdiff1d(all_idx, lost, assume_unique=True)
        ack_used, ack_lost_local = self._ack_attempt(
            src[delivered], dst[delivered], label=label
        )
        total += ack_used
        pending = np.sort(np.concatenate([lost, delivered[ack_lost_local]]))
        if pending.size:
            total += ResilientExchange(self, self._resilience)._run(
                src[pending],
                dst[pending],
                [src_keys[i] for i in pending],
                [dst_keys[i] for i in pending],
                label=label,
                attempt=1,
            )
        return total

    def _deliver_checked(
        self,
        msg: Message,
        *,
        label: str = "exchange",
        round_index: int | None = None,
        corrupt_h: int | None = None,
    ) -> None:
        rnd = self.rounds if round_index is None else round_index
        if msg.src_key not in self.mem[msg.src]:
            raise NetworkError(
                f"[{label} @ round {rnd}] "
                f"computer {msg.src} cannot send {msg.src_key!r}: not held"
            )
        value = self.mem[msg.src][msg.src_key]
        if not _is_word(value):
            raise NetworkError(
                f"[{label} @ round {rnd}] "
                f"payload {value!r} does not fit in one O(log n)-bit word"
            )
        if corrupt_h is not None:
            from repro.model.faults import corrupt_word

            value = corrupt_word(value, corrupt_h)
        self.mem[msg.dst][msg.dst_key] = value
        self._sample_memory(msg.dst)

    def _check_ids(
        self, src: np.ndarray, dst: np.ndarray, *, label: str = "exchange"
    ) -> None:
        if src.size and (
            src.min() < 0 or dst.min() < 0 or src.max() >= self.n or dst.max() >= self.n
        ):
            raise NetworkError(
                f"[{label} @ round {self.rounds}] message endpoint outside the network"
            )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def phase_summary(self) -> dict[str, tuple[int, int]]:
        """Aggregate (rounds, messages) by phase label prefix."""
        out: dict[str, tuple[int, int]] = {}
        for rec in self.phases:
            base = rec.label.split("/")[0]
            r, m = out.get(base, (0, 0))
            out[base] = (r + rec.rounds, m + rec.messages)
        return out

    def phase_timings(self) -> dict[str, dict[str, Any]]:
        """Aggregate wall-clock and cache statistics by phase label prefix.

        Complements :meth:`phase_summary` (whose ``(rounds, messages)``
        shape is stable API) with the fast-path instrumentation: per label
        prefix, total rounds/messages, wall-clock milliseconds, number of
        phases, schedule-cache hits, and how many phases ran columnar.
        """
        out: dict[str, dict[str, Any]] = {}
        for rec in self.phases:
            base = rec.label.split("/")[0]
            row = out.setdefault(
                base,
                {
                    "rounds": 0,
                    "messages": 0,
                    "wall_ms": 0.0,
                    "phases": 0,
                    "cache_hits": 0,
                    "columnar_phases": 0,
                },
            )
            row["rounds"] += rec.rounds
            row["messages"] += rec.messages
            row["wall_ms"] += rec.wall_ns / 1e6
            row["phases"] += 1
            row["cache_hits"] += int(rec.cache_hit)
            row["columnar_phases"] += int(rec.columnar)
        return out

    def schedule_cache_stats(self) -> dict[str, int] | None:
        """Stats of the attached schedule cache, or ``None`` if disabled."""
        return None if self._schedule_cache is None else self._schedule_cache.stats()

    def engine_info(self) -> dict[str, Any]:
        """How this network executes phases: strictness, columnar delivery,
        scheduling method, and the active compiled-kernel backend
        (:mod:`repro.model._kernels`) — recorded into bench artifacts so a
        measurement always names the engine that produced it."""
        from repro.model import _kernels

        return {
            "strict": self.strict,
            "columnar": self.columnar,
            "schedule_method": self.schedule_method,
            "schedule_cache": self._schedule_cache is not None,
            "transport": self.transport_name,
            "kernels": _kernels.kernel_info(),
        }

    def fault_counts(self) -> dict[str, int] | None:
        """Honest tallies of injected faults and recovery work (drops,
        crash losses, corruptions, duplicates, delays, lost acks, resends,
        backoff rounds, unrecoverable messages) — ``None`` when the
        network carries no fault plan."""
        return None if self._injector is None else dict(self._injector.counts)

    def fault_phase_attribution(self) -> dict[str, int] | None:
        """Phase label -> silently corrupted words: which phases a failed
        certificate implicates (``None`` without a fault plan)."""
        return None if self._injector is None else dict(self._injector.silent_phases)

    @property
    def fault_plan(self):
        """The attached :class:`~repro.model.faults.FaultPlan`, if any."""
        return None if self._injector is None else self._injector.plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LowBandwidthNetwork(n={self.n}, rounds={self.rounds}, "
            f"messages={self.messages_sent}, strict={self.strict})"
        )

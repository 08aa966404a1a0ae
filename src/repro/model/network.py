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
    Every phase is delivered word by word in round order.  The engine
    asserts the model's constraints: at most one message sent and one
    received per computer per round; a sender possesses the value it
    sends (provenance — values can only originate from the input
    distribution or from local writes justified by values already held);
    payloads are single machine words.  Used by the test-suite on small
    instances.

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

**Instance words.**  On a columnar network the input and output words
of an instance (:meth:`LowBandwidthNetwork.deal_words`) stay in arrays,
where the columnar kernels read and fold them; the dict memories are
built on first access to :attr:`LowBandwidthNetwork.mem` — by any read,
write or keyed delivery — and receive those words first, in the order
they were dealt, exactly as an eager deal would have left them.

Every communication phase — scheduled, lockstep (one round, no
scheduler) or columnar — runs through one delivery core: one entry
(``_dispatch``: dispatch count, batch checks, the ack/resend protocol
under ``resilience``), one attempt (``_attempt``: endpoint check, rounds,
fault verdict, word mover, bill), two word movers (in-process, in stable
round order, or over a wire transport one barriered round at a time),
and one bill (``_bill``), which idle backoff rounds and ack phases share.

The *supported setting* (paper §2.1) allows arbitrary preprocessing that
depends only on the sparsity structure: all schedules, anchor arrays, and
tree shapes in this codebase are functions of the indicator matrices alone,
never of the numeric values.

The columnar gather/scatter aggregation runs through the NumPy kernels
of :mod:`repro.model._kernels`; :meth:`LowBandwidthNetwork.engine_info`
records them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
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


@dataclass
class InstanceWords:
    """Instance words dealt as arrays (:meth:`LowBandwidthNetwork.deal_words`):
    computer ``owners[t]`` holds ``values[t]`` under the key ``(prefix,
    rows[t], cols[t])``."""

    rows: np.ndarray
    cols: np.ndarray
    owners: np.ndarray
    values: np.ndarray


def _message_columns(
    messages: Sequence[Message],
) -> tuple[np.ndarray, np.ndarray, list[Key], list[Key]]:
    """``(src, dst, src_keys, dst_keys)`` of a ``Message`` batch, the
    array form every delivery entry takes."""
    m = len(messages)
    return (
        np.fromiter((msg.src for msg in messages), dtype=np.int64, count=m),
        np.fromiter((msg.dst for msg in messages), dtype=np.int64, count=m),
        [msg.src_key for msg in messages],
        [msg.dst_key for msg in messages],
    )


#: why a phase under the ack/resend protocol cannot be columnar
_ACK_REFUSAL = "under ack/resend delivery, which addresses resends by per-message keys"


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
        protocol of :mod:`repro.model.faults`, so
        unmodified algorithms recover from transient faults.  All
        protocol rounds (acks, backoff, retries) are real rounds,
        recorded in :meth:`phase_summary`.
    transport:
        The delivery plane (:mod:`repro.transport`).  ``None`` or
        ``"local"`` keep the in-process word mover (the
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
        #: why this network refuses columnar phases (None: it accepts them)
        self._columnar_refusal = (
            "in strict mode" if self.strict
            else "over a wire transport" if self._transport is not None
            else "under fault injection" if fault_active
            else _ACK_REFUSAL if self._resilience is not None
            else None
        )
        self.columnar = bool(columnar) and self._columnar_refusal is None
        self.rounds = 0
        #: instance words not yet written into ``mem`` (see :meth:`deal_words`)
        self._words: dict[str, InstanceWords] = {}
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

    @cached_property
    def mem(self) -> list[dict[Key, Any]]:
        """The per-computer dict memories, ``mem[c][key]``.  Built on first
        access, which writes the array-resident instance words into them
        first, in the order they were dealt (:meth:`deal_words`)."""
        mem: list[dict[Key, Any]] = [dict() for _ in range(self.n)]
        pending, self._words = self._words, {}
        for prefix, words in pending.items():
            self._write_words(mem, prefix, words)
        return mem

    def _write_words(self, mem: list[dict[Key, Any]], prefix: str, words: InstanceWords) -> None:
        """Write instance words into the dict memories ``mem``, in order."""
        for c, i, j, v in zip(
            words.owners.tolist(), words.rows.tolist(), words.cols.tolist(), words.values
        ):
            mem[c][(prefix, i, j)] = v
        if self._peak_mem is not None:
            sizes = np.fromiter((len(m) for m in mem), dtype=np.int64, count=self.n)
            np.maximum(self._peak_mem, sizes, out=self._peak_mem)

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

    def deal_words(
        self,
        prefix: str,
        rows: np.ndarray,
        cols: np.ndarray,
        owners: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Place instance words: ``owners[t]`` holds ``values[t]`` under
        ``(prefix, rows[t], cols[t])``.

        On a columnar network whose dict memories nobody has touched yet,
        the words stay array-resident (:meth:`instance_words`) until the
        first access to :attr:`mem` writes them in; otherwise, and for a
        prefix dealt twice, they are written now.  The network keeps the
        arrays it is given."""
        words = InstanceWords(rows, cols, owners, values)
        if self.columnar and "mem" not in self.__dict__ and prefix not in self._words:
            self._words[prefix] = words
        else:
            self._write_words(self.mem, prefix, words)

    def instance_words(self, prefix: str) -> InstanceWords | None:
        """The array-resident words dealt under ``prefix``, or ``None`` once
        they live in the dict memories (or were never dealt).  A caller
        that updates them replaces ``values`` with an array of the same
        length."""
        return self._words.get(prefix)

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
        return self.exchange_arrays(*_message_columns(messages), label=label)

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
        the path the algorithms use for large batches); ``dst_keys=None``
        reuses ``src_keys``.

        ``src_keys=None`` requests *columnar* execution: the phase is
        scheduled and charged exactly as usual, but no dict entries move —
        the caller performs the equivalent data movement as an array gather
        (see :meth:`exchange_columnar`).  Only legal in non-strict mode.
        """
        if src_keys is not None:
            src_keys = list(src_keys)
            dst_keys = src_keys if dst_keys is None else list(dst_keys)
        return self._dispatch(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            src_keys,
            dst_keys,
            label=label,
            lockstep=False,
        )

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

    def charge_idle_rounds(self, k: int, *, label: str = "idle") -> int:
        """Advance the round counter by ``k`` rounds in which every
        computer stays silent (backoff waits are real, billable time)."""
        k = int(k)
        if k <= 0:
            return 0
        self._bill(label, k, 0)
        return k

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
    # The delivery core: entry -> attempt -> word mover -> bill
    # ------------------------------------------------------------------ #
    def _execute_lockstep(self, messages: Sequence[Message], *, label: str) -> int:
        """Execute a batch that must fit in exactly one round (``Message``
        form of :meth:`_execute_lockstep_arrays`)."""
        return self._execute_lockstep_arrays(*_message_columns(messages), label=label)

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
        return self._dispatch(src, dst, src_keys, dst_keys, label=label, lockstep=True)

    def _dispatch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
        lockstep: bool,
    ) -> int:
        """The one entry of every communication phase.

        An empty batch costs nothing.  Otherwise the phase counts one
        dispatch, and the batch is checked and delivered: through the
        ack/resend protocol on a network built with ``resilience``, else
        as one :meth:`_attempt`.  A ``lockstep`` batch must fit in one
        round."""
        global _DISPATCH_COUNT
        if src.size == 0:
            return 0
        _DISPATCH_COUNT += 1
        if src.size != dst.size or (
            src_keys is not None and not src.size == len(src_keys) == len(dst_keys)
        ):
            raise ValueError("message component lengths differ")
        if src_keys is None and self._columnar_refusal is not None:
            raise NetworkError(
                f"[{label} @ round {self.rounds}] columnar delivery is unavailable "
                f"{self._columnar_refusal}"
            )
        if self._resilience is not None:
            from repro.model.faults import _resilient_run

            return _resilient_run(
                self, self._resilience, src, dst, src_keys, dst_keys,
                label=label, lockstep=lockstep,
            )
        return self._attempt(src, dst, src_keys, dst_keys, label=label, lockstep=lockstep)[0]

    def _attempt(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list | None,
        dst_keys: list | None,
        *,
        label: str,
        attempt: int = 0,
        lockstep: bool = False,
    ) -> tuple[int, np.ndarray]:
        """One delivery attempt of a nonempty phase.

        Checks the endpoints; fixes each message's round (the first-fit
        schedule, or round 0 for every message of a lockstep batch);
        applies the fault plan's verdict; moves the words; bills the phase
        (``<label>/retryN`` for a retry).  Returns ``(rounds_charged,
        indices_of_lost_messages)``."""
        t0 = time.perf_counter_ns()
        self._check_ids(src, dst, label=label)
        if lockstep:
            rounds_arr, cache_hit = np.zeros(src.size, dtype=np.int64), False
            if self.strict:
                for ends, verb in ((src, "sends"), (dst, "receives")):
                    if np.unique(ends).size != ends.size:
                        raise NetworkError(
                            f"[{label} @ round {self.rounds}] computer {verb} "
                            "twice in one round"
                        )
        else:
            rounds_arr, cache_hit = self._schedule(src, dst)
            if self.strict:
                try:
                    validate_schedule(src, dst, rounds_arr)
                except ValueError as exc:
                    raise NetworkError(f"[{label} @ round {self.rounds}] {exc}") from exc
        total = schedule_makespan(rounds_arr)
        inj = self._injector
        dec = (
            inj.decide_phase(src, dst, rounds_arr, base_round=self.rounds, label=label)
            if inj is not None and inj.active
            else None
        )
        if self._transport is not None:
            self._move_wire(
                src, dst, src_keys, dst_keys, rounds_arr,
                label=label, t0=t0, cache_hit=cache_hit,
            )
        elif src_keys is not None:
            self._move(src, dst, src_keys, dst_keys, rounds_arr, dec, label=label)
        if dec is not None:
            total += dec.extra_rounds
        self._bill(
            label if attempt == 0 else f"{label}/retry{attempt}",
            total,
            src.size + (dec.duplicates if dec is not None else 0),
            t0,
            cache_hit=cache_hit,
            columnar=src_keys is None,
        )
        return total, (dec.lost_idx if dec is not None else np.empty(0, dtype=np.int64))

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

    def _move(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list,
        dst_keys: list,
        rounds_arr: np.ndarray,
        dec,
        *,
        label: str,
    ) -> None:
        """In-process word mover: deliver in stable round order, checking
        possession (and, in strict mode, that each payload is one word),
        skipping the words the fault verdict ``dec`` lost and perturbing
        its silent corruptions."""
        order = np.argsort(rounds_arr, kind="stable")
        corrupt = {}
        if dec is not None:
            order = order[dec.deliver[order]]
            hit = np.flatnonzero(dec.corrupt)
            if hit.size:
                corrupt = dict(zip(hit.tolist(), dec.corrupt_h[hit].tolist()))
            from repro.model.faults import corrupt_word
        mem = self.mem
        strict = self.strict
        sample = self._sample_memory if self._peak_mem is not None else None
        src_l = src.tolist()
        dst_l = dst.tolist()
        for i in order.tolist():
            s, sk = src_l[i], src_keys[i]
            mem_src = mem[s]
            if sk not in mem_src:
                raise self._not_held(label, int(rounds_arr[i]), s, sk)
            value = mem_src[sk]
            if strict and not _is_word(value):
                raise NetworkError(
                    f"[{label} @ round {self.rounds + max(int(rounds_arr[i]), 0)}] "
                    f"payload {value!r} does not fit in one O(log n)-bit word"
                )
            if corrupt and i in corrupt:
                value = corrupt_word(value, corrupt[i])
            d = dst_l[i]
            mem[d][dst_keys[i]] = value
            if sample is not None:
                sample(d)

    def _move_wire(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        src_keys: list,
        dst_keys: list,
        rounds_arr: np.ndarray,
        *,
        label: str,
        t0: int,
        cache_hit: bool,
    ) -> None:
        """Wire word mover (see :mod:`repro.transport`): for each model
        round, gather that round's payload words from the source
        memories, ship them through
        :meth:`~repro.transport.base.Transport.deliver_step` (one
        barriered wire round), and commit the delivered words into the
        destination memories.  Self-messages (round -1) cost no round and
        are committed locally first.  The schedule fixed the bill before
        any byte moves, so rounds/messages are identical to in-process
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
        sample = self._sample_memory if self._peak_mem is not None else None
        total = schedule_makespan(rounds_arr)
        src_l = src.tolist()
        dst_l = dst.tolist()
        rounds_l = rounds_arr.tolist()
        order = np.argsort(rounds_arr, kind="stable").tolist()
        pos = delivered = completed = 0
        try:
            for r in range(-1, total):
                words = {}
                while pos < len(order) and rounds_l[order[pos]] <= r:
                    i = order[pos]
                    pos += 1
                    s, sk = src_l[i], src_keys[i]
                    if sk not in mem[s]:
                        raise self._not_held(label, r, s, sk)
                    words[i] = mem[s][sk]
                sent = len(words)
                if r >= 0:
                    entries = [(i, src_l[i], dst_l[i], encode_value(v)) for i, v in words.items()]
                    blobs = self._transport.deliver_step(
                        entries, label=label, round_no=self.rounds + r
                    )
                    words = {i: decode_value(blob) for i, blob in blobs.items()}
                    completed = r + 1
                for i, value in words.items():
                    mem[dst_l[i]][dst_keys[i]] = value
                    if sample is not None:
                        sample(dst_l[i])
                delivered += sent
        except PeerDied as exc:
            aborted_at = self.rounds + completed
            self._bill(f"{label}/aborted", completed, delivered, t0, cache_hit=cache_hit)
            raise NetworkError(
                f"[{label} @ round {aborted_at}] transport peer failure after "
                f"{completed}/{total} rounds: {exc}"
            ) from exc

    def _bill(
        self,
        label: str,
        rounds: int,
        messages: int,
        t0: int | None = None,
        *,
        cache_hit: bool = False,
        columnar: bool = False,
    ) -> None:
        """Charge one phase: advance the round and message counters and
        record it (wall-clock since ``t0``, if given)."""
        self.rounds += rounds
        self.messages_sent += int(messages)
        wall_ns = 0 if t0 is None else time.perf_counter_ns() - t0
        self.phases.append(
            PhaseRecord(label, rounds, int(messages), wall_ns, cache_hit, columnar)
        )

    def _not_held(self, label: str, round_in_phase: int, comp: int, key: Key) -> NetworkError:
        """The possession error of a word its sender does not hold.  A
        self-message (round -1) is reported at the phase's first round."""
        return NetworkError(
            f"[{label} @ round {self.rounds + max(round_in_phase, 0)}] "
            f"computer {comp} cannot send {key!r}: not held"
        )

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
        scheduling method, and the kernel backend
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

"""Deterministic fault injection and resilient delivery for the simulator.

The paper's model assumes a perfectly reliable network: every scheduled
message arrives and every computer survives all rounds.  This module makes
the *unreliable* regime a first-class, reproducible experiment:

:class:`FaultPlan`
    A seed-driven specification of what goes wrong.  Every decision —
    "is message ``src -> dst`` scheduled for global round ``g`` dropped?"
    — is a pure function of ``(plan.seed, kind, src, dst, g)`` via a
    splitmix64-style integer hash, so fault patterns are *order
    independent*: the same algorithm under the same plan sees the same
    faults in strict and fast mode, with or without the schedule cache,
    at any worker count.  Fault types (all optional, all default off):

    * ``drop_rate`` — a scheduled message is lost in transit;
    * ``dup_rate`` — a message is delivered twice (the duplicate occupies
      a real extra receive slot: trailing rounds are charged);
    * ``corrupt_rate`` — the delivered word is perturbed.  With
      ``detect_corruption=True`` (default) words carry a checksum — the
      model's words are ``O(log n)`` bits, so a constant-factor checksum
      is free — and a corrupted word is discarded on receipt (corruption
      becomes erasure, i.e. a detectable drop).  With detection off the
      corrupted value lands silently;
    * ``crashes`` — crash-stop failures: computer ``c`` stops
      participating at global round ``r``; messages to or from it in any
      later round are lost.  Its final local state still exists and is
      inspected by the outcome classifier (stale outputs count as wrong);
    * ``link_delays`` — every message on link ``(src, dst)`` arrives
      ``k`` rounds late; the phase completes only when its last message
      has arrived, so delays honestly extend the round count;
    * ``drop_message_ordinals`` — surgical drops by global delivery
      ordinal (the ``N``-th payload message the network attempts, acks
      excluded), for targeted single-fault experiments.

:class:`FaultInjector`
    The per-network runtime: evaluates a plan against each communication
    phase and keeps honest counters (:attr:`FaultInjector.counts`).

Ack/resend delivery (``resilience=``)
    An ack/resend protocol over a (possibly faulty) network that stays
    model-legal: after each delivery attempt the receivers acknowledge
    through a reverse exchange (scheduled and charged like any phase —
    acks can themselves be dropped), the sender waits a bounded
    exponential backoff (idle rounds, charged), and re-sends unconfirmed
    messages.  Re-delivery is idempotent (same key, same value), so a
    lost ack merely costs a duplicate send.  Every retry, ack and backoff
    round lands in ``net.phase_summary()`` under the phase's label
    (``label/ack``, ``label/retry1``, ``label/backoff``).  Messages whose
    endpoint has crashed can never be confirmed; after ``max_retries``
    they are reported *unrecoverable* (raise or record, per
    :class:`ResilienceConfig`) — the protocol has no oracle knowledge of
    crashes.

Outcome classification
    :func:`run_with_faults` executes one algorithm under a plan and
    labels the run against the NumPy reference:

    * ``correct`` — output matches the reference;
    * ``detected-failure`` — the run raised (a ``NetworkError``, a failed
      resend budget, a strict-mode violation): the system *knows*
      something went wrong;
    * ``silent-corruption`` — the run completed without complaint but the
      output is wrong.  The resilience experiments' central claim is that
      strict mode with corruption detection never lands here;
    * ``unverified`` — the run completed but verification was disabled
      (``verify=False``): correctness is *unknown*, never assumed;
    * ``certified-correct`` / ``repaired`` / ``certification-failure`` —
      the extended taxonomy when in-model certification is requested
      (``certify=``): the distributed Freivalds certificate accepted the
      result (immediately / after bounded self-repair re-runs under fresh
      fault offsets / not at all within the repair budget).  See
      :mod:`repro.model.certify`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.model.scheduling import schedule_makespan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.network import LowBandwidthNetwork
    from repro.supported.instance import SupportedInstance

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "PhaseFaults",
    "ResilienceConfig",
    "FaultRunOutcome",
    "OUTCOME_CORRECT",
    "OUTCOME_DETECTED",
    "OUTCOME_SILENT",
    "OUTCOME_UNVERIFIED",
    "OUTCOME_CERTIFIED",
    "OUTCOME_REPAIRED",
    "OUTCOME_CERT_FAILURE",
    "classify_outcome",
    "run_with_faults",
    "corrupt_word",
    "backoff_schedule",
]

OUTCOME_CORRECT = "correct"
OUTCOME_DETECTED = "detected-failure"
OUTCOME_SILENT = "silent-corruption"
OUTCOME_UNVERIFIED = "unverified"
OUTCOME_CERTIFIED = "certified-correct"
OUTCOME_REPAIRED = "repaired"
OUTCOME_CERT_FAILURE = "certification-failure"

# decision kinds: disjoint hash sub-spaces per fault type (payload vs ack)
_KIND_DROP = 1
_KIND_DUP = 2
_KIND_CORRUPT = 3
_KIND_ACK_DROP = 11


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seed-driven fault specification (see module docs).

    Plans are immutable value objects; all runtime state (counters, the
    delivery-ordinal counter for ``drop_message_ordinals``) lives in the
    per-network :class:`FaultInjector`.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    corrupt_rate: float = 0.0
    detect_corruption: bool = True
    #: computer -> first global round at which it is dead (crash-stop)
    crashes: Mapping[int, int] = field(default_factory=dict)
    #: (src, dst) -> extra rounds every message on that link takes
    link_delays: Mapping[tuple[int, int], int] = field(default_factory=dict)
    #: global payload-delivery ordinals to drop (targeted single faults)
    drop_message_ordinals: tuple[int, ...] = ()

    def validate(self) -> None:
        """Reject rates outside ``[0, 1]`` and negative crash rounds or
        link delays."""
        for name in ("drop_rate", "dup_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise ValueError(f"FaultPlan.{name} must be in [0, 1], got {rate!r}")
        for comp, rnd in self.crashes.items():
            if comp < 0 or rnd < 0:
                raise ValueError(f"FaultPlan.crashes entry {comp}: {rnd} is negative")
        for (s, d), k in self.link_delays.items():
            if k < 0:
                raise ValueError(f"FaultPlan.link_delays[{(s, d)}] must be >= 0")

    @property
    def active(self) -> bool:
        """Does this plan ever perturb a delivery?  A null plan (all rates
        zero, no crashes/delays/targeted drops) leaves the network on its
        unperturbed fast path — bit-identical to no plan at all."""
        return bool(
            self.drop_rate
            or self.dup_rate
            or self.corrupt_rate
            or self.crashes
            or self.link_delays
            or self.drop_message_ordinals
        )


@dataclass
class PhaseFaults:
    """The injector's verdict on one communication phase."""

    #: per-message: does the payload arrive?
    deliver: np.ndarray
    #: per-message: arrives but with a perturbed value (undetected corruption)
    corrupt: np.ndarray
    #: per-message corruption hashes (value perturbation inputs)
    corrupt_h: np.ndarray | None
    #: indices of messages that did not arrive
    lost_idx: np.ndarray
    #: rounds appended to the phase (delays, duplicate receive slots)
    extra_rounds: int
    #: extra word deliveries caused by duplication
    duplicates: int


# splitmix64-style mixing constants (uint64 arithmetic wraps mod 2^64)
_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xC2B2AE3D27D4EB4F)
_C3 = np.uint64(0x165667B19E3779F9)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(src: np.ndarray, dst: np.ndarray, rnd: np.ndarray, salt: int) -> np.ndarray:
    """Vectorized order-independent hash of ``(salt, src, dst, round)``."""
    salted = np.uint64((salt * 0x27D4EB2F165667C5) & 0xFFFFFFFFFFFFFFFF)
    x = (
        src.astype(np.uint64) * _C1
        ^ dst.astype(np.uint64) * _C2
        ^ rnd.astype(np.uint64) * _C3
        ^ salted
    )
    x ^= x >> np.uint64(30)
    x *= _M1
    x ^= x >> np.uint64(27)
    x *= _M2
    x ^= x >> np.uint64(31)
    return x


#: itemsize -> (float view, int view, highest mantissa bit index)
_FLOAT_VIEWS = {
    2: (np.float16, np.int16, 9),
    4: (np.float32, np.int32, 22),
    8: (np.float64, np.int64, 51),
}


def _flip_mantissa(value: Any, h: int):
    """XOR a *high* mantissa bit of a finite float: a perturbation that
    survives any magnitude (``1e300 + 7 == 1e300``, but no float equals
    itself with a flipped mantissa bit) and any closeness tolerance (the
    relative change is at least ``2^-5``, far outside the semirings'
    ``1e-8`` comparison slack).  The exponent is untouched, so a finite
    input stays finite."""
    arr = np.asarray(value)
    ftype, itype, hi_bit = _FLOAT_VIEWS.get(
        arr.dtype.itemsize, (np.float64, np.int64, 51)
    )
    arr = arr.astype(ftype)
    mask = itype(1) << itype(hi_bit - h % 4)
    return (arr.view(itype) ^ mask).view(ftype)[()]


def corrupt_word(value: Any, h: int) -> Any:
    """Deterministically perturb one delivered word (bit-flip flavour).

    Total: every word type maps to a *different* word — an in-flight
    corruption that reproduces the original bit pattern is not a
    corruption.  Bit flips cannot perturb non-finite floats without
    changing their class, so those degrade to a finite garbage value,
    and non-numeric payloads are replaced by a tagged wrapper (a
    different word)."""
    h = int(h)
    if isinstance(value, (bool, np.bool_)):
        return not bool(value)
    if isinstance(value, (int, np.integer)):
        return type(value)(int(value) ^ (1 << (h % 16)))
    if isinstance(value, (float, np.floating)):
        if np.isinf(value) or np.isnan(value):
            return type(value)(float(1 + h % 7))
        return type(value)(_flip_mantissa(value, h))
    if isinstance(value, np.ndarray) and value.ndim == 0:
        scalar = value[()]
        if value.dtype == np.bool_:
            return np.bool_(not bool(scalar))
        if np.issubdtype(value.dtype, np.floating):
            if np.isinf(scalar) or np.isnan(scalar):
                return value.dtype.type(1 + h % 7)
            return np.array(_flip_mantissa(scalar, h))
        return value + value.dtype.type(1 + h % 7)
    return ("__corrupted__", h % 16, repr(value))  # non-numeric: replaced


class FaultInjector:
    """Runtime fault evaluation for one network (see module docstring).

    All counters are honest tallies of what actually happened on the
    wire: ``dropped``, ``crash_lost``, ``corrupt_detected`` (discarded on
    receipt), ``corrupt_silent`` (landed perturbed), ``duplicated``,
    ``delayed``, ``acks_lost``, ``resent_messages``, ``retry_phases``,
    ``backoff_rounds``, ``unrecoverable``.
    """

    _COUNT_KEYS = (
        "dropped",
        "crash_lost",
        "corrupt_detected",
        "corrupt_silent",
        "duplicated",
        "delayed",
        "acks_lost",
        "resent_messages",
        "retry_phases",
        "backoff_rounds",
        "unrecoverable",
    )

    def __init__(self, plan: FaultPlan, *, n: int):
        plan.validate()
        self.plan = plan
        self.active = plan.active
        self.counts: dict[str, int] = {k: 0 for k in self._COUNT_KEYS}
        #: phase label (prefix before "/") -> silently corrupted words:
        #: attribution for the repair layer's diagnostics
        self.silent_phases: dict[str, int] = {}
        self._ordinal = 0  # payload deliveries attempted so far (acks excluded)
        self._crash_round = None
        if plan.crashes:
            crash = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            for comp, rnd in plan.crashes.items():
                if not (0 <= comp < n):
                    raise ValueError(f"FaultPlan.crashes names computer {comp} outside the network")
                crash[comp] = rnd
            self._crash_round = crash
        self._drop_ordinals = (
            np.asarray(sorted(plan.drop_message_ordinals), dtype=np.int64)
            if plan.drop_message_ordinals
            else None
        )

    def _rate_mask(self, kind: int, src, dst, g, rate: float) -> np.ndarray:
        u = _mix(src, dst, g, self.plan.seed * 64 + kind).astype(np.float64) / 2.0**64
        return u < rate

    def decide_phase(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        rounds_arr: np.ndarray,
        *,
        base_round: int,
        acks: bool = False,
        label: str | None = None,
    ) -> PhaseFaults:
        """Evaluate the plan against one scheduled phase.

        ``rounds_arr`` assigns each message its 0-indexed round within the
        phase; ``base_round`` is the network's global round counter at
        phase start, so decisions key on *global* rounds (a crash at round
        ``r`` hits every later phase).  ``acks=True`` marks the reverse
        acknowledgement phase of the ack/resend protocol: acks can be
        dropped or lost to crashes, but are never corrupted (presence is
        the signal), duplicated, delayed, or counted against the payload
        delivery ordinals.
        """
        plan = self.plan
        n = int(src.size)
        g = base_round + rounds_arr.astype(np.int64)
        deliver = np.ones(n, dtype=bool)
        # a self-addressed message never leaves the computer: in-flight
        # faults (drops, corruption, duplication, delays, lost acks)
        # cannot touch it — only a crash of the computer itself can
        wired = src != dst

        if self._crash_round is not None:
            dead = (g >= self._crash_round[src]) | (g >= self._crash_round[dst])
            self.counts["crash_lost"] += int(dead.sum())
            deliver &= ~dead

        if plan.drop_rate > 0.0:
            kind = _KIND_ACK_DROP if acks else _KIND_DROP
            hit = self._rate_mask(kind, src, dst, g, plan.drop_rate) & deliver & wired
            self.counts["acks_lost" if acks else "dropped"] += int(hit.sum())
            deliver &= ~hit

        if self._drop_ordinals is not None and not acks:
            # ordinals index words that actually cross the wire, so a
            # targeted ordinal always names a droppable delivery
            wired_idx = np.flatnonzero(wired)
            ords = self._ordinal + np.arange(wired_idx.size, dtype=np.int64)
            hit = np.zeros(n, dtype=bool)
            hit[wired_idx[np.isin(ords, self._drop_ordinals)]] = True
            hit &= deliver
            self.counts["dropped"] += int(hit.sum())
            deliver &= ~hit
        if not acks:
            self._ordinal += int(wired.sum())

        corrupt = np.zeros(n, dtype=bool)
        corrupt_h: np.ndarray | None = None
        if plan.corrupt_rate > 0.0 and not acks:
            h = _mix(src, dst, g, plan.seed * 64 + _KIND_CORRUPT)
            hit = (h.astype(np.float64) / 2.0**64 < plan.corrupt_rate) & deliver & wired
            if plan.detect_corruption:
                # checksum mismatch: the receiver discards the word, so
                # corruption degrades to a detectable erasure
                self.counts["corrupt_detected"] += int(hit.sum())
                deliver &= ~hit
            else:
                silent = int(hit.sum())
                self.counts["corrupt_silent"] += silent
                if silent and label is not None:
                    phase = label.split("/", 1)[0]
                    self.silent_phases[phase] = self.silent_phases.get(phase, 0) + silent
                corrupt = hit
                corrupt_h = h

        extra_rounds = 0
        duplicates = 0
        if plan.dup_rate > 0.0 and not acks:
            dup = self._rate_mask(_KIND_DUP, src, dst, g, plan.dup_rate) & deliver & wired
            duplicates = int(dup.sum())
            if duplicates:
                self.counts["duplicated"] += duplicates
                # duplicates occupy real receive slots: delivered in
                # trailing rounds, at most one per receiver per round
                extra_rounds = int(np.bincount(dst[dup]).max())

        if plan.link_delays and not acks:
            delays = np.zeros(n, dtype=np.int64)
            for (s, d), k in plan.link_delays.items():
                delays[(src == s) & (dst == d) & deliver & wired] = k
            if delays.any():
                self.counts["delayed"] += int((delays > 0).sum())
                makespan = int(rounds_arr.max()) + 1 if n else 0
                arrival = rounds_arr.astype(np.int64) + delays
                extra_rounds = max(extra_rounds, int(arrival.max()) + 1 - makespan)

        return PhaseFaults(
            deliver=deliver,
            corrupt=corrupt,
            corrupt_h=corrupt_h,
            lost_idx=np.flatnonzero(~deliver),
            extra_rounds=extra_rounds,
            duplicates=duplicates,
        )


def backoff_schedule(*, base, cap, retries: int) -> list:
    """The closed-form exponential backoff schedule: the wait before
    retry ``t`` is ``min(base * 2**(t-1), cap)``, for ``t = 1..retries``.

    This is the single source of truth for backoff, shared by
    the ack/resend protocol of a ``resilience=`` network (where the waits are billed idle model
    *rounds*) and the wire transport's ack/resend path
    (:mod:`repro.transport.host`, where the same schedule is promoted to
    wall-clock *milliseconds*).  Integer inputs yield integer waits;
    float inputs yield floats.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if base < 0 or cap < base:
        raise ValueError("need 0 <= base <= cap")
    return [min(base * (2 ** (t - 1)), cap) for t in range(1, retries + 1)]


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry policy of the ack/resend protocol (``resilience=``).

    ``max_retries`` bounds re-send attempts beyond the first delivery;
    backoff before retry ``t`` is ``min(backoff_base * 2**(t-1),
    backoff_cap)`` idle rounds, charged honestly.  ``on_unrecoverable``
    is ``"raise"`` (default: a ``NetworkError`` carrying the phase label
    and round — a *detected* failure) or ``"record"`` (count and carry
    on with a partial delivery)."""

    max_retries: int = 4
    backoff_base: int = 1
    backoff_cap: int = 8
    on_unrecoverable: str = "raise"

    def validate(self) -> None:
        """Reject negative retry budgets, inverted backoff bounds, and
        unknown ``on_unrecoverable`` policies."""
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if self.on_unrecoverable not in ("raise", "record"):
            raise ValueError("on_unrecoverable must be 'raise' or 'record'")


def _resilient_run(
    net: "LowBandwidthNetwork",
    cfg: ResilienceConfig,
    src: np.ndarray,
    dst: np.ndarray,
    src_keys: list,
    dst_keys: list,
    *,
    label: str,
    lockstep: bool = False,
) -> int:
    """Deliver-ack-backoff-retry until confirmed or budget exhausted.

    A network built with ``resilience=...`` sends every phase through
    this protocol (its one phase entry, ``LowBandwidthNetwork._dispatch``,
    calls it with the network's validated ``cfg``), so unmodified
    algorithms recover from transient faults; the phase's rounds
    (delivery + acks + backoff + retries) are all recorded in
    ``net.phases``.  A ``lockstep`` batch (a collective level) makes its
    first attempt in one round; its retries are ordinary scheduled phases
    under the same ``max_retries`` budget.
    """
    from repro.model.network import NetworkError

    inj = net._injector
    pending = np.arange(src.size, dtype=np.int64)
    total = 0
    attempt = 0
    while True:
        if attempt > 0:
            backoff = backoff_schedule(
                base=cfg.backoff_base, cap=cfg.backoff_cap, retries=attempt
            )[-1]
            charged = net.charge_idle_rounds(backoff, label=f"{label}/backoff")
            total += charged
            if inj is not None:
                inj.counts["backoff_rounds"] += charged
                inj.counts["retry_phases"] += 1
                inj.counts["resent_messages"] += int(pending.size)
        used, lost_local = net._attempt(
            src[pending],
            dst[pending],
            [src_keys[i] for i in pending],
            [dst_keys[i] for i in pending],
            label=label,
            attempt=attempt,
            lockstep=lockstep and attempt == 0,
        )
        total += used
        lost = pending[lost_local]
        delivered = np.delete(pending, lost_local)
        # the receivers acknowledge through a scheduled reverse phase;
        # a lost ack forces an idempotent duplicate send
        ack_used, ack_lost_local = _ack(net, src[delivered], dst[delivered], label=label)
        total += ack_used
        pending = np.sort(np.concatenate([lost, delivered[ack_lost_local]]))
        if pending.size == 0:
            return total
        if attempt >= cfg.max_retries:
            if inj is not None:
                inj.counts["unrecoverable"] += int(pending.size)
            if cfg.on_unrecoverable == "raise":
                raise NetworkError(
                    f"[{label} @ round {net.rounds}] {pending.size} message(s) "
                    f"unrecoverable after {attempt + 1} delivery attempt(s) "
                    "(endpoint crashed or retry budget exhausted)"
                )
            return total
        attempt += 1


def _ack(
    net: "LowBandwidthNetwork", src: np.ndarray, dst: np.ndarray, *, label: str
) -> tuple[int, np.ndarray]:
    """Charge the reverse acknowledgement phase for delivered messages.

    Each receiver sends one ack word back to its sender (scheduled
    and charged like any phase, billed as ``<label>/ack``); the fault
    plan may drop acks or lose them to crashes.  Acks move no payload
    state — presence is the signal.  Returns ``(rounds_charged,
    indices_whose_ack_was_lost)``."""
    if src.size == 0:
        return 0, np.empty(0, dtype=np.int64)
    t0 = time.perf_counter_ns()
    rounds_arr, cache_hit = net._schedule(dst, src)  # reverse direction
    total = schedule_makespan(rounds_arr)
    inj = net._injector
    if inj is not None and inj.active:
        lost = inj.decide_phase(dst, src, rounds_arr, base_round=net.rounds, acks=True).lost_idx
    else:
        lost = np.empty(0, dtype=np.int64)
    net._bill(f"{label}/ack", total, src.size, t0, cache_hit=cache_hit)
    return total, lost


# ---------------------------------------------------------------------- #
# Outcome classification
# ---------------------------------------------------------------------- #
def classify_outcome(
    verified: bool | None,
    error: str | None,
    *,
    certified: bool | None = None,
    repair_attempts: int = 0,
) -> str:
    """Label one run.

    * ``detected-failure`` — the run raised: the system *knows* something
      went wrong.
    * ``certification-failure`` — the in-model certificate rejected the
      output and the repair budget could not produce a passing one (a
      detected failure with a certificate attached).
    * ``silent-corruption`` — the output is wrong against the reference
      and nothing flagged it: reachable only with certification disabled,
      or through the certifier's 2^-k false-accept event.
    * ``certified-correct`` / ``repaired`` — the certificate passed
      (immediately / after ``repair_attempts`` re-runs).
    * ``correct`` — no certificate, but reference verification passed.
    * ``unverified`` — the run completed but nothing checked the output
      (verification skipped, certification off): explicitly *not* a
      success label.
    """
    if error is not None:
        return OUTCOME_DETECTED
    if certified is False:
        return OUTCOME_CERT_FAILURE
    if verified is False:
        return OUTCOME_SILENT
    if certified is True:
        return OUTCOME_REPAIRED if repair_attempts > 0 else OUTCOME_CERTIFIED
    return OUTCOME_CORRECT if verified else OUTCOME_UNVERIFIED


@dataclass
class FaultRunOutcome:
    """One algorithm execution under a fault plan, classified."""

    outcome: str
    verified: bool | None
    error: str | None
    rounds: int
    messages: int
    fault_counts: dict[str, int]
    phase_summary: dict[str, tuple[int, int]]
    wall_s: float
    #: the final attempt's in-model certificate (None: certification off)
    certificate: Any = None
    #: certificate verdict (None when certification is off)
    certified: bool | None = None
    #: re-runs triggered by a failed certificate
    repair_attempts: int = 0
    #: total algorithm executions (1 + repair_attempts actually used)
    attempts: int = 1
    #: rounds spent inside certification, across all attempts
    cert_rounds: int = 0
    #: everything beyond the final product itself: certification rounds
    #: plus every discarded repair attempt, all billed
    overhead_rounds: int = 0
    #: phase labels in which silent corruption actually struck (union over
    #: attempts) — what a failed certificate implicates
    implicated_phases: tuple[str, ...] = ()


def _resolve_certify(certify) -> "Any":
    """``certify`` may be None/False (off), True (defaults), an int
    (check count) or a :class:`~repro.model.certify.CertifyConfig`."""
    if certify is None or certify is False:
        return None
    from repro.model.certify import CertifyConfig

    if certify is True:
        return CertifyConfig()
    if isinstance(certify, int):
        return CertifyConfig(checks=certify)
    return certify


def _offset_plan(plan: FaultPlan | None, attempt: int) -> FaultPlan | None:
    """Fresh fault offsets for repair attempt ``attempt``: the same rates
    under a re-derived hash seed, so a repair re-run does not replay the
    exact corruption pattern that poisoned the original (targeted
    ordinals and crash schedules are positional and deliberately kept)."""
    if plan is None or attempt == 0:
        return plan
    return dataclasses.replace(plan, seed=plan.seed + 0x9E3779B9 * attempt)


def run_with_faults(
    inst: "SupportedInstance",
    algorithm: Callable,
    plan: FaultPlan | None = None,
    *,
    strict: bool = False,
    resilience: ResilienceConfig | bool | None = None,
    certify: Any = None,
    verify: bool = True,
    **algo_kwargs: Any,
) -> FaultRunOutcome:
    """Run ``algorithm(inst, net=...)`` under ``plan`` and classify it.

    The algorithm runs on a fresh network carrying the plan (and the
    resilient delivery protocol when ``resilience`` is set); any raised
    exception is captured as a detected failure.  With ``certify`` set
    (True / a check count / a ``CertifyConfig``) the product is then
    certified *in-model* (:func:`repro.model.certify.certify_product`,
    every round billed under ``certify/...`` labels); a failed
    certificate triggers bounded self-repair — the run is re-executed
    with fresh fault-plan offsets up to ``max_repair_attempts`` times,
    discarded attempts and all certification rounds accumulating into
    ``overhead_rounds``.  ``verify=False`` skips the reference comparison
    (the real distributed system cannot do it); without a certificate
    such a run is classified ``unverified``, never silently successful.
    """
    from repro.model.network import LowBandwidthNetwork

    cert_cfg = _resolve_certify(certify)
    max_attempts = 1 + (cert_cfg.max_repair_attempts if cert_cfg is not None else 0)

    t0 = time.perf_counter()
    total_rounds = total_messages = 0
    fault_counts: dict[str, int] = {}
    phase_summary: dict[str, tuple[int, int]] = {}
    implicated: dict[str, int] = {}
    cert_rounds_total = 0
    repair_attempts = 0
    attempts = 0
    res = None
    certificate = None
    error: str | None = None
    final_product_rounds = 0

    for attempt in range(max_attempts):
        attempts = attempt + 1
        net = LowBandwidthNetwork(
            inst.n,
            strict=strict,
            fault_plan=_offset_plan(plan, attempt),
            resilience=resilience,
        )
        error = None
        certificate = None
        attempt_cert_rounds = 0
        try:
            res = algorithm(inst, net=net, **algo_kwargs)
            if cert_cfg is not None:
                from repro.model.certify import certify_product

                certificate = certify_product(inst, net, config=cert_cfg)
                attempt_cert_rounds = certificate.rounds
        except Exception as exc:  # every failure mode ends in classification
            error = f"{type(exc).__name__}: {exc}"
        total_rounds += net.rounds
        total_messages += net.messages_sent
        cert_rounds_total += attempt_cert_rounds
        final_product_rounds = net.rounds - attempt_cert_rounds
        for key, val in (net.fault_counts() or {}).items():
            fault_counts[key] = fault_counts.get(key, 0) + val
        for lbl, (r, m) in net.phase_summary().items():
            pr, pm = phase_summary.get(lbl, (0, 0))
            phase_summary[lbl] = (pr + r, pm + m)
        for lbl, cnt in (net.fault_phase_attribution() or {}).items():
            implicated[lbl] = implicated.get(lbl, 0) + cnt
        if error is not None:
            break  # a raised error is already a *detected* failure
        if certificate is None or certificate.ok:
            break
        if attempt + 1 < max_attempts:
            repair_attempts += 1

    verified: bool | None = None
    if error is None and verify and res is not None:
        verified = bool(inst.verify(res.x))
    certified = None if certificate is None else bool(certificate.ok)
    return FaultRunOutcome(
        outcome=classify_outcome(
            verified, error, certified=certified, repair_attempts=repair_attempts
        ),
        verified=verified,
        error=error,
        rounds=total_rounds,
        messages=total_messages,
        fault_counts=fault_counts,
        phase_summary=phase_summary,
        wall_s=time.perf_counter() - t0,
        certificate=certificate,
        certified=certified,
        repair_attempts=repair_attempts,
        attempts=attempts,
        cert_rounds=cert_rounds_total,
        overhead_rounds=total_rounds - final_product_rounds,
        implicated_phases=tuple(sorted(implicated)),
    )

"""The delivery-plane abstraction: what moves a scheduled round of words.

:class:`~repro.model.network.LowBandwidthNetwork` owns the *model* — the
schedules, the round/message accounting, the per-computer memories.  What
it delegates is *delivery*: given one scheduled model round (at most one
send and one receive per computer), physically move each word from its
source to its destination.  This module defines that seam:

:class:`Transport`
    The protocol.  One method matters: :meth:`Transport.deliver_step`
    takes the entries of one model round and returns the delivered
    payloads.  Implementations differ in *where the bytes go*, never in
    what is billed — schedules, rounds, and message counts are computed
    by the network before delivery and are therefore identical across
    transports by construction.

:class:`LocalTransport`
    The in-process reference: delivery is a memory move.  The network's
    in-process word mover and its columnar fast path in
    :mod:`repro.model.network` *are* its implementation, inlined;
    ``deliver_step`` exists so the protocol is total.

:class:`~repro.transport.socket_mesh.SocketTransport` (sibling module)
    The real wire: model computers are hosted by real OS processes, each
    word crosses framed TCP connections, and every model round is a
    barrier handshake with ack/resend, heartbeats, and crash recovery.

:class:`TransportConfig` carries the knobs both implementations and the
CLI share, validated with the same discipline as the ``REPRO_SERVE_*``
family (:meth:`TransportConfig.from_env` reads ``REPRO_TRANSPORT``,
``REPRO_TRANSPORT_TIMEOUT_MS``, ``REPRO_TRANSPORT_HEARTBEAT_MS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "StepEntry",
    "Transport",
    "TransportConfig",
    "TransportError",
    "PeerDied",
    "LocalTransport",
    "make_transport",
]


class TransportError(RuntimeError):
    """A transport-level failure (below the model: sockets, processes)."""


class PeerDied(TransportError):
    """A peer process was declared crashed (missed heartbeats, closed
    connections, or an exhausted reconnect/respawn budget) and delivery
    could not be completed.  The network converts this into a
    :class:`~repro.model.network.NetworkError` carrying the phase label
    and model round so algorithms abort cleanly instead of hanging."""

    def __init__(self, host_id: int, detail: str):
        super().__init__(f"host {host_id} declared crashed: {detail}")
        self.host_id = host_id
        self.detail = detail


#: one message of a model round: (msg_idx, src computer, dst computer,
#: encoded payload word).  ``msg_idx`` is the message's index within its
#: phase, used for acks, dedup, and recommit addressing.
StepEntry = tuple[int, int, int, bytes]


@dataclass(frozen=True)
class TransportConfig:
    """Shared knobs of the delivery plane (validated value object).

    ``workers``
        Host processes of the TCP mesh.  Model computers are assigned
        round-robin (computer ``c`` lives on host ``c % workers``);
        with ``workers >= n`` every model node is its own OS process.
    ``timeout_ms``
        Connection, barrier, and handshake deadline.  Any wait — a
        barrier, an ack, a reconnect — is bounded by it, so a dead or
        wedged peer becomes a typed failure, never a hang.
    ``heartbeat_ms`` / ``miss_beats``
        Liveness: hosts beat the coordinator every ``heartbeat_ms``;
        a host silent for ``miss_beats`` intervals is declared crashed
        (this is what catches *paused* processes, whose sockets stay
        open).
    ``max_respawns``
        Crash-recovery budget: how many dead hosts the coordinator may
        replace (respawn + mesh repair + round re-issue) before it gives
        up and aborts the phase with :class:`PeerDied`.
    ``wire_retries`` / ``wire_backoff_ms`` / ``wire_backoff_cap_ms``
        The ack/resend policy of :mod:`repro.model.faults`
        promoted to production duty on the wire: an unacknowledged word is
        re-sent after ``min(wire_backoff_ms * 2**(t-1), wire_backoff_cap_ms)``
        milliseconds (plus jitter), at most ``wire_retries`` times, before
        the host reports the round failed.  Re-delivery is idempotent:
        receivers deduplicate by ``(step, msg_idx)`` sequence numbers.
    """

    workers: int = 4
    timeout_ms: float = 5000.0
    heartbeat_ms: float = 100.0
    miss_beats: int = 5
    max_respawns: int = 1
    wire_retries: int = 4
    wire_backoff_ms: float = 50.0
    wire_backoff_cap_ms: float = 400.0
    bind_host: str = "127.0.0.1"

    def validate(self) -> None:
        """Reject configurations that cannot mean anything."""
        if self.workers < 1:
            raise ValueError(f"TransportConfig.workers must be >= 1, got {self.workers}")
        if not (self.timeout_ms > 0):
            raise ValueError("TransportConfig.timeout_ms must be > 0")
        if not (self.heartbeat_ms > 0):
            raise ValueError("TransportConfig.heartbeat_ms must be > 0")
        if self.miss_beats < 1:
            raise ValueError("TransportConfig.miss_beats must be >= 1")
        if self.heartbeat_ms * self.miss_beats >= self.timeout_ms:
            raise ValueError(
                "liveness must trip before the barrier deadline: need "
                f"heartbeat_ms * miss_beats < timeout_ms, got "
                f"{self.heartbeat_ms} * {self.miss_beats} >= {self.timeout_ms}"
            )
        if self.max_respawns < 0:
            raise ValueError("TransportConfig.max_respawns must be >= 0")
        if self.wire_retries < 0:
            raise ValueError("TransportConfig.wire_retries must be >= 0")
        if self.wire_backoff_ms < 0 or self.wire_backoff_cap_ms < self.wire_backoff_ms:
            raise ValueError("need 0 <= wire_backoff_ms <= wire_backoff_cap_ms")

    @classmethod
    def from_env(cls, *, environ=None, **overrides) -> "TransportConfig":
        """Build a config from the validated ``REPRO_TRANSPORT_*`` knobs
        (:mod:`repro.envconfig`), with keyword overrides on top."""
        from repro.envconfig import (
            env_transport_heartbeat_ms,
            env_transport_timeout_ms,
        )

        values: dict[str, Any] = {
            "timeout_ms": env_transport_timeout_ms(environ=environ),
            "heartbeat_ms": env_transport_heartbeat_ms(environ=environ),
        }
        values.update(overrides)
        cfg = cls(**values)
        cfg.validate()
        return cfg


class Transport:
    """Delivery-plane protocol (see module docstring).

    Subclasses override :meth:`deliver_step` and the lifecycle hooks.
    ``is_wire`` separates the inline reference (``False`` — the network
    keeps its historical fast paths) from real delivery planes
    (``True`` — the network gathers payloads per model round and routes
    them through the transport, with columnar planes disabled because a
    wire needs the actual words).
    """

    name = "abstract"
    is_wire = False

    def ensure_started(self, n: int) -> None:
        """Bring the transport up for an ``n``-computer network;
        idempotent."""

    def deliver_step(
        self, entries: Sequence[StepEntry], *, label: str, round_no: int
    ) -> dict[int, bytes]:
        """Deliver one scheduled model round; returns ``msg_idx ->
        payload`` for every delivered entry.  Raises :class:`PeerDied`
        when delivery cannot be completed."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Honest counters of what the transport actually did."""
        return {"transport": self.name}

    def close(self) -> None:
        """Release processes/sockets; idempotent."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LocalTransport(Transport):
    """The in-process reference delivery plane (a memory move).

    The network inlines this transport's semantics in its in-process
    word mover and columnar planes; ``deliver_step``
    implements the same move explicitly so the protocol is total and the
    socket transport has a bit-identity oracle at the delivery-plane
    level too.
    """

    name = "local"
    is_wire = False

    def __init__(self) -> None:
        self._steps = 0
        self._words = 0

    def ensure_started(self, n: int) -> None:
        """Nothing to start: delivery is a memory move in this process."""
        return

    def deliver_step(
        self, entries: Sequence[StepEntry], *, label: str, round_no: int
    ) -> dict[int, bytes]:
        """Deliver one scheduled wire round: every entry arrives verbatim."""
        self._steps += 1
        self._words += len(entries)
        return {idx: payload for idx, _src, _dst, payload in entries}

    def stats(self) -> dict[str, Any]:
        """Report delivered wire steps and payload words."""
        return {"transport": self.name, "steps": self._steps, "words": self._words}


def make_transport(
    spec: "str | Transport | None",
    *,
    config: TransportConfig | None = None,
    **overrides,
) -> Transport:
    """Resolve a transport spec: ``None``/``"local"`` -> the in-process
    reference, ``"tcp"`` -> a :class:`SocketTransport` built from
    ``config`` (or :meth:`TransportConfig.from_env`) plus keyword
    overrides; an existing :class:`Transport` passes through."""
    if isinstance(spec, Transport):
        return spec
    if spec is None or spec == "local":
        return LocalTransport()
    if spec == "tcp":
        from repro.transport.socket_mesh import SocketTransport

        if config is None:
            config = TransportConfig.from_env(**overrides)
        elif overrides:
            import dataclasses

            config = dataclasses.replace(config, **overrides)
        config.validate()
        return SocketTransport(config)
    raise ValueError(f"unknown transport {spec!r}; expected 'local' or 'tcp'")

"""The node-host process of the TCP mesh (one real OS process per shard).

Each host owns the model computers ``{c : host_of(c, workers) == id}``
and speaks three protocols:

* **control** — a framed TCP connection to the coordinator: the host
  announces itself (``HELLO``), learns the peer port map (``PEERS``),
  receives per-model-round delivery orders (``ROUND``), and reports
  round completion (``BARRIER``) or bounded failure (``BARRIER_FAIL``);
* **data** — one framed TCP connection per peer host (full mesh, the
  lower id accepts and the higher id dials): the actual machine words
  cross here as ``DATA`` frames, each acknowledged with an ``ACK``.
  Unacknowledged words are re-sent after the promoted
  :func:`~repro.model.faults.backoff_schedule` backoff —
  ``min(base * 2**(t-1), cap)`` milliseconds plus jitter — at most
  ``wire_retries`` times; receivers deduplicate re-deliveries by the
  ``(step, msg_idx)`` sequence number, so a resend after a lost ack or
  a reconnect is idempotent;
* **liveness** — a background thread beats the coordinator every
  ``heartbeat_ms``.  A host that cannot reach the coordinator shuts
  itself down (orphan suicide), and a host the coordinator has not
  heard from in ``miss_beats`` intervals is declared crashed.

Hosts are deliberately **stateless across rounds**: every round's
payloads arrive in the coordinator's ``ROUND`` frame and the received
words are handed back in the ``BARRIER`` frame, so a crashed host can be
replaced by a fresh process and the in-flight round simply re-issued —
receivers deduplicate, senders resend, and the coordinator commits each
round exactly once.  That statelessness is what makes crash recovery a
protocol property instead of a checkpointing problem.

Every wait in this module is bounded by ``timeout_ms``; a wedged or
vanished peer always becomes a ``BARRIER_FAIL`` report (naming the
suspect host when known), never a hang.
"""

from __future__ import annotations

import os
import queue
import random
import socket
import threading
import time
from typing import Any

from repro.transport.base import TransportConfig
from repro.transport.framing import (
    ConnectionClosed,
    FrameError,
    FrameType,
    recv_frame,
    send_frame,
)

__all__ = ["host_main", "host_of", "wire_backoff_ms"]

#: how long a blocking socket read waits before re-checking shutdown flags
_POLL_S = 0.1


def host_of(node: int, workers: int) -> int:
    """Which host process owns model computer ``node`` (round-robin)."""
    return int(node) % int(workers)


def wire_backoff_ms(cfg: TransportConfig, attempt: int) -> float:
    """Backoff before re-send attempt ``attempt`` (1-based): the
    :class:`~repro.model.faults.ResilienceConfig` closed form
    ``min(base * 2**(t-1), cap)``, promoted from billed model rounds to
    wall-clock milliseconds on the wire."""
    from repro.model.faults import backoff_schedule

    return float(
        backoff_schedule(
            base=cfg.wire_backoff_ms, cap=cfg.wire_backoff_cap_ms, retries=attempt
        )[-1]
    )


class _Peer:
    """One data connection to a peer host.

    ``port`` is the peer's *listen* port at connection time (carried in
    PEER_HELLO / known from the dial): mesh repair uses it to tell a
    connection to a respawned peer's fresh incarnation apart from a
    stale connection to its corpse — peers are replaced under new ports,
    so a port mismatch against the latest PEERS map marks the corpse."""

    __slots__ = ("sock", "send_lock", "alive", "reader", "port")

    def __init__(self, sock: socket.socket, port: int):
        self.sock = sock
        self.send_lock = threading.Lock()
        self.alive = True
        self.reader: threading.Thread | None = None
        self.port = port


class _Host:
    """Runtime state of one node-host process (see module docstring)."""

    def __init__(
        self,
        host_id: int,
        coord_host: str,
        coord_port: int,
        token: str,
        cfg: TransportConfig,
        workers: int,
    ):
        self.id = host_id
        self.cfg = cfg
        self.workers = workers
        self.token = token
        self.running = True
        self.rng = random.Random(os.getpid() ^ (host_id << 16))

        # control plane
        self.ctl = socket.create_connection(
            (coord_host, coord_port), timeout=cfg.timeout_ms / 1e3
        )
        self.ctl.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.ctl_lock = threading.Lock()
        self.inbox: queue.Queue = queue.Queue()

        # data plane
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((cfg.bind_host, 0))
        self.listener.listen(max(4, workers))
        self.listener.settimeout(_POLL_S)
        self.port = self.listener.getsockname()[1]
        self.peers: dict[int, _Peer] = {}
        self.ports: dict[int, int] = {}
        self.peers_lock = threading.Lock()

        # per-step delivery state (pruned as steps commit)
        self.cond = threading.Condition()
        self.recv_store: dict[int, dict[int, bytes]] = {}
        self.seen: set[tuple[int, int]] = set()
        self.acked: set[tuple[int, int]] = set()

        # per-barrier counters (shipped as deltas in each BARRIER frame)
        self.counters = {
            "data_sent": 0,
            "resends": 0,
            "acks_sent": 0,
            "local_delivered": 0,
            "reconnect_attempts": 0,
            "reconnects": 0,
        }

    # -- control-plane helpers ------------------------------------------ #
    def ctl_send(self, ftype: FrameType, payload: Any) -> None:
        with self.ctl_lock:
            send_frame(self.ctl, ftype, payload)

    def _ctl_reader(self) -> None:
        """Forward every coordinator frame into the main-loop inbox."""
        self.ctl.settimeout(_POLL_S)
        while self.running:
            try:
                frame = recv_frame(self.ctl)
            except socket.timeout:
                continue
            except (ConnectionClosed, FrameError, OSError):
                self.running = False
                with self.cond:
                    self.cond.notify_all()
                return
            self.inbox.put(frame)

    def _heartbeat(self) -> None:
        """Beat the coordinator; a dead coordinator means shut down."""
        seq = 0
        interval = self.cfg.heartbeat_ms / 1e3
        while self.running:
            try:
                self.ctl_send(FrameType.HEARTBEAT, (self.id, seq))
            except OSError:
                self.running = False  # orphaned: never outlive the coordinator
                with self.cond:
                    self.cond.notify_all()
                return
            seq += 1
            time.sleep(interval)

    # -- data-plane helpers --------------------------------------------- #
    def _register_peer(self, peer_id: int, sock: socket.socket, port: int) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer = _Peer(sock, port)
        with self.peers_lock:
            old = self.peers.get(peer_id)
            if old is not None:
                old.alive = False
                try:
                    old.sock.close()
                except OSError:
                    pass
            self.peers[peer_id] = peer
        reader = threading.Thread(
            target=self._peer_reader, args=(peer_id, peer), daemon=True
        )
        peer.reader = reader
        reader.start()
        with self.cond:
            self.cond.notify_all()

    def _acceptor(self) -> None:
        """Accept peer dials; the first frame must be a valid PEER_HELLO."""
        while self.running:
            try:
                sock, _addr = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                sock.settimeout(self.cfg.timeout_ms / 1e3)
                ftype, payload = recv_frame(sock)
                if ftype != FrameType.PEER_HELLO or payload[1] != self.token:
                    sock.close()
                    continue
                peer_id = int(payload[0])
                peer_port = int(payload[2])
            except (ConnectionClosed, FrameError, OSError, socket.timeout):
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            sock.settimeout(_POLL_S)
            self._register_peer(peer_id, sock, peer_port)

    def _peer_reader(self, peer_id: int, peer: _Peer) -> None:
        """Receive DATA/ACK frames from one peer until the link dies."""
        while self.running and peer.alive:
            try:
                ftype, payload = recv_frame(peer.sock)
            except socket.timeout:
                continue
            except (ConnectionClosed, FrameError, OSError):
                peer.alive = False
                with self.cond:
                    self.cond.notify_all()
                return
            if ftype == FrameType.DATA:
                step, idx, _src, _dst, value = payload
                with self.cond:
                    if (step, idx) not in self.seen:
                        self.seen.add((step, idx))
                        self.recv_store.setdefault(step, {})[idx] = value
                    self.counters["acks_sent"] += 1
                    self.cond.notify_all()
                # always ack — duplicates from resends/reconnects included
                try:
                    with peer.send_lock:
                        send_frame(peer.sock, FrameType.ACK, (step, idx))
                except OSError:
                    peer.alive = False
                    with self.cond:
                        self.cond.notify_all()
                    return
            elif ftype == FrameType.ACK:
                step, idx = payload
                with self.cond:
                    self.acked.add((step, idx))
                    self.cond.notify_all()

    def _dial(self, peer_id: int, deadline: float) -> bool:
        """Connect to a peer (jittered exponential backoff, bounded)."""
        attempt = 0
        while self.running and time.monotonic() < deadline:
            port = self.ports.get(peer_id)
            if port is None:
                return False
            try:
                sock = socket.create_connection(
                    (self.cfg.bind_host, port), timeout=self.cfg.timeout_ms / 1e3
                )
                send_frame(
                    sock, FrameType.PEER_HELLO, (self.id, self.token, self.port)
                )
                sock.settimeout(_POLL_S)
                self._register_peer(peer_id, sock, port)
                if attempt:
                    self.counters["reconnects"] += 1
                return True
            except OSError:
                attempt += 1
                self.counters["reconnect_attempts"] += 1
                backoff = wire_backoff_ms(self.cfg, attempt) / 1e3
                time.sleep(backoff * (0.5 + self.rng.random()))
        return False

    def _peer_alive(self, peer_id: int) -> _Peer | None:
        with self.peers_lock:
            peer = self.peers.get(peer_id)
        return peer if peer is not None and peer.alive else None

    def _send_data(self, peer_id: int, frame_payload: tuple) -> bool:
        peer = self._peer_alive(peer_id)
        if peer is None:
            return False
        try:
            with peer.send_lock:
                send_frame(peer.sock, FrameType.DATA, frame_payload)
            return True
        except OSError:
            peer.alive = False
            return False

    # -- mesh establishment / repair ------------------------------------ #
    def _repair_mesh(self, gen: int, ports: dict[int, int]) -> None:
        """Apply a PEERS map: dial every peer I am responsible for
        (higher id dials lower), drop stale connections on port changes,
        then report MESH_OK when my side of the mesh is complete."""
        self.ports = dict(ports)
        # drop only connections whose *own* listen port disagrees with
        # the new map (the dead incarnation); a fresh connection the
        # respawned peer already dialed in carries the new port and must
        # survive this sweep even if it raced the PEERS frame
        with self.peers_lock:
            stale = [
                pid
                for pid, peer in self.peers.items()
                if pid in ports and peer.port != ports[pid]
            ]
            for pid in stale:
                peer = self.peers.pop(pid)
                peer.alive = False
                try:
                    peer.sock.close()
                except OSError:
                    pass
        deadline = time.monotonic() + self.cfg.timeout_ms / 1e3
        for pid in sorted(ports):
            if pid >= self.id:  # I dial lower ids; higher ids dial me
                continue
            if self._peer_alive(pid) is None:
                self._dial(pid, deadline)
        # wait for inbound dials from higher ids
        with self.cond:
            while self.running and time.monotonic() < deadline:
                missing = [
                    pid
                    for pid in ports
                    if pid != self.id and self._peer_alive(pid) is None
                ]
                if not missing:
                    break
                self.cond.wait(timeout=_POLL_S)
        missing = [
            pid for pid in ports if pid != self.id and self._peer_alive(pid) is None
        ]
        if not missing:
            self.ctl_send(FrameType.MESH_OK, (self.id, gen))
        # an incomplete mesh is reported by silence: the coordinator's
        # MESH_OK deadline converts it into that peer's failure

    # -- round execution ------------------------------------------------ #
    def _drain_counters(self) -> dict[str, int]:
        out = dict(self.counters)
        for k in self.counters:
            self.counters[k] = 0
        return out

    def _prune(self, step: int) -> None:
        """Drop per-step state older than the previous step (a committed
        step is never re-issued; the previous one may be, once)."""
        with self.cond:
            for s in [s for s in self.recv_store if s < step - 1]:
                del self.recv_store[s]
            self.seen = {(s, i) for (s, i) in self.seen if s >= step - 1}
            self.acked = {(s, i) for (s, i) in self.acked if s >= step - 1}

    def _run_round(self, payload: tuple) -> tuple[str, Any]:
        """Execute one ROUND order.  Returns ``("done", None)`` after a
        BARRIER/BARRIER_FAIL reply, or ``("superseded", frame)`` when a
        newer control frame arrived mid-wait and must be handled."""
        step, gen, _round_no, _label, sends, expect = payload
        self._prune(step)
        # a re-issued round (same step, higher gen) must resend everything:
        # a respawned receiver lost its dedup state and its payloads
        with self.cond:
            self.acked -= {(step, idx) for (idx, _s, _d, _v) in sends}
        pending: dict[int, tuple] = {}
        for idx, src, dst, value in sends:
            target = host_of(dst, self.workers)
            if target == self.id:
                with self.cond:
                    if (step, idx) not in self.seen:
                        self.seen.add((step, idx))
                        self.recv_store.setdefault(step, {})[idx] = value
                        self.counters["local_delivered"] += 1
                    self.cond.notify_all()
            else:
                pending[idx] = (target, (step, idx, src, dst, value))

        deadline = time.monotonic() + self.cfg.timeout_ms / 1e3
        attempts: dict[int, int] = {idx: 0 for idx in pending}
        next_send: dict[int, float] = {idx: 0.0 for idx in pending}
        fail: tuple[str, int | None] | None = None
        while self.running:
            # superseding control traffic (mesh repair, round re-issue,
            # shutdown) preempts the wait
            try:
                frame = self.inbox.get_nowait()
            except queue.Empty:
                frame = None
            if frame is not None:
                ftype, fpayload = frame
                if ftype == FrameType.PEERS:
                    self._repair_mesh(fpayload[0], fpayload[1])
                    # the repaired peer is a fresh process: the retry
                    # budget burned against its corpse must not condemn
                    # it — start the unacked entries' schedules over
                    with self.cond:
                        for idx in pending:
                            if (step, idx) not in self.acked:
                                attempts[idx] = 0
                                next_send[idx] = 0.0
                    deadline = time.monotonic() + self.cfg.timeout_ms / 1e3
                    continue
                return "superseded", frame

            now = time.monotonic()
            with self.cond:
                unacked = [i for i in pending if (step, i) not in self.acked]
                received = len(self.recv_store.get(step, {}))
            if not unacked and received >= expect:
                with self.cond:
                    delivered = sorted(self.recv_store.get(step, {}).items())
                self.ctl_send(
                    FrameType.BARRIER,
                    (step, gen, self.id, delivered, self._drain_counters()),
                )
                return "done", None
            if now >= deadline:
                suspect = (
                    host_of(pending[unacked[0]][1][3], self.workers)
                    if unacked
                    else None
                )
                fail = ("round deadline exceeded", suspect)
                break

            for idx in unacked:
                if now < next_send[idx]:
                    continue
                target, frame_payload = pending[idx]
                t = attempts[idx]
                if t > self.cfg.wire_retries:
                    fail = ("ack retry budget exhausted", target)
                    break
                sent = self._send_data(target, frame_payload)
                if not sent:
                    # broken link: reconnect if dialing is my duty,
                    # otherwise wait for the peer (or the coordinator's
                    # mesh repair) — the retry schedule still bounds us
                    if target < self.id:
                        self._dial(target, min(deadline, now + 1.0))
                        sent = self._send_data(target, frame_payload)
                attempts[idx] = t + 1
                if sent:
                    self.counters["data_sent"] += 1
                    if t > 0:
                        self.counters["resends"] += 1
                backoff = wire_backoff_ms(self.cfg, t + 1) / 1e3
                next_send[idx] = now + backoff * (0.75 + 0.5 * self.rng.random())
            if fail is not None:
                break
            with self.cond:
                self.cond.wait(timeout=0.02)

        if not self.running:
            return "done", None
        reason, suspect = fail if fail is not None else ("host stopping", None)
        self.ctl_send(
            FrameType.BARRIER_FAIL, (step, gen, self.id, reason, suspect)
        )
        return "done", None

    # -- main loop ------------------------------------------------------- #
    def run(self) -> None:
        # HELLO must be the first frame on the control stream — the
        # coordinator's accept loop identifies the host by it — so it
        # goes out before the heartbeat thread can race it
        self.ctl_send(
            FrameType.HELLO, (self.id, self.token, self.port, os.getpid())
        )
        threading.Thread(target=self._ctl_reader, daemon=True).start()
        threading.Thread(target=self._heartbeat, daemon=True).start()
        threading.Thread(target=self._acceptor, daemon=True).start()
        pending_frame: tuple | None = None
        while self.running:
            if pending_frame is not None:
                frame, pending_frame = pending_frame, None
            else:
                try:
                    frame = self.inbox.get(timeout=_POLL_S)
                except queue.Empty:
                    continue
            ftype, payload = frame
            if ftype == FrameType.PEERS:
                self._repair_mesh(payload[0], payload[1])
            elif ftype == FrameType.ROUND:
                state, extra = self._run_round(payload)
                if state == "superseded":
                    pending_frame = extra
            elif ftype in (FrameType.SHUTDOWN, FrameType.ABORT):
                self.running = False
        self.close()

    def close(self) -> None:
        self.running = False
        for sock in [self.listener, self.ctl] + [
            p.sock for p in list(self.peers.values())
        ]:
            try:
                sock.close()
            except OSError:
                pass


def host_main(
    host_id: int,
    coord_host: str,
    coord_port: int,
    token: str,
    cfg: TransportConfig,
    workers: int,
) -> None:
    """Process entry point (importable top-level: spawn-safe)."""
    try:
        _Host(host_id, coord_host, coord_port, token, cfg, workers).run()
    except Exception:
        # the coordinator observes death through the control EOF and
        # heartbeat staleness; a traceback on a killed host's stderr
        # would only pollute the drill output
        os._exit(1)

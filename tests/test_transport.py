"""Tests for the pluggable delivery planes (``repro.transport``).

Three layers, tested bottom-up:

1. **Framing** — the length-prefixed wire format must reassemble
   arbitrary TCP fragmentation and turn truncation/desync/garbage into
   typed errors, never hangs or mis-parses.  Pure socketpair tests.
2. **Config and resolution** — every knob is validated at construction
   and :func:`make_transport` resolves specs strictly.
3. **End-to-end over real processes** — the TCP mesh must be
   bit-identical to the in-process reference (values, rounds, messages),
   recover from a real SIGKILL/SIGSTOP of a live host mid-round within
   its respawn budget, and degrade to a *typed* abort with salvaged
   billing (never a hang, never a silent result) beyond it.
"""

import socket
import threading

import numpy as np
import pytest

import repro
from repro.model.network import LowBandwidthNetwork, NetworkError
from repro.transport import (
    LocalTransport,
    Transport,
    TransportConfig,
    make_transport,
    run_over_transport,
    values_digest,
)
from repro.transport.framing import (
    MAX_FRAME,
    ConnectionClosed,
    FrameError,
    FrameType,
    decode_value,
    encode_frame,
    encode_value,
    recv_frame,
    send_frame,
)


def small_inst(n=16, d=2, seed=3):
    rng = np.random.default_rng(seed)
    return repro.make_instance((repro.US, repro.US, repro.US), n, d, rng)


#: fast-failure knobs for the mesh tests — a bug must fail in seconds,
#: and the pause drill's detection latency is heartbeat_ms * miss_beats
FAST = dict(timeout_ms=8000.0, heartbeat_ms=50.0, miss_beats=4)


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = (3, 7, 0, 1, b"\x00\x01binary\xff")
        send_frame(a, FrameType.DATA, payload)
        ftype, got = recv_frame(b)
        assert ftype is FrameType.DATA
        assert got == payload
    finally:
        a.close()
        b.close()


def test_frame_reassembles_byte_at_a_time_fragmentation():
    a, b = socket.socketpair()
    try:
        data = encode_frame(FrameType.BARRIER, (5, 0, 2, [(1, 2)], {"retries": 0}))

        def drip():
            for i in range(len(data)):
                a.sendall(data[i : i + 1])

        t = threading.Thread(target=drip)
        t.start()
        ftype, got = recv_frame(b)
        t.join()
        assert ftype is FrameType.BARRIER
        assert got == (5, 0, 2, [(1, 2)], {"retries": 0})
    finally:
        a.close()
        b.close()


def test_frame_truncation_is_connection_closed_not_hang():
    a, b = socket.socketpair()
    try:
        data = encode_frame(FrameType.ROUND, (1, 0, 4, "phase", [], {}))
        a.sendall(data[: len(data) - 3])  # torn mid-body
        a.close()
        with pytest.raises(ConnectionClosed, match="outstanding"):
            recv_frame(b)
    finally:
        b.close()


def test_frame_bad_magic_is_typed_desync_error():
    a, b = socket.socketpair()
    try:
        a.sendall(b"XX" + encode_frame(FrameType.HEARTBEAT, (0, 1))[2:])
        with pytest.raises(FrameError, match="desynchronized"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_oversized_announcement_rejected_before_allocation():
    import struct

    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("<2sBI", b"\x9eR", int(FrameType.DATA), MAX_FRAME + 1))
        with pytest.raises(FrameError, match="MAX_FRAME"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_unknown_type_rejected():
    import struct

    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("<2sBI", b"\x9eR", 200, 0))
        with pytest.raises(FrameError, match="unknown frame type"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_value_codec_roundtrips_model_words_bit_exactly():
    words = [
        np.float64(0.1) + np.float64(0.2),
        np.int64(-(2**62)),
        float("inf"),
        (np.float64(1.5), np.int64(3)),
        True,
    ]
    for w in words:
        got = decode_value(encode_value(w))
        assert type(got) is type(w)
        assert repr(got) == repr(w)  # bit-exact, NaN-safe representation


# ---------------------------------------------------------------------- #
# Config validation and transport resolution
# ---------------------------------------------------------------------- #
def test_transport_config_rejects_bad_knobs():
    with pytest.raises(ValueError, match="workers"):
        TransportConfig(workers=0).validate()
    with pytest.raises(ValueError, match="timeout_ms"):
        TransportConfig(timeout_ms=0).validate()
    with pytest.raises(ValueError, match="heartbeat_ms"):
        TransportConfig(heartbeat_ms=-1).validate()
    with pytest.raises(ValueError, match="miss_beats"):
        TransportConfig(miss_beats=0).validate()
    with pytest.raises(ValueError, match="max_respawns"):
        TransportConfig(max_respawns=-1).validate()
    with pytest.raises(ValueError, match="wire_retries"):
        TransportConfig(wire_retries=-1).validate()
    with pytest.raises(ValueError, match="backoff"):
        TransportConfig(wire_backoff_ms=500.0, wire_backoff_cap_ms=100.0).validate()
    # liveness must be decidable before the round deadline
    with pytest.raises(ValueError, match="heartbeat"):
        TransportConfig(timeout_ms=100.0, heartbeat_ms=50.0, miss_beats=5).validate()
    TransportConfig().validate()  # defaults are coherent


def test_transport_config_from_env_reads_validated_knobs():
    cfg = TransportConfig.from_env(
        environ={
            "REPRO_TRANSPORT_TIMEOUT_MS": "9000",
            "REPRO_TRANSPORT_HEARTBEAT_MS": "75",
        }
    )
    assert cfg.timeout_ms == 9000.0
    assert cfg.heartbeat_ms == 75.0


def test_make_transport_resolution():
    assert isinstance(make_transport(None), LocalTransport)
    assert isinstance(make_transport("local"), LocalTransport)
    plane = make_transport("local")
    assert make_transport(plane) is plane
    with pytest.raises(ValueError, match="carrier-pigeon"):
        make_transport("carrier-pigeon")


def test_network_guards_wire_incompatible_modes():
    from repro.model.faults import FaultPlan

    with pytest.raises(ValueError, match="strict"):
        LowBandwidthNetwork(8, strict=True, transport="tcp")
    with pytest.raises(ValueError, match="fault_plan"):
        LowBandwidthNetwork(8, transport="tcp", fault_plan=FaultPlan(drop_rate=0.5))
    with pytest.raises(ValueError, match="fault_plan|resilience"):
        LowBandwidthNetwork(8, transport="tcp", resilience=True)


class _EchoWire(Transport):
    """Minimal wire plane: deliver_step echoes payloads in-process.

    Exercises the network's wire path (payload gather, per-round
    ``deliver_step`` calls, commit) without any sockets — the protocol's
    extension point, and the cheapest way to test wire-only guards.
    """

    name = "echo-wire"
    is_wire = True

    def __init__(self):
        self.steps = 0

    def deliver_step(self, entries, *, label, round_no):
        self.steps += 1
        return {idx: payload for idx, _src, _dst, payload in entries}


def test_columnar_phase_rejected_over_a_wire_transport():
    net = LowBandwidthNetwork(4, transport=_EchoWire())
    try:
        with pytest.raises(NetworkError, match="columnar"):
            net.exchange_columnar(
                np.array([0, 1]), np.array([1, 2]), label="col"
            )
    finally:
        net.close()


def test_custom_wire_transport_is_bit_identical_to_local():
    inst = small_inst()
    local = run_over_transport(inst, transport="local")
    plane = _EchoWire()
    out = run_over_transport(inst, transport=plane)
    assert out.ok
    assert out.transport == "echo-wire"
    assert out.values_digest == local.values_digest
    assert out.rounds == local.rounds
    assert out.messages == local.messages
    assert plane.steps > 0


# ---------------------------------------------------------------------- #
# LocalTransport reference semantics
# ---------------------------------------------------------------------- #
def test_local_transport_run_matches_plain_network():
    inst = small_inst()
    plain = repro.multiply(inst)
    out = run_over_transport(inst, transport="local")
    assert out.ok and not out.aborted
    assert out.transport == "local"
    assert out.rounds == plain.rounds
    assert out.messages == plain.messages
    # the columnar planes fold in the convergecast trees' order, so the
    # digest matches the per-message pipeline as well as the plain run
    ref = repro.multiply(inst, network=LowBandwidthNetwork(inst.n, columnar=False))
    assert out.values_digest == values_digest(ref.x) == values_digest(plain.x)
    assert inst.verify(out.result.x)


def test_values_digest_distinguishes_values_not_just_structure():
    inst = small_inst()
    res = repro.multiply(inst)
    d1 = values_digest(res.x)
    tweaked = res.x.copy()
    tweaked.data = tweaked.data.copy()
    tweaked.data[0] += 1.0
    assert values_digest(tweaked) != d1
    assert values_digest(res.x.copy()) == d1


# ---------------------------------------------------------------------- #
# SocketTransport: real processes, real sockets, real signals
# ---------------------------------------------------------------------- #
def test_tcp_mesh_bit_identical_to_local():
    inst = small_inst(n=16, d=2)
    local = run_over_transport(inst, transport="local")
    tcp = run_over_transport(
        inst, transport="tcp", config=TransportConfig(workers=3, **FAST)
    )
    assert tcp.ok and not tcp.aborted
    assert tcp.transport == "tcp"
    # the wire changes nothing the model can see
    assert tcp.values_digest == local.values_digest
    assert tcp.rounds == local.rounds
    assert tcp.messages == local.messages
    assert tcp.phase_summary == local.phase_summary
    stats = tcp.transport_stats
    assert stats["steps"] > 0
    assert stats["respawns"] == 0


def test_tcp_kill_drill_recovers_within_budget_bit_identical():
    inst = small_inst(n=16, d=2)
    local = run_over_transport(inst, transport="local")
    out = run_over_transport(
        inst,
        transport="tcp",
        config=TransportConfig(workers=3, max_respawns=1, **FAST),
        drill="kill",
        drill_after=2,
    )
    assert out.ok and not out.aborted, out.error
    assert out.values_digest == local.values_digest
    assert out.rounds == local.rounds
    stats = out.transport_stats
    assert stats["respawns"] == 1
    assert stats["round_reissues"] >= 1
    assert stats["drill"]["fired_step"] == 2
    assert stats["drill"]["kind"] == "kill"


def test_tcp_kill_drill_beyond_budget_aborts_typed_with_salvage():
    inst = small_inst(n=16, d=2)
    out = run_over_transport(
        inst,
        transport="tcp",
        config=TransportConfig(workers=3, max_respawns=0, **FAST),
        drill="kill",
        drill_after=2,
        certify=4,  # certification requested: the abort must be explicit
    )
    assert out.aborted and not out.ok
    assert out.error is not None
    assert "transport peer failure" in out.error
    assert "@ round" in out.error  # phase/round context, not a bare traceback
    assert out.certified_ok is False  # never a silent result under certify
    assert out.result is None
    # salvaged bill: the steps that completed before the kill are billed
    assert out.rounds >= 1
    assert out.messages >= 1
    assert out.phase_summary  # the partial phase is recorded, not dropped
    assert out.transport_stats["respawns"] == 0
    assert any(f["action"] == "abort" for f in out.transport_stats["faults"])


def test_tcp_pause_drill_detected_by_heartbeat_and_recovered():
    inst = small_inst(n=16, d=2)
    local = run_over_transport(inst, transport="local")
    out = run_over_transport(
        inst,
        transport="tcp",
        config=TransportConfig(workers=3, max_respawns=1, **FAST),
        drill="pause",
        drill_after=2,
    )
    assert out.ok and not out.aborted, out.error
    assert out.values_digest == local.values_digest
    assert out.transport_stats["respawns"] == 1
    # SIGSTOP leaves the control connection open: only heartbeat
    # staleness can have declared the host dead
    faults = out.transport_stats["faults"]
    assert any("heartbeat" in f["detail"] for f in faults)


def test_tcp_certification_runs_over_the_same_wire():
    inst = small_inst(n=12, d=2)
    out = run_over_transport(
        inst,
        transport="tcp",
        config=TransportConfig(workers=3, **FAST),
        certify=4,
    )
    assert out.ok and out.certified_ok
    assert out.certificate.transport == "tcp"
    assert out.certificate.rounds > 0


def test_drill_requires_a_socket_transport():
    with pytest.raises(ValueError, match="tcp"):
        run_over_transport(small_inst(), transport="local", drill="kill")

"""End-to-end execution of a multiplication over a chosen transport.

:func:`run_over_transport` is the glue the CLI (``python -m repro run
--transport=tcp``), the fault drill, and ``benchmarks/bench_transport.py``
share: build the network on the requested delivery plane, optionally arm
a *real* fault (SIGKILL/SIGSTOP of a live host process mid-round), run
the unchanged algorithm code, optionally certify the result in-model
(the distributed Freivalds certifier runs over the same wire), and fold
everything into one JSON-safe :class:`TransportRunOutcome`.

The outcome is honest about degradation: a run the transport had to
abort (respawn budget exhausted) comes back with ``aborted=True``, the
typed error text with phase/round context, and the *salvaged* bill — the
rounds and messages that completed before the peer died — instead of a
result.  When certification is requested there is no silent path at all:
either a certificate is attached (``certified_ok`` set) or the run is an
explicit abort.

``values_digest`` fingerprints the result matrix (BLAKE2b over the
canonical CSR bytes), which is how the bench asserts bit-identity of
values between :class:`~repro.transport.base.LocalTransport` and
:class:`~repro.transport.socket_mesh.SocketTransport` without shipping
matrices around.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

from repro.transport.base import Transport, TransportConfig, make_transport

__all__ = ["TransportRunOutcome", "run_over_transport", "values_digest"]


def values_digest(x) -> str:
    """BLAKE2b fingerprint of a result matrix's canonical CSR form."""
    csr = x.tocsr(copy=True)
    csr.sum_duplicates()
    csr.sort_indices()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(csr.shape).encode())
    h.update(repr(csr.dtype.str).encode())
    h.update(csr.indptr.tobytes())
    h.update(csr.indices.tobytes())
    h.update(csr.data.tobytes())
    return h.hexdigest()


@dataclass
class TransportRunOutcome:
    """What one transport-backed run did, degradation included."""

    ok: bool
    aborted: bool
    transport: str
    algorithm: str | None
    rounds: int
    messages: int
    wall_s: float
    error: str | None = None
    values_digest: str | None = None
    certified_ok: bool | None = None
    certificate: Any = None
    result: Any = None
    transport_stats: dict[str, Any] = field(default_factory=dict)
    phase_summary: dict[str, tuple[int, int]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view (drops the live result/certificate objects)."""
        out = {
            "ok": self.ok,
            "aborted": self.aborted,
            "transport": self.transport,
            "algorithm": self.algorithm,
            "rounds": self.rounds,
            "messages": self.messages,
            "wall_s": self.wall_s,
            "error": self.error,
            "values_digest": self.values_digest,
            "certified_ok": self.certified_ok,
            "transport_stats": self.transport_stats,
            "phase_summary": {k: list(v) for k, v in self.phase_summary.items()},
        }
        if self.certificate is not None:
            out["certificate"] = {
                "ok": self.certificate.ok,
                "checks_run": self.certificate.checks_run,
                "rounds": self.certificate.rounds,
                "messages": self.certificate.messages,
                "transport": self.certificate.transport,
            }
        return out


def run_over_transport(
    inst,
    *,
    algorithm: str = "auto",
    transport: "str | Transport | None" = "local",
    config: TransportConfig | None = None,
    drill: str | None = None,
    drill_after: int = 1,
    drill_host: int | None = None,
    certify: int = 0,
    certify_seed: int = 0,
    **overrides,
) -> TransportRunOutcome:
    """Run ``multiply(inst)`` over a transport and report honestly.

    ``drill`` (``"kill"``/``"pause"``) arms a real mid-round fault on a
    TCP mesh: after ``drill_after`` wire steps a live host process is
    SIGKILLed or SIGSTOPped.  ``certify=k`` runs the distributed
    Freivalds certifier (k checks) over the same network after the
    product — a faulted run therefore either recovers and certifies, or
    aborts typed; it can never return an unflagged wrong answer.

    The network (and the transport it owns) is always shut down before
    returning, success or abort — no leaked host processes.
    """
    from repro.algorithms.api import multiply
    from repro.model.network import LowBandwidthNetwork, NetworkError

    plane = make_transport(transport, config=config, **overrides)
    if drill is not None:
        if not hasattr(plane, "arm_drill"):
            raise ValueError(
                f"drill {drill!r} needs a socket transport (use --transport=tcp)"
            )
        plane.arm_drill(kind=drill, after_step=drill_after, host=drill_host)
    net = LowBandwidthNetwork(inst.n, transport=plane)
    t0 = time.perf_counter()
    try:
        try:
            result = multiply(inst, algorithm=algorithm, network=net)
        except NetworkError as exc:
            # graceful degradation: typed abort with the salvaged bill
            return TransportRunOutcome(
                ok=False,
                aborted=True,
                transport=net.transport_name,
                algorithm=None if algorithm == "auto" else algorithm,
                rounds=net.rounds,
                messages=net.messages_sent,
                wall_s=time.perf_counter() - t0,
                error=str(exc),
                certified_ok=False if certify else None,
                transport_stats=net.transport_stats(),
                phase_summary=net.phase_summary(),
            )
        certificate = None
        certified_ok = None
        if certify:
            from repro.model.certify import certify_product

            try:
                certificate = certify_product(
                    inst, net, checks=certify, seed=certify_seed
                )
                certified_ok = bool(certificate.ok)
            except NetworkError as exc:
                # the certifier itself lost its wire: still never silent
                return TransportRunOutcome(
                    ok=False,
                    aborted=True,
                    transport=net.transport_name,
                    algorithm=result.algorithm,
                    rounds=net.rounds,
                    messages=net.messages_sent,
                    wall_s=time.perf_counter() - t0,
                    error=f"certification aborted: {exc}",
                    certified_ok=False,
                    transport_stats=net.transport_stats(),
                    phase_summary=net.phase_summary(),
                )
        return TransportRunOutcome(
            ok=certified_ok if certified_ok is not None else True,
            aborted=False,
            transport=net.transport_name,
            algorithm=result.algorithm,
            rounds=result.rounds,
            messages=result.messages,
            wall_s=time.perf_counter() - t0,
            values_digest=values_digest(result.x),
            certified_ok=certified_ok,
            certificate=certificate,
            result=result,
            transport_stats=net.transport_stats(),
            phase_summary=net.phase_summary(),
        )
    finally:
        net.close()

"""Execution tracing for the low-bandwidth simulator.

:class:`TracingNetwork` records every communication phase — label, message
endpoints, schedule length — without changing semantics or round counts.
Uses: debugging algorithms round by round, auditing scheduler quality
(benchmarks/bench_scheduler.py), and producing the per-phase load reports
of :func:`phase_load_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.model.network import LowBandwidthNetwork

__all__ = ["TracingNetwork", "PhaseTrace", "phase_load_report"]


@dataclass
class PhaseTrace:
    """One recorded communication phase."""

    label: str
    src: np.ndarray
    dst: np.ndarray
    rounds: int

    @property
    def messages(self) -> int:
        """Number of point-to-point messages in the phase."""
        return int(self.src.size)

    def max_send_degree(self) -> int:
        """Largest number of messages any single computer sends."""
        remote = self.src != self.dst
        if not remote.any():
            return 0
        return int(np.bincount(self.src[remote]).max())

    def max_recv_degree(self) -> int:
        """Largest number of messages any single computer receives."""
        remote = self.src != self.dst
        if not remote.any():
            return 0
        return int(np.bincount(self.dst[remote]).max())

    def schedule_slack(self) -> float:
        """Measured rounds over the max(s, r) lower bound (>= 1.0)."""
        lower = max(self.max_send_degree(), self.max_recv_degree())
        if lower == 0:
            return 1.0
        return self.rounds / lower


class TracingNetwork(LowBandwidthNetwork):
    """A network that records every phase it executes."""

    def __init__(self, n: int, **kwargs):
        super().__init__(n, **kwargs)
        self.traces: list[PhaseTrace] = []

    def _dispatch(self, src, dst, src_keys, dst_keys, *, label, lockstep):
        """Execute the phase normally, then record it.  Every phase kind —
        scheduled, lockstep, columnar (``src_keys=None``) and ack/resend
        delivery on a network built with ``resilience`` — enters here, so
        they all trace alike.  An empty batch is no phase and leaves no
        trace."""
        used = super()._dispatch(src, dst, src_keys, dst_keys, label=label, lockstep=lockstep)
        if src.size:
            self.traces.append(
                PhaseTrace(label, np.array(src, copy=True), np.array(dst, copy=True), used)
            )
        return used


def phase_load_report(net: TracingNetwork, *, group_depth: int = 1) -> list[dict]:
    """Aggregate the trace into per-label rows: rounds, messages, degrees,
    scheduling slack — a table suitable for printing.

    ``group_depth`` controls how many ``/``-separated label components
    define a group (1 = algorithm level, 2 = sub-phase level).
    """
    by_label: dict[str, list[PhaseTrace]] = {}
    for t in net.traces:
        key = "/".join(t.label.split("/")[:group_depth])
        by_label.setdefault(key, []).append(t)
    rows = []
    for label, traces in by_label.items():
        rounds = sum(t.rounds for t in traces)
        messages = sum(t.messages for t in traces)
        slack = max((t.schedule_slack() for t in traces), default=1.0)
        rows.append(
            {
                "label": label,
                "rounds": rounds,
                "messages": messages,
                "max_send": max((t.max_send_degree() for t in traces), default=0),
                "max_recv": max((t.max_recv_degree() for t in traces), default=0),
                "worst_slack": round(slack, 3),
            }
        )
    rows.sort(key=lambda r: -r["rounds"])
    return rows

"""Tests for the tracing network, phase load reports, and the selfcheck
harness (plus the new CLI subcommands)."""

import numpy as np
import pytest

from repro.__main__ import main
from repro.algorithms.api import multiply
from repro.model.network import Message
from repro.model.tracing import PhaseTrace, TracingNetwork, phase_load_report
from repro.sparsity.families import US
from repro.supported.instance import make_instance
from repro.validation import run_selfcheck


# ------------------------------------------------------------------ #
# tracing
# ------------------------------------------------------------------ #
def test_tracing_records_phases():
    net = TracingNetwork(4)
    net.deal(0, "k", 1)
    net.exchange([Message(0, 1, "k", "k")], label="alpha")
    net.deal(2, "q", 2)
    net.exchange([Message(2, 3, "q", "q")], label="beta")
    assert [t.label for t in net.traces] == ["alpha", "beta"]
    assert all(t.rounds == 1 for t in net.traces)


def test_tracing_preserves_round_counts():
    rng = np.random.default_rng(0)
    inst = make_instance((US, US, US), 20, 3, rng)
    net = TracingNetwork(inst.n)
    res = multiply(inst, algorithm="general", network=net)
    assert inst.verify(res.x)
    assert sum(t.rounds for t in net.traces) == res.rounds
    assert sum(t.messages for t in net.traces) == res.messages


def test_phase_trace_degrees_and_slack():
    t = PhaseTrace(
        "x",
        np.array([0, 0, 1]),
        np.array([1, 2, 2]),
        rounds=3,
    )
    assert t.max_send_degree() == 2
    assert t.max_recv_degree() == 2
    assert t.schedule_slack() == pytest.approx(1.5)


def test_phase_trace_all_local():
    t = PhaseTrace("x", np.array([1, 2]), np.array([1, 2]), rounds=0)
    assert t.max_send_degree() == 0
    assert t.schedule_slack() == 1.0


def test_phase_load_report():
    rng = np.random.default_rng(1)
    inst = make_instance((US, US, US), 16, 2, rng)
    net = TracingNetwork(inst.n)
    multiply(inst, algorithm="general", network=net)
    rows = phase_load_report(net)
    assert rows
    assert all(r["worst_slack"] < 2.0 for r in rows)
    assert all(set(r) >= {"label", "rounds", "messages", "max_send", "max_recv"} for r in rows)


def test_tracing_records_lockstep_phases():
    net = TracingNetwork(8)
    net.deal(0, "v", 9)
    net.segmented_broadcast([list(range(8))], ["v"])
    assert len(net.traces) == 3  # ceil(log2 8) doubling rounds
    assert all(t.rounds == 1 for t in net.traces)


def test_tracing_skips_empty_batches():
    """An empty batch runs no phase, so it leaves no trace and no
    ``phase_load_report`` row."""
    net = TracingNetwork(4)
    empty = np.empty(0, dtype=np.int64)
    net.exchange_arrays(empty, empty, [], label="empty")
    net.exchange_columnar(empty, empty, label="empty")
    net._execute_lockstep_arrays(empty, empty, [], [], label="empty")
    assert net.traces == []
    assert phase_load_report(net) == []


def test_tracing_records_explicit_resilient_exchange():
    net = TracingNetwork(4, resilience=True)
    net.deal(0, "k", 1.0)
    net.exchange_arrays(np.array([0]), np.array([1]), ["k"], label="p")
    assert [t.label for t in net.traces] == ["p"]


# ------------------------------------------------------------------ #
# selfcheck
# ------------------------------------------------------------------ #
def test_selfcheck_all_pass():
    results = run_selfcheck(n=12, d=2, seed=0)
    assert len(results) >= 14
    bad = [r for r in results if not r.ok]
    assert not bad, bad


def test_selfcheck_cli(capsys):
    assert main(["selfcheck", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "cells passed" in out
    assert "FAIL" not in out


def test_lowerbounds_cli(capsys):
    assert main(["lowerbounds", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "Omega(log n)" in out
    assert "Theorem 6.27" in out

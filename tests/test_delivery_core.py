"""The delivery core's behaviour grid, pinned against a recorded golden.

Every communication phase of :class:`LowBandwidthNetwork` — a scheduled
``exchange_arrays`` phase, the lockstep levels of the two segmented
collectives, and the congested clique's lockstep rotations — runs through
the same delivery core.  The golden grid crosses:

* mode: strict (checked delivery) and fast;
* phase kind: ``arrays`` (fan-in, fan-out and self-messages),
  ``broadcast``, ``convergecast`` and ``clique``;
* fault plan: none, a null plan, random drops, a targeted ordinal drop,
  detected and silent corruption, duplication, a link delay and a crash;
* resilience: off, and ack/resend with ``max_retries=2`` under both
  ``on_unrecoverable`` policies;
* the fault-free fast cells once more over an in-process echo wire
  transport (``is_wire=True``).

Each cell records a digest of every memory, ``rounds``,
``messages_sent``, the phase records (label, rounds, messages, cache hit,
columnar), ``fault_counts()``, the ``dispatch_count()`` delta, and the
type and phase label of any raised error
(``tests/data/delivery_golden.json``, keyed
``"<kind>/<mode>/<plan>/<resilience>"``).

Below the grid are the edge cases it leaves out on purpose, each pinned
by its own test: the lockstep retry budget, the round reported for a
self-message that is not held, a strict network's check of a cached
schedule, and an empty lockstep batch.

Regenerate the golden (only for an intended behaviour change) with
``PYTHONPATH=src python tests/test_delivery_core.py``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

from repro.model.congested_clique import CongestedCliqueNetwork
from repro.model.faults import FaultPlan, ResilienceConfig
from repro.model.network import (
    LowBandwidthNetwork,
    Message,
    NetworkError,
    dispatch_count,
)
from repro.model.schedule_cache import ScheduleCache, phase_digest
from repro.transport.base import Transport

GOLDEN_PATH = Path(__file__).parent / "data" / "delivery_golden.json"

N = 8
SEGMENTS = [[0, 1, 2, 3, 4], [5, 6, 7]]

PLANS = {
    "none": None,
    "null": FaultPlan(),
    "drop": FaultPlan(seed=3, drop_rate=0.2),
    "ordinal": FaultPlan(drop_message_ordinals=(2,)),
    "corrupt-detected": FaultPlan(seed=5, corrupt_rate=0.3),
    "corrupt-silent": FaultPlan(seed=5, corrupt_rate=0.3, detect_corruption=False),
    "dup": FaultPlan(seed=7, dup_rate=0.3),
    "delay": FaultPlan(link_delays={(1, 0): 2, (0, 1): 1}),
    "crash": FaultPlan(crashes={3: 1}),
}
RESILIENCE = {
    "off": None,
    "raise": ResilienceConfig(max_retries=2),
    "record": ResilienceConfig(max_retries=2, on_unrecoverable="record"),
}
KINDS = ("arrays", "broadcast", "convergecast", "clique")


class _EchoWire(Transport):
    """In-process wire plane: ``deliver_step`` echoes every payload."""

    name = "echo-wire"
    is_wire = True

    def deliver_step(self, entries, *, label, round_no):
        return {idx: payload for idx, _src, _dst, payload in entries}


def _deal(net: LowBandwidthNetwork) -> None:
    """Two float words per computer, plus the collectives' operands."""
    vals = np.random.default_rng(7).standard_normal(4 * N)
    for c in range(N):
        net.deal(c, ("x", c), vals[c])
        net.deal(c, ("z", c), vals[N + c])
    for s, seg in enumerate(SEGMENTS):
        net.deal(seg[0], ("b", s), vals[2 * N + s])
        for c in seg:
            net.deal(c, ("c", s), vals[3 * N + c])


def _arrays_phase(net: LowBandwidthNetwork) -> None:
    msgs = [(s, 0, ("x", s), ("in", s)) for s in range(1, 6)]  # fan-in
    msgs += [(6, d, ("z", 6), ("from6",)) for d in (1, 2, 3)]  # fan-out
    msgs += [(2, 2, ("x", 2), ("self",)), (7, 7, ("z", 7), ("self",))]
    msgs += [(c, (c + 1) % N, ("x", c), ("ring", c)) for c in range(N)]
    src, dst, sk, dk = zip(*msgs)
    net.exchange_arrays(np.array(src), np.array(dst), list(sk), list(dk), label="route")


def _clique_phase(net: LowBandwidthNetwork) -> None:
    pairs = [
        (0, 1, "x"), (0, 1, "z"), (1, 2, "x"), (2, 0, "x"), (3, 7, "x"),
        (4, 4, "x"), (5, 3, "z"), (6, 5, "x"), (7, 6, "z"), (6, 5, "z"),
    ]
    msgs = [
        Message(s, d, (k, s), ("cc-in", k, s, i)) for i, (s, d, k) in enumerate(pairs)
    ]
    CongestedCliqueNetwork(N, lb=net).exchange(msgs, label="clique")


PHASES = {
    "arrays": _arrays_phase,
    "broadcast": lambda net: net.segmented_broadcast(
        SEGMENTS, [("b", 0), ("b", 1)], label="bcast"
    ),
    "convergecast": lambda net: net.segmented_convergecast(
        SEGMENTS, [("c", 0), ("c", 1)], operator.add, label="ccast"
    ),
    "clique": _clique_phase,
}


def _word(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


def memory_digest(net: LowBandwidthNetwork) -> str:
    """Digest of every computer's (key, word) pairs, order-independent."""
    h = hashlib.blake2b(digest_size=16)
    for c, mem in enumerate(net.mem):
        items = sorted((repr(k), _word(v)) for k, v in mem.items())
        h.update(repr((c, items)).encode())
    return h.hexdigest()


def _error_label(exc: Exception) -> str | None:
    m = re.match(r"\[(.+?) @ round -?\d+\]", str(exc))
    return m.group(1) if m else None


def run_cell(kind: str, mode: str, plan: str, res: str) -> dict:
    """Run one phase kind on a fresh network and record what it did."""
    kwargs = {"fault_plan": PLANS[plan], "resilience": RESILIENCE[res]}
    if mode == "strict":
        kwargs["strict"] = True
    else:
        kwargs["schedule_cache"] = ScheduleCache()  # hits depend on this cell only
    if mode == "wire":
        kwargs["transport"] = _EchoWire()
    net = LowBandwidthNetwork(N, **kwargs)
    _deal(net)
    before = dispatch_count()
    error = None
    try:
        PHASES[kind](net)
    except (NetworkError, ValueError) as exc:  # a typed failure is part of the cell
        error = [type(exc).__name__, _error_label(exc)]
    finally:
        net.close()
    return {
        "memory": memory_digest(net),
        "rounds": net.rounds,
        "messages": net.messages_sent,
        "phases": [
            [p.label, p.rounds, p.messages, p.cache_hit, p.columnar] for p in net.phases
        ],
        "faults": net.fault_counts(),
        "dispatches": dispatch_count() - before,
        "error": error,
    }


def cells() -> list[tuple[str, str, str, str]]:
    grid = [
        (kind, mode, plan, res)
        for kind in KINDS
        for mode in ("strict", "fast")
        for plan in PLANS
        for res in RESILIENCE
    ]
    return grid + [(kind, "wire", "none", "off") for kind in KINDS]


def cell_key(kind, mode, plan, res) -> str:
    return f"{kind}/{mode}/{plan}/{res}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "kind,mode,plan,res", cells(), ids=[cell_key(*c) for c in cells()]
)
def test_golden_cell(golden, kind, mode, plan, res):
    assert run_cell(kind, mode, plan, res) == golden[cell_key(kind, mode, plan, res)]


def test_golden_covers_every_cell(golden):
    assert set(golden) == {cell_key(*c) for c in cells()}


def test_golden_grid_exercises_faults_and_errors(golden):
    """The grid is only a net if it catches something: faults fire,
    retries run, and some cells end in a typed error."""
    rows = golden.values()
    assert any(r["error"] is not None for r in rows)
    assert any(r["error"] is None and r["faults"] and r["faults"]["resent_messages"] for r in rows)
    assert any(any("/retry" in p[0] for p in r["phases"]) for r in rows)
    assert any(any(p[3] for p in r["phases"]) for r in rows)  # a cache hit


# --------------------------------------------------------------------- #
# Edge cases the grid leaves out
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("strict", [False, True])
def test_lockstep_collective_honours_zero_retry_budget(strict):
    """With ``max_retries=0`` a lost word in a lockstep level is
    unrecoverable after the first attempt, as in a scheduled exchange:
    no ``/retry1`` phase, nothing resent."""
    plan = FaultPlan(drop_message_ordinals=(0,))
    budget = ResilienceConfig(max_retries=0)
    net = LowBandwidthNetwork(4, strict=strict, fault_plan=plan, resilience=budget)
    net.deal(0, "k", 1.0)
    with pytest.raises(NetworkError, match=r"unrecoverable after 1 delivery attempt\(s\)"):
        net.segmented_broadcast([[0, 1, 2, 3]], ["k"], label="broadcast")
    assert not any("/retry" in p.label for p in net.phases)
    assert net.fault_counts()["resent_messages"] == 0

    ref = LowBandwidthNetwork(4, strict=strict, fault_plan=plan, resilience=budget)
    ref.deal(0, "k", 1.0)
    with pytest.raises(NetworkError, match=r"unrecoverable after 1 delivery attempt\(s\)"):
        ref.exchange_arrays(np.array([0]), np.array([1]), ["k"], label="broadcast")


@pytest.mark.parametrize("strict", [False, True])
def test_self_message_not_held_reports_phase_round(strict):
    """A self-message costs no round, but its possession error names the
    round the phase starts in, not the one before it."""
    net = LowBandwidthNetwork(3, strict=strict)
    net.deal(0, "a", 1.0)
    net.exchange_arrays(np.array([0]), np.array([1]), ["a"], label="warm")
    assert net.rounds == 1
    with pytest.raises(NetworkError, match=r"^\[self @ round 1\] computer 2 cannot send 'ghost'"):
        net.exchange_arrays(np.array([2]), np.array([2]), ["ghost"], label="self")


def test_strict_mode_rejects_a_forged_cached_schedule_typed():
    """A strict network re-checks one-in/one-out on schedules it reads
    from a cache: a forged entry fails as a ``NetworkError`` carrying the
    phase label and round, not as a bare ``ValueError``."""
    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([3, 3, 3], dtype=np.int64)
    cache = ScheduleCache()
    cache.merge({phase_digest(src, dst): np.zeros(3, dtype=np.int64)})
    net = LowBandwidthNetwork(4, strict=True, schedule_cache=cache)
    for c in range(3):
        net.deal(c, "v", float(c))
    with pytest.raises(NetworkError, match=r"^\[fan-in @ round 0\] .*receives two"):
        net.exchange_arrays(src, dst, ["v"] * 3, [("v", 0), ("v", 1), ("v", 2)], label="fan-in")


@pytest.mark.parametrize("strict", [False, True])
def test_empty_lockstep_batch_bills_nothing(strict):
    """An empty lockstep batch is as free as an empty exchange: no round,
    no phase record, no dispatch."""
    net = LowBandwidthNetwork(4, strict=strict)
    empty = np.empty(0, dtype=np.int64)
    before = dispatch_count()
    assert net._execute_lockstep([], label="none") == 0
    assert net._execute_lockstep_arrays(empty, empty, [], [], label="none") == 0
    assert net.exchange_arrays(empty, empty, [], label="none") == 0
    assert dispatch_count() == before
    assert (net.rounds, net.messages_sent, net.phases) == (0, 0, [])


if __name__ == "__main__":
    rows = sorted((cell_key(*c), run_cell(*c)) for c in cells())
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in rows)
        + "\n}\n"
    )
    print(f"wrote {GOLDEN_PATH}")

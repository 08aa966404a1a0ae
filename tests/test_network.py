"""Tests for the low-bandwidth network engine: round counting, model-rule
enforcement, collectives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import LowBandwidthNetwork, Message, NetworkError


def fresh(n, strict=True):
    return LowBandwidthNetwork(n, strict=strict)


# --------------------------------------------------------------------- #
# memory / provenance
# --------------------------------------------------------------------- #
def test_deal_read_roundtrip():
    net = fresh(4)
    net.deal(2, ("A", 0, 0), 1.5)
    assert net.read(2, ("A", 0, 0)) == 1.5
    assert net.holds(2, ("A", 0, 0))
    assert not net.holds(1, ("A", 0, 0))


def test_read_missing_raises():
    net = fresh(2)
    with pytest.raises(NetworkError):
        net.read(0, "nope")


def test_strict_write_requires_provenance():
    net = fresh(2)
    net.deal(0, "x", 1.0)
    net.write(0, "y", 2.0, provenance=("x",))  # fine
    with pytest.raises(NetworkError):
        net.write(1, "y", 2.0, provenance=("x",))  # computer 1 lacks x


def test_fast_mode_skips_provenance_check():
    net = fresh(2, strict=False)
    net.write(1, "y", 2.0, provenance=("x",))
    assert net.read(1, "y") == 2.0


# --------------------------------------------------------------------- #
# exchange
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("strict", [True, False])
def test_exchange_moves_value_and_counts_rounds(strict):
    net = fresh(3, strict=strict)
    net.deal(0, "k", 42)
    used = net.exchange([Message(0, 2, "k", "k2")])
    assert used == 1
    assert net.rounds == 1
    assert net.read(2, "k2") == 42


@pytest.mark.parametrize("strict", [True, False])
def test_exchange_fan_in_rounds(strict):
    net = fresh(6, strict=strict)
    for c in range(5):
        net.deal(c, ("v", c), c)
    msgs = [Message(c, 5, ("v", c), ("v", c)) for c in range(5)]
    used = net.exchange(msgs)
    assert used == 5
    for c in range(5):
        assert net.read(5, ("v", c)) == c


def test_exchange_unowned_value_raises():
    net = fresh(2, strict=True)
    with pytest.raises(NetworkError):
        net.exchange([Message(0, 1, "ghost", "ghost")])


def test_exchange_unowned_value_raises_fast_mode():
    net = fresh(2, strict=False)
    with pytest.raises(NetworkError):
        net.exchange([Message(0, 1, "ghost", "ghost")])


def test_strict_rejects_array_payload():
    net = fresh(2, strict=True)
    net.deal(0, "arr", np.zeros(5))
    with pytest.raises(NetworkError):
        net.exchange([Message(0, 1, "arr", "arr")])


def test_out_of_range_endpoint():
    net = fresh(2)
    net.deal(0, "k", 1)
    with pytest.raises(NetworkError):
        net.exchange([Message(0, 5, "k", "k")])


def test_empty_exchange_costs_nothing():
    net = fresh(2)
    assert net.exchange([]) == 0
    assert net.rounds == 0


@pytest.mark.parametrize("strict", [True, False])
def test_exchange_arrays_form(strict):
    net = fresh(4, strict=strict)
    for c in range(3):
        net.deal(c, ("x", c), 10 * c)
    net.exchange_arrays(
        np.array([0, 1, 2]),
        np.array([3, 3, 3]),
        [("x", 0), ("x", 1), ("x", 2)],
    )
    assert [net.read(3, ("x", c)) for c in range(3)] == [0, 10, 20]


def test_modes_agree_on_rounds():
    rng = np.random.default_rng(7)
    msgs = []
    values = {}
    for t in range(60):
        s, d = rng.integers(0, 10, size=2)
        key = ("m", t)
        values[key] = t
        msgs.append(Message(int(s), int(d), key, ("out", t)))
    results = []
    for strict in (True, False):
        net = fresh(10, strict=strict)
        for m in msgs:
            net.deal(m.src, m.src_key, values[m.src_key])
        net.exchange(msgs)
        results.append(net.rounds)
    assert results[0] == results[1]


# --------------------------------------------------------------------- #
# segmented broadcast / convergecast
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("seg_len", [1, 2, 3, 5, 8, 13])
def test_segmented_broadcast_rounds_and_delivery(strict, seg_len):
    net = fresh(seg_len, strict=strict)
    net.deal(0, "v", 99)
    used = net.segmented_broadcast([list(range(seg_len))], ["v"])
    assert used == (0 if seg_len <= 1 else math.ceil(math.log2(seg_len)))
    for c in range(seg_len):
        assert net.read(c, "v") == 99


@pytest.mark.parametrize("strict", [True, False])
def test_parallel_segments_share_rounds(strict):
    net = fresh(16, strict=strict)
    segs = [list(range(0, 8)), list(range(8, 16))]
    net.deal(0, "a", 1)
    net.deal(8, "b", 2)
    used = net.segmented_broadcast(segs, ["a", "b"])
    assert used == 3  # ceil(log2(8)) rounds for both segments in parallel
    assert net.read(7, "a") == 1
    assert net.read(15, "b") == 2


def test_overlapping_segments_rejected_strict():
    net = fresh(4, strict=True)
    net.deal(0, "a", 1)
    net.deal(1, "b", 2)
    with pytest.raises(NetworkError):
        net.segmented_broadcast([[0, 1], [1, 2]], ["a", "b"])


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("seg_len", [1, 2, 3, 4, 7, 9])
def test_segmented_convergecast_sums(strict, seg_len):
    net = fresh(seg_len, strict=strict)
    for c in range(seg_len):
        net.deal(c, "v", float(c + 1))
    used = net.segmented_convergecast(
        [list(range(seg_len))], ["v"], combine=lambda a, b: a + b
    )
    assert net.read(0, "v") == sum(range(1, seg_len + 1))
    assert used == (0 if seg_len <= 1 else math.ceil(math.log2(seg_len)))


@pytest.mark.parametrize("strict", [True, False])
def test_convergecast_multiple_segments(strict):
    net = fresh(10, strict=strict)
    for c in range(10):
        net.deal(c, "v", 1)
    segs = [list(range(0, 4)), list(range(4, 10))]
    net.segmented_convergecast(segs, ["v", "v"], combine=lambda a, b: a + b)
    assert net.read(0, "v") == 4
    assert net.read(4, "v") == 6


def test_phase_summary_aggregation():
    net = fresh(3)
    net.deal(0, "k", 1)
    net.exchange([Message(0, 1, "k", "k")], label="routeA")
    net.deal(0, "q", 2)
    net.exchange([Message(0, 2, "q", "q")], label="routeA")
    summary = net.phase_summary()
    assert summary["routeA"] == (2, 2)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_broadcast_convergecast_roundtrip_property(seg_len, value):
    net = fresh(seg_len, strict=True)
    net.deal(0, "v", value)
    net.segmented_broadcast([list(range(seg_len))], ["v"])
    # everyone multiplies by 1 locally then convergecast-sum gives len * value
    net.segmented_convergecast(
        [list(range(seg_len))], ["v"], combine=lambda a, b: a + b
    )
    assert net.read(0, "v") == value * seg_len


# --------------------------------------------------------------------- #
# one phase entry for ack/resend delivery
# --------------------------------------------------------------------- #
def test_resilient_exchange_counts_one_dispatch_per_phase():
    """On a network built with ``resilience=``, the ack/resend protocol
    runs inside the network's phase entry: one dispatch per phase
    (however many attempts and acks it bills), none for an empty batch."""
    from repro.model.faults import FaultPlan, ResilienceConfig
    from repro.model.network import dispatch_count

    net = LowBandwidthNetwork(
        4,
        fault_plan=FaultPlan(drop_rate=0.3, seed=3),
        resilience=ResilienceConfig(max_retries=20),
    )
    for c in range(4):
        net.deal(c, "x", float(c))
    before = dispatch_count()
    net.exchange_arrays(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]), ["x"] * 4, ["y"] * 4)
    assert dispatch_count() - before == 1
    assert net.fault_counts()["retry_phases"] > 0  # more than one attempt ran
    assert [net.read(c, "y") for c in range(4)] == [3.0, 0.0, 1.0, 2.0]
    empty = np.empty(0, dtype=np.int64)
    assert net.exchange_arrays(empty, empty, [], label="none") == 0
    assert dispatch_count() - before == 1


def test_resilient_exchange_shares_the_entry_checks():
    net = LowBandwidthNetwork(4, resilience=True)
    net.deal(0, "k", 1.0)
    with pytest.raises(ValueError, match="lengths differ"):
        net.exchange_arrays(np.array([0, 1]), np.array([1]), ["k", "k"])
    with pytest.raises(NetworkError, match=r"\[p @ round 0\] columnar delivery .*keys"):
        net.exchange_arrays(np.array([0]), np.array([1]), None, label="p")

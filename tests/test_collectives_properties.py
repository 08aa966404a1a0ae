"""Property-based tests for the collective primitives: random disjoint
segment structures, random values, random combine operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.collectives import (
    all_reduce,
    broadcast_tree_rounds,
    prefix_scan,
)
from repro.model.network import LowBandwidthNetwork


@st.composite
def disjoint_segments(draw):
    """A random partition of 0..n-1 into contiguous disjoint segments."""
    n = draw(st.integers(min_value=1, max_value=40))
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=max(n - 1, 1)),
                max_size=min(8, n - 1) if n > 1 else 0,
            )
        )
    )
    bounds = [0] + cuts + [n]
    segments = [list(range(a, b)) for a, b in zip(bounds, bounds[1:]) if b > a]
    return n, segments


@given(disjoint_segments(), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_segmented_broadcast_delivers_everywhere(params, base):
    n, segments = params
    net = LowBandwidthNetwork(n, strict=True)
    keys = []
    for idx, seg in enumerate(segments):
        key = ("v", idx)
        net.deal(seg[0], key, base + idx)
        keys.append(key)
    used = net.segmented_broadcast(segments, keys)
    for idx, seg in enumerate(segments):
        for comp in seg:
            assert net.read(comp, ("v", idx)) == base + idx
    max_len = max(len(s) for s in segments)
    assert used == broadcast_tree_rounds(max_len)


@given(disjoint_segments(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_segmented_convergecast_sums(params, seed):
    n, segments = params
    rng = np.random.default_rng(seed)
    net = LowBandwidthNetwork(n, strict=True)
    values = rng.integers(0, 100, size=n)
    keys = []
    for idx, seg in enumerate(segments):
        key = ("v", idx)
        for comp in seg:
            net.deal(comp, key, int(values[comp]))
        keys.append(key)
    net.segmented_convergecast(segments, keys, combine=lambda a, b: a + b)
    for idx, seg in enumerate(segments):
        assert net.read(seg[0], ("v", idx)) == int(values[seg].sum())


@given(st.integers(1, 40), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_all_reduce_property(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-50, 50, size=n)
    net = LowBandwidthNetwork(n, strict=True)
    for c in range(n):
        net.deal(c, "v", int(values[c]))
    used = all_reduce(net, "v", lambda a, b: a + b)
    for c in range(n):
        assert net.read(c, "v") == int(values.sum())
    if n > 1:
        assert used <= 2 * math.ceil(math.log2(n))


@given(st.integers(2, 32), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_prefix_scan_property(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 9, size=n)
    net = LowBandwidthNetwork(n, strict=True)
    for c in range(n):
        net.deal(c, "v", int(values[c]))
    prefix_scan(net, "v", lambda a, b: a + b)
    for c in range(1, n):
        assert net.read(c, ("v", "prefix")) == int(values[:c].sum())

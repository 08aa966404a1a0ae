"""The NumPy kernels of `repro.model._kernels`.

The determinism contract says the segment sums agree with ``np.add.at``
*bit-for-bit*, not approximately: delivery feeds the verified products.
"""

from __future__ import annotations

import numpy as np

from repro.model import _kernels
from repro.model.network import LowBandwidthNetwork


def test_segment_sum_matches_add_at_bitwise():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1000)
    seg = rng.integers(0, 37, 1000).astype(np.int64)
    expected = np.zeros(37)
    np.add.at(expected, seg, values)
    out = np.zeros(37)
    ret = _kernels.segment_sum_f8(values, seg, out)
    assert ret is out
    assert out.tobytes() == expected.tobytes()


def test_segment_sum_int64_plane():
    values = np.arange(50, dtype=np.int64) * 3 - 40
    seg = (np.arange(50, dtype=np.int64) * 7) % 11
    expected = np.zeros(11, dtype=np.int64)
    np.add.at(expected, seg, values)
    out = np.zeros(11, dtype=np.int64)
    _kernels.segment_sum_f8(values, seg, out)
    assert np.array_equal(out, expected)


def test_segment_offsets_enumeration():
    counts = np.array([3, 0, 2, 5, 1], dtype=np.int64)
    total = int(counts.sum())
    seg, off = _kernels.segment_offsets(counts, total)
    assert np.array_equal(seg, np.repeat(np.arange(5, dtype=np.int64), counts))
    for g in range(counts.size):
        assert np.array_equal(off[seg == g], np.arange(counts[g], dtype=np.int64))


def test_kernel_info_keeps_the_recorded_keys():
    """Bench artifacts record ``kernel_info()`` (the perfbench host
    fingerprint, ``engine_info()``) and print its ``note``."""
    info = _kernels.kernel_info()
    assert info["backend"] == "numpy"
    assert isinstance(info["note"], str) and info["note"]
    assert LowBandwidthNetwork(2).engine_info()["kernels"] == info

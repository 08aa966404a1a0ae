"""Parity and selection tests for the optional compiled kernels.

`repro.model._kernels` ships two backends behind one API: a Numba-JIT
path and the pure-NumPy reference.  The determinism contract says they
agree *bit-for-bit*, not approximately — schedules feed the round counts
the paper's tables are built from, and delivery feeds the verified
products.  These tests pin that contract over golden multigraphs and a
real end-to-end multiply, and pin the ``REPRO_KERNELS`` selection logic
(including the documented silent fallback when Numba is absent — the
normal configuration on CI and in this container).

The interpreted body of each kernel *is* the compiled body
(``force_python=True`` runs the same function without ``njit``), so the
parity assertions here are meaningful even on hosts without Numba.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.envconfig import EnvConfigError, env_kernels
from repro.model import _kernels
from repro.model.scheduling import _first_fit_reference, greedy_two_sided_schedule


@pytest.fixture
def fresh_backend(monkeypatch):
    """Reset the memoized backend around tests that flip ``REPRO_KERNELS``."""
    _kernels.reset_backend()
    yield monkeypatch
    _kernels.reset_backend()


def _golden_multigraphs():
    """Deterministic message multigraphs covering the scheduling regimes:
    balanced, dense (repeated pairs, the shape the run-collapsed path
    takes), fan-in, fan-out, and duplicates."""
    rng = np.random.default_rng(20240608)
    shapes = [(5, 7, 60), (16, 16, 256), (3, 40, 120), (25, 4, 200), (2, 2, 64)]
    cases = []
    for n_send, n_recv, m in shapes:
        s = rng.integers(0, n_send, m).astype(np.int64)
        d = rng.integers(0, n_recv, m).astype(np.int64)
        order = np.lexsort((d, s))
        cases.append((s[order], d[order], n_send, n_recv))
    return cases


def test_first_fit_words_matches_reference_bit_for_bit():
    for s, d, n_send, n_recv in _golden_multigraphs():
        bound = int(np.bincount(s).max() + np.bincount(d).max() - 1)
        ref = _first_fit_reference(s, d)
        interpreted = _kernels.first_fit_words(
            s, d, n_send, n_recv, bound, force_python=True
        )
        assert interpreted.dtype == np.int64
        assert np.array_equal(interpreted, ref)
        # the greedy bound is honoured, not merely approached
        assert interpreted.max() < bound or bound == 0
        # active-backend path: numpy fallback here, compiled when the
        # ``perf`` extra is installed — either way, same bytes
        active = _kernels.first_fit_words(s, d, n_send, n_recv, bound)
        assert np.array_equal(active, ref)


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


def test_env_kernels_accepts_choices_and_rejects_garbage(monkeypatch):
    for choice in ("auto", "numba", "numpy", " NumPy "):
        monkeypatch.setenv("REPRO_KERNELS", choice)
        assert env_kernels() == choice.strip().lower()
    monkeypatch.delenv("REPRO_KERNELS")
    assert env_kernels() == "auto"
    monkeypatch.setenv("REPRO_KERNELS", "fast")
    with pytest.raises(EnvConfigError, match="REPRO_KERNELS"):
        env_kernels()


def test_backend_selection_and_silent_fallback_note(fresh_backend):
    fresh_backend.setenv("REPRO_KERNELS", "numpy")
    _kernels.reset_backend()
    assert _kernels.backend() == "numpy"
    info = _kernels.kernel_info()
    assert info["requested"] == "numpy"
    assert info["backend"] == "numpy"
    assert info["note"]  # the artifact line is always present

    fresh_backend.setenv("REPRO_KERNELS", "numba")
    _kernels.reset_backend()
    info = _kernels.kernel_info()
    if info["numba_available"]:
        assert info["backend"] == "numba"
        assert _kernels.first_fit_available()
    else:
        # the documented *silent* fallback: no raise, honest note
        assert info["backend"] == "numpy"
        assert "fell back" in info["note"]
        assert not _kernels.first_fit_available()


def test_schedule_and_delivery_identical_across_backend_requests(fresh_backend):
    """End-to-end: a two-phase multiply under ``REPRO_KERNELS=numpy`` and
    under ``auto`` yields byte-identical schedules and delivered values."""
    from repro.algorithms.twophase import multiply_two_phase
    from repro.supported.instance import make_hard_instance

    src = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.int64)
    dst = np.array([1, 2, 0, 2, 0, 1, 0, 1], dtype=np.int64)

    outcomes = []
    for requested in ("numpy", "auto"):
        fresh_backend.setenv("REPRO_KERNELS", requested)
        _kernels.reset_backend()
        rounds = greedy_two_sided_schedule(src, dst)
        inst = make_hard_instance(32, 4, np.random.default_rng(99))
        res = multiply_two_phase(inst)
        outcomes.append((rounds.tobytes(), res.rounds, res.x.toarray().tobytes()))
    assert outcomes[0] == outcomes[1]

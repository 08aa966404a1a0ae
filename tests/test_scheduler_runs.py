"""Run-collapsed first-fit against the reference loop, byte for byte.

:func:`repro.model.scheduling._first_fit_runs` schedules a lexsorted
phase one ``(src, dst)`` run at a time: each run takes the ``k`` lowest
zero bits of its endpoints' union (the run lemma in the scheduling
module's docstring).  These tests call it directly.

* **properties** — phases drawn as runs with lengths biased to 1–40:
  single-run phases, all-length-1 phases, multi-word bounds, bounds above
  ``2**14`` and self-messages.  The run path and
  :func:`_first_fit_reference` must agree byte for byte, and the makespan
  must stay within ``s + r - 1``;
* **golden phases** — every scheduled phase of two Table-1-shaped cells
  ([US:US:AS] ``two_phase`` n=64 d=16 and hard ``naive`` n=64 d=8) must
  reproduce the assignment digests in ``tests/data/scheduler_runs_golden.json``,
  recorded from the reference scheduler.  ``python tests/test_scheduler_runs.py``
  rewrites that file from the reference scheduler.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.api import multiply
from repro.model import network as network_mod
from repro.model import scheduling
from repro.model.network import LowBandwidthNetwork
from repro.model.scheduling import (
    _first_fit_reference,
    _first_fit_runs,
    _runs,
    greedy_two_sided_schedule,
    schedule_makespan,
    validate_schedule,
)
from repro.sparsity.families import AS, US
from repro.supported.instance import make_hard_instance, make_instance

GOLDEN_PATH = Path(__file__).parent / "data" / "scheduler_runs_golden.json"

#: run lengths biased to 1-40, with extra weight on 1 and on short runs
RUN_LENGTHS = st.one_of(st.just(1), st.integers(1, 4), st.integers(1, 40))


@st.composite
def run_phases(
    draw, shape=st.sampled_from(["mixed", "dense", "single", "unit"]), lengths=RUN_LENGTHS, max_ends=12
):
    """A lexsorted phase as runs: ``(run_src, run_dst, run_len, n_send,
    n_recv)``.  ``dense`` has a run for every pair of a few endpoints, so
    unions are fragmented; ``single`` is one run; ``unit`` has every run of
    length 1."""
    kind = draw(shape)
    n_send = draw(st.integers(1, 5 if kind == "dense" else max_ends))
    n_recv = draw(st.integers(1, 5 if kind == "dense" else max_ends))
    if kind == "dense":
        pairs = [(a, b) for a in range(n_send) for b in range(n_recv)]
    else:
        pair = st.tuples(st.integers(0, n_send - 1), st.integers(0, n_recv - 1))
        size = 1 if kind == "single" else 60
        pairs = sorted(draw(st.lists(pair, min_size=1, max_size=size, unique=True)))
    run_len = [1 if kind == "unit" else draw(lengths) for _ in pairs]
    return (
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
        np.array(run_len, dtype=np.int64),
        n_send,
        n_recv,
    )


def _check_runs(run_src, run_dst, run_len, n_send, n_recv):
    """The run path equals the reference on the expanded phase, and
    honours the greedy bound."""
    s = np.repeat(run_src, run_len)
    d = np.repeat(run_dst, run_len)
    ref = _first_fit_reference(s, d)
    got = _first_fit_runs(run_src, run_dst, run_len, n_send, n_recv)
    assert got.dtype == np.int64
    assert got.tobytes() == ref.tobytes()
    bound = int(np.bincount(s).max() + np.bincount(d).max() - 1)
    assert schedule_makespan(got) <= bound
    validate_schedule(s, d + n_send, got)  # disjoint id spaces: every message is remote
    return bound


@settings(max_examples=120, deadline=None)
@given(run_phases())
def test_run_path_matches_reference(phase):
    _check_runs(*phase)


def test_runs_encode_the_lexsorted_phase():
    s = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
    d = np.array([3, 3, 4, 3, 3, 3], dtype=np.int64)
    run_src, run_dst, run_len = _runs(s, d)
    assert run_src.tolist() == [0, 0, 1, 2]
    assert run_dst.tolist() == [3, 4, 3, 3]
    assert run_len.tolist() == [2, 1, 2, 1]


def test_run_path_single_run_and_unit_runs():
    # one run of k: rounds 0..k-1
    assert _first_fit_runs(np.array([0]), np.array([0]), np.array([7]), 1, 1).tolist() == list(
        range(7)
    )
    # a perfect matching of unit runs: all in round 0
    ids = np.arange(5, dtype=np.int64)
    assert _first_fit_runs(ids, ids[::-1].copy(), np.ones(5, dtype=np.int64), 5, 5).tolist() == [0] * 5


def test_run_path_multiword_bound():
    """A bound above 64 rounds: the masks span several words."""
    run_src = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    run_dst = np.array([0, 1, 0, 1, 1], dtype=np.int64)
    run_len = np.array([30, 40, 35, 25, 20], dtype=np.int64)
    bound = _check_runs(run_src, run_dst, run_len, 3, 2)
    assert bound > 64


@settings(max_examples=8, deadline=None)
@given(
    run_phases(
        shape=st.just("mixed"),
        lengths=st.one_of(st.integers(1, 40), st.integers(2000, 9000)),
        max_ends=3,
    )
)
def test_run_path_huge_bounds(phase):
    """Bounds far past ``2**14`` rounds."""
    _check_runs(*phase)


def test_run_path_bound_above_two_to_the_14():
    run_src = np.array([0, 0, 1, 1], dtype=np.int64)
    run_dst = np.array([0, 1, 0, 1], dtype=np.int64)
    run_len = np.array([9000, 1, 8000, 9000], dtype=np.int64)
    assert _check_runs(run_src, run_dst, run_len, 2, 2) > 1 << 14


def test_run_path_memory_follows_the_runs_not_the_makespan():
    """A run-heavy phase with a bound above ``2**14``: the run path keeps
    each run's rounds relative to its first, so it allocates no more than
    the reference loop on the same phase.  (Masks padded to the phase's
    makespan took about twice the reference's peak here.)"""
    rng = np.random.default_rng(3)
    n_send, n_recv, per = 8, 1024, 800
    run_src = np.repeat(np.arange(n_send), per)
    run_dst = np.concatenate(
        [np.sort(rng.choice(n_recv, per, replace=False)) for _ in range(n_send)]
    )
    run_len = rng.integers(1, 41, run_src.size)
    src, dst = np.repeat(run_src, run_len), np.repeat(run_dst, run_len)
    results, peaks = [], []
    for run in (
        lambda: _first_fit_runs(run_src, run_dst, run_len, n_send, n_recv),
        lambda: _first_fit_reference(src, dst),
    ):
        tracemalloc.start()
        try:
            results.append(run())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0].tobytes() == results[1].tobytes()
    assert np.bincount(src).max() + np.bincount(dst).max() - 1 > 1 << 14
    assert peaks[0] <= peaks[1], peaks


@settings(max_examples=60, deadline=None)
@given(run_phases(), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_greedy_schedule_with_self_messages(phase, seed, n_self):
    """Through the public entry: shuffled message order plus
    self-messages, which take round -1 and never enter first-fit."""
    run_src, run_dst, run_len, n_send, n_recv = phase
    rng = np.random.default_rng(seed)
    src = np.concatenate([np.repeat(run_src, run_len), rng.integers(0, 12, n_self)])
    dst = np.concatenate([np.repeat(run_dst, run_len), src[src.size - n_self :]])
    perm = rng.permutation(src.size)
    src, dst = src[perm], dst[perm]
    ref = greedy_two_sided_schedule(src, dst, method="reference")
    for method in ("vectorized", "auto"):
        assert greedy_two_sided_schedule(src, dst, method=method).tobytes() == ref.tobytes()
    assert (ref[src == dst] == -1).all()
    remote = src != dst
    if remote.any():
        idx = np.lexsort((dst[remote], src[remote]))
        direct = _first_fit_runs(*_runs(src[remote][idx], dst[remote][idx]), 12, 12)
        assert direct.tobytes() == ref[remote][idx].tobytes()


@settings(max_examples=40, deadline=None)
@given(run_phases(), st.integers(0, 2**32 - 1), st.sampled_from([-(10**12), -7, 10**12]))
def test_vectorized_order_on_sparse_and_negative_ids(phase, seed, offset):
    """The vectorized path numbers endpoints densely before its keyed
    sort; ids far apart or below zero must schedule exactly as their
    ranks do."""
    run_src, run_dst, run_len, _n_send, _n_recv = phase
    rng = np.random.default_rng(seed)
    perm = rng.permutation(int(run_len.sum()))
    src = np.repeat(run_src, run_len)[perm]
    dst = np.repeat(run_dst, run_len)[perm]
    expected = greedy_two_sided_schedule(src, dst, method="reference")
    spread = offset + src * 10**6, offset + dst * 10**6 + 1  # no self-messages
    far = greedy_two_sided_schedule(*spread, method="vectorized")
    assert far.tobytes() == greedy_two_sided_schedule(*spread, method="reference").tobytes()
    shifted = greedy_two_sided_schedule(src + offset, dst + offset, method="vectorized")
    assert shifted.tobytes() == expected.tobytes()


# --------------------------------------------------------------------- #
# golden Table-1-shaped phases
# --------------------------------------------------------------------- #
CELLS = {
    "two_phase/US:US:AS/n64/d16": ("two_phase", "US:US:AS", 64, 16),
    "naive/hard/n64/d8": ("naive", "hard", 64, 8),
}
SEED = 16


def capture_phases(algorithm: str, family: str, n: int, d: int) -> list:
    """Every ``(src, dst)`` phase the cell schedules, in order (no
    schedule cache, so each phase is computed)."""
    rng = np.random.default_rng(SEED)
    if family == "hard":
        inst = make_hard_instance(n, d, rng)
    else:
        inst = make_instance((US, US, AS), n, d, rng)
    phases = []
    real = network_mod.greedy_two_sided_schedule

    def record(src, dst, *, method="auto"):
        phases.append((np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)))
        return real(src, dst, method=method)

    network_mod.greedy_two_sided_schedule = record
    try:
        multiply(inst, algorithm=algorithm, network=LowBandwidthNetwork(inst.n, schedule_cache=None))
    finally:
        network_mod.greedy_two_sided_schedule = real
    return phases


def _digest(rounds: np.ndarray) -> str:
    return hashlib.blake2b(rounds.tobytes(), digest_size=8).hexdigest()


def golden_rows(cell) -> list:
    return [
        [int(src.size), _digest(greedy_two_sided_schedule(src, dst, method="reference"))]
        for src, dst in capture_phases(*cell)
    ]


def test_golden_table1_phases(monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert set(golden) == set(CELLS)
    run_calls = []
    real_runs = scheduling._first_fit_runs

    def counted(*args):
        run_calls.append(args[2].size)
        return real_runs(*args)

    monkeypatch.setattr(scheduling, "_first_fit_runs", counted)
    for key, cell in CELLS.items():
        phases = capture_phases(*cell)
        assert [p[0].size for p in phases] == [m for m, _ in golden[key]], key
        for (src, dst), (_m, digest) in zip(phases, golden[key]):
            for method in ("auto", "vectorized", "reference"):
                assert _digest(greedy_two_sided_schedule(src, dst, method=method)) == digest
            remote = src != dst
            if remote.any():
                idx = np.lexsort((dst[remote], src[remote]))
                s, d = src[remote][idx], dst[remote][idx]
                rounds = np.full(src.size, -1, dtype=np.int64)
                part = np.empty(s.size, dtype=np.int64)
                part[idx] = real_runs(*_runs(s, d), int(s.max()) + 1, int(d.max()) + 1)
                rounds[remote] = part
                assert _digest(rounds) == digest
    # the dense phases took the run path
    assert run_calls


if __name__ == "__main__":
    rows = {key: golden_rows(cell) for key, cell in sorted(CELLS.items())}
    GOLDEN_PATH.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()) + "\n}\n"
    )
    print(f"wrote {GOLDEN_PATH}")

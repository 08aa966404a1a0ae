"""Tests for the zero-copy shared-memory sweep engine.

The engine's contract (`repro/analysis/executor.py`, "Zero-copy shared
memory and work stealing"): results travel through named shared segments
instead of pickles, dispatch is work-stealing, and every outcome —
success, raising cells, SIGKILLed workers, checkpoint resume, fallback
to the pickling pool — is bit-identical to a serial run.  Segment
hygiene is absolute: after any ``execute_cells`` call, crashes included,
``/dev/shm`` holds no ``repro-sweep-*`` entry.

All workloads are module-level so they survive any multiprocessing start
method; the one-shot worker kill is coordinated through a marker file
whose path travels in an environment variable (inherited by workers).
"""

import os
import signal

import numpy as np
import pytest

from repro.algorithms.trivial import naive_triangles
from repro.algorithms.twophase import multiply_two_phase
from repro.analysis import shm
from repro.analysis.executor import build_cells, execute_cells
from repro.analysis.sweeps import run_sweep
from repro.supported.instance import make_hard_instance

ALGOS = {"naive": naive_triangles, "two_phase": multiply_two_phase}
CRASH_MARKER_VAR = "REPRO_TEST_SHM_CRASH_MARKER"
POISON_VALUE = 3


def seeded_factory(d, rng):
    return make_hard_instance(8 * d, d, rng)


def unseeded_factory(d):
    return make_hard_instance(8 * d, d, np.random.default_rng(d))


def poisoned(inst):
    if inst.d == POISON_VALUE:
        raise ValueError("poisoned cell")
    return naive_triangles(inst)


def kill_worker_once(inst):
    """SIGKILL our own worker the first time the poisoned axis value
    comes through; the marker file makes the kill one-shot so the
    re-dispatched cell succeeds on a fresh worker."""
    marker = os.environ.get(CRASH_MARKER_VAR)
    if inst.d == POISON_VALUE and marker and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return naive_triangles(inst)


def _no_leaked_segments():
    assert shm.active_segments() == [], "leaked /dev/shm segments"


# ------------------------------------------------------------------ #
# bit-identity: shm engine vs serial, seeded and unseeded
# ------------------------------------------------------------------ #
POLICIES = {
    "plain": ({}, "shm-"),
    "self-healing": ({"max_attempts": 2, "cell_timeout_s": 60}, "resilient-"),
}


# the plain cases keep the bare seed as their id
@pytest.mark.parametrize(
    "seed,policy",
    [(seed, policy) for policy in ("plain", "self-healing") for seed in (None, 42)],
    ids=["None", "42", "None-self-healing", "42-self-healing"],
)
def test_shm_engine_bit_identical_to_serial(seed, policy):
    knobs, mode = POLICIES[policy]
    kw = dict(axis=("d", [2, 4]), algorithms=ALGOS, seed=seed,
              instance_factory=seeded_factory if seed is not None else unseeded_factory)
    serial = run_sweep(workers=1, **kw)
    parallel = run_sweep(workers=2, engine="shm", **knobs, **kw)
    assert parallel.stats["mode"].startswith(mode)
    assert parallel.rounds == serial.rounds
    assert parallel.messages == serial.messages
    assert parallel.verified and serial.verified
    _no_leaked_segments()


def test_engine_parameter_is_validated():
    for engine in ("bogus", "pool"):
        with pytest.raises(ValueError, match="engine"):
            execute_cells(
                build_cells([2], ALGOS),
                instance_factory=unseeded_factory,
                algorithms=ALGOS,
                engine=engine,
            )


# ------------------------------------------------------------------ #
# payload accounting and instance sharing
# ------------------------------------------------------------------ #
def test_per_cell_payload_bytes_recorded():
    sweep = run_sweep(
        axis=("d", [2, 4]), instance_factory=unseeded_factory,
        algorithms=ALGOS, workers=2, engine="shm",
    )
    payload = sweep.stats["payload"]
    for cell in sweep.stats["per_cell"]:
        assert cell["payload_baseline_bytes"] > cell["payload_shipped_bytes"] > 0
    assert payload["baseline_bytes"] > payload["shipped_bytes"] > 0
    assert payload["reduction_x"] > 1.0
    _no_leaked_segments()


def test_instances_shared_only_for_unseeded_factories():
    kw = dict(axis=("d", [2, 4]), algorithms=ALGOS, workers=2, engine="shm")
    unseeded = run_sweep(instance_factory=unseeded_factory, **kw)
    # one shared instance per unique axis value, built once in the parent
    assert unseeded.stats["shm"]["shared_instances"] == 2
    assert unseeded.stats["shm"]["instance_bytes"] > 0
    seeded = run_sweep(instance_factory=seeded_factory, seed=11, **kw)
    # seeded factories take a per-cell RNG: the instance differs per cell,
    # so nothing can be prebuilt
    assert seeded.stats["shm"]["shared_instances"] == 0
    _no_leaked_segments()


# ------------------------------------------------------------------ #
# failure paths
# ------------------------------------------------------------------ #
def test_raising_cell_recorded_through_shared_rows():
    sweep = run_sweep(
        axis=("d", [2, POISON_VALUE, 4]), instance_factory=unseeded_factory,
        algorithms={"poisoned": poisoned}, strict=False, workers=2, engine="shm",
    )
    assert sweep.stats["mode"].startswith("shm-")
    assert sweep.cell_status["poisoned"] == ["ok", "failed", "ok"]
    assert sweep.rounds["poisoned"][1] == -1
    assert sweep.stats["errors"] == 1
    _no_leaked_segments()


def test_sigkilled_worker_recovers_bit_identically(tmp_path, monkeypatch):
    marker = tmp_path / "killed-once"
    monkeypatch.setenv(CRASH_MARKER_VAR, str(marker))
    algos = {"naive": kill_worker_once}
    kw = dict(axis=("d", [2, POISON_VALUE, 4]), instance_factory=seeded_factory,
              algorithms=algos, seed=5)
    faulty = run_sweep(workers=2, engine="shm", **kw)
    assert marker.exists(), "the poisoned cell never killed its worker"
    assert faulty.stats["shm"]["worker_crashes"] >= 1
    assert faulty.stats["shm"]["requeued_cells"] >= 1
    _no_leaked_segments()

    # reference: same sweep, fault-free (marker already exists)
    reference = run_sweep(workers=1, **kw)
    assert faulty.rounds == reference.rounds
    assert faulty.messages == reference.messages
    assert faulty.verified


CRASH_EVERY_WORKER_SCRIPT = """
import json, os, signal
import numpy as np
from repro.algorithms.trivial import naive_triangles
from repro.analysis.sweeps import run_sweep
from repro.supported.instance import make_hard_instance


def factory(d, rng):
    return make_hard_instance(8 * d, d, rng)


def kill_every_worker(inst):
    if inst.d == %(poison)d:
        os.kill(os.getpid(), signal.SIGKILL)
    return naive_triangles(inst)


if __name__ == "__main__":
    sweep = run_sweep(axis=("d", [2, %(poison)d, 4]), instance_factory=factory,
                      algorithms={"naive": kill_every_worker}, strict=False,
                      seed=5, workers=2, engine="shm")
    print(json.dumps({
        "status": sweep.cell_status["naive"],
        "rounds": sweep.rounds["naive"],
        "messages": sweep.messages["naive"],
        "verified": sweep.cell_verified["naive"],
        "errors": [c["error"] for c in sweep.stats["per_cell"]],
    }))
"""


def test_cell_that_kills_every_worker_fails_without_killing_the_sweep(tmp_path):
    """A plain-policy cell that SIGKILLs every process it runs in gets one
    re-dispatch and is then recorded ``failed``; it never runs in the
    sweep's own process, which must finish normally."""
    import json
    import subprocess
    import sys

    script = tmp_path / "crash_every_worker.py"
    script.write_text(CRASH_EVERY_WORKER_SCRIPT % {"poison": POISON_VALUE})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as fout, open(err, "w") as ferr:
        # own session: workers orphaned by a dead parent are killed below
        proc = subprocess.Popen([sys.executable, str(script)], stdout=fout,
                                stderr=ferr, env=env, start_new_session=True)
        try:
            rc = proc.wait(timeout=300)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert rc == 0, (rc, err.read_text())
    got = json.loads(out.read_text().strip().splitlines()[-1])
    assert got["status"] == ["ok", "failed", "ok"]
    assert "worker crash" in got["errors"][1]
    assert got["rounds"][1] == -1

    reference = run_sweep(axis=("d", [2, POISON_VALUE, 4]), instance_factory=seeded_factory,
                          algorithms={"naive": naive_triangles}, seed=5, workers=1)
    for i in (0, 2):
        assert got["rounds"][i] == reference.rounds["naive"][i]
        assert got["messages"][i] == reference.messages["naive"][i]
        assert got["verified"][i] is True
    _no_leaked_segments()


def test_shm_unavailable_falls_back_or_raises(monkeypatch):
    def broken_create(self, nbytes):
        raise OSError("no /dev/shm in this test")

    monkeypatch.setattr(shm.ShmArena, "create", broken_create)
    kw = dict(axis=("d", [2, 4]), instance_factory=unseeded_factory,
              algorithms=ALGOS, workers=2)
    fallback = run_sweep(engine="auto", **kw)
    assert fallback.stats["mode"] == "serial"
    assert "shared-memory" in (fallback.stats.get("fallback") or "")
    serial = run_sweep(workers=1, instance_factory=unseeded_factory,
                       algorithms=ALGOS, axis=("d", [2, 4]))
    assert fallback.rounds == serial.rounds
    with pytest.raises(RuntimeError, match="shared-memory"):
        run_sweep(engine="shm", **kw)
    _no_leaked_segments()


# ------------------------------------------------------------------ #
# checkpoint resume under the shm engine
# ------------------------------------------------------------------ #
def test_checkpoint_resume_restores_shm_results(tmp_path):
    kw = dict(axis=("d", [2, 4]), instance_factory=seeded_factory,
              algorithms=ALGOS, seed=3, workers=2, engine="shm",
              checkpoint_dir=tmp_path)
    first = run_sweep(**kw)
    assert first.stats["mode"].startswith("shm-")
    assert first.stats["checkpoint"]["restored_cells"] == 0
    second = run_sweep(**kw)
    assert second.stats["checkpoint"]["restored_cells"] == len(first.stats["per_cell"])
    assert second.stats["checkpoint"]["executed_cells"] == 0
    assert second.rounds == first.rounds
    assert second.messages == first.messages
    _no_leaked_segments()


# ------------------------------------------------------------------ #
# shm data-plane unit tests
# ------------------------------------------------------------------ #
def test_arena_share_array_round_trip_and_cleanup():
    arr = np.arange(100, dtype=np.float64).reshape(4, 25)
    with shm.ShmArena() as arena:
        desc = arena.share_array(arr)
        assert shm.active_segments(), "segment should be visible while open"
        view, seg = shm.attach_array(desc)
        assert view.tobytes() == arr.tobytes()
        seg.close()
    _no_leaked_segments()


def test_record_stream_round_trip():
    entries = {
        b"d" * 16: np.array([1, 2, 3], dtype=np.int64),
        b"e" * 16: np.array([], dtype=np.int64),
    }
    with shm.ShmArena() as arena:
        packed = shm.pack_entries(arena, entries)
        assert packed is not None
        name, used = packed
        seg = shm.attach_segment(name)
        arena.track(seg)
        out = dict(shm.iter_entries(seg.buf, used, copy=True))
    assert set(out) == set(entries)
    for k in entries:
        assert np.array_equal(out[k], entries[k])
    _no_leaked_segments()


# ---------------------------------------------------------------------- #
# SIGTERM hygiene: a terminated service leaves no /dev/shm segments and
# no worker processes behind
# ---------------------------------------------------------------------- #
def test_cleanup_all_closes_live_arenas():
    arena = shm.ShmArena()
    seg = arena.create(128)
    name = seg.name
    assert name in shm.active_segments()
    shm.cleanup_all()
    assert arena.closed
    assert name not in shm.active_segments()
    shm.cleanup_all()  # idempotent


def test_sigterm_install_is_idempotent_and_chains():
    assert shm.install_sigterm_cleanup()
    assert shm.install_sigterm_cleanup()  # second call is a no-op


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_sigterm_on_live_pool_leaves_no_segments(tmp_path):
    """SIGTERM a process holding a ServePool and open arena segments:
    the chained handler must unlink every repro segment, reap the
    resident workers, and still die with the SIGTERM status."""
    import subprocess
    import sys
    import time

    script = tmp_path / "victim.py"
    script.write_text(
        """
import os, sys, time
import numpy as np
from repro.analysis import shm
from repro.serve import ServePool

pool = ServePool(1)  # installs the SIGTERM hook, registers itself
arena = shm.ShmArena()
arena.share_array(np.arange(1024))
arena.share_array(np.ones((64, 64)))
worker_pid = pool._live[0]["proc"].pid
print("READY", ",".join(shm.active_segments()), worker_pid, flush=True)
time.sleep(60)  # wait to be SIGTERMed mid-service
"""
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("READY"), (line, proc.stderr.read())
        _, segments, worker_pid = line.split(" ")
        segment_names = [s for s in segments.split(",") if s]
        assert segment_names, "victim created no segments?"
        worker_pid = int(worker_pid)

        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
        assert rc == -signal.SIGTERM  # died *of* SIGTERM, post-cleanup

        # every segment the victim created is gone from /dev/shm
        leaked = set(segment_names) & set(shm.active_segments())
        assert not leaked, f"leaked segments after SIGTERM: {leaked}"

        # the resident worker was reaped, not orphaned
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(worker_pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            os.kill(worker_pid, signal.SIGKILL)
            raise AssertionError(f"worker {worker_pid} survived SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

"""The shm sweep engine dispatches before it polls.

Each pass of the engine's loop hands ready cells to idle workers, then
waits on the workers' result pipes.  Were the wait first, every worker
would sit through one poll timeout before its first cell.  The order is
checked by recording calls, not by timing: every idle worker's first
cell must be on its task queue before the engine's first
``multiprocessing.connection.wait`` call.
"""

import multiprocessing.connection as mp_connection

import numpy as np

from repro.algorithms.trivial import naive_triangles
from repro.analysis import executor, shm
from repro.analysis.sweeps import run_sweep
from repro.supported.instance import make_hard_instance


def factory(d):
    return make_hard_instance(8 * d, d, np.random.default_rng(d))


class _RecordingQueue:
    """A worker's task queue that logs each ``put`` in the parent."""

    def __init__(self, queue, events):
        self._queue = queue
        self._events = events

    def put(self, item):
        self._events.append(("put", item))
        self._queue.put(item)

    def __getattr__(self, name):
        return getattr(self._queue, name)


def test_first_cells_are_queued_before_the_first_wait(monkeypatch):
    events = []
    real_wait = mp_connection.wait
    real_spawn = executor.spawn_worker

    def wait(*args, **kwargs):
        events.append(("wait", None))
        return real_wait(*args, **kwargs)

    def spawn(*args, **kwargs):
        worker = real_spawn(*args, **kwargs)
        worker["task_q"] = _RecordingQueue(worker["task_q"], events)
        return worker

    monkeypatch.setattr(mp_connection, "wait", wait)
    monkeypatch.setattr(executor, "spawn_worker", spawn)
    sweep = run_sweep(
        axis=("d", [2, 3, 4]), instance_factory=factory,
        algorithms={"naive": naive_triangles}, workers=2, engine="shm",
    )
    assert sweep.stats["mode"].startswith("shm-")
    assert all(status == "ok" for status in sweep.cell_status["naive"])

    first_wait = events.index(("wait", None))
    before = events[:first_wait]
    # both workers were idle, and three cells were ready
    assert [kind for kind, _ in before] == ["put", "put"]
    assert all(cell is not None for _, cell in before)
    assert shm.active_segments() == []

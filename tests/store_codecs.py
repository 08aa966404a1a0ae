"""The store's two record types, as the container tests drive them.

Each :class:`Codec` pairs a record type's public store names with a way
to make sample entries and to compare a loaded value with a saved one
byte for byte, so one test body runs over schedules and plans alike.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.model import plan as plan_mod
from repro.model import schedule_cache as sc
from repro.model.store import RecordStore


@dataclass(frozen=True)
class Codec:
    name: str
    store: RecordStore
    save: Callable
    load: Callable
    save_sharded: Callable
    load_sharded: Callable
    #: ``entries(count, seed)``: distinct sample entries, oldest first
    entries: Callable[[int, int], dict]
    #: members that decode to no entry (bad names, shapes or payloads)
    malformed: dict
    #: ``cache(maxsize)``: an empty in-memory cache of this record type
    cache: Callable[[int], object]
    #: ``held(cache, keys)``: which of ``keys`` the cache holds
    held: Callable[[object, list], list]

    def route(self, key) -> bytes:
        return self.store.route(key)

    def nbytes(self, key, value) -> int:
        return sum(a.nbytes for a in self.store.encode(key, value).values())

    def same(self, key, got, want) -> bool:
        a, b = self.store.encode(key, got), self.store.encode(key, want)
        return a.keys() == b.keys() and all(
            a[n].dtype == b[n].dtype and a[n].tobytes() == b[n].tobytes() for n in a
        )


def _schedule_entries(count: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        rng.bytes(16): rng.integers(0, 50, size=rng.integers(1, 9)).astype(np.int64)
        for _ in range(count)
    }


@functools.lru_cache(maxsize=1)
def compiled_plan() -> plan_mod.ReplayPlan:
    """One real plan, compiled from a leader run on a small structure."""
    from repro.serve import Job, execute_batch, revalue
    from repro.sparsity.families import US
    from repro.supported.instance import make_instance

    plans = plan_mod.default_plan_cache()
    sc.default_schedule_cache().clear()
    plans.clear()
    base = make_instance((US, US, US), 8, 2, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    execute_batch([Job(tenant="t", instance=revalue(base, rng)) for _ in range(2)])
    (plan,) = plans.drain_new_plans().values()
    plans.clear()
    return plan


def _plan_entries(count: int, seed: int) -> dict:
    """``count`` copies of the compiled plan under distinct structure
    digests (a plan's key is ``(digest, semiring, shape)``)."""
    rng = np.random.default_rng(seed)
    base = compiled_plan()
    out = {}
    for _ in range(count):
        p = dataclasses.replace(base, digest=rng.bytes(16))
        out[(p.digest, p.semiring, p.shape)] = p
    return out


SCHEDULES = Codec(
    name="schedules",
    store=sc.SCHEDULE_STORE,
    save=sc.save_store,
    load=sc.load_store,
    save_sharded=sc.save_store_sharded,
    load_sharded=sc.load_store_sharded,
    entries=_schedule_entries,
    malformed={
        "e_nothex!": np.arange(3),  # bad key
        "e_" + "ab" * 16: np.ones((2, 2)),  # bad shape
    },
    cache=lambda maxsize: sc.ScheduleCache(maxsize=maxsize),
    held=lambda cache, keys: [k for k in keys if k in cache.export_entries()],
)

PLANS = Codec(
    name="plans",
    store=plan_mod.PLAN_STORE,
    save=plan_mod.save_plans,
    load=plan_mod.load_plans,
    save_sharded=plan_mod.save_plans_sharded,
    load_sharded=plan_mod.load_plans_sharded,
    entries=_plan_entries,
    malformed={
        "p_" + "ab" * 16 + "_meta": np.frombuffer(b"{not json", dtype=np.uint8),
        # valid metadata, but none of the plan's arrays
        "p_" + "cd" * 16 + "_meta": np.frombuffer(
            json.dumps({"version": plan_mod.PLAN_VERSION}).encode(), dtype=np.uint8
        ),
    },
    cache=lambda maxsize: plan_mod.PlanCache(maxsize=maxsize),
    held=lambda cache, keys: [
        k for k in keys if cache.lookup(k, count=False)[0] is not None
    ],
)

CODECS = (SCHEDULES, PLANS)

"""One Lemma 3.1 value: every execution path gives the same bits.

Lemma 3.1 fixes the order in which each output entry's products are
added: per-slot partials at the virtual hosts, per-computer partials at
the slot computers, then each run's partials along its parity-split
halving tree (or the anchor's chain with ``use_trees=False``).  Every
path that executes it must therefore agree byte for byte — values
digest, rounds, messages and per-phase bill:

* the default network (columnar planes folded by ``StageFold``);
* ``columnar=False`` (words through the dict memories);
* ``strict=True`` (checked per-message delivery);
* plan replay through ``execute_batch`` at B=1 and B=4;
* ``process_few_triangles`` with ``use_trees=False`` and with
  ``use_virtual_nodes=False``, each on all three networks.

The real-field [AS:AS:AS] and [GM:AS:AS] cells are ones where a linear
per-run sum differs from the tree's in the low bits; the semiring cells
run every registered algebra once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.api import multiply
from repro.algorithms.base import init_outputs
from repro.algorithms.fewtriangles import default_kappa, process_few_triangles
from repro.model.network import LowBandwidthNetwork
from repro.model.plan import default_plan_cache
from repro.model.schedule_cache import default_schedule_cache
from repro.semirings import ALL_SEMIRINGS, REAL_FIELD
from repro.serve import Job, execute_batch, revalue
from repro.sparsity.families import AS, GM
from repro.supported.instance import make_instance
from repro.transport.runner import values_digest

# inf + -inf operands of the tropical semirings make NaNs on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

FAMILIES = {"AS:AS:AS": (AS, AS, AS), "GM:AS:AS": (GM, AS, AS)}

#: (families, semiring, n, d, seed)
INSTANCES = [
    (fam, REAL_FIELD, 64, 4, seed)
    for fam, seed in (("AS:AS:AS", 0), ("AS:AS:AS", 1), ("AS:AS:AS", 2), ("GM:AS:AS", 1))
] + [("AS:AS:AS", sr, 32, 4, 0) for sr in ALL_SEMIRINGS]

#: instance + algorithm; ``general`` is plannable, so it also replays
CELLS = [
    (*spec, alg)
    for spec in INSTANCES
    for alg in (("two_phase", "general") if spec[2] == 64 else ("general",))
]

NETWORKS = {
    "default": {},
    "per-message": {"columnar": False},
    "strict": {"strict": True},
}


def _cell_id(cell):
    fam, sr, n, d, seed, *alg = cell
    return "-".join([fam, sr.name, f"n{n}", f"d{d}", f"s{seed}", *alg])


def _instance(fam, sr, n, d, seed):
    return make_instance(FAMILIES[fam], n, d, np.random.default_rng(seed), semiring=sr)


@pytest.fixture(autouse=True)
def _fresh_caches():
    default_schedule_cache().clear()
    default_plan_cache().clear()
    yield
    default_schedule_cache().clear()
    default_plan_cache().clear()


def _bill(x, rounds, messages, phases):
    return (values_digest(x), int(rounds), int(messages), dict(phases))


def _multiply_bill(inst, alg, **net_kwargs):
    net = LowBandwidthNetwork(inst.n, **net_kwargs)
    res = multiply(inst, algorithm=alg, network=net)
    return _bill(res.x, res.rounds, res.messages, res.phase_summary())


def _lemma31_bill(inst, **kwargs):
    def run(**net_kwargs):
        net = LowBandwidthNetwork(inst.n, **net_kwargs)
        inst.deal_into(net)
        init_outputs(net, inst)
        tri = inst.triangles.triangles
        process_few_triangles(net, inst, tri, default_kappa(len(tri), inst.n), **kwargs)
        return _bill(inst.collect_result(net), net.rounds, net.messages_sent, net.phase_summary())

    return {name: run(**net_kwargs) for name, net_kwargs in NETWORKS.items()}


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_networks_agree(cell):
    fam, sr, n, d, seed, alg = cell
    inst = _instance(fam, sr, n, d, seed)
    bills = {name: _multiply_bill(inst, alg, **kw) for name, kw in NETWORKS.items()}
    assert bills["default"] == bills["per-message"] == bills["strict"]


@pytest.mark.parametrize("spec", INSTANCES, ids=_cell_id)
@pytest.mark.parametrize("ablation", ["use_trees", "use_virtual_nodes"])
def test_lemma31_ablations_agree(spec, ablation):
    bills = _lemma31_bill(_instance(*spec), **{ablation: False})
    assert bills["default"] == bills["per-message"] == bills["strict"]


@pytest.mark.parametrize(
    "cell", [c for c in CELLS if c[5] == "general"], ids=_cell_id
)
def test_plan_replay_matches_per_message(cell):
    fam, sr, n, d, seed, alg = cell
    base = _instance(fam, sr, n, d, seed)
    rng = np.random.default_rng(100 + seed)
    jobs = [Job(tenant="t", instance=revalue(base, rng), algorithm=alg) for _ in range(6)]

    leader = execute_batch(jobs[:1])[0]  # compiles the plan
    assert leader.plan_compiled
    single = execute_batch(jobs[1:2])  # B=1 replay
    batch = execute_batch(jobs[2:])  # B=4 replay
    got = [leader] + single + batch
    assert all(r.plan_replayed for r in got[1:])
    assert [r.batch_size for r in batch] == [4] * 4

    for job, r in zip(jobs, got):
        assert r.ok, r.error
        ref = _multiply_bill(job.instance, alg, columnar=False)
        assert _bill(r.x, r.rounds, r.messages, r.phases) == ref

"""Array-resident instance words on the default network.

On a columnar network ``SupportedInstance.deal_into`` and
``init_outputs`` hand the network the A, B and X words as arrays
(``LowBandwidthNetwork.deal_words``); the columnar kernels fold into the
X array and ``collect_result`` reads it.  The dict memories are built on
first access to ``net.mem`` and must then hold exactly what an eager
deal leaves: the same keys, in the same insertion order, with the same
value bits — right after dealing, and after a full columnar run (where
X holds the product).  Memory peaks, keyed kernels that run after
columnar ones, and certification must see no difference either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.api import multiply
from repro.algorithms.base import init_outputs
from repro.algorithms.twophase import multiply_two_phase
from repro.model.certify import certify_product
from repro.model.network import LowBandwidthNetwork
from repro.model.plan import default_plan_cache
from repro.model.schedule_cache import default_schedule_cache
from repro.semirings import BOOLEAN, MIN_PLUS, REAL_FIELD
from repro.sparsity.families import AS, GM, US
from repro.supported.instance import make_hard_instance, make_instance
from repro.transport.runner import values_digest

pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

FAMILIES = {
    "US:US:AS": (US, US, AS),
    "AS:AS:AS": (AS, AS, AS),
    "US:US:US": (US, US, US),
    "GM:GM:GM": (GM, GM, GM),
}

#: (family, semiring, n, d, seed, algorithm)
CELLS = [
    ("US:US:AS", REAL_FIELD, 64, 8, 0, "two_phase"),
    ("hard", REAL_FIELD, 48, 8, 1, "two_phase"),
    ("hard", MIN_PLUS, 32, 4, 2, "naive"),
    ("AS:AS:AS", REAL_FIELD, 48, 4, 3, "general"),
    ("US:US:US", BOOLEAN, 27, 3, 4, "sparse_3d"),
    ("GM:GM:GM", REAL_FIELD, 8, 8, 5, "dense_3d"),
]


def _cell_id(cell):
    fam, sr, n, d, seed, alg = cell
    return f"{alg}-{fam}-{sr.name}-n{n}-d{d}-s{seed}"


def _instance(fam, sr, n, d, seed):
    rng = np.random.default_rng(seed)
    if fam == "hard":
        return make_hard_instance(n, d, rng, semiring=sr)
    return make_instance(FAMILIES[fam], n, d, rng, semiring=sr)


@pytest.fixture(autouse=True)
def _fresh_caches():
    default_schedule_cache().clear()
    default_plan_cache().clear()
    yield
    default_schedule_cache().clear()
    default_plan_cache().clear()


def _memories(net, prefixes=None):
    """Per computer, its ``(key, value type, value bytes)`` in insertion
    order — optionally only the keys of the given prefixes."""
    return [
        [
            (key, type(value).__name__, np.asarray(value).tobytes())
            for key, value in mem.items()
            if prefixes is None or (isinstance(key, tuple) and key[0] in prefixes)
        ]
        for mem in net.mem
    ]


def _bill(net):
    return net.rounds, net.messages_sent, [(p.label, p.rounds, p.messages) for p in net.phases]


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_first_access_equals_eager_deal(cell):
    inst = _instance(*cell[:5])
    lazy = LowBandwidthNetwork(inst.n)
    inst.deal_into(lazy)
    init_outputs(lazy, inst)
    assert all(lazy.instance_words(p) is not None for p in "ABX")
    eager = LowBandwidthNetwork(inst.n, columnar=False)
    inst.deal_into(eager)
    init_outputs(eager, inst)
    assert all(eager.instance_words(p) is None for p in "ABX")
    assert _memories(lazy) == _memories(eager)
    # the first access moved the words into the dicts for good
    assert all(lazy.instance_words(p) is None for p in "ABX")


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_first_access_after_a_columnar_run(cell):
    *spec, alg = cell
    inst = _instance(*spec)
    net = LowBandwidthNetwork(inst.n)
    res = multiply(inst, algorithm=alg, network=net)
    assert net.instance_words("X") is not None  # the run never touched the dicts

    # the same columnar run with the dicts written at deal time (touching
    # ``mem`` first makes the deal eager, and the X folds go through it)
    touched = LowBandwidthNetwork(inst.n)
    assert touched.mem is not None
    multiply(inst, algorithm=alg, network=touched)
    assert touched.instance_words("X") is None

    # the per-message run: its X owners hold the product; an eager
    # ``columnar=False`` deal given those words is the reference
    ref_net = LowBandwidthNetwork(inst.n, columnar=False)
    ref = multiply(inst, algorithm=alg, network=ref_net)
    rows, cols, owners = inst.entries("X")
    keys = [("X", i, k) for i, k in zip(rows.tolist(), cols.tolist())]
    eager = LowBandwidthNetwork(inst.n, columnar=False)
    inst.deal_into(eager)
    init_outputs(eager, inst)
    eager.write_many(
        owners.tolist(), keys, ref_net.read_many(owners.tolist(), keys, inst.semiring.dtype)
    )

    assert values_digest(res.x) == values_digest(ref.x)
    assert _bill(net) == _bill(touched) == _bill(ref_net)
    got = _memories(net)
    assert got == _memories(touched) == _memories(eager)
    # collecting again, now from the dicts, gives the same product
    assert values_digest(inst.collect_result(net)) == values_digest(res.x)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_memory_peaks(cell):
    *spec, alg = cell
    inst = _instance(*spec)
    lazy = LowBandwidthNetwork(inst.n, track_memory=True)
    eager = LowBandwidthNetwork(inst.n, columnar=False, track_memory=True)
    for net in (lazy, eager):
        inst.deal_into(net)
        init_outputs(net, inst)
    assert lazy.instance_words("A") is not None
    assert lazy.peak_memory().tolist() == eager.peak_memory().tolist()

    # after a full columnar run: the same peaks as when the dicts were
    # written at deal time (touching ``mem`` first makes the deal eager)
    lazy = LowBandwidthNetwork(inst.n, track_memory=True)
    eager = LowBandwidthNetwork(inst.n, track_memory=True)
    assert eager.mem is not None
    for net in (lazy, eager):
        multiply(inst, algorithm=alg, network=net)
    assert lazy.instance_words("A") is not None and eager.instance_words("A") is None
    assert lazy.peak_memory().tolist() == eager.peak_memory().tolist()


def test_memory_peaks_keyed_kernel():
    inst = _instance("GM:GM:GM", REAL_FIELD, 8, 8, 6)
    peaks = []
    for kwargs in ({}, {"columnar": False}):
        net = LowBandwidthNetwork(inst.n, track_memory=True, **kwargs)
        multiply(inst, algorithm="strassen", network=net)
        peaks.append(net.peak_memory().tolist())
    assert peaks[0] == peaks[1]


def test_strassen_wave_then_columnar_fold_matches_strict():
    """``kernel="strassen"`` runs keyed Strassen waves (which touch the
    dicts, so the words move there mid-run) and then columnar Lemma 3.1
    folds into X, which must fold into the dict-resident X words."""
    bills = []
    for kwargs in ({}, {"strict": True}):
        inst = _instance("hard", REAL_FIELD, 32, 4, 7)
        net = LowBandwidthNetwork(inst.n, **kwargs)
        res = multiply_two_phase(inst, kernel="strassen", net=net)
        assert res.details["stats"].waves > 0
        assert inst.verify(res.x)
        assert net.instance_words("X") is None
        bills.append((values_digest(res.x), *_bill(net)))
    assert bills[0] == bills[1]


@pytest.mark.parametrize("alg", ["two_phase", "naive"])
def test_certify_after_default_run_matches_strict(alg):
    outcomes = []
    for kwargs in ({}, {"strict": True}):
        inst = _instance("hard", REAL_FIELD, 32, 4, 8)
        net = LowBandwidthNetwork(inst.n, **kwargs)
        res = multiply(inst, algorithm=alg, network=net)
        cert = certify_product(inst, net, checks=3, seed=11)
        assert cert.ok
        outcomes.append(
            (values_digest(res.x), cert.rounds, cert.messages, cert.failed_check, *_bill(net))
        )
    assert outcomes[0] == outcomes[1]

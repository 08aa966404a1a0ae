"""Array-native local steps: bit-identity, the ordered fold, possession.

The dict-path kernels (``gather_all``, ``naive_triangles``, the 3D grid
algorithms, Lemma 2.1's ``cluster_solve_3d``, ``cc_dense_3d`` and the
Strassen base case) run each local step as one gather, one
``semiring.mul`` and one ordered fold.  Three checks pin that down:

* **golden runs** — every (instance, algorithm, semiring, strict) cell
  must reproduce the values digest, rounds, messages and per-phase bill
  recorded from the per-triangle loops (``tests/data/local_fold_golden.json``).
  The instances carry operands that are exactly ``0.0`` and ``-0.0`` (and
  ``+inf``/``-inf`` for the tropical semirings), where an extra
  ``zero +`` or a reordered addition would change the bits;
* **the fold helper** against a literal sequential loop, seeded and
  unseeded;
* **possession** — in strict mode, a local step over a value that never
  arrived raises ``NetworkError``, not ``KeyError``.

The golden file maps ``"<instance>/<algorithm>/<semiring>/<mode>"`` to the
output of :func:`run_case`.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.algorithms.api import multiply
from repro.algorithms.base import group_ids, ordered_fold
from repro.algorithms.cc_dense import cc_dense_3d
from repro.model.network import LowBandwidthNetwork, NetworkError
from repro.semirings import ALL_SEMIRINGS, FIELD_LIKE, MAX_PLUS, MIN_PLUS
from repro.sparsity.families import GM, US
from repro.supported.instance import make_hard_instance, make_instance
from repro.transport.runner import values_digest

# inf + -inf operands of the tropical semirings make NaNs on purpose
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

GOLDEN_PATH = Path(__file__).parent / "data" / "local_fold_golden.json"

#: (instance, algorithm) cells; ring/field-only algorithms run on FIELD_LIKE
CELLS = [
    ("us", "gather_all"),
    ("us", "naive"),
    ("us", "dense_3d"),
    ("us", "sparse_3d"),
    ("us", "cc_dense_3d"),
    ("us", "strassen"),
    ("dense", "dense_3d"),
    ("dense", "strassen"),
    ("hard", "naive"),
    ("hard", "sparse_3d"),
    ("hard", "two_phase"),
    ("hard", "two_phase_field"),
]
FIELD_ONLY = {"strassen", "two_phase_field"}


def _special(values: np.ndarray, sr) -> np.ndarray:
    """Overwrite a fixed pattern of operands with the values where float
    accumulation order shows: exact zeros of both signs, and the
    tropical semirings' infinities."""
    out = values.copy()
    if np.issubdtype(out.dtype, np.floating):
        out[::5] = 0.0
        out[2::7] = -0.0
        if sr in (MIN_PLUS, MAX_PLUS):
            out[3::6] = np.inf
            out[4::11] = -np.inf
    else:
        out[::5] = 0
    return out


def make_case_instance(kind: str, sr):
    """The seeded instance of one golden cell, with special operands."""
    rng = np.random.default_rng({"us": 41, "dense": 42, "hard": 43}[kind])
    if kind == "us":
        inst = make_instance((US, US, US), 27, 3, rng, semiring=sr)
    elif kind == "dense":
        inst = make_instance((GM, GM, GM), 16, 16, rng, semiring=sr, distribution="rows")
    else:
        inst = make_hard_instance(64, 8, rng, semiring=sr)
    a, b = inst.a.copy(), inst.b.copy()
    a.data = _special(a.data, sr)
    b.data = _special(b.data[::-1], sr)[::-1].copy()
    return dataclasses.replace(inst, a=sp.csr_matrix(a), b=sp.csr_matrix(b))


def run_case(kind: str, algorithm: str, sr, strict: bool) -> dict:
    """Values digest, rounds, messages and per-phase bill of one cell."""
    inst = make_case_instance(kind, sr)
    if algorithm == "cc_dense_3d":
        res, _ = cc_dense_3d(inst, strict=strict)
    else:
        res = multiply(inst, algorithm=algorithm, strict=strict)
    out = {
        "digest": values_digest(res.x),
        "rounds": int(res.rounds),
        "messages": int(res.messages),
        "phases": {k: list(v) for k, v in res.phase_summary().items()},
    }
    if algorithm.startswith("two_phase"):
        out["waves"] = int(res.details["stats"].waves)
    return out


def case_ids() -> list[tuple[str, str, object, bool]]:
    return [
        (kind, algo, sr, strict)
        for kind, algo in CELLS
        for sr in (FIELD_LIKE if algo in FIELD_ONLY else ALL_SEMIRINGS)
        for strict in (False, True)
    ]


def case_key(kind, algo, sr, strict) -> str:
    return f"{kind}/{algo}/{sr.name}/{'strict' if strict else 'fast'}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "kind,algo,sr,strict",
    case_ids(),
    ids=[case_key(*c) for c in case_ids()],
)
def test_golden_cell(golden, kind, algo, sr, strict):
    expected = golden[case_key(kind, algo, sr, strict)]
    assert run_case(kind, algo, sr, strict) == expected
    if algo.startswith("two_phase"):
        assert expected["waves"] >= 1  # the Lemma 2.1 local step ran


def test_golden_covers_every_cell(golden):
    assert set(golden) == {case_key(*c) for c in case_ids()}


# --------------------------------------------------------------------- #
# The fold helper against a literal sequential loop
# --------------------------------------------------------------------- #
def _loop_fold(sr, values, keys, seed=None):
    """``partial = first; partial = add(partial, next)`` per key, in order,
    or from ``seed[key]`` — the per-triangle loop the helper replaces."""
    acc: dict = {}
    for key, v in zip(keys, values):
        if key in acc:
            acc[key] = sr.add(acc[key], v)
        elif seed is not None:
            acc[key] = sr.add(seed[key], v)
        else:
            acc[key] = v
    return acc


@pytest.mark.parametrize("sr", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seeded", [False, True])
def test_ordered_fold_matches_sequential_loop(sr, seeded):
    rng = np.random.default_rng(5)
    m = 400
    values = _special(sr.random_values(rng, m), sr)
    if np.issubdtype(values.dtype, np.floating):
        values = values * rng.choice([1.0, -1.0, 1e-17, 1e17], size=m)
    rows = rng.integers(0, 6, size=m)
    cols = rng.integers(0, 9, size=m)
    if np.issubdtype(values.dtype, np.floating):
        # groups of negative zeros only: a zero-seeded fold ends at +0.0
        values = np.concatenate([values, [-0.0, -0.0, -0.0]])
        rows = np.concatenate([rows, [6, 6, 7]])
        cols = np.concatenate([cols, [0, 0, 0]])
        m += 3
    ids, firsts = group_ids(rows, cols)
    keys = list(zip(rows.tolist(), cols.tolist()))
    # groups come out in first-occurrence order
    assert [keys[t] for t in firsts.tolist()] == list(dict.fromkeys(keys))
    seed = None
    if seeded:
        seed_vals = _special(sr.random_values(rng, firsts.size), sr)
        seed = {keys[t]: seed_vals[g] for g, t in enumerate(firsts.tolist())}
        out = ordered_fold(sr, values, ids, seed=seed_vals)
    else:
        out = ordered_fold(sr, values, ids, firsts=firsts)
    ref = _loop_fold(sr, [values[t] for t in range(m)], keys, seed)
    expect = np.array([ref[keys[t]] for t in firsts.tolist()], dtype=sr.dtype)
    assert out.dtype == expect.dtype
    assert out.tobytes() == expect.tobytes()


def test_group_ids_wide_codes():
    """Columns whose radix product overflows int64 are re-compacted."""
    big = np.array([2**40, 5, 2**40, 5, 7], dtype=np.int64)
    ids, firsts = group_ids(big, big, big)
    assert ids.tolist() == [0, 1, 0, 1, 2]
    assert firsts.tolist() == [0, 1, 4]


# --------------------------------------------------------------------- #
# Strict mode: the gather is the possession check
# --------------------------------------------------------------------- #
class _DroppingNetwork(LowBandwidthNetwork):
    """Strict network that loses the first message of one labelled phase."""

    def __init__(self, n, drop_label):
        super().__init__(n, strict=True)
        self._drop_label = drop_label

    def exchange_arrays(self, src, dst, src_keys, dst_keys=None, *, label="exchange"):
        rounds = super().exchange_arrays(src, dst, src_keys, dst_keys, label=label)
        if self._drop_label and label.endswith(self._drop_label) and src_keys:
            key = (dst_keys or src_keys)[0]
            self.delete(int(np.asarray(dst)[0]), key)
            self._drop_label = None
        return rounds


@pytest.mark.parametrize(
    "kind,algo,drop",
    [
        ("us", "naive", "routeA"),
        ("us", "naive", "routeB"),
        ("us", "dense_3d", "aggregate"),
        ("us", "sparse_3d", "aggregate"),
        ("hard", "two_phase", "phase1/aggregate"),
        ("us", "strassen", "base-aggregate"),
        ("us", "strassen", "deliver"),
    ],
)
def test_missing_operand_raises_network_error(kind, algo, drop):
    from repro.semirings import REAL_FIELD

    inst = make_case_instance(kind, REAL_FIELD)
    net = _DroppingNetwork(inst.n, drop)
    with pytest.raises(NetworkError, match="does not hold"):
        multiply(inst, algorithm=algo, network=net)
    assert net._drop_label is None  # the drop happened

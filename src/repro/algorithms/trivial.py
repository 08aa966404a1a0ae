"""Trivial baseline algorithms (paper §1.1, Table 1 rows 1 and 4).

``gather_all``
    Everyone ships every input element to computer 0, which multiplies
    locally and scatters the results — ``O(n^2)`` rounds for dense inputs
    (receiving ``~2 n^2`` values one message at a time dominates).

``naive_triangles``
    Direct triangle processing: for each triangle ``{i, j, k}``, the owners
    of ``A[i, j]`` and ``B[j, k]`` send their values straight to the
    computer that owns ``X[i, k]``, which multiplies and accumulates
    locally.  For ``[US:US:US]`` instances under the row distribution every
    node touches at most ``d^2`` triangles and sends/receives ``O(d^2)``
    messages, so the greedy schedule delivers in ``O(d^2)`` rounds — the
    trivial bound the paper's Theorem 4.2 improves on.  This is also the
    ablation baseline "Lemma 3.1 without virtual nodes and without trees":
    its cost degrades to ``O(max_v t(v))`` on unbalanced instances.

``naive_triangles`` follows the keyed rule of :mod:`repro.algorithms.base`:
on a columnar network its routing phases are charged with no dict keys
and the owners' products come from the instance's value table;
``gather_all`` always moves its words through the dict memories.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MultiplyResult,
    accumulate_into_x,
    exclude_from_plan,
    finalize_result,
    group_ids,
    init_outputs,
    key_list,
    local_products,
    ordered_fold,
    triangle_products,
    words_keyed,
)
from repro.model.network import LowBandwidthNetwork
from repro.supported.instance import SupportedInstance

__all__ = ["gather_all", "naive_triangles"]


def gather_all(
    inst: SupportedInstance, *, strict: bool = False, net: LowBandwidthNetwork | None = None
) -> MultiplyResult:
    """The O(n^2) trivial algorithm: centralize at computer 0."""
    if net is None:
        net = LowBandwidthNetwork(inst.n, strict=strict)
    inst.deal_into(net)
    init_outputs(net, inst)

    # Phase 1: gather all of A and B at computer 0.  Entry order is
    # row-major (the owner dicts' order), matching the historical loop.
    a_rows, a_cols, a_owners = inst.entries("A")
    b_rows, b_cols, b_owners = inst.entries("B")
    src = np.concatenate([a_owners, b_owners])
    dst = np.zeros(src.size, dtype=np.int64)
    keys = key_list(True, "A", a_rows, a_cols) + key_list(True, "B", b_rows, b_cols)
    net.exchange_arrays(src, dst, keys, label="gather")

    # Phase 2: computer 0 multiplies locally (free local computation).
    sr = inst.semiring
    tri = inst.triangles.triangles
    ti, tj, tk = (tri[:, c].tolist() for c in range(3))
    prods = local_products(
        net,
        sr,
        [0] * len(ti),
        [("A", i, j) for i, j in zip(ti, tj)],
        [("B", j, k) for j, k in zip(tj, tk)],
    )
    ids, first = group_ids(tri[:, 0], tri[:, 2])
    partial = ordered_fold(sr, prods, ids, seed=sr.zeros(first.size))
    xc_keys = [("Xc", ti[t], tk[t]) for t in first.tolist()]
    net.write_many([0] * len(xc_keys), xc_keys, partial)

    # Phase 3: scatter results to their owners.
    src, dst, skeys, dkeys = [], [], [], []
    for (i, k), comp in inst.owner_x.items():
        if ("Xc", i, k) not in net.mem[0]:
            continue  # no triangle: owner already initialized zero
        if comp == 0:
            net.write(0, ("X", i, k), net.read(0, ("Xc", i, k)), provenance=(("Xc", i, k),))
            continue
        src.append(0)
        dst.append(comp)
        skeys.append(("Xc", i, k))
        dkeys.append(("X", i, k))
    net.exchange_arrays(np.array(src), np.array(dst), skeys, dkeys, label="scatter")

    return finalize_result(net, inst, "gather_all")


def naive_triangles(
    inst: SupportedInstance,
    *,
    strict: bool = False,
    net: LowBandwidthNetwork | None = None,
) -> MultiplyResult:
    """Direct per-triangle routing — the O(d^2) trivial algorithm."""
    if net is None:
        net = LowBandwidthNetwork(inst.n, strict=strict)
    inst.deal_into(net)
    init_outputs(net, inst)

    tri = inst.triangles.triangles
    if tri.shape[0] == 0:
        return finalize_result(net, inst, "naive_triangles")

    keyed = words_keyed(net)
    exclude_from_plan(net, "naive_triangles")
    xo = inst.owner_of_x(tri[:, 0], tri[:, 2])

    # Route A and B values to the X owner of each triangle.  Deduplicate:
    # the X owner needs each distinct entry only once.  First-occurrence order
    # (in triangle order) is load-bearing — it fixes the message order and
    # hence the greedy schedule.
    for name, (c0, c1), owner_of in (
        ("A", (0, 1), inst.owner_of_a),
        ("B", (1, 2), inst.owner_of_b),
    ):
        _, first = group_ids(xo, tri[:, c0], tri[:, c1])
        rows, cols = tri[first, c0], tri[first, c1]
        net.exchange_arrays(
            owner_of(rows, cols), xo[first], key_list(keyed, name, rows, cols), label=f"route{name}"
        )

    # Local processing at the X owners, in triangle order.
    prods = triangle_products(net, inst, xo, tri, keyed=keyed)
    accumulate_into_x(net, inst, tri[:, 0], tri[:, 2], prods)

    return finalize_result(net, inst, "naive_triangles")

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
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    MultiplyResult,
    accumulate_at_owners,
    finalize_result,
    group_ids,
    init_outputs,
    local_products,
    ordered_fold,
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

    # Phase 1: gather all of A and B at computer 0.  Entry order follows
    # the owner dicts (row-major), matching the historical per-item loop.
    na, nb = len(inst.owner_a), len(inst.owner_b)
    a_rows = np.fromiter((i for (i, _) in inst.owner_a), dtype=np.int64, count=na)
    a_cols = np.fromiter((j for (_, j) in inst.owner_a), dtype=np.int64, count=na)
    b_rows = np.fromiter((j for (j, _) in inst.owner_b), dtype=np.int64, count=nb)
    b_cols = np.fromiter((k for (_, k) in inst.owner_b), dtype=np.int64, count=nb)
    src = np.concatenate(
        [inst.owner_of_a(a_rows, a_cols), inst.owner_of_b(b_rows, b_cols)]
    )
    dst = np.zeros(na + nb, dtype=np.int64)
    keys = [("A", i, j) for i, j in zip(a_rows.tolist(), a_cols.tolist())]
    keys += [("B", j, k) for j, k in zip(b_rows.tolist(), b_cols.tolist())]
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

    sr = inst.semiring
    tri = inst.triangles.triangles
    if tri.shape[0] == 0:
        return finalize_result(net, inst, "naive_triangles")

    xo_arr = inst.owner_of_x(tri[:, 0], tri[:, 2])
    xo = xo_arr.tolist()
    ti, tj, tk = (tri[:, c].tolist() for c in range(3))

    # Route A values to the X owner of each triangle.  Deduplicate: the X
    # owner needs each distinct A entry only once.  First-occurrence order
    # (in triangle order) is load-bearing — it fixes the message order and
    # hence the greedy schedule.
    _, first = group_ids(xo_arr, tri[:, 0], tri[:, 1])
    keys = [("A", ti[t], tj[t]) for t in first.tolist()]
    src = inst.owner_of_a(tri[first, 0], tri[first, 1])
    net.exchange_arrays(src, xo_arr[first], keys, label="routeA")

    _, first = group_ids(xo_arr, tri[:, 1], tri[:, 2])
    keys = [("B", tj[t], tk[t]) for t in first.tolist()]
    src = inst.owner_of_b(tri[first, 1], tri[first, 2])
    net.exchange_arrays(src, xo_arr[first], keys, label="routeB")

    # Local processing at the X owners, in triangle order.
    prods = local_products(
        net,
        sr,
        xo,
        [("A", i, j) for i, j in zip(ti, tj)],
        [("B", j, k) for j, k in zip(tj, tk)],
    )
    accumulate_at_owners(net, sr, xo, [("X", i, k) for i, k in zip(ti, tk)], prods)

    return finalize_result(net, inst, "naive_triangles")

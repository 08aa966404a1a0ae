"""Dense distributed matrix multiplication in the low-bandwidth model.

Three standalone algorithms (Table 1 rows 2-3) plus the cluster-parallel
kernel used by Theorem 4.2's first phase (Lemma 2.1):

``dense_3d``
    The 3D / cube algorithm of Censor-Hillel et al. [3] adapted to one
    message per round: computers form a ``q x q x q`` grid (``q = n^{1/3}``),
    cell ``(a, b, c)`` receives blocks ``A[I_a, J_b]`` and ``B[J_b, K_c]``
    (``O(n^{4/3})`` values, one per round), multiplies locally, and partial
    sums travel to the output owners — ``O(n^{4/3})`` rounds over any
    semiring.

``sparse_3d``
    The same grid, shipping only nonzero elements — for US(d) inputs each
    computer sends/receives ``O(d n^{1/3})`` values, reproducing the
    ``O(d n^{1/3})`` algorithm of [2].

``dense_strassen``
    A distributed bilinear (Strassen) algorithm for rings/fields: the
    recursion tree of depth ``L = ceil(log7 n)`` is unrolled level by
    level; level ``t`` holds ``7^t`` product nodes whose operand blocks are
    spread over disjoint computer groups, and each level transition is one
    bulk exchange.  Per-computer traffic grows geometrically as
    ``2 n (7/4)^t``, so the last level dominates at
    ``O(n^{1 + log7(7/4)}) = O(n^{2 - 2/omega_0})`` rounds with
    ``omega_0 = log2 7``.  This substitutes for the paper's
    ``O(n^{2-2/omega})`` with ``omega < 2.372`` (see DESIGN.md: those fast
    MM tensors are galactic; Strassen is the strongest implementable one).

``cluster_solve_3d``
    Lemma 2.1: many disjoint ``d x d x d`` clusters processed in parallel,
    each by the 3D pattern, in ``O(d^{4/3})`` rounds total.  The local
    multiply stage is restricted to each cluster's *assigned* triangle set
    so that the two-phase driver never processes a triangle twice — the
    communication schedule (and hence the round count) is identical to the
    unrestricted dense product.

``dense_3d``, ``sparse_3d`` and ``cluster_solve_3d`` follow the keyed rule
of :mod:`repro.algorithms.base`: on a columnar network their route and
aggregate phases are charged with no dict keys, the cells' products come
from the instance's value table, and ``dense_3d``'s partials that no
triangle touches are zeros in the cells' value arrays.  ``dense_strassen``
always moves its words through the dict memories.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.algorithms.base import (
    MultiplyResult,
    accumulate_at_owners,
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
from repro.supported.clustering import Cluster
from repro.supported.instance import SupportedInstance

__all__ = ["dense_3d", "sparse_3d", "dense_strassen", "cluster_solve_3d"]


# --------------------------------------------------------------------- #
# 3D grid machinery
# --------------------------------------------------------------------- #
def _grid_side(n: int) -> int:
    q = max(1, int(round(n ** (1.0 / 3.0))))
    while q * q * q > n:
        q -= 1
    return max(q, 1)


def _block_bounds(n: int, q: int) -> np.ndarray:
    """q+1 breakpoints splitting [0, n) into q nearly-equal intervals."""
    return np.linspace(0, n, q + 1).astype(np.int64)


def _block_of(idx: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    return np.clip(np.searchsorted(bounds, idx, side="right") - 1, 0, bounds.size - 2)


@functools.lru_cache(maxsize=256)
def _block_table(size: int, q: int) -> np.ndarray:
    """Block index of every coordinate in ``[0, size)`` under the q-way
    split of :func:`_block_bounds` — ``_block_of`` tabulated once, so
    lookups are plain indexing."""
    table = _block_of(np.arange(size, dtype=np.int64), _block_bounds(size, q))
    table.setflags(write=False)
    return table


def _cell_computer(a, b, c, q: int):
    return (a * q + b) * q + c


def _route_input_3d(
    net: LowBandwidthNetwork,
    owners: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    first_block: np.ndarray,
    second_block: np.ndarray,
    replicate_axis_len: int,
    cell_of,  # vectorized (fb, sb, layer) -> computer
    key_prefix: str,
    label: str,
    *,
    keyed: bool,
) -> None:
    """Ship each input entry to every grid cell that needs it (one layer
    per replication index).  Batches are built as arrays, entry-major with
    the replication layer innermost — the same message order as the
    historical per-entry loop, so schedules are unchanged."""
    q = replicate_axis_len
    src = np.repeat(owners, q)
    layers = np.tile(np.arange(q, dtype=np.int64), rows.size)
    dst = cell_of(np.repeat(first_block, q), np.repeat(second_block, q), layers)
    keys = key_list(keyed, key_prefix, np.repeat(rows, q), np.repeat(cols, q))
    net.exchange_arrays(src, dst, keys, label=label)


def _aggregate(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    cells: np.ndarray,
    tags: np.ndarray,
    i: np.ndarray,
    k: np.ndarray,
    partials: np.ndarray,
    *,
    keyed: bool,
    prefix: str,
    label: str,
) -> None:
    """Ship partial ``t`` of ``X[i[t], k[t]]`` from ``cells[t]`` to the
    entry's owner, which adds it into ``X`` in element order.  Keyed, the
    cell writes it under ``(prefix, tags[t], i[t], k[t])`` and the word
    moves through the dict memories; columnar, the phase is charged and
    the owners fold ``partials`` directly."""
    owners = inst.owner_of_x(i, k)
    if keyed:
        skeys = key_list(True, prefix, tags, i, k)
        dkeys = key_list(True, f"{prefix}in", tags, i, k)
        net.write_many(cells.tolist(), skeys, partials)
        net.exchange_arrays(cells, owners, skeys, dkeys, label=label)
        partials = net.read_many(owners.tolist(), dkeys, inst.semiring.dtype)
    else:
        net.exchange_arrays(cells, owners, None, label=label)
    accumulate_into_x(net, inst, i, k, partials)


def _run_3d(
    inst: SupportedInstance,
    *,
    dense_local: bool,
    strict: bool,
    net: LowBandwidthNetwork | None,
    algorithm: str,
) -> MultiplyResult:
    if net is None:
        net = LowBandwidthNetwork(inst.n, strict=strict)
    inst.deal_into(net)
    init_outputs(net, inst)

    n = inst.n
    sr = inst.semiring
    q = _grid_side(n)
    block = _block_table(n, q)
    keyed = words_keyed(net)
    exclude_from_plan(net, algorithm)

    # entry arrays in row-major order (the owner dicts' order)
    a_rows, a_cols, a_owners = inst.entries("A")
    b_rows, b_cols, b_owners = inst.entries("B")

    # Phase 1: A[i, j] -> cells (block(i), block(j), c) for every c
    _route_input_3d(
        net,
        a_owners,
        a_rows,
        a_cols,
        block[a_rows],
        block[a_cols],
        q,
        lambda fb, sb, c: _cell_computer(fb, sb, c, q),
        "A",
        f"{algorithm}/routeA",
        keyed=keyed,
    )
    # Phase 2: B[j, k] -> cells (a, block(j), block(k)) for every a
    _route_input_3d(
        net,
        b_owners,
        b_rows,
        b_cols,
        block[b_rows],
        block[b_cols],
        q,
        lambda fb, sb, a: _cell_computer(a, fb, sb, q),
        "B",
        f"{algorithm}/routeB",
        keyed=keyed,
    )

    # Phase 3: local block products.  Each cell (a, b, c) owns the partial
    # X[I_a, K_c] contribution summed over j in J_b.
    pb, pi, pk, pcell, partials = _grid_partials(net, inst, block, q, keyed=keyed)

    # Phase 4: partial sums -> output owners (one message per requested
    # entry per middle-block layer that touched it).
    if dense_local:
        # dense accounting: every cell ships its full X block (requested
        # entries) whether or not the partial is nonzero — missing partials
        # are zeros in the cell's value array
        xi, xk, _ = inst.entries("X")
        nx = xi.size
        xi, xk = np.repeat(xi, q), np.repeat(xk, q)
        layer = np.tile(np.arange(q, dtype=np.int64), nx)
        codes = (layer * n + xi) * n + xk
        order = np.argsort(codes)
        values = sr.zeros(codes.size)
        values[order[np.searchsorted(codes, (pb * n + pi) * n + pk, sorter=order)]] = partials
        pb, pi, pk, partials = layer, xi, xk, values
        pcell = _cell_computer(block[xi], layer, block[xk], q)
    _aggregate(
        net, inst, pcell, pb, pi, pk, partials,
        keyed=keyed, prefix="P3", label=f"{algorithm}/aggregate",
    )

    return finalize_result(net, inst, algorithm)


def _grid_partials(
    net: LowBandwidthNetwork, inst: SupportedInstance, block: np.ndarray, q: int, *, keyed: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 3D pattern's local step: cell ``(a, b, c)`` multiplies its
    triangles and pre-aggregates them per ``(b, i, k)``.  Returns the
    partials' ``(b, i, k, cell)`` arrays in first-occurrence (triangle)
    order and their values."""
    tri = inst.triangles.triangles
    ti, tj, tk = tri[:, 0], tri[:, 1], tri[:, 2]
    jb = block[tj]
    cells = _cell_computer(block[ti], jb, block[tk], q)
    prods = triangle_products(net, inst, cells, tri, keyed=keyed)
    ids, first = group_ids(jb, ti, tk)
    partials = ordered_fold(inst.semiring, prods, ids, firsts=first)
    return jb[first], ti[first], tk[first], cells[first], partials


def dense_3d(
    inst: SupportedInstance, *, strict: bool = False, net: LowBandwidthNetwork | None = None
) -> MultiplyResult:
    """O(n^{4/3})-round dense semiring algorithm (Lemma 2.1 / [3])."""
    return _run_3d(inst, dense_local=True, strict=strict, net=net, algorithm="dense_3d")


def sparse_3d(
    inst: SupportedInstance, *, strict: bool = False, net: LowBandwidthNetwork | None = None
) -> MultiplyResult:
    """O(d n^{1/3})-round sparse 3D algorithm ([2])."""
    return _run_3d(inst, dense_local=False, strict=strict, net=net, algorithm="sparse_3d")


# --------------------------------------------------------------------- #
# Distributed Strassen (fields / rings)
# --------------------------------------------------------------------- #
# Strassen's bilinear algorithm.  Quadrants are numbered 0=11, 1=12, 2=21,
# 3=22.  M_p uses sum(sign * A_quad) * sum(sign * B_quad); quadrant C_quad
# is assembled as sum(sign * M_p).
_A_COEFF = [
    [(0, 1), (3, 1)],  # M1 = (A11 + A22) ...
    [(2, 1), (3, 1)],  # M2 = (A21 + A22) ...
    [(0, 1)],          # M3 = A11 ...
    [(3, 1)],          # M4 = A22 ...
    [(0, 1), (1, 1)],  # M5 = (A11 + A12) ...
    [(2, 1), (0, -1)],  # M6 = (A21 - A11) ...
    [(1, 1), (3, -1)],  # M7 = (A12 - A22) ...
]
_B_COEFF = [
    [(0, 1), (3, 1)],   # ... (B11 + B22)
    [(0, 1)],           # ... B11
    [(1, 1), (3, -1)],  # ... (B12 - B22)
    [(2, 1), (0, -1)],  # ... (B21 - B11)
    [(3, 1)],           # ... B22
    [(0, 1), (1, 1)],   # ... (B11 + B12)
    [(2, 1), (3, 1)],   # ... (B21 + B22)
]
_C_COEFF = [
    [(0, 1), (3, 1), (4, -1), (6, 1)],  # C11 = M1 + M4 - M5 + M7
    [(2, 1), (4, 1)],                   # C12 = M3 + M5
    [(1, 1), (3, 1)],                   # C21 = M2 + M4
    [(0, 1), (1, -1), (2, 1), (5, 1)],  # C22 = M1 - M2 + M3 + M6
]


def _best_levels(n: int, big_n: int) -> int:
    """Recursion depth minimizing estimated per-computer traffic.

    Level ``t`` redistributes ``~2 * 7^t * (N/2^t)^2`` operand elements over
    ``n`` computers; the base case additionally gathers each remaining
    block (``(N/2^L)^2`` elements) onto the ``<= n // 7^L``-wide group's
    head when groups are wider than one computer.  Choosing ``L`` by this
    estimate removes the sawtooth a fixed ``ceil(log7 n)`` rule produces
    and tracks the ``O(n^{2 - 2/omega_0})`` lower envelope.
    """
    best_l, best_cost = 0, float("inf")
    max_l = int(math.log2(big_n))
    for l in range(max_l + 1):
        per_level = [
            2.0 * (7**t) * (big_n / 2**t) ** 2 / n for t in range(l + 1)
        ]
        traffic = sum(per_level)
        width = n // (7**l)
        block = (big_n / 2**l) ** 2
        q = _grid_side(max(width, 1))
        # 3D base: each group computer receives ~2*block/q^2 operand
        # elements and ships ~block*q/width partials
        base = 2.0 * block / (q * q) * max(1.0, (7**l) / n)
        cost = traffic + base
        if cost < best_cost:
            best_cost, best_l = cost, l
    return best_l


def _strassen_home(t: int, g: int, r: int, c: int, m: int, n: int) -> int:
    """Home computer of element (r, c) of product node ``g`` at level ``t``
    (``g``, ``r``, ``c`` may also be aligned arrays).

    Product nodes own disjoint contiguous computer groups of width
    ``n // 7^t``; within a group elements are spread round-robin.  Once
    groups would be empty, nodes fold onto single computers ``g % n``.
    """
    width = n // (7**t)
    if width <= 0:
        return g % n
    return g * width + (r * m + c) % width


def _node_products(ea: np.ndarray, eb: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of an A element ``(g, r, j)`` (row of ``ea``) and a B
    element ``(g, j, c)`` (row of ``eb``) of the same product node: the
    base case's triangles, as index arrays into ``ea`` and ``eb``.

    The order is the nested loop's: nodes by first occurrence (A elements
    first), A elements in row order within a node, and for each the
    matching B elements in row order."""
    node_rank = group_ids(np.concatenate([ea[:, 0], eb[:, 0]]))[0][: len(ea)]
    a_order = np.argsort(node_rank, kind="stable")
    b_code = eb[:, 0] * m + eb[:, 1]
    b_order = np.argsort(b_code, kind="stable")
    b_sorted = b_code[b_order]
    a_code = ea[a_order, 0] * m + ea[a_order, 2]
    lo = np.searchsorted(b_sorted, a_code, side="left")
    counts = np.searchsorted(b_sorted, a_code, side="right") - lo
    starts = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    a_idx = np.repeat(a_order, counts)
    return a_idx, b_order[starts + np.arange(a_idx.size, dtype=np.int64)]


def _strassen_base_3d(
    net: LowBandwidthNetwork,
    sr,
    present_a: dict,
    present_b: dict,
    base_t: int,
    m: int,
    n: int,
    width: int,
) -> dict:
    """Base-case products for :func:`dense_strassen`: within each product
    node's computer group, run the 3D grid pattern (all groups in
    parallel), leaving each C element at its canonical home."""
    q = _grid_side(max(width, 1))
    block = _block_table(m, q)

    def group_cell(g, a, b, c):
        cell = _cell_computer(a, b, c, q)
        return np.broadcast_to(g % n, cell.shape) if width <= 0 else g * width + cell

    # operand elements (g, r, c) and their homes, in insertion order
    ea = np.array(list(present_a), dtype=np.int64).reshape(-1, 3)
    eb = np.array(list(present_b), dtype=np.int64).reshape(-1, 3)
    home_a = np.fromiter(present_a.values(), dtype=np.int64, count=len(present_a))
    home_b = np.fromiter(present_b.values(), dtype=np.int64, count=len(present_b))

    # route operands to grid cells (replicated along one axis)
    layers = np.arange(q, dtype=np.int64)[None, :]
    ga, ra, ca = ea[:, :1], ea[:, 1:2], ea[:, 2:]
    gb, rb, cb = eb[:, :1], eb[:, 1:2], eb[:, 2:]
    net.exchange_arrays(
        np.concatenate([np.repeat(home_a, q), np.repeat(home_b, q)]),
        np.concatenate([
            group_cell(ga, block[ra], block[ca], layers).ravel(),
            group_cell(gb, layers, block[rb], block[cb]).ravel(),
        ]),
        [("SA", base_t, g, r, c) for g, r, c in ea.tolist() for _ in range(q)]
        + [("SB", base_t, g, r, c) for g, r, c in eb.tolist() for _ in range(q)],
        label="strassen/base-route",
    )

    # local block products per cell, pre-aggregated per (g, r, c, cell)
    a_idx, b_idx = _node_products(ea, eb, m)
    tg, tr, tj, tc = ea[a_idx, 0], ea[a_idx, 1], ea[a_idx, 2], eb[b_idx, 2]
    cells = group_cell(tg, block[tr], block[tj], block[tc])
    gl, rl, jl, cl = tg.tolist(), tr.tolist(), tj.tolist(), tc.tolist()
    prods = local_products(
        net,
        sr,
        cells.tolist(),
        [("SA", base_t, g, r, j) for g, r, j in zip(gl, rl, jl)],
        [("SB", base_t, g, j, c) for g, j, c in zip(gl, jl, cl)],
    )
    ids, first = group_ids(tg, tr, tc, cells)
    pg, pr, pc, pcell = tg[first], tr[first], tc[first], cells[first]
    quads = list(zip(pg.tolist(), pr.tolist(), pc.tolist(), pcell.tolist()))
    skeys = [("PB", g, r, c, cell) for g, r, c, cell in quads]
    net.write_many(pcell.tolist(), skeys, ordered_fold(sr, prods, ids, firsts=first))

    # ship partials to the canonical C homes and combine
    homes = _strassen_home(base_t, pg, pr, pc, m, n)
    dkeys = [("PBin", g, r, c, cell) for g, r, c, cell in quads]
    net.exchange_arrays(pcell, homes, skeys, dkeys, label="strassen/base-aggregate")
    homes = homes.tolist()
    ids, first = group_ids(pg, pr, pc)
    combined = ordered_fold(
        sr, net.read_many(homes, dkeys, sr.dtype), ids, seed=sr.zeros(first.size)
    )
    present_c = {quads[t][:3]: homes[t] for t in first.tolist()}
    net.write_many(
        list(present_c.values()),
        [("SC", base_t, g, r, c) for g, r, c in present_c],
        combined,
    )
    net.delete_many(homes, dkeys)
    return present_c


def dense_strassen(
    inst: SupportedInstance,
    *,
    strict: bool = False,
    net: LowBandwidthNetwork | None = None,
    levels: int | None = None,
) -> MultiplyResult:
    """Distributed Strassen over a ring/field: ``O(n^{2 - 2/log2(7)})``.

    Requires ``inst.semiring.sub`` (Strassen needs subtraction); raises
    ``ValueError`` otherwise — this is exactly the paper's semiring/field
    divide.
    """
    sr = inst.semiring
    if sr.sub is None:
        raise ValueError("Strassen requires a ring/field (subtraction); got " + sr.name)
    if net is None:
        net = LowBandwidthNetwork(inst.n, strict=strict)
    inst.deal_into(net)
    init_outputs(net, inst)

    n = inst.n
    big_n = 1 << max(1, math.ceil(math.log2(n)))
    if levels is None:
        levels = _best_levels(n, big_n)
    levels = min(levels, int(math.log2(big_n)))

    zero = sr.scalar(sr.zero)
    sub = sr.sub
    add = sr.add

    # ---------------- initial layout: level 0 --------------------------- #
    # present[side] : dict{(g, r, c): home}
    def deal_level0(owners: dict, prefix: str, side: str):
        src, dst, skeys, dkeys = [], [], [], []
        present = {}
        for (r, c), owner in owners.items():
            home = _strassen_home(0, 0, r, c, big_n, n)
            present[(0, r, c)] = home
            src.append(owner)
            dst.append(home)
            skeys.append((prefix, r, c))
            dkeys.append((side, 0, 0, r, c))
        net.exchange_arrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            skeys,
            dkeys,
            label="strassen/deal",
        )
        return present

    present_a = deal_level0(inst.owner_a, "A", "SA")
    present_b = deal_level0(inst.owner_b, "B", "SB")

    # ---------------- forward levels ------------------------------------ #
    def forward(present: dict, side: str, coeff, t: int, m: int) -> dict:
        """One level transition t -> t+1 for one operand side."""
        m2 = m // 2
        # collect messages: parent element -> child elements
        src, dst, skeys, dkeys = [], [], [], []
        child_contribs: dict[tuple[int, int, int], list[tuple[object, int]]] = {}
        for (g, r, c), home in present.items():
            quad = (2 if r >= m2 else 0) + (1 if c >= m2 else 0)
            rr, cc = r % m2, c % m2
            for p in range(7):
                for (qd, sign) in coeff[p]:
                    if qd != quad:
                        continue
                    child_g = 7 * g + p
                    child_home = _strassen_home(t + 1, child_g, rr, cc, m2, n)
                    tmp_key = (side + "t", t + 1, child_g, rr, cc, quad)
                    src.append(home)
                    dst.append(child_home)
                    skeys.append((side, t, g, r, c))
                    dkeys.append(tmp_key)
                    child_contribs.setdefault((child_g, rr, cc), []).append(
                        (tmp_key, sign)
                    )
        net.exchange_arrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            skeys,
            dkeys,
            label=f"strassen/fwd{t}",
        )
        # local combination with signs
        new_present = {}
        for (child_g, rr, cc), contribs in child_contribs.items():
            home = _strassen_home(t + 1, child_g, rr, cc, m2, n)
            acc = zero
            for key, sign in contribs:
                val = net.read(home, key)
                acc = add(acc, val) if sign > 0 else sub(acc, val)
                net.delete(home, key)
            net.write(home, (side, t + 1, child_g, rr, cc), acc, provenance=())
            new_present[(child_g, rr, cc)] = home
        return new_present

    m = big_n
    for t in range(levels):
        present_a = forward(present_a, "SA", _A_COEFF, t, m)
        present_b = forward(present_b, "SB", _B_COEFF, t, m)
        m //= 2

    # ---------------- base case: 3D product within each group ----------- #
    # At level ``levels`` every product node owns a group of ``width``
    # consecutive computers (or shares one computer when 7^L > n).  Each
    # group runs the 3D dense pattern on its m x m product — this hybrid
    # (Strassen on top, 3D at the base) is what realizes the
    # O(n^{2-2/omega_0}) bound without a single-computer gather bottleneck.
    base_t = levels
    width = n // (7**base_t)
    present_c = _strassen_base_3d(
        net, sr, present_a, present_b, base_t, m, n, width
    )

    # ---------------- backward levels ----------------------------------- #
    for t in range(levels - 1, -1, -1):
        m2 = m
        m = m * 2
        src, dst, skeys, dkeys = [], [], [], []
        parent_contribs: dict[tuple[int, int, int], list[tuple[object, int]]] = {}
        for (child_g, rr, cc), home in present_c.items():
            g, p = divmod(child_g, 7)
            for quad in range(4):
                for (mp, sign) in _C_COEFF[quad]:
                    if mp != p:
                        continue
                    r = rr + (m2 if quad >= 2 else 0)
                    c = cc + (m2 if quad % 2 == 1 else 0)
                    parent_home = _strassen_home(t, g, r, c, m, n)
                    tmp_key = ("SCt", t, g, r, c, p)
                    src.append(home)
                    dst.append(parent_home)
                    skeys.append(("SC", t + 1, child_g, rr, cc))
                    dkeys.append(tmp_key)
                    parent_contribs.setdefault((g, r, c), []).append((tmp_key, sign))
        net.exchange_arrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            skeys,
            dkeys,
            label=f"strassen/bwd{t}",
        )
        new_present = {}
        for (g, r, c), contribs in parent_contribs.items():
            home = _strassen_home(t, g, r, c, m, n)
            acc = zero
            for key, sign in contribs:
                val = net.read(home, key)
                acc = add(acc, val) if sign > 0 else sub(acc, val)
                net.delete(home, key)
            net.write(home, ("SC", t, g, r, c), acc, provenance=())
            new_present[(g, r, c)] = home
        present_c = new_present

    # ---------------- deliver requested entries ------------------------- #
    src, dst, skeys, dkeys, xkeys = [], [], [], [], []
    for (i, k), owner in inst.owner_x.items():
        if (0, i, k) not in present_c:
            continue  # no contribution: owner's zero stands
        src.append(present_c[(0, i, k)])
        dst.append(owner)
        skeys.append(("SC", 0, 0, i, k))
        dkeys.append(("Xin", i, k))
        xkeys.append(("X", i, k))
    net.exchange_arrays(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        skeys,
        dkeys,
        label="strassen/deliver",
    )
    accumulate_at_owners(net, sr, dst, xkeys, net.read_many(dst, dkeys, sr.dtype))

    return finalize_result(net, inst, "dense_strassen", details={"levels": levels})


# --------------------------------------------------------------------- #
# Lemma 2.1: cluster-parallel dense solve
# --------------------------------------------------------------------- #
def cluster_solve_3d(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    clusters: Sequence[Cluster],
    triangle_arrays: Sequence[np.ndarray],
    *,
    label: str = "lemma21",
) -> int:
    """Process each cluster's assigned triangles via the 3D dense pattern,
    all clusters in parallel; returns rounds consumed.

    ``triangle_arrays[c]`` are the triangles assigned to ``clusters[c]``
    (all inside the cluster's index sets).  Blocks of ``A[I', J']`` and
    ``B[J', K']`` are shipped to the cluster's grid cells — hosted on the
    cluster's own ``I'`` computers — exactly as in the dense algorithm, so
    the round cost is ``O(d^{4/3})`` regardless of how many clusters run
    (their computer sets are disjoint).
    """
    rounds_before = net.rounds
    sr = inst.semiring
    n = inst.n
    keyed = words_keyed(net)
    exclude_from_plan(net, "cluster_solve_3d")

    # per input matrix: the route phase's sources, destinations and the
    # (row, col) of each shipped entry
    routes = {"A": ([], [], []), "B": ([], [], [])}
    # the local step's triangles, grouped by cell: (cluster, cell, triangle)
    job_cluster, job_cells, job_tris = [], [], []
    for cidx, (cluster, tri) in enumerate(zip(clusters, triangle_arrays)):
        tri = np.asarray(tri, dtype=np.int64).reshape(-1, 3)
        if tri.shape[0] == 0:
            continue
        q = _grid_side(max(cluster.i_set.size, 1))
        hosts = cluster.i_set  # the cluster's computers

        rank_i = np.full(n, -1, dtype=np.int64)
        rank_i[cluster.i_set] = np.arange(cluster.i_set.size)
        rank_j = np.full(n, -1, dtype=np.int64)
        rank_j[cluster.j_set] = np.arange(cluster.j_set.size)
        rank_k = np.full(n, -1, dtype=np.int64)
        rank_k[cluster.k_set] = np.arange(cluster.k_set.size)

        ab = _block_table(cluster.i_set.size, q)[rank_i[tri[:, 0]]]
        jb = _block_table(cluster.j_set.size, q)[rank_j[tri[:, 1]]]
        kb = _block_table(cluster.k_set.size, q)[rank_k[tri[:, 2]]]
        cells = hosts[_cell_computer(ab, jb, kb, q) % hosts.size]

        # group triangles by cell
        order = np.argsort(cells, kind="stable")
        job_cluster.append(np.full(order.size, cidx, dtype=np.int64))
        job_cells.append(cells[order])
        job_tris.append(tri[order])

        # distinct A / B entries used, replicated across the q layers
        layers = np.arange(q, dtype=np.int64)[None, :]
        _, fa = np.unique(tri[:, 0] * n + tri[:, 1], return_index=True)
        _, fb = np.unique(tri[:, 1] * n + tri[:, 2], return_index=True)
        cell_a = _cell_computer(ab[fa, None], jb[fa, None], layers, q)
        cell_b = _cell_computer(layers, jb[fb, None], kb[fb, None], q)
        for name, ent, owner_of, cell in (
            ("A", tri[fa, :2], inst.owner_of_a, cell_a),
            ("B", tri[fb, 1:], inst.owner_of_b, cell_b),
        ):
            src, dst, entries = routes[name]
            src.append(np.repeat(owner_of(ent[:, 0], ent[:, 1]), q))
            dst.append(hosts[cell % hosts.size].ravel())
            entries.append(np.repeat(ent, q, axis=0))

    if not job_tris:
        return 0

    for name, (src, dst, entries) in routes.items():
        entries = np.concatenate(entries)
        net.exchange_arrays(
            np.concatenate(src), np.concatenate(dst),
            key_list(keyed, name, entries[:, 0], entries[:, 1]), label=f"{label}/route{name}",
        )

    # local multiply restricted to assigned triangles, pre-aggregated per
    # (cluster, cell, i, k)
    tri = np.concatenate(job_tris)
    tc = np.concatenate(job_cells)
    prods = triangle_products(net, inst, tc, tri, keyed=keyed)
    ids, first = group_ids(np.concatenate(job_cluster), tc, tri[:, 0], tri[:, 2])
    comps = tc[first]
    _aggregate(
        net, inst, comps, comps, tri[first, 0], tri[first, 2],
        ordered_fold(sr, prods, ids, firsts=first),
        keyed=keyed, prefix="PC", label=f"{label}/aggregate",
    )

    return net.rounds - rounds_before

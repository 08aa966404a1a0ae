"""Multi-group distributed Strassen: the field kernel of Lemma 2.1.

The two-phase algorithm's first phase processes many disjoint
``d x d x d`` clusters *in parallel*.  Over fields the paper's Lemma 2.1
uses a fast (bilinear) kernel inside each cluster; this engine runs one
Strassen recursion per cluster with all clusters' message batches merged
phase by phase, so the wave costs the rounds of a single kernel run.

A bilinear kernel necessarily computes the *full* block product — it
cannot skip individual triangles.  The two-phase driver therefore pairs
this engine with a **subtraction-based correction** (possible over
fields, impossible over semirings): hat-triangles of a cluster that were
already processed in an earlier wave are re-processed with negated
products via Lemma 3.1, cancelling the double count exactly.  See
``multiply_two_phase(kernel="strassen")``.

Jobs use local coordinates ``0..dim-1`` (``dim`` padded to a power of
two); operands are routed in from their real owners at level 0 and the
requested product entries are accumulated at the output owners at the
end.  The per-job layout mirrors :func:`repro.algorithms.dense.dense_strassen`
(operand groups, a 3D base case inside each product group).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.algorithms.base import (
    accumulate_at_owners,
    group_ids,
    local_products,
    ordered_fold,
)
from repro.algorithms.dense import (
    _A_COEFF,
    _B_COEFF,
    _C_COEFF,
    _best_levels,
    _block_table,
    _cell_computer,
    _grid_side,
    _node_products,
)
from repro.model.network import LowBandwidthNetwork, NetworkError

__all__ = ["StrassenJob", "run_strassen_jobs"]


@dataclass
class StrassenJob:
    """One cluster's bilinear product, in local coordinates.

    ``a_entries[(r, c)] = (owner, src_key)`` — where to fetch ``A[r, c]``;
    ``outputs[(r, c)] = (owner, dst_key)`` — where the product entry
    ``C[r, c]`` must be accumulated (only requested entries listed).
    """

    jid: int
    computers: np.ndarray  # the cluster's real computers (disjoint across jobs)
    dim: int  # logical matrix dimension (any positive int)
    a_entries: dict
    b_entries: dict
    outputs: dict

    padded: int = field(init=False)

    def __post_init__(self):
        self.computers = np.asarray(self.computers, dtype=np.int64)
        if self.computers.size == 0:
            raise ValueError("job needs at least one computer")
        self.padded = 1 << max(1, math.ceil(math.log2(max(self.dim, 2))))

    def home(self, t: int, g: int, r: int, c: int, m: int) -> int:
        """Home computer of element (r, c) of product node g at level t,
        within this job's computer group."""
        w = self.computers.size
        width = w // (7**t)
        if width <= 0:
            return int(self.computers[g % w])
        return int(self.computers[g * width + (r * m + c) % width])


def _levels_for(jobs: Sequence[StrassenJob]) -> int:
    """A common recursion depth (phases are merged across jobs)."""
    return min(_best_levels(job.computers.size, job.padded) for job in jobs)


def run_strassen_jobs(
    net: LowBandwidthNetwork,
    sr,
    jobs: Sequence[StrassenJob],
    *,
    label: str = "strassen-wave",
    levels: int | None = None,
) -> int:
    """Execute all jobs' Strassen recursions in parallel; returns rounds.

    Requires ``sr.sub`` (bilinear combinations need signs).
    """
    if sr.sub is None:
        raise ValueError("the Strassen kernel requires a ring/field")
    if not jobs:
        return 0
    rounds_before = net.rounds
    if levels is None:
        levels = _levels_for(jobs)
    levels = min(levels, min(int(math.log2(job.padded)) for job in jobs))

    zero = sr.scalar(sr.zero)
    add, sub = sr.add, sr.sub

    # ---------------- level-0 deal --------------------------------------- #
    src, dst, skeys, dkeys = [], [], [], []
    present_a: dict[int, dict] = {}
    present_b: dict[int, dict] = {}
    for job in jobs:
        pa, pb = {}, {}
        for (r, c), (owner, key) in job.a_entries.items():
            home = job.home(0, 0, r, c, job.padded)
            pa[(0, r, c)] = home
            src.append(owner)
            dst.append(home)
            skeys.append(key)
            dkeys.append(("jSA", job.jid, 0, 0, r, c))
        for (r, c), (owner, key) in job.b_entries.items():
            home = job.home(0, 0, r, c, job.padded)
            pb[(0, r, c)] = home
            src.append(owner)
            dst.append(home)
            skeys.append(key)
            dkeys.append(("jSB", job.jid, 0, 0, r, c))
        present_a[job.jid] = pa
        present_b[job.jid] = pb
    net.exchange_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        skeys, dkeys, label=f"{label}/deal",
    )

    # ---------------- forward levels ------------------------------------- #
    def forward(side: str, coeff, t: int):
        src, dst, skeys, dkeys = [], [], [], []
        combos: dict[int, dict] = {job.jid: {} for job in jobs}
        presents = present_a if side == "jSA" else present_b
        for job in jobs:
            m = job.padded >> t
            m2 = m // 2
            for (g, r, c), home in presents[job.jid].items():
                quad = (2 if r >= m2 else 0) + (1 if c >= m2 else 0)
                rr, cc = r % m2, c % m2
                for p in range(7):
                    for (qd, sign) in coeff[p]:
                        if qd != quad:
                            continue
                        child_g = 7 * g + p
                        child_home = job.home(t + 1, child_g, rr, cc, m2)
                        tmp = (side + "t", job.jid, t + 1, child_g, rr, cc, quad)
                        src.append(home)
                        dst.append(child_home)
                        skeys.append((side, job.jid, t, g, r, c))
                        dkeys.append(tmp)
                        combos[job.jid].setdefault((child_g, rr, cc), []).append(
                            (tmp, sign)
                        )
        net.exchange_arrays(
            np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
            skeys, dkeys, label=f"{label}/fwd{t}",
        )
        for job in jobs:
            m2 = (job.padded >> t) // 2
            new_present = {}
            for (child_g, rr, cc), contribs in combos[job.jid].items():
                home = job.home(t + 1, child_g, rr, cc, m2)
                acc = zero
                for key, sign in contribs:
                    val = net.read(home, key)
                    acc = add(acc, val) if sign > 0 else sub(acc, val)
                    net.delete(home, key)
                net.write(home, (side, job.jid, t + 1, child_g, rr, cc), acc, provenance=())
                new_present[(child_g, rr, cc)] = home
            presents[job.jid] = new_present

    for t in range(levels):
        forward("jSA", _A_COEFF, t)
        forward("jSB", _B_COEFF, t)

    # ---------------- base case: per-group 3D ----------------------------- #
    base_t = levels
    # route operands to grid cells of each product group
    src, dst, keys = [], [], []
    grids = {}
    for job in jobs:
        w = job.computers.size
        width = w // (7**base_t)
        q = _grid_side(max(width, 1))
        m = job.padded >> base_t
        grids[job.jid] = (width, q, m)
        block = _block_table(m, q).tolist()

        def group_cell(g, a, b, c, job=job, width=width, q=q):
            if width <= 0:
                return int(job.computers[g % job.computers.size])
            return int(job.computers[g * width + _cell_computer(a, b, c, q)])

        for side, presents in (("jSA", present_a), ("jSB", present_b)):
            for (g, r, c), home in presents[job.jid].items():
                rb, cb = block[r], block[c]
                for layer in range(q):
                    src.append(home)
                    dst.append(
                        group_cell(g, rb, cb, layer)
                        if side == "jSA"
                        else group_cell(g, layer, rb, cb)
                    )
                    keys.append((side, job.jid, base_t, g, r, c))
    net.exchange_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        keys, label=f"{label}/base-route",
    )

    # local products per cell, then ship partials to canonical C homes
    src, dst, skeys, dkeys = [], [], [], []
    combines = []  # per job: (homes, tmp keys, group ids, (g, r, c) groups)
    for job in jobs:
        width, q, m = grids[job.jid]
        block = _block_table(m, q)
        ea = np.array(list(present_a[job.jid]), dtype=np.int64).reshape(-1, 3)
        eb = np.array(list(present_b[job.jid]), dtype=np.int64).reshape(-1, 3)
        a_idx, b_idx = _node_products(ea, eb, m)
        tg, tr, tj, tc = ea[a_idx, 0], ea[a_idx, 1], ea[a_idx, 2], eb[b_idx, 2]
        if width <= 0:
            cells = job.computers[tg % job.computers.size]
        else:
            cell = _cell_computer(block[tr], block[tj], block[tc], q)
            cells = job.computers[tg * width + cell]
        gl, rl, jl, cl = tg.tolist(), tr.tolist(), tj.tolist(), tc.tolist()
        prods = local_products(
            net,
            sr,
            cells.tolist(),
            [("jSA", job.jid, base_t, g, r, j) for g, r, j in zip(gl, rl, jl)],
            [("jSB", job.jid, base_t, g, j, c) for g, j, c in zip(gl, jl, cl)],
        )
        ids, first = group_ids(tg, tr, tc, cells)
        pg, pr, pc, pcell = tg[first], tr[first], tc[first], cells[first]
        quads = list(zip(pg.tolist(), pr.tolist(), pc.tolist(), pcell.tolist()))
        job_skeys = [("jPB", job.jid, g, r, c, cell) for g, r, c, cell in quads]
        net.write_many(pcell.tolist(), job_skeys, ordered_fold(sr, prods, ids, firsts=first))
        homes = [job.home(base_t, g, r, c, m) for g, r, c, _ in quads]
        tmps = [("jPBin", job.jid, g, r, c, cell) for g, r, c, cell in quads]
        src += pcell.tolist()
        dst += homes
        skeys += job_skeys
        dkeys += tmps
        ids, first = group_ids(pg, pr, pc)
        combines.append((homes, tmps, ids, [quads[t][:3] for t in first.tolist()]))
    net.exchange_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        skeys, dkeys, label=f"{label}/base-aggregate",
    )
    present_c: dict[int, dict] = {}
    for job, (homes, tmps, ids, groups) in zip(jobs, combines):
        combined = ordered_fold(
            sr, net.read_many(homes, tmps, sr.dtype), ids, seed=sr.zeros(len(groups))
        )
        m = grids[job.jid][2]
        pc = {(g, r, c): job.home(base_t, g, r, c, m) for g, r, c in groups}
        net.write_many(
            list(pc.values()),
            [("jSC", job.jid, base_t, g, r, c) for g, r, c in groups],
            combined,
        )
        net.delete_many(homes, tmps)
        present_c[job.jid] = pc

    # ---------------- backward levels ------------------------------------- #
    for t in range(levels - 1, -1, -1):
        src, dst, skeys, dkeys = [], [], [], []
        combos: dict[int, dict] = {job.jid: {} for job in jobs}
        for job in jobs:
            m2 = job.padded >> (t + 1)
            m = m2 * 2
            for (child_g, rr, cc), home in present_c[job.jid].items():
                g, p = divmod(child_g, 7)
                for quad in range(4):
                    for (mp, sign) in _C_COEFF[quad]:
                        if mp != p:
                            continue
                        r = rr + (m2 if quad >= 2 else 0)
                        c = cc + (m2 if quad % 2 == 1 else 0)
                        parent_home = job.home(t, g, r, c, m)
                        tmp = ("jSCt", job.jid, t, g, r, c, p)
                        src.append(home)
                        dst.append(parent_home)
                        skeys.append(("jSC", job.jid, t + 1, child_g, rr, cc))
                        dkeys.append(tmp)
                        combos[job.jid].setdefault((g, r, c), []).append((tmp, sign))
        net.exchange_arrays(
            np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
            skeys, dkeys, label=f"{label}/bwd{t}",
        )
        for job in jobs:
            m = job.padded >> t
            new_present = {}
            for (g, r, c), contribs in combos[job.jid].items():
                home = job.home(t, g, r, c, m)
                acc = zero
                for key, sign in contribs:
                    val = net.read(home, key)
                    acc = add(acc, val) if sign > 0 else sub(acc, val)
                    net.delete(home, key)
                net.write(home, ("jSC", job.jid, t, g, r, c), acc, provenance=())
                new_present[(g, r, c)] = home
            present_c[job.jid] = new_present

    # ---------------- deliver requested outputs --------------------------- #
    src, dst, skeys, dkeys, accs = [], [], [], [], []
    for job in jobs:
        pc = present_c[job.jid]
        for (r, c), (owner, dst_key) in job.outputs.items():
            if (0, r, c) not in pc:
                continue  # provably zero: nothing to add
            home = pc[(0, r, c)]
            tmp = ("jXin", job.jid, r, c)
            src.append(home)
            dst.append(owner)
            skeys.append(("jSC", job.jid, 0, 0, r, c))
            dkeys.append(tmp)
            accs.append((owner, dst_key, tmp))
    net.exchange_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        skeys, dkeys, label=f"{label}/deliver",
    )
    for owner, key, _ in accs:
        if not net.holds(owner, key):  # an output nobody initialised starts at zero
            net.write(owner, key, zero)
    owners = [owner for owner, _, _ in accs]
    tmps = [tmp for _, _, tmp in accs]
    accumulate_at_owners(
        net, sr, owners, [key for _, key, _ in accs], net.read_many(owners, tmps, sr.dtype)
    )
    net.delete_many(owners, tmps)

    return net.rounds - rounds_before

"""Lemma 3.1 — the paper's core new algorithm.

Processes an arbitrary set of triangles ``T`` with ``|T| <= kappa * n`` in
``O(kappa + d + log m)`` rounds, where ``m`` bounds the number of triangles
sharing a node pair and ``d`` bounds the number of input/output elements
per computer.  This removes the ``epsilon/2`` exponent loss of the prior
work's second phase and is what pushes Theorem 4.2 to ``O(d^{1.867})`` /
``O(d^{1.832})``.

The implementation follows the paper's proof step by step:

1. **Virtual balanced instance** (§3.2) — node ``i`` touching ``t(i)``
   triangles is split into ``ceil(t(i)/kappa)`` virtual copies, each
   handling at most ``kappa`` triangles; virtual nodes are assigned
   round-robin to real computers (at most a constant number each).
2. **Anchor routing** (§3.3, steps 1-2) — for each input matrix a sorted
   array of triples (``(i, j, i')`` for ``A``) is laid out contiguously
   over the computers, at most ``kappa``-ish slots each.  The owner of each
   value sends it once to the *anchor* (first slot) of its run; the value
   then spreads along the run through parallel binary **broadcast trees**
   (``O(log m)`` rounds); finally each slot forwards to the virtual node's
   host (``O(kappa)`` rounds).
3. **Products and convergecast** (§3.3, step 3) — hosts multiply locally
   and pre-aggregate per output entry; partial sums travel back through the
   mirrored sorted array, are combined along runs by parallel
   **convergecast trees**, and the anchor delivers the final sum to the
   output owner.

Ablation switches reproduce the mechanisms being compared:

* ``use_virtual_nodes=False`` — no balancing; heavy nodes process all their
  triangles themselves (cost degrades toward ``max_v t(v)``).
* ``use_trees=False`` — anchors spread/collect run values by direct
  sequential messages instead of trees (cost gains an additive ``O(m)``,
  the factor the paper's tree routing removes).

There is one pipeline: every phase's endpoint arrays are built once,
array-native.  When words move through the per-computer dict memories
(strict mode, a wire transport, fault injection, ``columnar=False``) the
phases carry keys and each computer runs its local steps on what it
holds.  Otherwise the phases are charged columnar and the values come
from :meth:`repro.model.plan.StageFold.totals` — the same additions, in
the order the convergecast trees fix, so both give the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import accumulate_at_owners, local_products, ordered_fold
from repro.model.collectives import doubling_batches_arrays, halving_batches_arrays
from repro.model.network import LowBandwidthNetwork
from repro.model.plan import StageFold
from repro.supported.instance import SupportedInstance

__all__ = ["process_few_triangles", "default_kappa"]


def default_kappa(num_triangles: int, n: int) -> int:
    """The balanced per-virtual-node budget ``kappa = ceil(|T| / n)``."""
    return max(1, -(-num_triangles // n))


def _dedup_triples(a: np.ndarray, b: np.ndarray, c: np.ndarray, base_b: int, base_c: int):
    """Lexicographically sorted distinct triples (a, b, c), plus the inverse
    map from each input position to its slot in the deduplicated array."""
    keys = (a.astype(np.int64) * base_b + b.astype(np.int64)) * base_c + c.astype(np.int64)
    uniq, inv = np.unique(keys, return_inverse=True)
    cc = uniq % base_c
    rest = uniq // base_c
    bb = rest % base_b
    aa = rest // base_b
    return aa, bb, cc, inv.astype(np.int64, copy=False)


def _layout(first: np.ndarray, second: np.ndarray, n: int):
    """Lay a sorted triple array over the computers in contiguous chunks of
    ``ceil(slots / n)`` slots (the paper's 'at most kappa triples each').

    Returns ``(slot_comp, starts, seg_first, seg_of_slot, seg_counts)``:
    each slot's computer, the first slot (anchor) of each run of equal
    ``(first, second)``, the first slot of each (run, computer) segment,
    each slot's segment, and each run's number of segments."""
    num = first.size
    slot_comp = np.arange(num, dtype=np.int64) // -(-num // n)
    pair_keys = first * n + second
    change = np.empty(num, dtype=bool)
    change[0] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=change[1:])
    seg = change.copy()
    seg[1:] |= slot_comp[1:] != slot_comp[:-1]
    seg_first = np.flatnonzero(seg)
    seg_counts = np.bincount(np.cumsum(change)[seg_first] - 1)
    return slot_comp, np.flatnonzero(change), seg_first, np.cumsum(seg) - 1, seg_counts


def _keys(keyed: bool, prefix, *cols):
    """Dict keys ``(prefix, *row)`` for the rows of ``cols`` — or ``None``,
    a columnar phase, when words do not move through dict memories."""
    if not keyed:
        return None
    return [(prefix, *row) for row in zip(*(c.tolist() for c in cols))]


def _along_runs(net, seg_comp, seg_counts, run_keys, sr=None, *, collect, use_trees, label):
    """Spread each run's value from its anchor to the run's other
    computers, or (``collect``) add their partials into the anchor's.

    Run ``g``'s computers are ``seg_comp[starts[g] : starts[g] +
    seg_counts[g]]``, anchor first; only runs on more than one computer
    communicate.  With ``use_trees`` the runs split by parity (neighbouring
    runs may share a computer) and each half moves along parallel
    doubling (spread) or halving (collect) trees, one lockstep batch per
    level; without, each anchor exchanges directly with its run's other
    computers, run by run, in one scheduled batch.  With ``run_keys`` the
    words move through dict memories and a receiver adds each arriving
    partial into its own entry, in message order; without, the phases
    are charged columnar."""
    starts = np.cumsum(seg_counts) - seg_counts
    span = np.flatnonzero(seg_counts > 1)
    if use_trees:
        gen = halving_batches_arrays if collect else doubling_batches_arrays
        batches = (
            (src, dst, runs[k], True)
            for runs in (span[0::2], span[1::2])
            for src, dst, k in gen(seg_comp, starts[runs], seg_counts[runs])
        )
    else:
        others = seg_counts[span] - 1
        run = np.repeat(span, others)
        anchor = starts[run]
        other = anchor + 1 + np.arange(run.size) - np.repeat(np.cumsum(others) - others, others)
        src, dst = (other, anchor) if collect else (anchor, other)
        batches = [(seg_comp[src], seg_comp[dst], run, False)] if run.size else []
    for src, dst, run, lockstep in batches:
        deliver = net._execute_lockstep_arrays if lockstep else net.exchange_arrays
        phase = f"{label}/{'halving' if collect else 'doubling'}" if lockstep else label
        keys = dkeys = None if run_keys is None else [run_keys[r] for r in run.tolist()]
        if collect and keys is not None:
            dkeys = [("__cc__", k, c) for k, c in zip(keys, src.tolist())]
        deliver(src, dst, keys, dkeys, label=phase)
        if dkeys is not keys:
            owners = dst.tolist()
            accumulate_at_owners(net, sr, owners, keys, net.read_many(owners, dkeys, sr.dtype))
            net.delete_many(owners, dkeys)


def _route_to_hosts(
    net, first, second, host, owner_of_pair, owner_key, value_key, *, n, keyed, use_trees, label
) -> None:
    """Steps 1-2 of the routing scheme for one input matrix.

    ``(first, second)`` are the pairs of its deduplicated sorted triple
    array (e.g. ``(i, j)`` of ``(i, j, i')`` for ``A``) and ``host`` each
    triple's virtual-node host.  The owner of each value sends it once to
    its run's anchor, the anchor spreads it along the run, and every slot
    forwards it to its host, which then holds ``(value_key, first, second)``.
    """
    slot_comp, starts, seg_first, _, seg_counts = _layout(first, second, n)
    f, g = first[starts], second[starts]
    run_keys = _keys(keyed, value_key, f, g)
    net.exchange_arrays(
        owner_of_pair(f, g), slot_comp[starts], _keys(keyed, owner_key, f, g), run_keys,
        label=f"{label}-anchor",
    )
    _along_runs(
        net, slot_comp[seg_first], seg_counts, run_keys,
        collect=False, use_trees=use_trees, label=f"{label}-spread",
    )
    net.exchange_arrays(
        slot_comp, host, _keys(keyed, value_key, first, second), label=f"{label}-tohost"
    )


def process_few_triangles(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    triangles: np.ndarray,
    kappa: int | None = None,
    *,
    use_virtual_nodes: bool = True,
    use_trees: bool = True,
    negate: bool = False,
    label: str = "lemma31",
) -> int:
    """Process ``triangles`` per Lemma 3.1; returns rounds consumed.

    Preconditions: inputs dealt (``inst.deal_into(net)``) and outputs
    initialized (:func:`repro.algorithms.base.init_outputs`).  On return
    every product ``A[i,j] * B[j,k]`` of the given triangles has been
    accumulated into ``("X", i, k)`` at the output owner.

    ``negate=True`` accumulates the *negated* products instead (requires a
    ring/field): the two-phase driver's field mode uses this to cancel
    triangle contributions that a bilinear cluster kernel double-counted.

    On networks with ``net.columnar`` set, the same phases are charged
    columnar and the values fold in planes (:class:`StageFold`);
    schedules, labels, round counts and values are identical to the
    per-message path — see docs/model.md, "Fast path & schedule cache".
    """
    rounds_before = net.rounds
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    if tri.shape[0] == 0:
        return 0
    n = inst.n
    sr = inst.semiring
    if negate and sr.sub is None:
        raise ValueError("negated processing requires a ring/field")
    if kappa is None:
        kappa = default_kappa(tri.shape[0], n)

    # transient keys are namespaced per invocation so that repeated calls
    # on one network (two-phase driver, BD split) never read stale partials
    tag = getattr(net, "_l31_invocations", 0)
    net._l31_invocations = tag + 1
    av_key = f"Av{tag}"
    bv_key = f"Bv{tag}"
    p_key = f"P{tag}"
    ps_key = f"Ps{tag}"
    xa_key = f"Xa{tag}"
    xin_key = f"Xin{tag}"

    # ------------------------------------------------------------------ #
    # Virtual balanced instance (§3.2)
    # ------------------------------------------------------------------ #
    if use_virtual_nodes:
        order = np.argsort(tri[:, 0], kind="stable")
        tri = tri[order]
        i_col = tri[:, 0]
        # rank of each triangle within its i-group
        starts = np.concatenate(([True], i_col[1:] != i_col[:-1]))
        group_start_idx = np.flatnonzero(starts)
        group_of = np.cumsum(starts) - 1
        rank_in_group = np.arange(tri.shape[0]) - group_start_idx[group_of]
        copy = rank_in_group // kappa
        # virtual id = dense index of (i, copy)
        vkeys = i_col * (tri.shape[0] + 1) + copy
        uniq, vids = np.unique(vkeys, return_inverse=True)
        num_vids = uniq.size
    else:
        # no balancing: one processor per i node
        vids = tri[:, 0].copy()
        num_vids = n

    # hosts: round-robin => at most ceil(num_vids / n) <= 2 virtual nodes
    # per real computer (since |T| <= kappa*n implies num_vids <= 2n)
    if use_virtual_nodes:
        host_of_vid = np.arange(num_vids, dtype=np.int64) % n
    else:
        host_of_vid = np.arange(n, dtype=np.int64)

    keyed = net.strict or not getattr(net, "columnar", False)
    rec = getattr(net, "plan_recorder", None)
    if keyed and rec is not None:
        # the message path's value movement is per-key dict traffic; the
        # flat-plan compiler only understands the columnar pipeline
        rec.mark_unplannable("message-path execution (strict or non-columnar)")

    # ------------------------------------------------------------------ #
    # Steps 1-2: route A and B values to the virtual hosts
    # ------------------------------------------------------------------ #
    vid_base = num_vids + 1
    for name, (c0, c1), owner_of_pair, value_key in (
        ("A", (0, 1), inst.owner_of_a, av_key),
        ("B", (1, 2), inst.owner_of_b, bv_key),
    ):
        first, second, tv, _ = _dedup_triples(tri[:, c0], tri[:, c1], vids, n, vid_base)
        _route_to_hosts(
            net, first, second, host_of_vid[tv], owner_of_pair, name, value_key,
            n=n, keyed=keyed, use_trees=use_trees, label=f"{label}/{name}",
        )

    # ------------------------------------------------------------------ #
    # Step 3a: local products, pre-aggregated per (vid, i, k) at the host
    # ------------------------------------------------------------------ #
    xi, xk, xv, x_inv = _dedup_triples(tri[:, 0], tri[:, 2], vids, n, vid_base)
    slot_comp, starts, seg_first, seg_of_slot, seg_counts = _layout(xi, xk, n)
    slot_host = host_of_vid[xv]
    p_keys = _keys(keyed, p_key, xv, xi, xk)
    ps_keys = _keys(keyed, ps_key, xv, xi, xk)
    if keyed:
        prods = local_products(
            net, sr, host_of_vid[vids].tolist(),
            _keys(True, av_key, tri[:, 0], tri[:, 1]), _keys(True, bv_key, tri[:, 1], tri[:, 2]),
        )
        if negate:
            prods = sr.sub(sr.zeros(prods.size), prods)
        net.write_many(
            slot_host.tolist(), p_keys, ordered_fold(sr, prods, x_inv, seed=sr.zeros(xi.size))
        )

    # ------------------------------------------------------------------ #
    # Step 3b: output triple array (i, k, vid), host -> slot computers,
    # which pre-aggregate their partials per (i, k)
    # ------------------------------------------------------------------ #
    net.exchange_arrays(slot_host, slot_comp, p_keys, ps_keys, label=f"{label}/X-toslots")
    run_i, run_k = xi[starts], xk[starts]
    run_keys = _keys(keyed, xa_key, run_i, run_k)
    if keyed:
        partials = net.read_many(slot_comp.tolist(), ps_keys, sr.dtype)
        net.write_many(
            slot_comp[seg_first].tolist(), _keys(True, xa_key, xi[seg_first], xk[seg_first]),
            ordered_fold(sr, partials, seg_of_slot, seed=sr.zeros(seg_first.size)),
        )

    # Step 3c: convergecast along runs toward the anchor
    _along_runs(
        net, slot_comp[seg_first], seg_counts, run_keys, sr,
        collect=True, use_trees=use_trees, label=f"{label}/X-collect",
    )

    # Step 3d: anchor -> output owner; owner accumulates into X
    owners = inst.owner_of_x(run_i, run_k)
    xin_keys = _keys(keyed, xin_key, run_i, run_k)
    net.exchange_arrays(slot_comp[starts], owners, run_keys, xin_keys, label=f"{label}/X-deliver")
    owners = owners.tolist()
    if keyed:
        totals = net.read_many(owners, xin_keys, sr.dtype)
    else:
        fold = StageFold(x_inv, seg_of_slot, seg_counts, use_trees, negate)
        a = inst.a_values_at(tri[:, 0], tri[:, 1])
        b = inst.b_values_at(tri[:, 1], tri[:, 2])
        totals = fold.totals(sr, a[None], b[None])[0]
        if rec is not None:
            # the replay-plan compiler (repro.model.plan) lowers this stage
            # into payload-plane gathers, so warm replays skip the network
            rec.record_stage(tri=tri, run_i=run_i, run_k=run_k, fold=fold, label=label)
    accumulate_at_owners(net, sr, owners, _keys(True, "X", run_i, run_k), totals)
    return net.rounds - rounds_before

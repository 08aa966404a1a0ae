"""Theorem 4.2 — the two-phase algorithm for ``[US:US:AS]``.

Phase 1 (paper §4.2, Lemmas 4.7-4.13): while the instance is triangle-rich,
repeatedly extract a *clustering* — pairwise-disjoint ``d x d x d``
clusters — and batch-process each wave with the dense kernel of Lemma 2.1
(``O(d^{4/3})`` rounds per wave over semirings).

Phase 2 (paper §4.3): the residual triangle set is handed to Lemma 3.1
(:func:`process_few_triangles`), which processes ``kappa * n`` triangles in
``O(kappa + d + log m)`` rounds — the paper's improvement over the prior
``O(d^{2-eps/2})`` bound.

The paper's analysis fixes an epsilon-schedule per step (Tables 3-4, see
:mod:`repro.analysis.parameters` which re-derives them); the executable
driver below uses the *adaptive* version of the same economics: keep
extracting waves while a wave removes more triangles than its dense
processing costs in rounds (``removed / n > wave rounds``), then switch to
phase 2.  Both phases are measured by execution, so the benchmark sweeps
fit the resulting exponent directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import MultiplyResult, finalize_result, init_outputs
from repro.algorithms.dense import cluster_solve_3d
from repro.algorithms.fewtriangles import default_kappa, process_few_triangles
from repro.model.network import LowBandwidthNetwork
from repro.supported.clustering import cluster_labels, extract_clustering
from repro.supported.instance import SupportedInstance
from repro.supported.triangles import TriangleSet

__all__ = ["multiply_two_phase", "TwoPhaseStats"]


@dataclass
class TwoPhaseStats:
    """Per-run accounting for the two phases (used by the ablation bench)."""

    waves: int = 0
    phase1_rounds: int = 0
    phase1_triangles: int = 0
    phase2_rounds: int = 0
    phase2_triangles: int = 0
    phase2_kappa: int = 0


def _strassen_wave(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    clusters,
    remaining: np.ndarray,
    taken: np.ndarray,
) -> int:
    """One phase-1 wave with the bilinear (Strassen) kernel.

    Each cluster's *full* block product is computed (all hat-triangles of
    the cluster contribute); hat-triangles processed in earlier waves are
    then cancelled by negated re-processing through Lemma 3.1.  Returns
    the number of previously-unprocessed triangles covered.
    """
    from repro.algorithms.fewtriangles import default_kappa, process_few_triangles
    from repro.algorithms.strassen_engine import StrassenJob, run_strassen_jobs

    n = inst.n
    full = inst.triangles
    # key sets for membership: remaining triangles (unprocessed)
    def tri_keys(arr):
        return (arr[:, 0].astype(np.int64) * n + arr[:, 1]) * n + arr[:, 2]

    remaining_keys = np.sort(tri_keys(remaining))

    a_csr = inst.a_hat
    b_csr = inst.b_hat
    x_csr = inst.x_hat

    jobs = []
    duplicate_rows = []
    covered = 0
    for jid, cluster in enumerate(clusters):
        i_set = cluster.i_set
        j_set = cluster.j_set
        k_set = cluster.k_set
        i_rank = {int(v): r for r, v in enumerate(i_set)}
        j_rank = {int(v): r for r, v in enumerate(j_set)}
        k_rank = {int(v): r for r, v in enumerate(k_set)}

        def block_entries(csr, row_rank, col_rank):
            out = {}
            for row, rr in row_rank.items():
                for col in csr.indices[csr.indptr[row] : csr.indptr[row + 1]]:
                    cc = col_rank.get(int(col))
                    if cc is not None:
                        out[(rr, cc)] = (row, int(col))
            return out

        a_block = block_entries(a_csr, i_rank, j_rank)
        b_block = block_entries(b_csr, j_rank, k_rank)
        x_block = block_entries(x_csr, i_rank, k_rank)
        if not a_block or not b_block or not x_block:
            continue

        jobs.append(
            StrassenJob(
                jid=jid,
                computers=i_set,
                dim=max(i_set.size, j_set.size, k_set.size),
                a_entries={
                    rc: (inst.owner_a[(i, j)], ("A", i, j))
                    for rc, (i, j) in a_block.items()
                },
                b_entries={
                    rc: (inst.owner_b[(j, k)], ("B", j, k))
                    for rc, (j, k) in b_block.items()
                },
                outputs={
                    rc: (inst.owner_x[(i, k)], ("X", i, k))
                    for rc, (i, k) in x_block.items()
                },
            )
        )

        # the full product covers every hat-triangle of the cluster;
        # previously-processed ones must be cancelled
        full_mask = full.induced_by(i_set, j_set, k_set)
        f_tri = full.triangles[full_mask]
        keys = tri_keys(f_tri)
        pos = np.searchsorted(remaining_keys, keys)
        pos_c = np.minimum(pos, max(remaining_keys.size - 1, 0))
        in_remaining = (
            (remaining_keys[pos_c] == keys)
            if remaining_keys.size
            else np.zeros(keys.size, dtype=bool)
        )
        duplicate_rows.append(f_tri[~in_remaining])
        covered += int(in_remaining.sum())

    if not jobs:
        return 0
    run_strassen_jobs(net, inst.semiring, jobs, label="phase1")

    duplicates = (
        np.concatenate(duplicate_rows)
        if duplicate_rows
        else np.empty((0, 3), dtype=np.int64)
    )
    if duplicates.shape[0]:
        kappa = default_kappa(duplicates.shape[0], n)
        process_few_triangles(
            net, inst, duplicates, kappa, negate=True, label="phase1-correct"
        )
    return covered


def multiply_two_phase(
    inst: SupportedInstance,
    *,
    strict: bool = False,
    net: LowBandwidthNetwork | None = None,
    max_waves: int = 64,
    use_clustering: bool = True,
    min_cluster_triangles: int | None = None,
    kernel: str = "3d",
    schedule: str = "adaptive",
    extractor: str = "greedy",
    extractor_seed: int = 0,
) -> MultiplyResult:
    """Theorem 4.2 upper-bound algorithm.

    ``kernel`` selects the Lemma 2.1 cluster solver:

    * ``"3d"`` (default, any semiring): the ``O(d^{4/3})`` cube pattern,
      with the local stage restricted to each cluster's assigned
      triangles (no double processing, communication unchanged);
    * ``"strassen"`` (rings/fields only): the bilinear kernel the paper's
      field bound uses.  A bilinear product cannot skip triangles, so any
      hat-triangle of a cluster already processed in an earlier wave is
      *cancelled* afterwards by re-processing it with negated products
      through Lemma 3.1 — subtraction makes this sound exactly over the
      algebras the field bound is claimed for.

    ``schedule`` picks the phase-1 stopping policy:

    * ``"adaptive"`` (default): run a wave only while its projected
      phase-2 savings repay its estimated cost — the executable analogue
      of the paper's trade-off, calibrated to the simulator's constants;
    * ``"paper"``: follow the epsilon-schedule of Lemma 4.13 / Tables 3-4
      literally — keep extracting waves until the residual drops below
      ``d^beta * n`` for each step's ``beta`` (worst-case-faithful, but
      oblivious to the instance actually being easy).

    ``use_clustering=False`` ablates phase 1: everything goes through
    Lemma 3.1 directly (cost ``O(|T|/n + d + log m)``, i.e. up to
    ``O(d^2)`` for a triangle-rich instance).

    When ``net`` is omitted, the default (non-strict) network runs the
    vectorized fast path: every ``exchange_arrays`` phase is scheduled
    through the shared structure-keyed schedule cache and delivered
    columnarly, so repeated sweeps over the same support pay for
    scheduling once (docs/model.md, "Fast path & schedule cache").  Round
    counts are identical either way.
    """
    if kernel not in ("3d", "strassen"):
        raise ValueError("kernel must be '3d' or 'strassen'")
    if schedule not in ("adaptive", "paper"):
        raise ValueError("schedule must be 'adaptive' or 'paper'")
    if extractor not in ("greedy", "sampled"):
        raise ValueError("extractor must be 'greedy' or 'sampled'")
    if kernel == "strassen" and inst.semiring.sub is None:
        raise ValueError(
            "the Strassen kernel requires a ring/field; use kernel='3d' for semirings"
        )
    if net is None:
        net = LowBandwidthNetwork(inst.n, strict=strict)
    inst.deal_into(net)
    init_outputs(net, inst)

    n = inst.n
    d = max(inst.d, 1)
    stats = TwoPhaseStats()

    tri = inst.triangles
    remaining = tri.triangles.copy()

    if min_cluster_triangles is None:
        # a cluster is worth extracting when its triangles would cost more
        # to process one-by-one in phase 2 than their share of the wave's
        # dense cost; d is a practical floor
        min_cluster_triangles = max(2, d)

    if use_clustering:
        # support-only estimate of one wave's round cost (3D kernel inside
        # d x d x d clusters): block traffic 2 (d/q)^2 plus replication d q,
        # times the measured scheduler constant ~1.5
        from repro.algorithms.dense import _grid_side

        q = _grid_side(d)
        wave_cost_estimate = 1.5 * (2.0 * (d / q) ** 2 + d * q)
        # each removed triangle saves ~6/n phase-2 rounds: Lemma 3.1 runs
        # eight kappa-bounded sub-phases (anchor/spread/to-host for A and
        # B, to-slots/collect/deliver for X), measured at ~6 rounds per
        # unit of kappa
        phase2_round_per_triangle = 6.0 / n

        # the paper schedule's residual targets: d^{beta_s} * n per step
        if schedule == "paper":
            from repro.analysis.parameters import DENSE_EXPONENTS, derive_schedule, fixed_point_new

            lam = DENSE_EXPONENTS["semiring"]
            target = fixed_point_new(lam) + 1e-3
            residual_targets = [
                (d ** step.beta) * n for step in derive_schedule(target, lam)
            ]
        else:
            residual_targets = []

        for _ in range(max_waves):
            if remaining.shape[0] <= n:  # kappa would be 1: phase 2 is cheap
                break
            if schedule == "paper":
                # stop once the residual is within the schedule's final
                # target; intermediate targets only pace the extraction
                if residual_targets and remaining.shape[0] <= residual_targets[-1]:
                    break
            tset = TriangleSet(remaining, n)
            finder = None
            if extractor == "sampled":
                from functools import partial

                from repro.supported.clustering import find_dense_cluster_sampled

                finder = partial(
                    find_dense_cluster_sampled,
                    rng=np.random.default_rng(extractor_seed),
                )
            clusters, taken = extract_clustering(
                tset, d, min_triangles=min_cluster_triangles, finder=finder
            )
            removed = int(taken.sum())
            if not clusters or removed == 0:
                break
            # extraction is free preprocessing; executing the wave is not.
            # Skip clustering entirely when the projected phase-2 savings
            # cannot repay the wave (diffuse instances) — adaptive mode only.
            if (
                schedule == "adaptive"
                and removed * phase2_round_per_triangle < wave_cost_estimate
            ):
                break
            before = net.rounds
            if kernel == "strassen":
                removed = _strassen_wave(net, inst, clusters, remaining, taken)
                if removed == 0:
                    break
            else:
                # each cluster's induced triangles, in triangle order
                labels = cluster_labels(tset, clusters)
                rows = np.flatnonzero(taken)
                rows = rows[np.argsort(labels[rows], kind="stable")]
                triangle_arrays = np.split(
                    remaining[rows],
                    np.cumsum(np.bincount(labels[rows], minlength=len(clusters)))[:-1],
                )
                cluster_solve_3d(net, inst, clusters, triangle_arrays, label="phase1")
            wave_rounds = net.rounds - before
            stats.waves += 1
            stats.phase1_rounds += wave_rounds
            stats.phase1_triangles += removed
            remaining = remaining[~taken]
            # post-hoc check with the *measured* wave cost: if this wave
            # saved fewer phase-2 rounds than it cost, stop (adaptive only)
            if (
                schedule == "adaptive"
                and removed * phase2_round_per_triangle < wave_rounds
            ):
                break

    kappa = default_kappa(remaining.shape[0], n)
    stats.phase2_kappa = kappa
    stats.phase2_triangles = int(remaining.shape[0])
    before = net.rounds
    process_few_triangles(net, inst, remaining, kappa, label="phase2")
    stats.phase2_rounds = net.rounds - before

    return finalize_result(
        net,
        inst,
        "two_phase",
        details={"stats": stats},
    )

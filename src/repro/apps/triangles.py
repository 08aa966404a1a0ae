"""Distributed triangle detection and counting (paper §1.5).

Given a graph ``G`` with adjacency matrix ``A``, the products
``X = A * A`` restricted to the support of ``A`` count, for each edge
``(i, k)``, the common neighbours of ``i`` and ``k`` — i.e. the triangles
through that edge.  Each computer then folds its own row locally and a
convergecast tree (``O(log n)`` rounds) aggregates the global count.

The multiplication itself runs through the paper's algorithms, so a
bounded-degree graph is a ``[US:US:US]`` instance (Theorem 4.2 applies), a
power-law graph with degeneracy ``d`` is ``[BD:BD:BD]``
(Theorem 5.11 applies), and a merely-sparse graph is ``[AS:AS:AS]``
(conditionally hard, Theorem 6.19).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.algorithms.api import multiply
from repro.model.network import LowBandwidthNetwork
from repro.semirings import BOOLEAN, INTEGER_RING
from repro.sparsity.families import as_csr
from repro.supported.instance import SupportedInstance

__all__ = ["triangle_instance", "count_triangles", "detect_triangles", "TriangleReport"]


def triangle_instance(adjacency, *, semiring=INTEGER_RING) -> SupportedInstance:
    """The supported MM instance whose product counts per-edge triangles."""
    a_hat = as_csr(adjacency)
    coo = a_hat.tocoo()
    values = sp.csr_matrix(
        (np.ones(coo.nnz, dtype=semiring.dtype), (coo.row, coo.col)),
        shape=a_hat.shape,
    )
    return SupportedInstance(
        semiring=semiring,
        a_hat=a_hat,
        b_hat=a_hat,
        x_hat=a_hat,  # only entries on edges matter for triangle counting
        a=values,
        b=values,
        d=int(np.diff(a_hat.indptr).max()) if a_hat.nnz else 0,
        distribution="rows",
    )


@dataclass
class TriangleReport:
    """Outcome of a distributed triangle computation."""

    count: int
    per_edge: sp.csr_matrix
    multiply_rounds: int
    aggregate_rounds: int
    algorithm: str

    @property
    def total_rounds(self) -> int:
        return self.multiply_rounds + self.aggregate_rounds


def count_triangles(adjacency, *, algorithm: str = "auto") -> TriangleReport:
    """Count the triangles of an undirected graph, distributedly.

    ``X[i, k]`` (on edges) counts common neighbours; each computer sums
    ``X[i, k]`` over its own incident edges locally, and a binary
    convergecast tree over all ``n`` computers adds the local counts
    (each triangle is counted six times: two directions of three edges).
    """
    inst = triangle_instance(adjacency, semiring=INTEGER_RING)
    res = multiply(inst, algorithm=algorithm)
    net = res.network

    # local fold at every computer, then one global convergecast
    x = res.x.tocoo()
    local = np.zeros(inst.n, dtype=np.int64)
    for i, k, v in zip(x.row, x.col, x.data):
        local[inst.owner_x[(int(i), int(k))]] += int(v)
    for comp in range(inst.n):
        net.write(comp, "tri_local", int(local[comp]), provenance=())
    before = net.rounds
    net.segmented_convergecast(
        [list(range(inst.n))], ["tri_local"], combine=lambda a, b: a + b,
        label="triangle-aggregate",
    )
    aggregate_rounds = net.rounds - before
    total = int(net.read(0, "tri_local"))
    assert total % 6 == 0, "each triangle must be seen six times"
    return TriangleReport(
        count=total // 6,
        per_edge=res.x,
        multiply_rounds=res.rounds,
        aggregate_rounds=aggregate_rounds,
        algorithm=res.algorithm,
    )


def list_triangles(adjacency) -> tuple[list[tuple[int, int, int]], int, np.ndarray]:
    """Distributed triangle *listing*: every triangle is reported by some
    computer (cf. the listing literature the paper cites [5, 6]).

    The Lemma 3.1 machinery already delivers, to each virtual-node host,
    both edge values of every triangle it processes — so listing falls out
    of the same routing: the host records the triple when the product of
    the two (boolean) edge indicators is nonzero.  Returns the sorted list
    of triangles, the rounds used, and the per-computer listing load
    (balanced to ``O(|T|/n)`` by the virtual nodes).
    """
    from repro.algorithms.base import init_outputs
    from repro.algorithms.fewtriangles import _virtual_ids, default_kappa, process_few_triangles

    inst = triangle_instance(adjacency, semiring=BOOLEAN)
    net = LowBandwidthNetwork(inst.n)
    inst.deal_into(net)
    init_outputs(net, inst)
    tri = inst.triangles.triangles
    kappa = default_kappa(tri.shape[0], inst.n)
    rounds = process_few_triangles(net, inst, tri, kappa)

    # Reconstruct who processed what from the (support-only) virtual-node
    # assignment: the same deterministic layout the routing used.
    sorted_tri = tri[np.argsort(tri[:, 0], kind="stable")]
    # (virtual node v is hosted round-robin, on computer v % n)
    hosts = _virtual_ids(sorted_tri[:, 0], kappa) % inst.n

    load = np.bincount(hosts, minlength=inst.n)
    # triangles where both edges are present are listed (here: all of T)
    listed = sorted({(int(i), int(j), int(k)) for i, j, k in sorted_tri.tolist()})
    # normalize undirected triangles {a, b, c}
    canonical = sorted({tuple(sorted(t)) for t in listed})
    return canonical, rounds, load


def detect_triangles(adjacency, *, algorithm: str = "auto") -> tuple[bool, int]:
    """Boolean-semiring variant: does the graph contain any triangle?

    Returns ``(found, rounds)``; the OR-aggregation tree is the
    ``Omega(log n)``-hard primitive of Corollary 6.8.
    """
    inst = triangle_instance(adjacency, semiring=BOOLEAN)
    res = multiply(inst, algorithm=algorithm)
    net = res.network
    x = res.x.tocoo()
    local = np.zeros(inst.n, dtype=bool)
    for i, k, v in zip(x.row, x.col, x.data):
        if v:
            local[inst.owner_x[(int(i), int(k))]] = True
    for comp in range(inst.n):
        net.write(comp, "tri_any", bool(local[comp]), provenance=())
    net.segmented_convergecast(
        [list(range(inst.n))], ["tri_any"], combine=lambda a, b: a or b,
        label="triangle-or",
    )
    return bool(net.read(0, "tri_any")), net.rounds

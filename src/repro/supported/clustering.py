"""Dense-cluster extraction (paper §2.3, Lemmas 4.7–4.11).

A *cluster* is ``U = I' u J' u K'`` with ``|I'| = |J'| = |K'| = d``.  A
collection of triangles is *clustered* when it is the union of triangle
sets induced by pairwise disjoint clusters; such a collection is processed
by running a dense d x d matrix-multiplication kernel inside every cluster
in parallel (Lemma 2.1).

Lemma 4.7 proves *existence* of a cluster with ``|T[U]| >= d^{3-4e}/24``
whenever ``|T| >= d^{2-e} n``; the proof is by counting.  Here we extract
clusters with a deterministic greedy heuristic (top-scoring nodes by
triangle count, with two rounds of alternating refinement), and the tests
check it achieves the lemma's bound on generated instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.supported.triangles import TriangleSet

__all__ = [
    "Cluster",
    "find_dense_cluster",
    "find_dense_cluster_sampled",
    "extract_clustering",
    "cluster_labels",
    "partition_lemma_4_9",
    "partition_lemma_4_11",
]


@dataclass(frozen=True)
class Cluster:
    """Index sets of one cluster (each of size at most ``d``)."""

    i_set: np.ndarray
    j_set: np.ndarray
    k_set: np.ndarray

    @property
    def d(self) -> int:
        return max(self.i_set.size, self.j_set.size, self.k_set.size)


def _top_d(counts: np.ndarray, d: int, allowed: np.ndarray) -> np.ndarray:
    """Indices of the ``d`` largest counts among ``allowed`` nodes."""
    masked = np.where(allowed, counts, -1)
    if d >= masked.size:
        picks = np.flatnonzero(masked > 0)
    else:
        picks = np.argpartition(masked, -d)[-d:]
        picks = picks[masked[picks] > 0]
    return picks.astype(np.int64)


def _members(nodes: np.ndarray, n: int) -> np.ndarray:
    """Boolean membership table of ``nodes`` over ``[0, n)``."""
    sel = np.zeros(n, dtype=bool)
    sel[nodes] = True
    return sel


def _grow_cluster(
    ci: np.ndarray,
    cj: np.ndarray,
    ck: np.ndarray,
    n: int,
    d: int,
    allowed_i: np.ndarray,
    allowed_j: np.ndarray,
    allowed_k: np.ndarray,
    refinement_rounds: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:func:`find_dense_cluster`'s greedy on the columns of the live
    triangles (every node allowed): the unsorted ``(i_set, j_set,
    k_set)``, or ``None``.  Each pick reads only node counts, so the
    order of the rows does not matter."""

    def top(col, rows, allowed):
        return _top_d(np.bincount(col[rows], minlength=n), d, allowed)

    j_counts = np.bincount(cj, minlength=n)
    j_counts[~allowed_j] = 0
    seed_j = int(np.argmax(j_counts))
    if j_counts[seed_j] == 0:
        return None
    seeded = cj == seed_j

    i_set = top(ci, seeded, allowed_i)
    in_i = _members(i_set, n)[ci]
    k_set = top(ck, seeded & in_i, allowed_k)
    cand = in_i & _members(k_set, n)[ck]
    j_set = top(cj, cand, allowed_j) if cand.any() else np.asarray([seed_j], dtype=np.int64)

    for _ in range(refinement_rounds):
        # re-pick each side against the other two
        in_k = _members(k_set, n)[ck]
        cand = _members(j_set, n)[cj] & in_k
        if cand.any():
            i_set = top(ci, cand, allowed_i)
        in_i = _members(i_set, n)[ci]
        cand = in_i & in_k
        if cand.any():
            j_set = top(cj, cand, allowed_j)
        cand = in_i & _members(j_set, n)[cj]
        if cand.any():
            k_set = top(ck, cand, allowed_k)

    if i_set.size == 0 or j_set.size == 0 or k_set.size == 0:
        return None
    return i_set, j_set, k_set


def find_dense_cluster(
    tri: TriangleSet,
    d: int,
    *,
    allowed_i: np.ndarray | None = None,
    allowed_j: np.ndarray | None = None,
    allowed_k: np.ndarray | None = None,
    refinement_rounds: int = 2,
) -> tuple[Cluster, np.ndarray] | None:
    """Greedy densest-cluster heuristic.

    Picks the top-``d`` middle (J) nodes by triangle count, then
    alternately refines the I/K/J choices against the triangles induced so
    far.  Returns the cluster and the boolean mask of induced triangles,
    or ``None`` when no triangle survives.

    Seeds from the single busiest middle node, then grows the cluster
    around it — a global top-d pick would mix unrelated dense spots.
    """
    if len(tri) == 0:
        return None
    n = tri.n
    t = tri.triangles
    allowed_i = np.ones(n, dtype=bool) if allowed_i is None else allowed_i
    allowed_j = np.ones(n, dtype=bool) if allowed_j is None else allowed_j
    allowed_k = np.ones(n, dtype=bool) if allowed_k is None else allowed_k

    live = allowed_i[t[:, 0]] & allowed_j[t[:, 1]] & allowed_k[t[:, 2]]
    if not live.any():
        return None
    sets = _grow_cluster(
        *t[live].T, n, d, allowed_i, allowed_j, allowed_k, refinement_rounds
    )
    if sets is None:
        return None
    cluster = Cluster(*(np.sort(s) for s in sets))
    mask = tri.induced_by(cluster.i_set, cluster.j_set, cluster.k_set)
    if not mask.any():
        return None
    return cluster, mask


def find_dense_cluster_sampled(
    tri: TriangleSet,
    d: int,
    rng: np.random.Generator,
    *,
    attempts: int = 8,
    allowed_i: np.ndarray | None = None,
    allowed_j: np.ndarray | None = None,
    allowed_k: np.ndarray | None = None,
) -> tuple[Cluster, np.ndarray] | None:
    """Randomized cluster extraction, closer to Lemma 4.7's counting proof.

    Each attempt seeds from a middle node drawn with probability
    proportional to its triangle count (the proof's averaging argument in
    sampling form), grows the cluster around it, and the densest of
    ``attempts`` candidates wins.  Useful as a robustness check against
    the deterministic greedy heuristic — the tests compare their quality.
    """
    if len(tri) == 0:
        return None
    n = tri.n
    t = tri.triangles
    allowed_i = np.ones(n, dtype=bool) if allowed_i is None else allowed_i
    allowed_j = np.ones(n, dtype=bool) if allowed_j is None else allowed_j
    allowed_k = np.ones(n, dtype=bool) if allowed_k is None else allowed_k
    live = allowed_i[t[:, 0]] & allowed_j[t[:, 1]] & allowed_k[t[:, 2]]
    if not live.any():
        return None
    tt = t[live]
    j_counts = np.bincount(tt[:, 1], minlength=n).astype(np.float64)
    j_counts[~allowed_j] = 0.0
    total = j_counts.sum()
    if total <= 0:
        return None
    probs = j_counts / total

    best: tuple[Cluster, np.ndarray] | None = None
    best_count = -1
    for _ in range(attempts):
        seed_j = int(rng.choice(n, p=probs))
        seeded = tt[tt[:, 1] == seed_j]
        if seeded.size == 0:
            continue
        i_set = _top_d(np.bincount(seeded[:, 0], minlength=n), d, allowed_i)
        sel_i = np.zeros(n, dtype=bool)
        sel_i[i_set] = True
        cur = seeded[sel_i[seeded[:, 0]]]
        if cur.size == 0:
            continue
        k_set = _top_d(np.bincount(cur[:, 2], minlength=n), d, allowed_k)
        sel_k = np.zeros(n, dtype=bool)
        sel_k[k_set] = True
        cand = tt[sel_i[tt[:, 0]] & sel_k[tt[:, 2]]]
        if cand.size == 0:
            continue
        j_set = _top_d(np.bincount(cand[:, 1], minlength=n), d, allowed_j)
        if i_set.size == 0 or j_set.size == 0 or k_set.size == 0:
            continue
        cluster = Cluster(np.sort(i_set), np.sort(j_set), np.sort(k_set))
        mask = tri.induced_by(cluster.i_set, cluster.j_set, cluster.k_set)
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best = (cluster, mask)
    if best is None or best_count <= 0:
        return None
    return best


def partition_lemma_4_9(
    tri: TriangleSet, d: int, *, min_triangles: int = 1, finder=None
) -> tuple[list[Cluster], np.ndarray, np.ndarray]:
    """Lemma 4.9's statement as an API: split ``T`` into a clustered part
    ``P`` and a residual ``T'``.

    Returns ``(clusters, taken_mask, residual_mask)`` with
    ``taken | residual == all`` and ``taken & residual == none``; ``P`` is
    the union of the clusters' induced triangle sets by construction.
    """
    clusters, taken = extract_clustering(
        tri, d, min_triangles=min_triangles, finder=finder
    )
    return clusters, taken, ~taken


def partition_lemma_4_11(
    tri: TriangleSet,
    d: int,
    *,
    residual_target: int,
    max_clusterings: int = 64,
    min_triangles: int = 1,
    finder=None,
) -> tuple[list[list[Cluster]], np.ndarray]:
    """Lemma 4.11's statement as an API: partition ``T`` into clusterings
    ``P_1, ..., P_L`` plus a residual with ``|T'| <= residual_target``
    (when extraction can keep making progress).

    Each ``P_l`` is a set of pairwise-disjoint clusters (one parallel
    dense wave); extraction repeats until the residual target is met, no
    progress is possible, or ``max_clusterings`` is hit.  Returns the
    clusterings and the residual mask over ``tri``.
    """
    remaining_mask = np.ones(len(tri), dtype=bool)
    waves: list[list[Cluster]] = []
    for _ in range(max_clusterings):
        if int(remaining_mask.sum()) <= residual_target:
            break
        sub = tri.subset(remaining_mask)
        clusters, taken_sub = extract_clustering(
            sub, d, min_triangles=min_triangles, finder=finder
        )
        if not clusters or not taken_sub.any():
            break
        # lift the sub-mask back to the full index space
        idx = np.flatnonzero(remaining_mask)
        remaining_mask[idx[taken_sub]] = False
        waves.append(clusters)
    return waves, remaining_mask


def extract_clustering(
    tri: TriangleSet, d: int, *, min_triangles: int = 1, finder=None
) -> tuple[list[Cluster], np.ndarray]:
    """Extract one *clustering*: pairwise-disjoint clusters, greedily.

    ``finder`` overrides the single-cluster extractor (default
    :func:`find_dense_cluster`; pass a partial of
    :func:`find_dense_cluster_sampled` for the randomized variant).

    Following Lemma 4.9's strategy, clusters are pulled out one at a time;
    each uses fresh (never-before-used) nodes so all clusters of the wave
    can be processed simultaneously.  Extraction stops when the best
    remaining cluster induces fewer than ``min_triangles`` triangles.

    Returns the clusters and the combined boolean mask (over ``tri``) of
    the triangles they process.

    Only triangles whose three nodes are all still allowed can join a
    later cluster, so the live triangles are kept as three contiguous
    columns, shrunk by the allowed masks after each cluster; a finder
    sees just those rows, which gives it the same counts as the whole
    remaining set.  A triangle is taken iff its three nodes belong to
    the same cluster.
    """
    n = tri.n
    allowed = np.ones((3, n), dtype=bool)
    live = tri.triangles.T.copy()  # rows i, j, k of the live triangles
    clusters: list[Cluster] = []

    while live.shape[1]:
        if finder is None:
            sets = _grow_cluster(*live, n, d, *allowed, refinement_rounds=2)
            cluster = None if sets is None else Cluster(*(np.sort(s) for s in sets))
        else:
            found = finder(
                TriangleSet(live.T, n),
                d,
                allowed_i=allowed[0],
                allowed_j=allowed[1],
                allowed_k=allowed[2],
            )
            cluster = None if found is None else found[0]
        if cluster is None:
            break
        hit = [
            _members(nodes, n)[col]
            for nodes, col in zip((cluster.i_set, cluster.j_set, cluster.k_set), live)
        ]
        inside = int(np.count_nonzero(hit[0] & hit[1] & hit[2]))
        if inside == 0 or inside < min_triangles:
            break
        clusters.append(cluster)
        allowed[0, cluster.i_set] = False
        allowed[1, cluster.j_set] = False
        allowed[2, cluster.k_set] = False
        # a live triangle stays live iff none of its nodes joined the cluster
        live = live[:, ~(hit[0] | hit[1] | hit[2])]

    return clusters, cluster_labels(tri, clusters) >= 0


def cluster_labels(tri: TriangleSet, clusters: list[Cluster]) -> np.ndarray:
    """Index of the cluster inducing each triangle of ``tri`` (``-1`` when
    none does), for pairwise-disjoint ``clusters``: a triangle belongs to
    cluster ``c`` iff its three nodes do."""
    label = np.full((3, tri.n), -1, dtype=np.int64)
    for c, cluster in enumerate(clusters):
        label[0, cluster.i_set] = c
        label[1, cluster.j_set] = c
        label[2, cluster.k_set] = c
    t = tri.triangles
    c = label[0][t[:, 0]]
    return np.where((c == label[1][t[:, 1]]) & (c == label[2][t[:, 2]]), c, -1)

"""``extract_clustering`` and ``find_dense_cluster`` as they were before
the column-wise extractor.

The old extractor copied ``tri.subset(~taken)`` for every cluster and let
the finder rescan all remaining rows; ``reference_extract`` and
``reference_find`` are literal copies of it.
"""

import numpy as np

from repro.supported.clustering import Cluster, _top_d


def reference_find(
    tri, d, *, allowed_i=None, allowed_j=None, allowed_k=None, refinement_rounds=2
):
    """The old ``find_dense_cluster``: seed at the busiest middle index,
    then refine the three sides against the live triangles."""
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

    j_counts = np.bincount(tt[:, 1], minlength=n)
    j_counts[~allowed_j] = 0
    seed_j = int(np.argmax(j_counts))
    if j_counts[seed_j] == 0:
        return None
    seeded = tt[tt[:, 1] == seed_j]

    i_set = _top_d(np.bincount(seeded[:, 0], minlength=n), d, allowed_i)
    sel_i = np.zeros(n, dtype=bool)
    sel_i[i_set] = True
    cur = seeded[sel_i[seeded[:, 0]]]
    k_counts = (
        np.bincount(cur[:, 2], minlength=n) if cur.size else np.zeros(n, dtype=np.int64)
    )
    k_set = _top_d(k_counts, d, allowed_k)
    sel_k = np.zeros(n, dtype=bool)
    sel_k[k_set] = True
    cand = tt[sel_i[tt[:, 0]] & sel_k[tt[:, 2]]]
    if cand.size:
        j_set = _top_d(np.bincount(cand[:, 1], minlength=n), d, allowed_j)
    else:
        j_set = np.asarray([seed_j], dtype=np.int64)

    for _ in range(refinement_rounds):
        sel_j = np.zeros(n, dtype=bool)
        sel_j[j_set] = True
        sel_k = np.zeros(n, dtype=bool)
        sel_k[k_set] = True
        cand = tt[sel_j[tt[:, 1]] & sel_k[tt[:, 2]]]
        if cand.size:
            i_set = _top_d(np.bincount(cand[:, 0], minlength=n), d, allowed_i)
        sel_i = np.zeros(n, dtype=bool)
        sel_i[i_set] = True
        cand = tt[sel_i[tt[:, 0]] & sel_k[tt[:, 2]]]
        if cand.size:
            j_set = _top_d(np.bincount(cand[:, 1], minlength=n), d, allowed_j)
        sel_j = np.zeros(n, dtype=bool)
        sel_j[j_set] = True
        cand = tt[sel_i[tt[:, 0]] & sel_j[tt[:, 1]]]
        if cand.size:
            k_set = _top_d(np.bincount(cand[:, 2], minlength=n), d, allowed_k)

    if i_set.size == 0 or j_set.size == 0 or k_set.size == 0:
        return None
    cluster = Cluster(np.sort(i_set), np.sort(j_set), np.sort(k_set))
    mask = tri.induced_by(cluster.i_set, cluster.j_set, cluster.k_set)
    if not mask.any():
        return None
    return cluster, mask


def reference_extract(tri, d, *, min_triangles=1, finder=None):
    """The old ``extract_clustering``: a finder call on a fresh copy of
    the untaken triangles per cluster."""
    n = tri.n
    allowed_i = np.ones(n, dtype=bool)
    allowed_j = np.ones(n, dtype=bool)
    allowed_k = np.ones(n, dtype=bool)
    taken = np.zeros(len(tri), dtype=bool)
    clusters = []

    while True:
        remaining = tri.subset(~taken)
        if len(remaining) == 0:
            break
        fn = finder if finder is not None else reference_find
        found = fn(
            remaining,
            d,
            allowed_i=allowed_i,
            allowed_j=allowed_j,
            allowed_k=allowed_k,
        )
        if found is None:
            break
        cluster, _ = found
        mask_full = (
            tri.induced_by(cluster.i_set, cluster.j_set, cluster.k_set) & ~taken
        )
        if int(mask_full.sum()) < min_triangles:
            break
        clusters.append(cluster)
        taken |= mask_full
        allowed_i[cluster.i_set] = False
        allowed_j[cluster.j_set] = False
        allowed_k[cluster.k_set] = False

    return clusters, taken

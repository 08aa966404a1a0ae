"""The column-wise ``extract_clustering`` against the row-copying
reference it replaced.

``_reference_find`` and ``_reference_extract`` are literal copies of the
earlier implementation: it copied ``tri.subset(~taken)`` for every
cluster and let the finder rescan all remaining rows.  The column-wise
extractor keeps only the live triangles (all three nodes still allowed)
and must pick the same clusters, in the same order, with the same taken
mask — with the default finder and with the sampled finder.
"""

from functools import partial

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.generators import product_support, random_uniformly_sparse
from repro.supported.clustering import (
    Cluster,
    _top_d,
    extract_clustering,
    find_dense_cluster,
    find_dense_cluster_sampled,
)
from repro.supported.instance import make_hard_instance
from repro.supported.triangles import TriangleSet


def _reference_find(
    tri, d, *, allowed_i=None, allowed_j=None, allowed_k=None, refinement_rounds=2
):
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


def _reference_extract(tri, d, *, min_triangles=1, finder=None):
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
        fn = finder if finder is not None else _reference_find
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


def _planted(n, d, blocks, seed):
    """US(d) supports with ``blocks`` dense d x d x d blocks planted on
    the diagonal (overlapping ones share nodes)."""
    rng = np.random.default_rng(seed)
    a = random_uniformly_sparse(n, d, rng).tolil()
    b = random_uniformly_sparse(n, d, rng).tolil()
    for s in rng.integers(0, n - d + 1, size=blocks).tolist():
        a[s : s + d, s : s + d] = True
        b[s : s + d, s : s + d] = True
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    return TriangleSet.from_instance(a, b, product_support(a, b))


def _hard(n, d, density, seed):
    inst = make_hard_instance(n, d, np.random.default_rng(seed), density=density)
    return TriangleSet(inst.triangles.triangles, n)


def _same(got, want):
    (gc, gt), (wc, wt) = got, want
    assert len(gc) == len(wc)
    for g, w in zip(gc, wc):
        for side in ("i_set", "j_set", "k_set"):
            np.testing.assert_array_equal(getattr(g, side), getattr(w, side))
    np.testing.assert_array_equal(gt, wt)


cases = st.one_of(
    st.builds(
        _planted,
        n=st.integers(12, 40),
        d=st.integers(2, 5),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    ),
    st.builds(
        _hard,
        n=st.sampled_from([16, 24, 32, 48]),
        d=st.sampled_from([2, 4, 8]),
        density=st.sampled_from([0.4, 0.7, 1.0]),
        seed=st.integers(0, 2**16),
    ),
)


@given(tri=cases, d=st.integers(1, 8), min_triangles=st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_default_finder_matches_reference(tri, d, min_triangles):
    _same(
        extract_clustering(tri, d, min_triangles=min_triangles),
        _reference_extract(tri, d, min_triangles=min_triangles),
    )


@given(
    tri=cases,
    d=st.integers(1, 8),
    min_triangles=st.integers(2, 12),
    rng_seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_sampled_finder_matches_reference(tri, d, min_triangles, rng_seed):
    def finder():
        return partial(find_dense_cluster_sampled, rng=np.random.default_rng(rng_seed))

    _same(
        extract_clustering(tri, d, min_triangles=min_triangles, finder=finder()),
        _reference_extract(tri, d, min_triangles=min_triangles, finder=finder()),
    )


@given(tri=cases, d=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_find_dense_cluster_matches_reference(tri, d):
    got, want = find_dense_cluster(tri, d), _reference_find(tri, d)
    assert (got is None) == (want is None)
    if got is not None:
        _same(([got[0]], got[1]), ([want[0]], want[1]))

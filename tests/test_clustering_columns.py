"""The column-wise ``extract_clustering`` against the row-copying
reference it replaced.

``reference_find`` and ``reference_extract`` (``tests/oracles``) are
literal copies of the earlier implementation: it copied
``tri.subset(~taken)`` for every cluster and let the finder rescan all
remaining rows.  The column-wise extractor keeps only the live triangles
(all three nodes still allowed) and must pick the same clusters, in the
same order, with the same taken mask — with the default finder and with
the sampled finder.
"""

from functools import partial

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.generators import product_support, random_uniformly_sparse
from repro.supported.clustering import (
    extract_clustering,
    find_dense_cluster,
    find_dense_cluster_sampled,
)
from repro.supported.instance import make_hard_instance
from repro.supported.triangles import TriangleSet
from tests.oracles.clustering import reference_extract, reference_find


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
        reference_extract(tri, d, min_triangles=min_triangles),
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
        reference_extract(tri, d, min_triangles=min_triangles, finder=finder()),
    )


@given(tri=cases, d=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_find_dense_cluster_matches_reference(tri, d):
    got, want = find_dense_cluster(tri, d), reference_find(tri, d)
    assert (got is None) == (want is None)
    if got is not None:
        _same(([got[0]], got[1]), ([want[0]], want[1]))

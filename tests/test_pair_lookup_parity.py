"""The critical cell's bounded-key shortcuts against the code they replace.

Three places number or look up keys whose range is small, and each one
used to sort or binary-search per element:

* first-fit numbers a phase's endpoints densely with a presence table
  over the id range (:func:`repro.model.scheduling._dense_ids`) where it
  called ``np.unique`` twice;
* Lemma 3.1 looks up each distinct ``(i, j)`` / ``(j, k)`` pair once, in
  sorted order, and spreads the values to the triangles through the
  deduplication's inverse (:func:`repro.algorithms.fewtriangles._per_pair`)
  where it called ``a_values_at`` / ``b_values_at`` per triangle;
* Lemma 3.1's virtual-node ids come from the already sorted
  ``(i, rank // kappa)`` keys (``_virtual_ids``) where ``np.unique``
  numbered them.

Each is checked against a literal copy of the code it replaced
(``tests/oracles/numbering.py``) or the per-triangle lookup it replaced,
and the whole Lemma 3.1 step — negated, on unsorted triangles with
repeats, the two-phase driver's Strassen correction path — against the
strict per-message network: values digest, rounds, messages and
per-phase bill.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import init_outputs
from repro.algorithms.fewtriangles import (
    _dedup_triples,
    _layout,
    _per_pair,
    _virtual_ids,
    default_kappa,
    process_few_triangles,
)
from repro.model.network import LowBandwidthNetwork
from repro.model.schedule_cache import default_schedule_cache
from repro.model.scheduling import _dense_ids, greedy_two_sided_schedule
from repro.semirings import ALL_SEMIRINGS, REAL_FIELD
from repro.sparsity.families import AS, US
from repro.supported.instance import SupportedInstance, make_instance
from repro.transport.runner import values_digest
from tests.oracles.numbering import (
    unique_ids,
    unique_vectorized_schedule,
    unique_virtual_ids,
)

SEMIRINGS = {sr.name: sr for sr in ALL_SEMIRINGS}


# --------------------------------------------------------------------- #
# dense endpoint numbering
# --------------------------------------------------------------------- #
#: (scale, offset): dense ids, ids below zero, ids 10**12 apart
ID_SHAPES = st.sampled_from([(1, 0), (1, -37), (3, -10**6), (10**12, 0), (10**12, -(10**13))])


@st.composite
def id_arrays(draw):
    scale, offset = draw(ID_SHAPES)
    width = draw(st.integers(1, 64))
    base = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=200))
    return np.asarray(base, dtype=np.int64) * scale + offset


@settings(max_examples=200, deadline=None)
@given(ids=id_arrays())
def test_dense_ids_match_unique(ids):
    inv, count = _dense_ids(ids)
    want_inv, want_count = unique_ids(ids)
    assert count == want_count
    assert inv.tobytes() == want_inv.astype(np.int64).tobytes()


@pytest.mark.parametrize("span", [0, 1, 39, 40, 41, 10**12])
def test_dense_ids_at_the_range_guard(span):
    """Ten ids, ``4 m = 40``: a span below the guard takes the table,
    from the guard up the sort; both give ``np.unique``'s numbering."""
    ids = np.array([5, 5 + span, 5, 6 if span else 5, 5 + span // 2] * 2, dtype=np.int64)
    inv, count = _dense_ids(ids)
    want_inv, want_count = unique_ids(ids)
    assert count == want_count
    assert inv.tobytes() == want_inv.astype(np.int64).tobytes()


@st.composite
def phases(draw):
    scale, offset = draw(ID_SHAPES)
    width = draw(st.integers(1, 24))
    m = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, width, m)
    dst = src.copy() if draw(st.booleans()) else rng.integers(0, width, m)
    return src * scale + offset, dst * scale + offset


@settings(max_examples=150, deadline=None)
@given(phase=phases())
def test_vectorized_schedule_matches_unique_numbering(phase):
    """Negative ids, ids 10**12 apart, one id and all-local phases
    (``src == dst``) schedule exactly as with ``np.unique``."""
    src, dst = phase
    got = greedy_two_sided_schedule(src, dst, method="vectorized")
    assert got.tobytes() == unique_vectorized_schedule(src, dst).tobytes()
    assert got.tobytes() == greedy_two_sided_schedule(src, dst, method="reference").tobytes()


# --------------------------------------------------------------------- #
# virtual-node ids
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(
    i_col=st.lists(st.integers(0, 40), min_size=0, max_size=300),
    kappa=st.integers(1, 12),
)
def test_virtual_ids_match_unique(i_col, kappa):
    i_sorted = np.sort(np.asarray(i_col, dtype=np.int64), kind="stable")
    got = _virtual_ids(i_sorted, kappa)
    assert got.tobytes() == unique_virtual_ids(i_sorted, kappa).astype(np.int64).tobytes()


# --------------------------------------------------------------------- #
# per-pair operand values
# --------------------------------------------------------------------- #
def _stored_values(rng, sr, pattern, *, keep, duplicates, zeros):
    """A value matrix on (part of) ``pattern``: each support entry is
    stored with probability ``keep``, possibly twice (a decoy first, the
    value stored last wins) in non-canonical CSR, and some stored values
    are explicit zeros of the underlying dtype."""
    n = pattern.shape[0]
    indptr, indices, data = [0], [], []
    for r in range(n):
        cols = pattern.indices[pattern.indptr[r] : pattern.indptr[r + 1]]
        cols = cols[rng.random(cols.size) < keep]
        vals = sr.random_values(rng, cols.size)
        if zeros:
            vals[rng.random(cols.size) < 0.3] = 0
        if duplicates and cols.size:
            decoy = sr.random_values(rng, cols.size)
            cols = np.concatenate([cols[::-1], cols])
            vals = np.concatenate([decoy[::-1], vals])
        indices.append(cols)
        data.append(vals)
        indptr.append(indptr[-1] + cols.size)
    return sp.csr_matrix(
        (np.concatenate(data).astype(sr.dtype), np.concatenate(indices), np.asarray(indptr)),
        shape=(n, n),
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 14),
    sr_name=st.sampled_from(["real-field", "boolean", "min-plus"]),
    keep=st.sampled_from([1.0, 0.6]),
    duplicates=st.booleans(),
    zeros=st.booleans(),
    num_tri=st.integers(1, 120),
    kappa=st.integers(1, 8),
)
def test_per_pair_values_match_per_triangle_lookup(
    seed, n, sr_name, keep, duplicates, zeros, num_tri, kappa
):
    sr = SEMIRINGS[sr_name]
    rng = np.random.default_rng(seed)
    a_hat = sp.random(n, n, density=0.5, format="csr", random_state=rng).astype(bool)
    b_hat = sp.random(n, n, density=0.5, format="csr", random_state=rng).astype(bool)
    inst = SupportedInstance(
        semiring=sr, a_hat=a_hat, b_hat=b_hat, x_hat=(a_hat @ b_hat).astype(bool),
        a=_stored_values(rng, sr, a_hat, keep=keep, duplicates=duplicates, zeros=zeros),
        b=_stored_values(rng, sr, b_hat, keep=keep, duplicates=duplicates, zeros=zeros),
        d=n,
    )
    if duplicates and inst.a.nnz:
        assert not inst.a.has_canonical_format

    # Lemma 3.1's preprocessing on unsorted triangles, some of their
    # pairs outside the support
    tri = rng.integers(0, n, size=(num_tri, 3))
    tri = tri[np.argsort(tri[:, 0], kind="stable")]
    vids = _virtual_ids(tri[:, 0], kappa)
    vid_base = int(vids[-1]) + 2
    for (c0, c1), values_at in (((0, 1), inst.a_values_at), ((1, 2), inst.b_values_at)):
        first, second, _tv, inv = _dedup_triples(tri[:, c0], tri[:, c1], vids, n, vid_base)
        starts = _layout(first, second, n)[1]
        values, pair = _per_pair(values_at, first, second, starts, inv)
        assert values.size == np.unique(tri[:, c0] * n + tri[:, c1]).size
        want = values_at(tri[:, c0], tri[:, c1])
        assert values[pair].dtype == want.dtype
        assert values[pair].tobytes() == want.tobytes()


# --------------------------------------------------------------------- #
# the whole step against the strict network
# --------------------------------------------------------------------- #
def _lemma31(inst, tri, use_trees, **net_kwargs):
    default_schedule_cache().clear()
    net = LowBandwidthNetwork(inst.n, **net_kwargs)
    inst.deal_into(net)
    init_outputs(net, inst)
    kappa = default_kappa(len(tri), inst.n)
    process_few_triangles(net, inst, tri, kappa, negate=True, use_trees=use_trees)
    return (
        values_digest(inst.collect_result(net)),
        net.rounds,
        net.messages_sent,
        dict(net.phase_summary()),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    fams=st.sampled_from([(AS, AS, AS), (US, US, AS), (US, US, US)]),
    n=st.sampled_from([16, 24, 32]),
    d=st.sampled_from([3, 6]),
    share=st.floats(0.2, 1.0),
    repeats=st.booleans(),
    use_trees=st.booleans(),
)
def test_negated_unsorted_step_matches_strict(seed, fams, n, d, share, repeats, use_trees):
    rng = np.random.default_rng(seed)
    inst = make_instance(fams, n, d, rng, semiring=REAL_FIELD)
    tri = inst.triangles.triangles
    if tri.shape[0] == 0:
        return
    tri = tri[rng.random(tri.shape[0]) < share]
    if repeats:
        tri = np.concatenate([tri, tri[: tri.shape[0] // 3]])
    tri = tri[rng.permutation(tri.shape[0])]
    if tri.shape[0] == 0:
        return
    try:
        assert _lemma31(inst, tri, use_trees) == _lemma31(inst, tri, use_trees, strict=True)
    finally:
        default_schedule_cache().clear()

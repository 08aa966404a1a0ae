"""Key numberings as they were before the bounded-key shortcuts.

First-fit numbered a phase's endpoints with ``np.unique`` (twice) where
``repro.model.scheduling._dense_ids`` now uses a presence table, and
Lemma 3.1 numbered its virtual nodes with ``np.unique`` over the
``(i, rank // kappa)`` keys where ``fewtriangles._virtual_ids`` now reads
the already sorted keys.  These are literal copies of the old code.
"""

import numpy as np

from repro.model.scheduling import _first_fit_vectorized


def unique_ids(ids):
    """The numbering first-fit used before: ``np.unique``'s inverse and size."""
    uniq, inv = np.unique(ids, return_inverse=True)
    return inv, uniq.size


def unique_vectorized_schedule(src, dst):
    """``greedy_two_sided_schedule(method="vectorized")`` as it was, with
    the endpoints numbered by ``np.unique``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rounds = np.full(src.size, -1, dtype=np.int64)
    remote = src != dst
    if not remote.any():
        return rounds
    r_src = src[remote]
    r_dst = dst[remote]
    s_uniq, s_ids = np.unique(r_src, return_inverse=True)
    d_uniq, d_ids = np.unique(r_dst, return_inverse=True)
    n_send, n_recv = s_uniq.size, d_uniq.size
    key = (s_ids * n_recv + d_ids).astype(np.min_scalar_type(n_send * n_recv - 1))
    idx = np.argsort(key, kind="stable")
    s_ids, d_ids = s_ids[idx], d_ids[idx]
    assigned = _first_fit_vectorized(s_ids, d_ids, n_send, n_recv)
    out_remote = np.empty(r_src.size, dtype=np.int64)
    out_remote[idx] = assigned
    rounds[remote] = out_remote
    return rounds


def unique_virtual_ids(i_sorted, kappa):
    """The virtual-node numbering as it was: ``np.unique`` over the
    ``(i, rank // kappa)`` keys."""
    starts = np.concatenate(([True], i_sorted[1:] != i_sorted[:-1]))
    group_start_idx = np.flatnonzero(starts)
    group_of = np.cumsum(starts) - 1
    rank_in_group = np.arange(i_sorted.shape[0]) - group_start_idx[group_of]
    copy = rank_in_group // kappa
    vkeys = i_sorted * (i_sorted.shape[0] + 1) + copy
    _uniq, vids = np.unique(vkeys, return_inverse=True)
    return vids

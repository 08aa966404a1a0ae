"""Message scheduling for the low-bandwidth model.

A *communication phase* is a multiset of point-to-point messages
``(src, dst)``.  The model allows each computer to send at most one and
receive at most one message per round, so delivering a phase is exactly a
proper edge colouring of the bipartite multigraph (senders x receivers):
each colour class is one round.

The paper (proof of Lemma 3.1) observes that a phase whose max send-degree is
``s`` and max receive-degree is ``r`` can be delivered in ``O(s + r)`` rounds.
:func:`greedy_two_sided_schedule` realizes that bound constructively with at
most ``s + r - 1`` rounds: process messages in lexicographic ``(src, dst)``
order and give each the first round in which both its endpoints are free.
(This is the classic greedy bound ``deg(u) + deg(v) - 1`` for edge colouring;
Konig's theorem would give the optimum ``max(s, r)`` but the greedy bound
already matches the paper's asymptotics and is what we execute.)

Implementations
---------------

The schedule is a pure function of the endpoint arrays, so any
implementation is free as long as it reproduces the *reference* semantics:
first-fit on both endpoints over the lexsorted message order.  Two are
provided, both returning bit-identical assignments:

* ``method="reference"`` — a per-message Python loop using arbitrary-width
  integer bitmasks as occupancy sets (the historical dict-of-sets loop,
  compacted; kept as the executable specification).
* ``method="vectorized"`` — the fast path: degree-special-cased closed
  forms where first-fit has one (single endpoint, degree-1 sides), and
  otherwise a NumPy *bucketed* first-fit that repeatedly commits, in one
  vectorized step, every pending message that heads both its sender's and
  its receiver's queue (such a chunk has pairwise-distinct endpoints, so
  the sequential and the batched assignment coincide).  Occupancy lives in
  dense ``(endpoints x rounds_bound)`` uint64 bitsets; the first free
  round is extracted with word-level bit tricks.  A stall detector drops
  back to the reference loop (seeded from the bitsets) on adversarial
  dependency chains, so the worst case never exceeds the reference cost.

``method="auto"`` (the default) picks the vectorized path for large phases
and the reference loop for small ones, where interpreter dispatch beats
array set-up cost.

When the optional compiled backend is active
(:mod:`repro.model._kernels`, selected via ``REPRO_KERNELS``), large
phases run the Numba word-bitset first-fit kernel instead of the chunked
NumPy path.  The kernel executes the same sequential first-fit
specification message by message, so its assignments are bit-identical
to the reference loop — the parity tests assert it byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from repro.model import _kernels

__all__ = [
    "greedy_two_sided_schedule",
    "schedule_makespan",
    "validate_schedule",
]

# Below this many remote messages the plain loop wins on constant factors.
_SMALL_PHASE = 192

# Chunked first-fit keeps per-endpoint occupancy bitsets of
# ``ceil(bound / 64)`` words; beyond this bound (in rounds) the dense
# bitsets stop paying for themselves and the reference loop takes over.
_MAX_BITSET_BOUND = 1 << 14


def greedy_two_sided_schedule(
    src: np.ndarray, dst: np.ndarray, *, method: str = "auto"
) -> np.ndarray:
    """Assign a round number to each message of a phase.

    Parameters
    ----------
    src, dst:
        Integer arrays of equal length; ``src[i]`` sends message ``i`` to
        ``dst[i]``.  Self-messages (``src == dst``) are local and get round
        ``-1`` (they cost nothing).
    method:
        ``"auto"`` (default), ``"vectorized"`` or ``"reference"``.  All
        methods produce identical assignments; see the module docstring.

    Returns
    -------
    rounds:
        ``rounds[i]`` is the 0-based round in which message ``i`` travels.
        The number of rounds used is ``rounds.max() + 1`` and is at most
        ``s + r - 1`` where ``s``/``r`` are the max send/receive degrees.
    """
    if method not in ("auto", "vectorized", "reference"):
        raise ValueError(f"unknown scheduling method {method!r}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst length mismatch")
    m = src.size
    rounds = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return rounds
    remote = src != dst
    if not remote.any():
        return rounds

    # First-fit on BOTH endpoints: each message takes the earliest round
    # in which neither its sender nor its receiver is busy.  At assignment
    # time at most (deg(s) - 1) + (deg(d) - 1) rounds are blocked for the
    # edge, so first-fit lands within deg(s) + deg(d) - 1 <= s + r - 1 —
    # the documented guarantee.  (A monotone per-sender pointer is NOT
    # sufficient: skipping a sender's earlier free slots can push the
    # makespan past the bound; found by the property tests.)
    idx = np.lexsort((dst[remote].ravel(), src[remote].ravel()))
    r_src = src[remote][idx]
    r_dst = dst[remote][idx]

    if method == "reference" or (method == "auto" and r_src.size < _SMALL_PHASE):
        assigned = _first_fit_reference(r_src, r_dst)
    else:
        assigned = _first_fit_vectorized(r_src, r_dst)

    out_remote = np.empty(r_src.size, dtype=np.int64)
    out_remote[idx] = assigned
    rounds[remote] = out_remote
    return rounds


# --------------------------------------------------------------------- #
# Reference first-fit (executable specification)
# --------------------------------------------------------------------- #
def _first_fit_reference(
    r_src: np.ndarray,
    r_dst: np.ndarray,
    send_occ: dict | None = None,
    recv_occ: dict | None = None,
) -> np.ndarray:
    """Sequential first-fit over the given (already ordered) messages.

    Occupancy sets are arbitrary-width Python integers: bit ``t`` of a
    sender's set is set iff it is busy in round ``t``.  The first round
    free for both endpoints is the lowest zero bit of the union,
    ``(~u) & (u + 1)`` — identical semantics to the historical set-based
    loop.  Endpoints are mapped to compact ids once, so the sets live in
    lists, and the loop only records each round's bit length.
    ``send_occ``/``recv_occ`` (endpoint -> bitmask) seed the sets, which
    lets the vectorized path hand over mid-phase state.
    """
    s_ids, s_inv = np.unique(r_src, return_inverse=True)
    d_ids, d_inv = np.unique(r_dst, return_inverse=True)
    send = [send_occ.get(s, 0) for s in s_ids.tolist()] if send_occ else [0] * s_ids.size
    recv = [recv_occ.get(d, 0) for d in d_ids.tolist()] if recv_occ else [0] * d_ids.size
    lengths = []
    record = lengths.append
    for s, d in zip(s_inv.tolist(), d_inv.tolist()):
        u = send[s] | recv[d]
        low = (~u) & (u + 1)  # lowest zero bit of u, as a power of two
        send[s] |= low
        recv[d] |= low
        record(low.bit_length())
    return np.fromiter(lengths, dtype=np.int64, count=len(lengths)) - 1


# --------------------------------------------------------------------- #
# Vectorized first-fit
# --------------------------------------------------------------------- #
def _ranks_within_groups(group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Position of each element within its group, in array order."""
    order = np.argsort(group_ids, kind="stable")
    sorted_ids = group_ids[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    group_of = np.cumsum(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))) - 1
    rank_sorted = np.arange(group_ids.size, dtype=np.int64) - starts[group_of]
    ranks = np.empty(group_ids.size, dtype=np.int64)
    ranks[order] = rank_sorted
    return ranks


def _first_fit_vectorized(r_src: np.ndarray, r_dst: np.ndarray) -> np.ndarray:
    """Exact vectorized equivalent of :func:`_first_fit_reference` on
    messages pre-sorted by ``(src, dst)``."""
    p = r_src.size
    # r_src is sorted, so its unique/inverse come from change flags alone.
    s_change = np.empty(p, dtype=bool)
    s_change[0] = True
    np.not_equal(r_src[1:], r_src[:-1], out=s_change[1:])
    s_inv = np.cumsum(s_change) - 1
    n_send = int(s_inv[-1]) + 1
    recv_ids, d_inv = np.unique(r_dst, return_inverse=True)
    d_inv = d_inv.astype(np.int64, copy=False)
    n_recv = recv_ids.size
    send_deg = np.bincount(s_inv, minlength=n_send)
    recv_deg = np.bincount(d_inv, minlength=n_recv)
    s_max = int(send_deg.max())
    r_max = int(recv_deg.max())

    # Closed forms where first-fit is provably a rank function:
    if n_send == 1 or n_recv == 1:
        # single sender (or receiver): the shared endpoint fills rounds
        # 0, 1, 2, ... contiguously and the other side never conflicts
        # first (its own earlier messages all went through the same shared
        # endpoint, at earlier rounds).
        return np.arange(p, dtype=np.int64)
    if s_max == 1:
        # every sender sends once: receivers fill contiguous prefixes, so
        # each message gets its rank within its receiver's queue.
        return _ranks_within_groups(d_inv, n_recv)
    if r_max == 1:
        # every receiver receives once: senders fill contiguous prefixes;
        # messages are sorted by sender, so ranks are offsets in runs.
        starts = np.flatnonzero(s_change)
        return np.arange(p, dtype=np.int64) - starts[s_inv]

    bound = s_max + r_max - 1
    # The compiled kernel runs the sequential specification directly over
    # word bitsets — no chunking heuristics, no stall detector — and wins
    # on every shape once compilation is amortized.
    if bound <= _MAX_BITSET_BOUND and _kernels.first_fit_available():
        return _kernels.first_fit_words(s_inv, d_inv, n_send, n_recv, bound)
    # Chunked commits pay off only when chunks are large, i.e. when the
    # multigraph is low-degree: a message commits iff it heads *both* its
    # endpoint queues, so dense phases (mean degree >> 1) yield chunks no
    # larger than the endpoint count and the per-iteration overhead loses
    # to the plain loop.
    mean_deg = p / max(n_send, n_recv)
    if bound > _MAX_BITSET_BOUND or mean_deg > 8.0:
        return _first_fit_reference(r_src, r_dst)
    return _first_fit_chunked(s_inv, d_inv, n_send, n_recv, bound)


def _first_fit_chunked(
    s_inv: np.ndarray,
    d_inv: np.ndarray,
    n_send: int,
    n_recv: int,
    bound: int,
) -> np.ndarray:
    """Bucketed first-fit: per iteration, commit every message that is the
    current head of both its sender's and its receiver's pending queue.

    Within such a chunk all senders and all receivers are pairwise
    distinct, and every earlier conflicting message has already been
    assigned — so each chunk member sees exactly the occupancy state the
    sequential loop would, and the batch assignment is bit-identical to
    sequential first-fit.  The earliest pending message always heads both
    of its queues, so progress is guaranteed; adversarial dependency
    chains that force tiny chunks trip the stall detector and finish in
    the reference loop, seeded with the current occupancy bitsets.
    """
    p = s_inv.size
    W = (bound + 63) >> 6
    flat = W == 1  # the common low-degree case: one word per endpoint
    if flat:
        send_occ = np.zeros(n_send, dtype=np.uint64)
        recv_occ = np.zeros(n_recv, dtype=np.uint64)
    else:
        send_occ = np.zeros((n_send, W), dtype=np.uint64)
        recv_occ = np.zeros((n_recv, W), dtype=np.uint64)
    assigned = np.full(p, -1, dtype=np.int64)

    # Sender queues: messages are sorted by (src, dst), so each sender's
    # pending messages are a contiguous range with a moving head pointer.
    src_ptr = np.searchsorted(s_inv, np.arange(n_send, dtype=np.int64))
    src_end = np.append(src_ptr[1:], p)
    # Receiver queues: pending order viewed through a (dst, position) sort.
    dorder = np.argsort(d_inv, kind="stable").astype(np.int64)
    dst_ptr = np.searchsorted(d_inv[dorder], np.arange(n_recv, dtype=np.int64))

    active = np.flatnonzero(src_ptr < src_end)
    iters = 0
    done = 0
    while active.size:
        iters += 1
        heads = src_ptr[active]  # one candidate message per active sender
        # a candidate commits iff it also heads its receiver's queue
        sel = heads[dorder[dst_ptr[d_inv[heads]]] == heads]
        done += sel.size
        if iters >= 16 and done < iters * 64:
            # chunks are running small (adversarial dependency chain or
            # unexpectedly dense core): finish sequentially, seeded with
            # the occupancy accumulated so far.
            pending = np.flatnonzero(assigned < 0)
            occ2d = send_occ.reshape(n_send, W), recv_occ.reshape(n_recv, W)
            send_int = {
                int(s): int.from_bytes(occ2d[0][s].tobytes(), "little")
                for s in np.unique(s_inv[pending])
            }
            recv_int = {
                int(d): int.from_bytes(occ2d[1][d].tobytes(), "little")
                for d in np.unique(d_inv[pending])
            }
            assigned[pending] = _first_fit_reference(
                s_inv[pending], d_inv[pending], send_int, recv_int
            )
            return assigned

        su = s_inv[sel]
        du = d_inv[sel]
        if flat:
            free = ~(send_occ[su] | recv_occ[du])
            lsb = free & (~free + np.uint64(1))
            # bit position of an isolated bit: exact via float log2 (< 2^64)
            assigned[sel] = np.log2(lsb.astype(np.float64)).astype(np.int64)
            send_occ[su] |= lsb
            recv_occ[du] |= lsb
        else:
            free = ~(send_occ[su] | recv_occ[du])
            word_idx = np.argmax(free != np.uint64(0), axis=1)
            rows = np.arange(sel.size, dtype=np.int64)
            words = free[rows, word_idx]
            lsb = words & (~words + np.uint64(1))
            bit = np.log2(lsb.astype(np.float64)).astype(np.int64)
            assigned[sel] = (word_idx.astype(np.int64) << 6) + bit
            send_occ[su, word_idx] |= lsb
            recv_occ[du, word_idx] |= lsb

        src_ptr[su] += 1
        dst_ptr[du] += 1
        active = active[src_ptr[active] < src_end[active]]
    return assigned


def schedule_makespan(rounds: np.ndarray) -> int:
    """Number of communication rounds a schedule occupies."""
    rounds = np.asarray(rounds)
    if rounds.size == 0:
        return 0
    mx = int(rounds.max())
    return mx + 1 if mx >= 0 else 0


def validate_schedule(src: np.ndarray, dst: np.ndarray, rounds: np.ndarray) -> None:
    """Raise ``ValueError`` unless the schedule is a proper edge colouring.

    Checks, per round, that no computer sends more than one message and no
    computer receives more than one message — the defining constraint of the
    low-bandwidth model.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rounds = np.asarray(rounds, dtype=np.int64)
    remote = src != dst
    if not remote.any():
        return
    s, d, r = src[remote], dst[remote], rounds[remote]
    if (r < 0).any():
        raise ValueError("remote message without a round assignment")
    send_keys = r.astype(np.int64) * (s.max() + d.max() + 2) + s
    recv_keys = r.astype(np.int64) * (s.max() + d.max() + 2) + d
    if np.unique(send_keys).size != send_keys.size:
        raise ValueError("a computer sends two messages in one round")
    if np.unique(recv_keys).size != recv_keys.size:
        raise ValueError("a computer receives two messages in one round")

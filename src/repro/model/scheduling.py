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
first-fit on both endpoints over the lexsorted message order.  Two methods
are provided, both returning bit-identical assignments:

* ``method="reference"`` — a per-message Python loop using arbitrary-width
  integer bitmasks as occupancy sets (kept as the executable
  specification).
* ``method="vectorized"`` — the fast path.  It numbers the endpoints
  densely — in O(m) from a presence table over the id range when that
  range is at most ``4 m`` wide, as a large phase's computer ids usually
  are, and with ``np.unique`` otherwise (:func:`_dense_ids`) — and finds
  the lexsorted order with one stable argsort of a combined
  ``(src, dst)`` key (the same permutation ``np.lexsort`` gives), then
  takes, in this order:

  1. closed forms where first-fit is a rank function (a single endpoint
     on one side, or degree 1 on one side);
  2. *run-collapsed* first-fit when the phase's ``(src, dst)`` runs average
     at least two messages, else the reference loop (on shorter runs the
     per-run bookkeeping costs more than it saves; the measured crossover
     is in EXPERIMENTS.md E26).

``method="auto"`` (the default) is ``"vectorized"`` for phases of at least
``_SMALL_PHASE`` remote messages and the reference loop below that, where
interpreter dispatch beats array set-up cost.

The run lemma
-------------

In lexsorted order the ``k`` copies of one ``(src, dst)`` pair are
consecutive: a *run*.  Let ``u = send[src] | recv[dst]`` be the union of
the two endpoints' busy rounds when the run starts.  The first copy takes
the lowest zero bit of ``u`` and marks it busy at *both* endpoints, so for
the second copy the union is ``u`` plus that bit, and it takes the next
zero bit of ``u``; no other endpoint's state is read inside the run.  By
induction the run takes exactly the ``k`` lowest zero bits of ``u``, in
ascending order.  :func:`_first_fit_runs` therefore does one step per
run: fill the ``k`` lowest zero bits (``x |= x + 1``, ``k`` times, or one
shift when they are contiguous), take the new bits as one mask, and OR
it into both endpoints.  A contiguous run is kept as its first round; any
other keeps its mask shifted down to that round.  Reading the runs back
in order, each in ascending bit order, lists the rounds in message
order.  This is the reference loop with its steps grouped, not an
approximation, so the assignments are byte-identical; the parity tests
assert it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "greedy_two_sided_schedule",
    "schedule_makespan",
    "validate_schedule",
]

# Below this many remote messages the plain loop wins on constant factors.
_SMALL_PHASE = 192


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
    r_src = src[remote]
    r_dst = dst[remote]
    if method == "reference" or (method == "auto" and r_src.size < _SMALL_PHASE):
        idx = np.lexsort((r_dst, r_src))
        assigned = _first_fit_reference(r_src[idx], r_dst[idx])
    else:
        # One stable argsort of a combined key over dense endpoint ids
        # gives the lexsort order (ties stay in position order); in the
        # narrowest unsigned type that holds it, NumPy radix-sorts keys of
        # up to 16 bits.
        s_ids, n_send = _dense_ids(r_src)
        d_ids, n_recv = _dense_ids(r_dst)
        key = (s_ids * n_recv + d_ids).astype(np.min_scalar_type(n_send * n_recv - 1))
        idx = np.argsort(key, kind="stable")
        s_ids, d_ids = s_ids[idx], d_ids[idx]  # unsorted ids would stay alive in the loop
        assigned = _first_fit_vectorized(s_ids, d_ids, n_send, n_recv)

    out_remote = np.empty(r_src.size, dtype=np.int64)
    out_remote[idx] = assigned
    rounds[remote] = out_remote
    return rounds


def _dense_ids(ids: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each id among the distinct ids, and how many there are:
    ``np.unique(ids, return_inverse=True)``'s inverse and size.

    When ``[min, max]`` is at most ``4 m`` wide a presence table over it
    ranks the ids in O(m); wider ranges (ids far apart) keep the sort."""
    lo, hi = int(ids.min()), int(ids.max())
    if hi - lo >= 4 * ids.size:
        uniq, inv = np.unique(ids, return_inverse=True)
        return inv, uniq.size
    offset = ids - lo
    present = np.zeros(hi - lo + 1, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present, dtype=np.int64)
    return rank[offset] - 1, int(rank[-1])


# --------------------------------------------------------------------- #
# Reference first-fit (executable specification)
# --------------------------------------------------------------------- #
def _first_fit_reference(r_src: np.ndarray, r_dst: np.ndarray) -> np.ndarray:
    """Sequential first-fit over the given (already ordered) messages.

    Occupancy sets are arbitrary-width Python integers: bit ``t`` of a
    sender's set is set iff it is busy in round ``t``.  The first round
    free for both endpoints is the lowest zero bit of the union,
    ``(~u) & (u + 1)`` — identical semantics to the historical set-based
    loop.  Endpoints are mapped to compact ids once, so the sets live in
    lists, and the loop only records each round's bit length.
    """
    s_ids, s_inv = np.unique(r_src, return_inverse=True)
    d_ids, d_inv = np.unique(r_dst, return_inverse=True)
    send = [0] * s_ids.size
    recv = [0] * d_ids.size
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


def _first_fit_vectorized(
    s_inv: np.ndarray, d_inv: np.ndarray, n_send: int, n_recv: int
) -> np.ndarray:
    """Exact vectorized equivalent of :func:`_first_fit_reference` on a
    lexsorted phase over dense endpoint ids (``range(n_send)`` /
    ``range(n_recv)``, every id used)."""
    p = s_inv.size
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
        starts = np.cumsum(send_deg) - send_deg
        return np.arange(p, dtype=np.int64) - starts[s_inv]

    runs = _runs(s_inv, d_inv)
    # A step per run costs more than a step per message on short runs;
    # the two cross at a mean run length of 2-3 (EXPERIMENTS.md E26).
    if p >= 2 * runs[2].size:
        return _first_fit_runs(*runs, n_send, n_recv)
    return _first_fit_reference(s_inv, d_inv)


def _runs(s_inv: np.ndarray, d_inv: np.ndarray):
    """Run-length encoding of a lexsorted phase: each maximal block of
    equal ``(src, dst)`` pairs as ``(run_src, run_dst, run_len)``."""
    p = s_inv.size
    head = np.empty(p, dtype=bool)
    head[0] = True
    np.not_equal(s_inv[1:], s_inv[:-1], out=head[1:])
    head[1:] |= d_inv[1:] != d_inv[:-1]
    starts = np.flatnonzero(head)
    return s_inv[starts], d_inv[starts], np.diff(starts, append=p)


def _first_fit_runs(
    run_src: np.ndarray,
    run_dst: np.ndarray,
    run_len: np.ndarray,
    n_send: int,
    n_recv: int,
) -> np.ndarray:
    """Run-collapsed first-fit: the assignment of
    :func:`_first_fit_reference` on the phase whose lexsorted messages are
    ``run_len[j]`` copies of ``(run_src[j], run_dst[j])``, run after run.

    Endpoint ids lie in ``range(n_send)`` / ``range(n_recv)``.  Each run
    takes the ``k`` lowest zero bits of its endpoints' union (the run
    lemma in the module docstring).  A run whose ``k`` rounds are
    consecutive is kept as its first round; any other run also keeps its
    taken mask shifted down to that round, so a mask is as wide as the
    rounds its run spans.  The masks are read back as little-endian
    64-bit words: the nonzero words' set bits, in ascending order, are
    the run's rounds in message order.
    """
    send = [0] * n_send
    recv = [0] * n_recv
    first = []  # per run: 1 + its first round, negated when it keeps a mask
    masks = []
    record = first.append
    for s, d, k in zip(run_src.tolist(), run_dst.tolist(), run_len.tolist()):
        u = send[s] | recv[d]
        low = (~u) & (u + 1)
        t = (low << k) - low  # the k bits from u's lowest zero bit up
        b = low.bit_length()
        if u & t:  # not all free: fill u's zero bits one at a time
            x = u
            for _ in range(k):
                x |= x + 1
            t = x ^ u
            masks.append(t >> (b - 1))
            b = -b
        send[s] |= t
        recv[d] |= t
        record(b)

    first = np.fromiter(first, dtype=np.int64, count=len(first))
    has_mask = first < 0
    first = np.abs(first) - 1
    out = np.arange(int(run_len.sum()), dtype=np.int64)
    out += np.repeat(first - (np.cumsum(run_len) - run_len), run_len)
    if masks:
        words = np.fromiter(
            [(t.bit_length() + 63) >> 6 for t in masks], dtype=np.int64, count=len(masks)
        )
        buf = np.frombuffer(
            b"".join([t.to_bytes(w << 3, "little") for t, w in zip(masks, words.tolist())]),
            dtype="<u8",
        )
        owner = np.repeat(np.arange(len(masks)), words)  # each word's mask
        offset = np.arange(buf.size) - np.repeat(np.cumsum(words) - words, words)
        nz = np.flatnonzero(buf)
        bit = np.flatnonzero(np.unpackbits(buf[nz].view(np.uint8), bitorder="little"))
        w = nz[bit >> 6]
        rounds = first[has_mask][owner[w]] + (offset[w] << 6) + (bit & 63)
        out[np.repeat(has_mask, run_len)] = rounds
    return out


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

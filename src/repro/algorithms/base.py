"""Shared machinery for the triangle-processing algorithms.

Every upper-bound algorithm follows the same contract:

* inputs have been dealt into a :class:`LowBandwidthNetwork` by
  :meth:`SupportedInstance.deal_into`;
* the algorithm moves values only through network primitives;
* on return, for every requested entry ``(i, k)`` of ``X_hat``, the owner
  computer ``owner_x(i, k)`` holds the final value under key
  ``("X", i, k)``.

:func:`finalize_result` packages that into a :class:`MultiplyResult`.

Keyed or columnar
-----------------
A triangle kernel builds its phases' endpoint arrays once.  Words move
through the per-computer dict memories only when :func:`words_keyed`
says so — ``net.strict or not net.columnar`` (strict mode, a wire
transport, fault injection, ``columnar=False``).  Then the phases carry
dict keys (:func:`key_list`) and each computer runs its local steps on
what it holds.  Otherwise the phases are charged columnar
(``src_keys=None``) and the local steps run on value arrays taken from
the instance's one value table (:meth:`SupportedInstance.a_values_at`),
which holds exactly the words :meth:`SupportedInstance.deal_into` deals.
Both paths add the same operands in the same order, so schedules,
rounds, messages, bills and value bits agree.

Local steps
-----------
Between communication phases each computer multiplies and adds the values
it holds.  The kernels express such a step over *all* computers at once:

* :func:`triangle_products` multiplies every triangle's operands: keyed,
  through :func:`local_products`, which gathers them from the holders'
  memories in one pass (:meth:`LowBandwidthNetwork.read_many` — a missing
  operand raises :class:`~repro.model.network.NetworkError`, so the
  gather is the possession check); columnar, from the value table;
* :func:`group_ids` numbers the output keys in first-occurrence order;
* :func:`ordered_fold` sums each group left to right in element order —
  ``partial = first; partial = add(partial, next)`` — or from a seed, so
  the float order is exactly that of the sequential per-triangle loop;
* :func:`accumulate_into_x` folds delivered values into the owners'
  ``X`` entries grouped by ``(i, k)``, seeded from what they hold, and
  :func:`accumulate_at_owners` does the same for arbitrary dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.model.network import LowBandwidthNetwork
from repro.supported.instance import SupportedInstance

__all__ = [
    "MultiplyResult",
    "init_outputs",
    "words_keyed",
    "key_list",
    "exclude_from_plan",
    "group_ids",
    "ordered_fold",
    "local_products",
    "triangle_products",
    "accumulate_at_owners",
    "accumulate_into_x",
    "finalize_result",
]


@dataclass
class MultiplyResult:
    """Outcome of one distributed multiplication run."""

    x: sp.csr_matrix
    rounds: int
    messages: int
    algorithm: str
    network: LowBandwidthNetwork
    details: dict[str, Any] = field(default_factory=dict)

    def phase_summary(self) -> dict[str, tuple[int, int]]:
        """Rounds/messages aggregated per algorithm phase label."""
        return self.network.phase_summary()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiplyResult(algorithm={self.algorithm!r}, rounds={self.rounds}, "
            f"messages={self.messages})"
        )


def init_outputs(net: LowBandwidthNetwork, inst: SupportedInstance) -> None:
    """Each X owner initializes its requested entries to the semiring zero.

    This is support-only local computation (owners know which entries they
    must report) and costs no rounds.  The entries are dealt as arrays
    (:meth:`LowBandwidthNetwork.deal_words`), in ``inst.entries("X")``
    order.
    """
    rows, cols, owners = inst.entries("X")
    net.deal_words("X", rows, cols, owners, inst.semiring.zeros(rows.size))


def words_keyed(net: LowBandwidthNetwork) -> bool:
    """Do words move through the dict memories on ``net``?  True in strict
    mode, over a wire transport, under fault injection and with
    ``columnar=False``; otherwise phases are charged columnar and values
    travel in arrays."""
    return net.strict or not net.columnar


def key_list(keyed: bool, prefix, *cols: np.ndarray) -> list | None:
    """Dict keys ``(prefix, *row)`` for the rows of ``cols`` — or ``None``,
    a columnar phase, when words do not move through dict memories."""
    if not keyed:
        return None
    return [(prefix, *row) for row in zip(*(np.asarray(c).tolist() for c in cols))]


def exclude_from_plan(net: LowBandwidthNetwork, kernel: str) -> None:
    """Keep a run whose values ``kernel`` computed outside the recorded
    Lemma 3.1 stages out of the replay-plan compiler: an attached
    :class:`~repro.model.plan.PlanRecorder` is marked unplannable."""
    rec = getattr(net, "plan_recorder", None)
    if rec is not None:
        rec.mark_unplannable(f"{kernel} computes values outside the recorded Lemma 3.1 stages")


def group_ids(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of non-negative integer ``columns`` in
    first-occurrence order.

    Returns ``(ids, firsts)``: ``ids[t]`` is the group of row ``t`` and
    ``firsts[g]`` is the index of group ``g``'s first row, ascending — so
    ``firsts`` lists the groups in the order a sequential loop inserting
    them into a dict would.
    """
    m = columns[0].size
    code = np.zeros(m, dtype=np.int64)
    span = 1
    for col in columns:
        col = np.asarray(col, dtype=np.int64)
        radix = int(col.max()) + 1 if m else 1
        if span * radix >= 1 << 62:  # re-compact before the code overflows
            uniq, code = np.unique(code, return_inverse=True)
            span = uniq.size
        code = code * radix + col
        span *= radix
    _, firsts, inverse = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(firsts, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return rank[inverse.reshape(-1)], firsts[order]


def ordered_fold(
    sr,
    values: np.ndarray,
    ids: np.ndarray,
    *,
    firsts: np.ndarray | None = None,
    seed: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group semiring sum of ``values`` (grouped by ``ids``), folded
    left to right in element order.

    Unseeded (``firsts`` from :func:`group_ids`), group ``g`` starts from
    its first value — ``partial = first; partial = add(partial, next)`` —
    so no ``zero`` is ever added (``0.0 + -0.0`` is ``0.0``).  With
    ``seed``, group ``g`` starts from ``seed[g]`` and takes every value.
    Either way each addition has the operands, and the order, of the
    sequential loop, so the result is bit-identical to it.
    """
    if seed is None:
        out = values[firsts]
        rest = np.ones(values.size, dtype=bool)
        rest[firsts] = False
        values, ids = values[rest], ids[rest]
    else:
        out = np.array(seed, dtype=np.result_type(seed, values))
    sr.accumulate_at(out, ids, values)
    return out


def local_products(
    net: LowBandwidthNetwork,
    sr,
    holders: list[int],
    a_keys: list,
    b_keys: list,
) -> np.ndarray:
    """``holders[t]`` multiplies its ``a_keys[t]`` by its ``b_keys[t]``,
    for every ``t`` at once: two gathers (the possession check) and one
    ``semiring.mul`` over the operand arrays."""
    a = net.read_many(holders, a_keys, sr.dtype)
    b = net.read_many(holders, b_keys, sr.dtype)
    return sr.mul(a, b)


def triangle_products(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    holders: np.ndarray,
    tri: np.ndarray,
    *,
    keyed: bool,
    prefixes: tuple = ("A", "B"),
) -> np.ndarray:
    """``A[i, j] * B[j, k]`` for every triangle row ``(i, j, k)`` of
    ``tri``, multiplied at ``holders[t]``.  Keyed, the holders read their
    operands under ``(prefixes[0], i, j)`` and ``(prefixes[1], j, k)``
    (:func:`local_products`); columnar, the operands come from the
    instance's value table, the words the keyed path's owners were dealt."""
    i, j, k = tri[:, 0], tri[:, 1], tri[:, 2]
    if keyed:
        return local_products(
            net, inst.semiring, holders.tolist(),
            key_list(True, prefixes[0], i, j), key_list(True, prefixes[1], j, k),
        )
    return inst.semiring.mul(inst.a_values_at(i, j), inst.b_values_at(j, k))


def accumulate_at_owners(
    net: LowBandwidthNetwork,
    sr,
    owners: list[int],
    dst_keys: list,
    values: np.ndarray,
) -> None:
    """Local semiring addition of ``values[t]`` into ``dst_keys[t]`` at
    ``owners[t]``, in element order, each key seeded from the value its
    owner currently holds (which must be present)."""
    index: dict = {}
    ids = np.fromiter(
        (index.setdefault(pair, len(index)) for pair in zip(owners, dst_keys)),
        dtype=np.int64,
        count=len(dst_keys),
    )
    out_owners = [o for o, _ in index]
    out_keys = [k for _, k in index]
    seed = net.read_many(out_owners, out_keys, sr.dtype)
    net.write_many(out_owners, out_keys, ordered_fold(sr, values, ids, seed=seed))


def accumulate_into_x(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
) -> None:
    """Local semiring addition of ``values[t]`` into ``("X", rows[t],
    cols[t])`` at that entry's owner, in element order, each entry seeded
    from the value its owner holds.  The entries are grouped by their
    ``(i, k)`` arrays (an entry's owner is a function of it), so the fold
    is :func:`accumulate_at_owners`'s without a per-element key.  While
    the ``X`` words are array-resident (:meth:`LowBandwidthNetwork.instance_words`)
    the same fold runs on their value array, seeded from all of it."""
    sr = inst.semiring
    words = net.instance_words("X")
    if words is not None:
        words.values = ordered_fold(sr, values, inst.x_index(rows, cols), seed=words.values)
        return
    ids, firsts = group_ids(rows, cols)
    i, k = rows[firsts], cols[firsts]
    owners = inst.owner_of_x(i, k).tolist()
    keys = key_list(True, "X", i, k)
    seed = net.read_many(owners, keys, sr.dtype)
    net.write_many(owners, keys, ordered_fold(sr, values, ids, seed=seed))


def finalize_result(
    net: LowBandwidthNetwork,
    inst: SupportedInstance,
    algorithm: str,
    *,
    rounds_before: int = 0,
    details: dict[str, Any] | None = None,
) -> MultiplyResult:
    """Collect the computed X values from their owners into a result."""
    x = inst.collect_result(net)
    return MultiplyResult(
        x=x,
        rounds=net.rounds - rounds_before,
        messages=net.messages_sent,
        algorithm=algorithm,
        network=net,
        details=details or {},
    )


"""Shared machinery for the triangle-processing algorithms.

Every upper-bound algorithm follows the same contract:

* inputs have been dealt into a :class:`LowBandwidthNetwork` by
  :meth:`SupportedInstance.deal_into`;
* the algorithm moves values only through network primitives;
* on return, for every requested entry ``(i, k)`` of ``X_hat``, the owner
  computer ``owner_x(i, k)`` holds the final value under key
  ``("X", i, k)``.

:func:`finalize_result` packages that into a :class:`MultiplyResult`.

Local steps
-----------
Between communication phases each computer multiplies and adds the values
it holds.  The kernels express such a step over *all* computers at once:

* :func:`local_products` gathers every operand from its holder's memory in
  one pass (:meth:`LowBandwidthNetwork.read_many` — a missing operand
  raises :class:`~repro.model.network.NetworkError`, so the gather is the
  possession check) and multiplies them with one ``semiring.mul``;
* :func:`group_ids` numbers the output keys in first-occurrence order;
* :func:`ordered_fold` sums each group left to right in element order —
  ``partial = first; partial = add(partial, next)`` — or from a seed, so
  the float order is exactly that of the sequential per-triangle loop;
* :func:`accumulate_at_owners` folds delivered values into the owners'
  current entries, seeded from what they hold.
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
    "group_ids",
    "ordered_fold",
    "local_products",
    "accumulate_at_owners",
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
    must report) and costs no rounds.
    """
    owners = inst.owner_x
    net.write_many(
        list(owners.values()),
        [("X", i, k) for (i, k) in owners],
        inst.semiring.zeros(len(owners)),
    )


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


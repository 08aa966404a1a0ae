"""Dense MM expressed in the congested clique, simulated (paper §1.5).

The paper notes that for many problems — dense matrix multiplication in
particular — the fastest known low-bandwidth algorithms are congested-
clique algorithms run through the generic ``T -> nT`` simulation.  This
module makes that claim executable: the 3D algorithm is written *natively
in clique rounds* (cell ``(a, b, c)`` pulls its blocks with each ordered
pair carrying one word per clique round), then executed on the
:class:`CongestedCliqueNetwork`, whose backing low-bandwidth network
meters the true simulated cost.

The test-suite checks both directions of the §1.5 relationship:

* correctness — the simulated clique algorithm computes the same product
  as the native low-bandwidth :func:`repro.algorithms.dense.dense_3d`;
* accounting — ``lb_rounds <= (n-1) * cc_rounds``, and the clique round
  count scales like the clique bound ``O(n^{1/3})`` for the 3D pattern.
"""

from __future__ import annotations

from repro.algorithms.base import (
    MultiplyResult,
    accumulate_at_owners,
    finalize_result,
    init_outputs,
)
from repro.algorithms.dense import _block_table, _cell_computer, _grid_partials, _grid_side
from repro.model.congested_clique import CongestedCliqueNetwork
from repro.model.network import LowBandwidthNetwork, Message
from repro.supported.instance import SupportedInstance

__all__ = ["cc_dense_3d"]


def cc_dense_3d(
    inst: SupportedInstance, *, strict: bool = False
) -> tuple[MultiplyResult, int]:
    """The 3D dense algorithm written in clique rounds, simulated.

    Returns ``(result, cc_rounds)``; ``result.rounds`` is the measured
    low-bandwidth cost of the simulation.
    """
    lb = LowBandwidthNetwork(inst.n, strict=strict)
    cc = CongestedCliqueNetwork(inst.n, lb=lb)
    inst.deal_into(lb)
    init_outputs(lb, inst)

    n = inst.n
    sr = inst.semiring
    q = _grid_side(n)
    table = _block_table(n, q)
    block = table.tolist()

    # Phase 1: pull A blocks — message (owner -> cell) per element/layer
    messages: list[Message] = []
    for (i, j), owner in inst.owner_a.items():
        fb, sb = block[i], block[j]
        for layer in range(q):
            cell = _cell_computer(fb, sb, layer, q)
            messages.append(Message(owner, cell, ("A", i, j), ("A", i, j)))
    cc.route(messages, label="cc3d/A")

    messages = []
    for (j, k), owner in inst.owner_b.items():
        fb, sb = block[j], block[k]
        for layer in range(q):
            cell = _cell_computer(layer, fb, sb, q)
            messages.append(Message(owner, cell, ("B", j, k), ("B", j, k)))
    cc.route(messages, label="cc3d/B")

    # Local multiply (free), pre-aggregated per cell
    pb, pi, pk, pcell = _grid_partials(lb, sr, inst.triangles.triangles, table, q)

    # Phase 3: partials -> owners, one word per ordered pair per round
    messages = []
    owners, xkeys, dkeys = [], [], []
    for b, i, k, cell in zip(pb.tolist(), pi.tolist(), pk.tolist(), pcell.tolist()):
        owner = inst.owner_x[(i, k)]
        messages.append(Message(cell, owner, ("P3", b, i, k), ("P3in", b, i, k)))
        owners.append(owner)
        xkeys.append(("X", i, k))
        dkeys.append(("P3in", b, i, k))
    cc.route(messages, label="cc3d/agg")
    accumulate_at_owners(lb, sr, owners, xkeys, lb.read_many(owners, dkeys, sr.dtype))

    result = finalize_result(lb, inst, "cc_dense_3d", details={"cc_rounds": cc.cc_rounds})
    return result, cc.cc_rounds

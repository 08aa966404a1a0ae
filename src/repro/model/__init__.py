"""The low-bandwidth model substrate.

A network of ``n`` computers computes in synchronous rounds; per round each
computer may send one ``O(log n)``-bit message to one other computer and
receive one such message (paper §2, Definition 6.3).

:class:`~repro.model.network.LowBandwidthNetwork` is the execution engine all
algorithms run on.  Round counts are *measured by execution*: the counter
advances only when a communication round is actually carried out.
"""

from repro.model.certify import Certificate, CertifyConfig, certify_product
from repro.model.faults import (
    FaultPlan,
    ResilienceConfig,
    classify_outcome,
    run_with_faults,
)
from repro.model.network import LowBandwidthNetwork, Message, NetworkError
from repro.model.scheduling import (
    greedy_two_sided_schedule,
    schedule_makespan,
    validate_schedule,
)
from repro.model.collectives import (
    all_reduce,
    broadcast_tree_rounds,
    prefix_scan,
)
from repro.model.congested_clique import CongestedCliqueNetwork
from repro.model.schedule_cache import (
    ScheduleCache,
    default_schedule_cache,
    phase_digest,
)
from repro.model.tracing import TracingNetwork, phase_load_report

__all__ = [
    "LowBandwidthNetwork",
    "Message",
    "NetworkError",
    "greedy_two_sided_schedule",
    "schedule_makespan",
    "validate_schedule",
    "broadcast_tree_rounds",
    "all_reduce",
    "prefix_scan",
    "CongestedCliqueNetwork",
    "TracingNetwork",
    "phase_load_report",
    "ScheduleCache",
    "default_schedule_cache",
    "phase_digest",
    "FaultPlan",
    "ResilienceConfig",
    "classify_outcome",
    "run_with_faults",
    "Certificate",
    "CertifyConfig",
    "certify_product",
]

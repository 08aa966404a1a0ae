"""Simulator throughput — legacy message path vs the vectorized fast path.

The round-counting model is exact either way; this bench measures *wall
clock* of the simulator itself.  The legacy configuration replays the
historical pipeline (reference first-fit scheduler, per-message dict
delivery, no schedule cache); the fast configuration uses the vectorized
scheduler, columnar value delivery, and a structure-keyed schedule cache
(legal preprocessing in the supported model — see docs/model.md).  Round
counts must agree bit-for-bit between the two; the fast path must be at
least 5x faster on the warm d=64 two-phase sweep.

The JSON artifact records the fast path's engine configuration
(:meth:`repro.model.network.LowBandwidthNetwork.engine_info`), including
the kernel backend.

Set ``REPRO_BENCH_SMOKE=1`` to run a tiny instance (CI smoke — asserts
equality only, no timing threshold).

Emits ``BENCH_simulator.json`` at the repository root and a copy under
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import RESULTS_DIR, save_report

from repro.algorithms.twophase import multiply_two_phase
from repro.model.network import LowBandwidthNetwork
from repro.model.schedule_cache import ScheduleCache
from repro.sparsity.families import AS, US
from repro.supported.instance import make_instance

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_instances():
    """US(d) x US(d) with AS output — the Theorem 4.2 showcase family."""
    n, d = (32, 4) if SMOKE else (256, 64)
    rng = np.random.default_rng(1234)
    return [make_instance((US, US, AS), n, d, rng) for _ in range(2)]


def _run_sweep(instances, *, fast: bool, cache: ScheduleCache | None) -> tuple[float, list[int]]:
    """Run the two-phase algorithm over the sweep; return (seconds, rounds)."""
    rounds: list[int] = []
    t0 = time.perf_counter()
    for inst in instances:
        if fast:
            net = LowBandwidthNetwork(inst.n, schedule_cache=cache)
        else:
            net = LowBandwidthNetwork(
                inst.n,
                schedule_method="reference",
                schedule_cache=None,
                columnar=False,
            )
        res = multiply_two_phase(inst, net=net)
        rounds.append(res.rounds)
    return time.perf_counter() - t0, rounds


def bench_simulator_throughput(benchmark):
    instances = _sweep_instances()

    # name the engine that produced the numbers (fast-path configuration
    # plus the kernel backend)
    engine = LowBandwidthNetwork(instances[0].n).engine_info()

    baseline_s, baseline_rounds = _run_sweep(instances, fast=False, cache=None)

    cache = ScheduleCache()
    cold_s, cold_rounds = _run_sweep(instances, fast=True, cache=cache)
    warm_s, warm_rounds = _run_sweep(instances, fast=True, cache=cache)

    assert cold_rounds == baseline_rounds, "fast path changed round counts (cold)"
    assert warm_rounds == baseline_rounds, "fast path changed round counts (warm)"

    cold_speedup = baseline_s / max(cold_s, 1e-9)
    warm_speedup = baseline_s / max(warm_s, 1e-9)

    report = {
        "workload": {
            "families": ["US", "US", "AS"],
            "n": instances[0].n,
            "d": 4 if SMOKE else 64,
            "sweep_size": len(instances),
            "smoke": SMOKE,
        },
        "baseline_seconds": round(baseline_s, 4),
        "fast_cold_seconds": round(cold_s, 4),
        "fast_warm_seconds": round(warm_s, 4),
        "cold_speedup": round(cold_speedup, 2),
        "warm_speedup": round(warm_speedup, 2),
        "rounds": baseline_rounds,
        "rounds_identical": True,
        "schedule_cache": cache.stats(),
        "engine": engine,
    }
    payload = json.dumps(report, indent=2) + "\n"
    if not SMOKE:  # don't let CI smoke runs clobber the measured artifact
        (REPO_ROOT / "BENCH_simulator.json").write_text(payload)
        (RESULTS_DIR / "BENCH_simulator.json").write_text(payload)

    lines = [
        "Simulator throughput — legacy vs vectorized fast path",
        "=" * 72,
        f"workload: 2x two-phase, n={report['workload']['n']}, "
        f"d={report['workload']['d']}, [US:US:AS]" + (" (SMOKE)" if SMOKE else ""),
        f"{'configuration':<40}{'seconds':>10}{'speedup':>10}",
        f"{'legacy (reference + per-message)':<40}{baseline_s:>10.3f}{1.0:>10.2f}",
        f"{'fast, cold cache':<40}{cold_s:>10.3f}{cold_speedup:>10.2f}",
        f"{'fast, warm cache':<40}{warm_s:>10.3f}{warm_speedup:>10.2f}",
        f"rounds identical across all configurations: {baseline_rounds}",
        f"schedule cache: {cache.stats()}",
        f"kernels: {engine['kernels']['note']}",
    ]
    save_report("simulator_throughput", lines)

    benchmark.pedantic(
        lambda: _run_sweep(instances, fast=True, cache=cache), rounds=1, iterations=1
    )

    if not SMOKE:
        assert warm_speedup >= 5.0, (
            f"warm fast path only {warm_speedup:.2f}x faster (need >= 5x)"
        )

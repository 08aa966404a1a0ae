"""Resilience curves + self-healing sweep drill (the fault experiment family).

The paper's model assumes a perfect network; this bench measures what the
reproduction does when the network is *not* perfect, an experiment family
the paper never ran:

1. **Resilience curves** — for each algorithm and message-drop rate:
   the classified outcome of an unprotected strict run (never
   ``silent-corruption``: strict provenance plus the corruption checksum
   turn every fault into a detected failure), and the rounds-overhead of
   the ack/resend recovery protocol (``resilience=``) which must
   end ``correct``.  The zero-fault point must be round-identical to the
   no-plan baseline — fault instrumentation is free when nothing fails.
2. **Single-drop recovery** — targeted drops of individual payload
   deliveries (`drop_message_ordinals`); the protocol must recover 100%
   of them, each costing real, honestly counted extra rounds.
3. **Self-healing sweep** — a fault sweep (drop rate 0.01, 2 workers)
   with one deliberately SIGKILL'd worker and one poisoned cell: the
   sweep completes, quarantines exactly the poisoned cell, and every
   other cell is bit-identical to a fault-free serial run.
4. **Store crash drill** — the on-disk schedule store's atomic-replace +
   corruption-tolerant-load contract, exercised end to end.
5. **Certification** (``bench_resilience_certification``) — the in-model
   Freivalds certifier over a grid of algorithms × fault plans with
   ``k >= 20`` checks: zero ``silent-corruption`` outcomes, every silent
   corruption the uncertified run missed is detected (detection rate
   1.0), certification rounds honestly billed in the phase summary, and
   the repair/overhead accounting reported.
6. **Checkpoint crash/resume drill** — a checkpointed sweep is SIGKILL'd
   mid-run in a child process; the resumed sweep restores the completed
   cells from the manifest and finishes bit-identically to an
   uninterrupted run.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized version (same assertions,
smaller instances).  Both benches merge their sections into
``BENCH_resilience.json`` under ``benchmarks/results/`` (always) and at
the repository root (full runs).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from conftest import RESULTS_DIR, save_report
from _workloads import (
    CRASH_MARKER_VAR,
    checkpoint_drill_sweep,
    crash_worker_once_cell,
    hard_us,
    hard_us_cell,
    poisoned_cell,
    resilient_naive_cell,
)

from repro.algorithms.trivial import naive_triangles
from repro.algorithms.twophase import multiply_two_phase
from repro.analysis.checkpoint import manifest_path
from repro.analysis.sweeps import run_sweep
from repro.model import CertifyConfig, FaultPlan, run_with_faults
from repro.model.faults import (
    OUTCOME_CERT_FAILURE,
    OUTCOME_CERTIFIED,
    OUTCOME_CORRECT,
    OUTCOME_REPAIRED,
    OUTCOME_SILENT,
)
from repro.model.schedule_cache import store_crash_drill

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

N, D = (32, 2) if SMOKE else (64, 3)
FAULT_RATES = (0.0, 0.01, 0.05)
FAULT_SEED = 17
ALGORITHMS = {"naive": naive_triangles, "two_phase": multiply_two_phase}
DROP_ORDINALS = (0, 3, 7) if SMOKE else (0, 3, 7, 11, 19)
SWEEP_DS = (2, 3) if SMOKE else (2, 3, 4)
SWEEP_DROP_RATE = 0.01
POISON_D = SWEEP_DS[-1]
CERT_CHECKS = 20  # false-accept <= 2^-20 over fields
CERT_SEEDS = range(6) if SMOKE else range(12)
CERT_CORRUPT_RATE = 0.01
DRILL_DELAY_S = 0.5


def _inst():
    return hard_us(N, D, seed=2)


def _resilience_curves() -> dict:
    curves = {}
    for name, algo in ALGORITHMS.items():
        baseline = run_with_faults(_inst(), algo)
        assert baseline.outcome == OUTCOME_CORRECT, baseline.error
        entries = []
        for rate in FAULT_RATES:
            plan = FaultPlan(seed=FAULT_SEED, drop_rate=rate)
            if rate == 0.0:
                # zero-fault plan: bit-identical to no plan at all
                zero = run_with_faults(_inst(), algo, plan)
                assert zero.rounds == baseline.rounds, (name, zero.rounds)
                assert zero.outcome == OUTCOME_CORRECT
                entries.append(
                    {
                        "rate": rate,
                        "strict_outcome": OUTCOME_CORRECT,
                        "resilient_outcome": OUTCOME_CORRECT,
                        "resilient_rounds": baseline.rounds,
                        "overhead_rounds": 0,
                        "dropped": 0,
                        "resent": 0,
                    }
                )
                continue
            # unprotected strict run: the fault must be *classified* and
            # can never pass as silent corruption
            unprotected = run_with_faults(_inst(), algo, plan, strict=True)
            assert unprotected.outcome != OUTCOME_SILENT, (name, rate)
            # protected run: ack/resend must fully recover
            resilient = run_with_faults(_inst(), algo, plan, resilience=True)
            assert resilient.outcome == OUTCOME_CORRECT, (
                name,
                rate,
                resilient.error,
            )
            if rate == max(FAULT_RATES):  # low rates may drop nothing on small instances
                assert resilient.fault_counts["dropped"] > 0
            entries.append(
                {
                    "rate": rate,
                    "strict_outcome": unprotected.outcome,
                    "resilient_outcome": resilient.outcome,
                    "resilient_rounds": resilient.rounds,
                    "overhead_rounds": resilient.rounds - baseline.rounds,
                    "dropped": resilient.fault_counts["dropped"],
                    "resent": resilient.fault_counts["resent_messages"],
                }
            )
        curves[name] = {"baseline_rounds": baseline.rounds, "curve": entries}
    return curves


def _single_drop_recovery() -> dict:
    baseline = run_with_faults(_inst(), naive_triangles, resilience=True)
    assert baseline.outcome == OUTCOME_CORRECT
    trials = []
    for ordinal in DROP_ORDINALS:
        plan = FaultPlan(drop_message_ordinals=(ordinal,))
        out = run_with_faults(_inst(), naive_triangles, plan, resilience=True)
        assert out.outcome == OUTCOME_CORRECT, (ordinal, out.error)
        assert out.fault_counts["dropped"] == 1
        assert out.fault_counts["resent_messages"] >= 1
        assert out.rounds > baseline.rounds, "recovery must cost real rounds"
        trials.append({"ordinal": ordinal, "extra_rounds": out.rounds - baseline.rounds})
    return {
        "trials": trials,
        "recovered": len(trials),
        "recovery_rate": 1.0,  # asserted trial by trial above
        "baseline_rounds": baseline.rounds,
    }


def _self_healing_sweep(tmp_path: Path) -> dict:
    marker = tmp_path / "crash-once"
    algos = {
        "resilient_naive": resilient_naive_cell,
        "crash_once": crash_worker_once_cell,
        "poisoned": partial(poisoned_cell, poison_d=POISON_D),
    }
    old_marker = os.environ.get(CRASH_MARKER_VAR)
    os.environ[CRASH_MARKER_VAR] = str(marker)
    try:
        sweep = run_sweep(
            axis=("d", SWEEP_DS),
            instance_factory=hard_us_cell,
            algorithms=algos,
            strict=False,
            workers=2,
            max_attempts=2,
            cell_timeout_s=300.0,
        )
    finally:
        if old_marker is None:
            os.environ.pop(CRASH_MARKER_VAR, None)
        else:
            os.environ[CRASH_MARKER_VAR] = old_marker
    res = sweep.stats["resilience"]
    assert marker.exists(), "the injected worker crash never fired"
    assert res["worker_crashes"] >= 1, res
    assert res["quarantined"] == 1, res
    statuses = {a: sweep.cell_status[a] for a in algos}
    assert statuses["poisoned"][SWEEP_DS.index(POISON_D)] == "quarantined"
    flat = [s for col in statuses.values() for s in col]
    assert flat.count("quarantined") == 1, statuses
    assert all(s in ("ok", "quarantined") for s in flat), statuses

    # fault-free serial reference: the same cells minus the kill and the
    # poison (both wrappers reduce to resilient_naive_cell when healthy)
    ref = run_sweep(
        axis=("d", SWEEP_DS),
        instance_factory=hard_us_cell,
        algorithms={name: resilient_naive_cell for name in algos},
        strict=True,
        workers=1,
    )
    identical = True
    for name in algos:
        for i, status in enumerate(statuses[name]):
            if status == "quarantined":
                continue
            if (
                sweep.rounds[name][i] != ref.rounds[name][i]
                or sweep.messages[name][i] != ref.messages[name][i]
            ):
                identical = False
    assert identical, "surviving cells diverged from the fault-free serial run"
    return {
        "axis": list(SWEEP_DS),
        "algorithms": sorted(algos),
        "drop_rate": SWEEP_DROP_RATE,
        "workers": 2,
        "worker_crashes": res["worker_crashes"],
        "worker_replacements": res["worker_replacements"],
        "retries": res["retries"],
        "quarantined_cells": res["quarantined"],
        "statuses": statuses,
        "survivors_identical_to_serial": identical,
        "mode": sweep.stats["mode"],
    }


def _certification() -> dict:
    """Certifier grid: algorithms x fault plans, k >= 20 checks."""
    grid = {}
    for name, algo in ALGORITHMS.items():
        # clean certified run: certification is the *only* overhead, and
        # every certification round is attributed in the phase summary
        clean = run_with_faults(_inst(), algo, certify=CERT_CHECKS)
        assert clean.outcome == OUTCOME_CERTIFIED, (name, clean.outcome, clean.error)
        assert clean.cert_rounds > 0
        assert clean.overhead_rounds == clean.cert_rounds
        billed = sum(
            rounds
            for label, (rounds, _msgs) in clean.phase_summary.items()
            if label.startswith("certify")
        )
        assert billed == clean.cert_rounds, (name, billed, clean.cert_rounds)
        product_rounds = clean.rounds - clean.cert_rounds

        # drops + ack/resend recovery + certification still certifies
        protected = run_with_faults(
            _inst(), algo,
            FaultPlan(seed=FAULT_SEED, drop_rate=SWEEP_DROP_RATE),
            resilience=True, certify=CERT_CHECKS,
        )
        assert protected.outcome == OUTCOME_CERTIFIED, (
            name, protected.outcome, protected.error,
        )

        # silent-corruption grid: with certification on, the silent
        # outcome must be unreachable, and every corruption the
        # *uncertified* run would have missed must be caught
        outcomes: dict[str, int] = {}
        caught = missed = silent_uncertified = 0
        repaired = cert_failures = 0
        total_overhead = total_cert_rounds = 0
        for seed in CERT_SEEDS:
            plan = FaultPlan(
                seed=seed, corrupt_rate=CERT_CORRUPT_RATE, detect_corruption=False
            )
            bare = run_with_faults(_inst(), algo, plan)
            cert = run_with_faults(
                _inst(), algo, plan,
                certify=CertifyConfig(checks=CERT_CHECKS, max_repair_attempts=2),
            )
            assert cert.outcome != OUTCOME_SILENT, (name, seed)
            outcomes[cert.outcome] = outcomes.get(cert.outcome, 0) + 1
            repaired += cert.outcome == OUTCOME_REPAIRED
            cert_failures += cert.outcome == OUTCOME_CERT_FAILURE
            total_overhead += cert.overhead_rounds
            total_cert_rounds += cert.cert_rounds
            if bare.outcome == OUTCOME_SILENT:
                silent_uncertified += 1
                if cert.outcome == OUTCOME_SILENT:
                    missed += 1
                else:
                    caught += 1
        detection_rate = caught / silent_uncertified if silent_uncertified else None
        if silent_uncertified:
            assert detection_rate == 1.0, (name, caught, silent_uncertified)
        events = repaired + cert_failures
        grid[name] = {
            "product_rounds": product_rounds,
            "cert_rounds_clean": clean.cert_rounds,
            "cert_overhead_vs_product": clean.cert_rounds / product_rounds,
            "drops_with_recovery_outcome": protected.outcome,
            "corruption_outcomes": outcomes,
            "silent_with_certification": outcomes.get(OUTCOME_SILENT, 0),
            "silent_without_certification": silent_uncertified,
            "detection_rate": detection_rate,
            "repaired": repaired,
            "certification_failures": cert_failures,
            "repair_success_rate": repaired / events if events else None,
            "mean_overhead_rounds": total_overhead / len(CERT_SEEDS),
            "mean_cert_rounds": total_cert_rounds / len(CERT_SEEDS),
        }
    return {
        "checks": CERT_CHECKS,
        "false_accept_bound": 2.0 ** -CERT_CHECKS,
        "corrupt_rate": CERT_CORRUPT_RATE,
        "seeds": len(CERT_SEEDS),
        "grid": grid,
    }


def _checkpoint_resume_drill(tmp_path: Path) -> dict:
    """SIGKILL a checkpointed sweep mid-run in a child process, resume it
    from the manifest, and demand bit-identity with an uninterrupted run."""
    ckpt = tmp_path / "ckpt-drill"
    total_cells = 3  # checkpoint_drill_sweep: d in (2, 3, 4), one algorithm
    code = (
        "from _workloads import checkpoint_drill_main; "
        f"checkpoint_drill_main({str(ckpt)!r}, delay_s={DRILL_DELAY_S})"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    victim = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=str(BENCH_DIR))
    mf = manifest_path(ckpt)
    deadline = time.monotonic() + 120.0
    cells_seen = 0
    try:
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            try:
                # atomic manifest writes: a visible file is always complete
                cells_seen = len(json.loads(mf.read_text()).get("cells", {}))
            except (OSError, ValueError):
                cells_seen = 0
            if cells_seen >= 1:
                break
            time.sleep(0.02)
        assert victim.poll() is None, "victim sweep finished before the kill"
        os.kill(victim.pid, signal.SIGKILL)
        exitcode = victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)
    assert exitcode == -signal.SIGKILL, exitcode

    resumed = checkpoint_drill_sweep(ckpt, delay_s=DRILL_DELAY_S)
    ck = resumed.stats["checkpoint"]
    assert 1 <= ck["restored_cells"] < total_cells, ck
    assert ck["restored_cells"] + ck["executed_cells"] == total_cells

    reference = checkpoint_drill_sweep(None, delay_s=0.0)
    assert resumed.rounds == reference.rounds, (resumed.rounds, reference.rounds)
    assert resumed.messages == reference.messages
    assert resumed.verified and reference.verified
    return {
        "victim_exitcode": exitcode,
        "cells_total": total_cells,
        "cells_checkpointed_at_kill": cells_seen,
        "restored_cells": ck["restored_cells"],
        "executed_after_resume": ck["executed_cells"],
        "bit_identical_to_uninterrupted": True,  # asserted above
    }


def _merge_into_reports(sections: dict) -> None:
    """Merge sections into ``BENCH_resilience.json`` (both benches write
    to the same artifact; load-if-present so they compose in any order)."""
    targets = [RESULTS_DIR / "BENCH_resilience.json"]
    if not SMOKE:  # don't let CI smoke runs clobber the measured artifact
        targets.append(REPO_ROOT / "BENCH_resilience.json")
    for target in targets:
        existing: dict = {}
        if target.exists():
            try:
                loaded = json.loads(target.read_text())
                if isinstance(loaded, dict):
                    existing = loaded
            except ValueError:
                pass
        existing.update(sections)
        target.write_text(json.dumps(existing, indent=2) + "\n")


def bench_resilience(benchmark, tmp_path):
    curves = _resilience_curves()
    single_drop = _single_drop_recovery()
    sweep_drill = _self_healing_sweep(tmp_path)
    store_drill = store_crash_drill(tmp_path / "store-drill")
    assert store_drill["ok"], store_drill

    report = {
        "workload": {
            "n": N,
            "d": D,
            "fault_rates": list(FAULT_RATES),
            "fault_seed": FAULT_SEED,
            "algorithms": sorted(ALGORITHMS),
            "smoke": SMOKE,
        },
        "resilience_curves": curves,
        "single_drop_recovery": single_drop,
        "self_healing_sweep": sweep_drill,
        "store_crash_drill": store_drill,
    }
    _merge_into_reports(report)

    lines = [
        "Resilience curves — fault injection + ack/resend recovery",
        "=" * 72,
        f"workload: worst-case US, n={N}, d={D}"
        + (" (SMOKE)" if SMOKE else ""),
        f"{'algorithm':<12}{'rate':>8}{'strict outcome':>20}{'recovered':>12}{'overhead':>10}",
    ]
    for name, data in curves.items():
        for e in data["curve"]:
            lines.append(
                f"{name:<12}{e['rate']:>8.2f}{e['strict_outcome']:>20}"
                f"{e['resilient_outcome'] == 'correct':>12}{e['overhead_rounds']:>+10}"
            )
    lines += [
        f"single-drop recovery: {single_drop['recovered']}/{len(DROP_ORDINALS)} "
        f"(extra rounds per drop: "
        f"{[t['extra_rounds'] for t in single_drop['trials']]})",
        f"self-healing sweep: {sweep_drill['worker_crashes']} worker crash(es), "
        f"{sweep_drill['quarantined_cells']} quarantined cell(s), "
        f"survivors identical to serial: {sweep_drill['survivors_identical_to_serial']}",
        f"store crash drill: {'pass' if store_drill['ok'] else 'FAIL'}",
    ]
    save_report("resilience", lines)

    benchmark.pedantic(
        lambda: run_with_faults(
            _inst(),
            naive_triangles,
            FaultPlan(seed=FAULT_SEED, drop_rate=SWEEP_DROP_RATE),
            resilience=True,
        ),
        rounds=1,
        iterations=1,
    )


def bench_resilience_certification(benchmark, tmp_path):
    certification = _certification()
    drill = _checkpoint_resume_drill(tmp_path)
    _merge_into_reports(
        {"certification": certification, "checkpoint_resume_drill": drill}
    )

    lines = [
        "Result certification + checkpoint crash/resume drill",
        "=" * 72,
        f"workload: worst-case US, n={N}, d={D}"
        + (" (SMOKE)" if SMOKE else ""),
        f"Freivalds checks k={CERT_CHECKS} "
        f"(field false-accept <= 2^-{CERT_CHECKS}), "
        f"{len(CERT_SEEDS)} corruption seeds @ rate {CERT_CORRUPT_RATE}",
        f"{'algorithm':<12}{'cert rounds':>12}{'overhead':>10}"
        f"{'silent(bare)':>14}{'silent(cert)':>14}{'detect':>8}{'repaired':>10}",
    ]
    for name, g in certification["grid"].items():
        detect = "n/a" if g["detection_rate"] is None else f"{g['detection_rate']:.2f}"
        lines.append(
            f"{name:<12}{g['cert_rounds_clean']:>12}"
            f"{g['cert_overhead_vs_product']:>9.1%}"
            f"{g['silent_without_certification']:>14}"
            f"{g['silent_with_certification']:>14}{detect:>8}{g['repaired']:>10}"
        )
    lines.append(
        f"checkpoint drill: victim SIGKILL'd after "
        f"{drill['cells_checkpointed_at_kill']}/{drill['cells_total']} cell(s), "
        f"resume restored {drill['restored_cells']} and ran "
        f"{drill['executed_after_resume']}; bit-identical: "
        f"{drill['bit_identical_to_uninterrupted']}"
    )
    save_report("resilience_certification", lines)

    benchmark.pedantic(
        lambda: run_with_faults(_inst(), naive_triangles, certify=CERT_CHECKS),
        rounds=1,
        iterations=1,
    )

"""Benchmark entry point: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice in one process -- untraced, then
with the span wrappers of :mod:`spans` installed -- and prints every
per-layer metric, the tracing overhead (traced against untraced
``jobs_per_s``) and the share of the timed wall no traced call covers.
The last line of standard output is always the JSON result; the lines
before it name each metric with its unit and sample count, the host
fingerprint and the mechanism ratios.  Spans of a traced run are written
to ``perfbench/traces/`` when it ends.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


#: windows per run.  Each end-to-end timing is the median over windows of
#: its value within the window, so a burst of host contention in one
#: window does not move it.
WINDOWS = 10


def windows(jobs: list, quantum: int) -> list:
    """Split ``(done_s, latency_s)`` pairs, in completion order, into
    consecutive windows of equally many jobs: a multiple of ``quantum``
    (jobs that complete together), at least two quanta when a quantum
    holds several jobs, so a window's percentiles span more than one
    answer.  Jobs after the last full window are left out."""
    floor = 2 * quantum if quantum > 1 else 1
    size = max(floor, len(jobs) // WINDOWS // quantum * quantum)
    return [jobs[k:k + size] for k in range(0, len(jobs) - size + 1, size)]


def end_to_end(out) -> tuple[dict, dict]:
    import spans

    wins = windows(out.jobs, out.quantum)
    rates, p50, p99 = [], [], []
    start = 0.0
    for win in wins:
        rates.append(len(win) / (win[-1][0] - start))
        start = win[-1][0]
        lat_ms = [lat * 1e3 for _done, lat in win]
        p50.append(spans.nearest_rank(lat_ms, 0.50))
        p99.append(spans.nearest_rank(lat_ms, 0.99))
    jobs = len(out.ok)
    per = len(wins[0])
    metrics = {
        "setup_s": statistics.median(out.setup_s),
        "jobs_per_s": statistics.median(rates),
        "job_p50_ms": statistics.median(p50),
        "job_p99_ms": statistics.median(p99),
        "ok_frac": sum(out.ok) / jobs,
        "peak_rss_mb": out.peak_rss_mb,
    }
    window_note = f"{len(wins)} windows x {per} jobs"
    samples = {
        "setup_s": len(out.setup_s),
        "jobs_per_s": window_note,
        "job_p50_ms": window_note,
        "job_p99_ms": f"{window_note}, {per - math.ceil(0.99 * per)} beyond p99 per window",
        "ok_frac": jobs,
    }
    return metrics, samples


def per_layer(plain, traced, tracer) -> tuple[dict, dict]:
    import spans

    t_setup, t_lo, t_hi = traced.marks
    metrics, samples = spans.layer_metrics(tracer, t_lo, t_hi, t_setup)
    metrics.update(traced.counters)
    samples["jobs.exec_ms_p50"] = metrics.pop("jobs.exec_samples", None)
    # the traced run's sweep details carry its spans; the payload the
    # program ships per cell comes from the untraced run
    if "executor.payload_bytes_per_cell" in plain.counters:
        metrics["executor.payload_bytes_per_cell"] = plain.counters["executor.payload_bytes_per_cell"]
    plain_rate = end_to_end(plain)[0]["jobs_per_s"]
    traced_rate = end_to_end(traced)[0]["jobs_per_s"]
    metrics["trace.overhead"] = 1.0 - traced_rate / plain_rate
    return metrics, samples


def write_spans(tracer, path: Path, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in tracer.spans:
            if not header["marks"][0] <= s[3] <= header["marks"][2]:
                continue  # reference runs of the correctness gate
            fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], s[5], s[6]], default=str) + "\n")


def _children() -> set:
    """Pids of this process's children that are running or unreaped."""
    pids = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
    except OSError:
        pass
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The interpreter joins the pool and sweep workers, but never the
    multiprocessing resource tracker that the first shared-memory segment
    starts: it ends only once its pipe closes, a moment after this process
    exits.  Close the pipe here and wait for the tracker, then for any
    other child; one still running after ``timeout`` is killed.  Runs as
    the last exit handler, after the program's own shared-memory cleanup,
    which would otherwise start a fresh tracker.
    """
    pending = _children()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        rt = tracker._resource_tracker
        with rt._lock:
            if rt._fd is not None:
                os.close(rt._fd)
                if rt._pid is not None:
                    pending.add(rt._pid)
                rt._fd = rt._pid = None
    deadline = time.monotonic() + timeout
    while pending:
        for pid in list(pending):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                pending.discard(pid)
        pending |= _children()
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        if pending:
            time.sleep(0.005)


def main(argv=None) -> int:
    # registered before the program is imported, so it runs last at exit
    atexit.register(stop_children)
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import host
    import spans
    import workloads
    from repro.model.network import dispatch_count

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    work_dir = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    probe_before = host.probe_ms()
    try:
        plain = asyncio.run(workloads.drive(cls(args.seed, work_dir), args.seconds))
        if args.trace:
            tracer = spans.install(dispatch_count)
            traced = asyncio.run(workloads.drive(cls(args.seed, work_dir), args.seconds, repeats=1))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    probe_after = host.probe_ms()

    if args.trace:
        wanted = spec["per_layer"]
        metrics, samples = per_layer(plain, traced, tracer)
        # program counters of a layer this workload never reaches read 0
        # and are listed under "not_exercised"
        for m in wanted:
            metrics.setdefault(m["name"], 0)
        result = traced
    else:
        wanted = spec["end_to_end"]
        metrics, samples = end_to_end(plain)
        result = plain
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    for m in wanted:
        n = samples.get(m["name"])
        note = f"  (n={n})" if n is not None else ""
        print(f"{m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    # figures outside BENCHMARK.json: the mechanism ratios of every serve
    # run, and layers of workloads the benchmark does not list
    listed = {m["name"] for m in wanted}
    for name, value in sorted({**result.counters, **metrics}.items()):
        if name not in listed:
            print(f"{name:<36} {value:>14.6g}  (not in BENCHMARK.json)")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": result.elapsed_s,
        "samples": samples,
        "setup_runs_s": result.setup_s,
        "counters": result.counters,
        "not_exercised": [m["name"] for m in wanted if metrics[m["name"]] == 0],
        "host": {**host.fingerprint(), "probe_ms_before": probe_before, "probe_ms_after": probe_after},
    }
    print("report " + json.dumps(report, default=str))
    if args.trace:
        write_spans(
            tracer,
            HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "marks": result.marks},
        )

    attempted = len(result.ok) + (len(plain.ok) if args.trace else 0)
    passed = sum(result.ok) + (sum(plain.ok) if args.trace else 0)
    print(json.dumps({
        "correct": passed == attempted and attempted > 0,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

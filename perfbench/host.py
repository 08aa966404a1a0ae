"""Host fingerprint and a fixed probe loop, printed with every result.

Diagnostic only: the fingerprint lets a reader tell machine drift from a
change in the program.  Nothing here rescales any metric.
"""

from __future__ import annotations

import os
import platform
import resource
import time

import numpy as np
import scipy


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    from repro.model._kernels import kernel_info

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": kernel_info(),
    }


def probe_ms() -> float:
    """Wall time of a fixed pure-Python plus NumPy loop (median of 3)."""
    rng = np.random.default_rng(0)
    a = rng.random((160, 160))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i % 7
        for _ in range(20):
            a = np.tanh(a @ a.T / 160.0)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[1] * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0

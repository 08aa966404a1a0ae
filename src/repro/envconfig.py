"""Validated parsing of the ``REPRO_*`` environment knobs.

The benchmark drivers are configured through environment variables
(`EXPERIMENTS.md`): ``REPRO_BENCH_WORKERS`` sets the sweep pool size,
``REPRO_SWEEP_CACHE_DIR`` the persistent schedule-store directory,
``REPRO_CERT_CHECKS`` the number of in-model Freivalds certification
checks (0 disables), ``REPRO_SWEEP_CHECKPOINT_DIR`` the crash-safe
sweep-manifest directory.  The serving layer
(:mod:`repro.serve`) adds ``REPRO_SERVE_WORKERS`` (resident worker
processes; 0 = in-process), ``REPRO_SERVE_BATCH_WINDOW_MS`` (how long a
structure's batch stays open for coalescing) and
``REPRO_SERVE_MAX_QUEUE`` (admission-control depth) and
``REPRO_SERVE_JOB_TIMEOUT_S`` (per-job deadline; 0 = no deadline).
The delivery plane (:mod:`repro.transport`) adds ``REPRO_TRANSPORT``
(``local``/``tcp``), ``REPRO_TRANSPORT_TIMEOUT_MS`` (connection /
barrier / handshake deadline) and ``REPRO_TRANSPORT_HEARTBEAT_MS``
(host liveness beat interval).  Every
driver used to parse these with a bare ``int()`` / ``os.environ.get``,
so a typo (``REPRO_BENCH_WORKERS=four``) surfaced as an opaque
``ValueError: invalid literal for int()`` traceback from deep inside a
bench.  This module is the single place those variables are read and
validated; garbage values raise :class:`EnvConfigError` naming the
variable, the offending value, and what would be accepted.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping

__all__ = [
    "EnvConfigError",
    "env_workers",
    "env_cache_dir",
    "env_cert_checks",
    "env_checkpoint_dir",
    "env_serve_workers",
    "env_serve_batch_window_ms",
    "env_serve_max_queue",
    "env_serve_job_timeout_s",
    "env_transport",
    "env_transport_timeout_ms",
    "env_transport_heartbeat_ms",
]

WORKERS_VAR = "REPRO_BENCH_WORKERS"
CACHE_DIR_VAR = "REPRO_SWEEP_CACHE_DIR"
CERT_CHECKS_VAR = "REPRO_CERT_CHECKS"
CHECKPOINT_DIR_VAR = "REPRO_SWEEP_CHECKPOINT_DIR"
SERVE_WORKERS_VAR = "REPRO_SERVE_WORKERS"
SERVE_BATCH_WINDOW_VAR = "REPRO_SERVE_BATCH_WINDOW_MS"
SERVE_MAX_QUEUE_VAR = "REPRO_SERVE_MAX_QUEUE"
SERVE_JOB_TIMEOUT_VAR = "REPRO_SERVE_JOB_TIMEOUT_S"
TRANSPORT_VAR = "REPRO_TRANSPORT"
TRANSPORT_TIMEOUT_VAR = "REPRO_TRANSPORT_TIMEOUT_MS"
TRANSPORT_HEARTBEAT_VAR = "REPRO_TRANSPORT_HEARTBEAT_MS"

_TRANSPORT_CHOICES = ("local", "tcp")


class EnvConfigError(ValueError):
    """An environment knob holds a value that cannot mean anything."""


def env_workers(
    default: int = 1, *, environ: Mapping[str, str] | None = None
) -> int:
    """Worker count from ``REPRO_BENCH_WORKERS``.

    Accepts a non-negative integer; ``0`` means auto-size (the executor
    picks one worker per core, capped at 4).  Unset or empty falls back
    to ``default``.  Anything else raises :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(WORKERS_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise EnvConfigError(
            f"{WORKERS_VAR} must be a non-negative integer "
            f"(0 = auto-size), got {raw!r}"
        ) from None
    if value < 0:
        raise EnvConfigError(
            f"{WORKERS_VAR} must be >= 0 (0 = auto-size), got {value}"
        )
    return value


def env_cache_dir(
    *, environ: Mapping[str, str] | None = None
) -> str | None:
    """Schedule-store directory from ``REPRO_SWEEP_CACHE_DIR``.

    Unset or empty means no persistence (in-memory cache only) and
    returns ``None``.  A set value is expanded (``~``) and must not name
    an existing *non-directory* — pointing the store at a regular file
    raises :class:`EnvConfigError` here instead of an opaque failure at
    first save.  The directory itself may not exist yet; the store
    creates it on first write.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(CACHE_DIR_VAR)
    if raw is None or raw.strip() == "":
        return None
    path = Path(raw.strip()).expanduser()
    if path.exists() and not path.is_dir():
        raise EnvConfigError(
            f"{CACHE_DIR_VAR} must name a directory (existing or to be "
            f"created), but {raw!r} is an existing non-directory"
        )
    return str(path)


def env_cert_checks(
    default: int = 20, *, environ: Mapping[str, str] | None = None
) -> int:
    """Certification check count from ``REPRO_CERT_CHECKS``.

    Accepts a non-negative integer: the number of independent Freivalds
    checks (false-accept ≤ 2^-k over fields); ``0`` disables
    certification.  Unset or empty falls back to ``default``.  Anything
    else raises :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(CERT_CHECKS_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise EnvConfigError(
            f"{CERT_CHECKS_VAR} must be a non-negative integer "
            f"(0 = certification off), got {raw!r}"
        ) from None
    if value < 0:
        raise EnvConfigError(
            f"{CERT_CHECKS_VAR} must be >= 0 (0 = certification off), got {value}"
        )
    return value


def env_serve_workers(
    default: int = 0, *, environ: Mapping[str, str] | None = None
) -> int:
    """Serving worker-process count from ``REPRO_SERVE_WORKERS``.

    Accepts a non-negative integer; ``0`` means run batches in-process
    (no worker pool — the mode every host supports).  Unset or empty
    falls back to ``default``.  Anything else raises
    :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(SERVE_WORKERS_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise EnvConfigError(
            f"{SERVE_WORKERS_VAR} must be a non-negative integer "
            f"(0 = in-process execution), got {raw!r}"
        ) from None
    if value < 0:
        raise EnvConfigError(
            f"{SERVE_WORKERS_VAR} must be >= 0 (0 = in-process execution), got {value}"
        )
    return value


def env_serve_batch_window_ms(
    default: float = 5.0, *, environ: Mapping[str, str] | None = None
) -> float:
    """Batching window from ``REPRO_SERVE_BATCH_WINDOW_MS``.

    Accepts a non-negative number of milliseconds: how long the front end
    holds the first job of a structure open so structurally identical
    jobs can coalesce into its batch; ``0`` dispatches on the next event
    loop turn (jobs already queued still coalesce).  Unset or empty falls
    back to ``default``.  Anything else — including negative values, NaN
    and infinities — raises :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(SERVE_BATCH_WINDOW_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{SERVE_BATCH_WINDOW_VAR} must be a non-negative number of "
            f"milliseconds, got {raw!r}"
        ) from None
    if not (value >= 0) or value != value or value == float("inf"):
        raise EnvConfigError(
            f"{SERVE_BATCH_WINDOW_VAR} must be a finite number >= 0 "
            f"(milliseconds), got {raw!r}"
        )
    return value


def env_serve_max_queue(
    default: int = 256, *, environ: Mapping[str, str] | None = None
) -> int:
    """Admission-control queue depth from ``REPRO_SERVE_MAX_QUEUE``.

    Accepts a positive integer: the maximum number of jobs the front end
    holds in flight (queued + batching + executing) before it rejects new
    submissions outright.  Unset or empty falls back to ``default``.
    Zero, negative, or non-integer values raise :class:`EnvConfigError` —
    a queue of depth zero would reject everything, which can only be a
    configuration mistake.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(SERVE_MAX_QUEUE_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = int(raw.strip(), 10)
    except ValueError:
        raise EnvConfigError(
            f"{SERVE_MAX_QUEUE_VAR} must be a positive integer "
            f"(maximum in-flight jobs), got {raw!r}"
        ) from None
    if value < 1:
        raise EnvConfigError(
            f"{SERVE_MAX_QUEUE_VAR} must be >= 1, got {value}"
        )
    return value


def env_serve_job_timeout_s(
    default: float = 0.0, *, environ: Mapping[str, str] | None = None
) -> float:
    """Per-job deadline from ``REPRO_SERVE_JOB_TIMEOUT_S``.

    Accepts a non-negative number of seconds: how long a submitted job
    may spend queued + batched + executing before the front end fails it
    with :class:`~repro.serve.frontend.DeadlineExceeded`; ``0`` disables
    the deadline.  Unset or empty falls back to ``default``.  Anything
    else — including negative values, NaN and infinities — raises
    :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(SERVE_JOB_TIMEOUT_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{SERVE_JOB_TIMEOUT_VAR} must be a non-negative number of "
            f"seconds (0 = no deadline), got {raw!r}"
        ) from None
    if not (value >= 0) or value != value or value == float("inf"):
        raise EnvConfigError(
            f"{SERVE_JOB_TIMEOUT_VAR} must be a finite number >= 0 "
            f"(seconds; 0 = no deadline), got {raw!r}"
        )
    return value


def env_transport(
    default: str = "local", *, environ: Mapping[str, str] | None = None
) -> str:
    """Delivery-plane selection from ``REPRO_TRANSPORT``.

    Accepts ``local`` (the in-process reference simulator) or ``tcp``
    (the multi-process socket mesh of
    :class:`~repro.transport.socket_mesh.SocketTransport`).  Unset or
    empty falls back to ``default``; anything else raises
    :class:`EnvConfigError`.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(TRANSPORT_VAR)
    if raw is None or raw.strip() == "":
        return default
    value = raw.strip().lower()
    if value not in _TRANSPORT_CHOICES:
        raise EnvConfigError(
            f"{TRANSPORT_VAR} must be one of {', '.join(_TRANSPORT_CHOICES)}, "
            f"got {raw!r}"
        )
    return value


def env_transport_timeout_ms(
    default: float = 5000.0, *, environ: Mapping[str, str] | None = None
) -> float:
    """Transport deadline from ``REPRO_TRANSPORT_TIMEOUT_MS``.

    Accepts a positive number of milliseconds bounding every transport
    wait — connection establishment, barrier completion, mesh repair —
    so a dead peer becomes a typed failure, never a hang.  Unset or
    empty falls back to ``default``.  Zero, negative, NaN, infinite or
    non-numeric values raise :class:`EnvConfigError` — a zero deadline
    would fail every round before its first byte.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(TRANSPORT_TIMEOUT_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{TRANSPORT_TIMEOUT_VAR} must be a positive number of "
            f"milliseconds, got {raw!r}"
        ) from None
    if not (value > 0) or value != value or value == float("inf"):
        raise EnvConfigError(
            f"{TRANSPORT_TIMEOUT_VAR} must be a finite number > 0 "
            f"(milliseconds), got {raw!r}"
        )
    return value


def env_transport_heartbeat_ms(
    default: float = 100.0, *, environ: Mapping[str, str] | None = None
) -> float:
    """Host liveness beat interval from ``REPRO_TRANSPORT_HEARTBEAT_MS``.

    Accepts a positive number of milliseconds: how often each host
    process beats the coordinator (a host silent for ``miss_beats``
    intervals is declared crashed).  Unset or empty falls back to
    ``default``.  Zero, negative, NaN, infinite or non-numeric values
    raise :class:`EnvConfigError`.  Note the cross-field rule enforced
    by :meth:`repro.transport.base.TransportConfig.validate`:
    ``heartbeat_ms * miss_beats`` must stay below ``timeout_ms`` so
    liveness trips before the barrier deadline.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(TRANSPORT_HEARTBEAT_VAR)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise EnvConfigError(
            f"{TRANSPORT_HEARTBEAT_VAR} must be a positive number of "
            f"milliseconds, got {raw!r}"
        ) from None
    if not (value > 0) or value != value or value == float("inf"):
        raise EnvConfigError(
            f"{TRANSPORT_HEARTBEAT_VAR} must be a finite number > 0 "
            f"(milliseconds), got {raw!r}"
        )
    return value


def env_checkpoint_dir(
    *, environ: Mapping[str, str] | None = None
) -> str | None:
    """Sweep checkpoint directory from ``REPRO_SWEEP_CHECKPOINT_DIR``.

    Unset or empty means no checkpointing and returns ``None``.  A set
    value is expanded (``~``) and must not name an existing
    *non-directory* — pointing the manifest at a regular file raises
    :class:`EnvConfigError` here instead of an opaque failure at the
    first periodic save.  The directory itself may not exist yet; the
    checkpoint writer creates it on first write.
    """
    env = environ if environ is not None else os.environ
    raw = env.get(CHECKPOINT_DIR_VAR)
    if raw is None or raw.strip() == "":
        return None
    path = Path(raw.strip()).expanduser()
    if path.exists() and not path.is_dir():
        raise EnvConfigError(
            f"{CHECKPOINT_DIR_VAR} must name a directory (existing or to "
            f"be created), but {raw!r} is an existing non-directory"
        )
    return str(path)

"""Validated parsing of the ``REPRO_*`` environment knobs.

The benchmark drivers, the serving layer (:mod:`repro.serve`) and the
delivery plane (:mod:`repro.transport`) are configured through
environment variables.  Parsed with a bare ``int()`` /
``os.environ.get``, a typo (``REPRO_BENCH_WORKERS=four``) surfaced as an
opaque ``ValueError: invalid literal for int()`` traceback from deep
inside a bench.  This module is the single place those variables are
read and validated.  :data:`KNOBS` is the list of knobs, one
:class:`Knob` row each, and :meth:`Knob.read` reads any row: unset or
blank gives the default, and garbage raises :class:`EnvConfigError`
naming the variable, the offending value and what would be accepted.
``env_workers`` through ``env_checkpoint_dir`` are the rows' bound
``read`` methods; the two directory knobs take no ``default``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "EnvConfigError", "Knob", "KNOBS",
    "env_workers", "env_cache_dir", "env_cert_checks", "env_checkpoint_dir",
    "env_serve_workers", "env_serve_batch_window_ms", "env_serve_max_queue",
    "env_serve_job_timeout_s", "env_transport", "env_transport_timeout_ms",
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


class EnvConfigError(ValueError):
    """An environment knob holds a value that cannot mean anything."""


def _directory(text: str) -> str | None:
    # ``~`` is expanded (an unknown ``~user`` raises RuntimeError, a name
    # too long to stat OSError); the directory need not exist yet, its
    # writer creates it on first write
    path = Path(text).expanduser()
    return None if path.exists() and not path.is_dir() else str(path)


#: the six rules: the stripped text -> its value, or ``None`` (or a
#: ValueError, RuntimeError or OSError) when the rule rejects it
_RULES = {
    "int>=0": lambda t: v if (v := int(t, 10)) >= 0 else None,
    "int>=1": lambda t: v if (v := int(t, 10)) >= 1 else None,
    "finite>=0": lambda t: v if 0 <= (v := float(t)) < math.inf else None,
    "finite>0": lambda t: v if 0 < (v := float(t)) < math.inf else None,
    "local|tcp": lambda t: v if (v := t.lower()) in ("local", "tcp") else None,
    "directory": _directory,
}


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: its rule (a key of the six rules:
    ``int>=0``, ``int>=1``, ``finite>=0``, ``finite>0``, ``local|tcp``
    lower-cased, ``directory`` with ``~`` expanded and an existing
    non-directory rejected), its default, and the phrase for accepted
    values that an :class:`EnvConfigError` quotes."""

    var: str
    rule: str
    default: Any
    accepts: str

    def read(
        self, default: Any = None, *, environ: Mapping[str, str] | None = None
    ) -> Any:
        """This knob's value from ``environ`` (default ``os.environ``).

        Unset or blank gives ``default`` (``None``: the row's default).
        Anything the rule rejects raises :class:`EnvConfigError`."""
        raw = (os.environ if environ is None else environ).get(self.var)
        if raw is None or not raw.strip():
            return self.default if default is None else default
        try:
            value = _RULES[self.rule](raw.strip())
        except (ValueError, RuntimeError, OSError):
            value = None
        if value is None:
            raise EnvConfigError(f"{self.var} must be {self.accepts}, got {raw!r}")
        return value


#: every knob, keyed by variable
KNOBS = {
    knob.var: knob
    for knob in (
        Knob(WORKERS_VAR, "int>=0", 1,
             "an integer >= 0 (sweep pool size; 0 = auto-size, one worker "
             "per core capped at 4)"),
        Knob(CACHE_DIR_VAR, "directory", None,
             "a schedule-store directory, existing or to be created (unset "
             "= in-memory cache only), not an existing non-directory"),
        Knob(CERT_CHECKS_VAR, "int>=0", 20,
             "an integer >= 0 (independent Freivalds checks, false-accept "
             "<= 2^-k over fields; 0 = certification off)"),
        Knob(CHECKPOINT_DIR_VAR, "directory", None,
             "a sweep-manifest directory, existing or to be created (unset "
             "= no checkpointing), not an existing non-directory"),
        Knob(SERVE_WORKERS_VAR, "int>=0", 0,
             "an integer >= 0 (resident worker processes; 0 = in-process "
             "execution)"),
        Knob(SERVE_BATCH_WINDOW_VAR, "finite>=0", 5.0,
             "a finite number >= 0 (milliseconds a structure's batch stays "
             "open for coalescing; 0 = dispatch on the next loop turn)"),
        Knob(SERVE_MAX_QUEUE_VAR, "int>=1", 256,
             "an integer >= 1 (maximum in-flight jobs before admission "
             "control rejects)"),
        Knob(SERVE_JOB_TIMEOUT_VAR, "finite>=0", 0.0,
             "a finite number >= 0 (seconds per job; 0 = no deadline)"),
        Knob(TRANSPORT_VAR, "local|tcp", "local",
             "one of local, tcp (the in-process simulator or the "
             "multi-process socket mesh)"),
        Knob(TRANSPORT_TIMEOUT_VAR, "finite>0", 5000.0,
             "a finite number > 0 (milliseconds bounding every transport "
             "wait)"),
        Knob(TRANSPORT_HEARTBEAT_VAR, "finite>0", 100.0,
             "a finite number > 0 (milliseconds between host liveness "
             "beats; TransportConfig also needs heartbeat_ms * miss_beats "
             "< timeout_ms)"),
    )
}

env_workers = KNOBS[WORKERS_VAR].read
env_cache_dir = partial(KNOBS[CACHE_DIR_VAR].read, None)
env_cert_checks = KNOBS[CERT_CHECKS_VAR].read
env_checkpoint_dir = partial(KNOBS[CHECKPOINT_DIR_VAR].read, None)
env_serve_workers = KNOBS[SERVE_WORKERS_VAR].read
env_serve_batch_window_ms = KNOBS[SERVE_BATCH_WINDOW_VAR].read
env_serve_max_queue = KNOBS[SERVE_MAX_QUEUE_VAR].read
env_serve_job_timeout_s = KNOBS[SERVE_JOB_TIMEOUT_VAR].read
env_transport = KNOBS[TRANSPORT_VAR].read
env_transport_timeout_ms = KNOBS[TRANSPORT_TIMEOUT_VAR].read
env_transport_heartbeat_ms = KNOBS[TRANSPORT_HEARTBEAT_VAR].read

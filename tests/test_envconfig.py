"""Unit tests for the validated benchmark environment knobs.

``repro.envconfig`` is the single place ``REPRO_BENCH_WORKERS`` and
``REPRO_SWEEP_CACHE_DIR`` are parsed; every consumer (benchmarks, make
targets, CI) goes through it, so garbage values fail loudly here instead
of deep inside a worker pool.  The ``environ=`` parameter lets these
tests inject a plain dict instead of mutating the real environment.
"""

import inspect
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import envconfig
from repro.envconfig import (
    CACHE_DIR_VAR,
    CERT_CHECKS_VAR,
    CHECKPOINT_DIR_VAR,
    KNOBS,
    SERVE_BATCH_WINDOW_VAR,
    SERVE_MAX_QUEUE_VAR,
    SERVE_WORKERS_VAR,
    WORKERS_VAR,
    EnvConfigError,
    env_cache_dir,
    env_cert_checks,
    env_checkpoint_dir,
    env_serve_batch_window_ms,
    env_serve_max_queue,
    env_serve_workers,
    env_workers,
)


# ---------------------------------------------------------------------- #
# REPRO_BENCH_WORKERS
# ---------------------------------------------------------------------- #
def test_workers_unset_returns_default():
    assert env_workers(default=1, environ={}) == 1
    assert env_workers(default=7, environ={}) == 7


def test_workers_empty_string_returns_default():
    assert env_workers(default=3, environ={WORKERS_VAR: ""}) == 3
    assert env_workers(default=3, environ={WORKERS_VAR: "   "}) == 3


def test_workers_valid_values_parse():
    assert env_workers(environ={WORKERS_VAR: "4"}) == 4
    assert env_workers(environ={WORKERS_VAR: " 2 "}) == 2
    assert env_workers(environ={WORKERS_VAR: "0"}) == 0  # 0 = auto-size


def test_workers_garbage_raises_with_variable_name():
    for bad in ("four", "2.5", "1e3", "-"):
        with pytest.raises(EnvConfigError, match=WORKERS_VAR):
            env_workers(environ={WORKERS_VAR: bad})


def test_workers_negative_raises():
    with pytest.raises(EnvConfigError, match=">= 0"):
        env_workers(environ={WORKERS_VAR: "-2"})


def test_workers_error_is_a_value_error():
    with pytest.raises(ValueError):
        env_workers(environ={WORKERS_VAR: "nope"})


# ---------------------------------------------------------------------- #
# REPRO_SWEEP_CACHE_DIR
# ---------------------------------------------------------------------- #
def test_cache_dir_unset_or_empty_is_none():
    assert env_cache_dir(environ={}) is None
    assert env_cache_dir(environ={CACHE_DIR_VAR: ""}) is None
    assert env_cache_dir(environ={CACHE_DIR_VAR: "  "}) is None


def test_cache_dir_passes_through_paths(tmp_path):
    target = tmp_path / "sweep-cache"  # need not exist yet; store mkdirs it
    assert env_cache_dir(environ={CACHE_DIR_VAR: str(target)}) == str(target)
    existing = tmp_path / "present"
    existing.mkdir()
    assert env_cache_dir(environ={CACHE_DIR_VAR: str(existing)}) == str(existing)


def test_cache_dir_expands_home():
    got = env_cache_dir(environ={CACHE_DIR_VAR: "~/sweep-cache"})
    assert got is not None and "~" not in got


def test_cache_dir_rejects_existing_non_directory(tmp_path):
    clash = tmp_path / "file-in-the-way"
    clash.write_text("not a directory")
    with pytest.raises(EnvConfigError, match=CACHE_DIR_VAR):
        env_cache_dir(environ={CACHE_DIR_VAR: str(clash)})


# ---------------------------------------------------------------------- #
# REPRO_CERT_CHECKS
# ---------------------------------------------------------------------- #
def test_cert_checks_unset_or_empty_returns_default():
    assert env_cert_checks(environ={}) == 20
    assert env_cert_checks(default=8, environ={}) == 8
    assert env_cert_checks(default=8, environ={CERT_CHECKS_VAR: "  "}) == 8


def test_cert_checks_valid_values_parse():
    assert env_cert_checks(environ={CERT_CHECKS_VAR: "32"}) == 32
    assert env_cert_checks(environ={CERT_CHECKS_VAR: " 5 "}) == 5
    assert env_cert_checks(environ={CERT_CHECKS_VAR: "0"}) == 0  # 0 = off


def test_cert_checks_garbage_raises_with_variable_name():
    for bad in ("twenty", "2.5", "1e2", "-"):
        with pytest.raises(EnvConfigError, match=CERT_CHECKS_VAR):
            env_cert_checks(environ={CERT_CHECKS_VAR: bad})


def test_cert_checks_negative_raises():
    with pytest.raises(EnvConfigError, match=CERT_CHECKS_VAR):
        env_cert_checks(environ={CERT_CHECKS_VAR: "-3"})


# ---------------------------------------------------------------------- #
# REPRO_SWEEP_CHECKPOINT_DIR
# ---------------------------------------------------------------------- #
def test_checkpoint_dir_unset_or_empty_is_none():
    assert env_checkpoint_dir(environ={}) is None
    assert env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: ""}) is None
    assert env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: "  "}) is None


def test_checkpoint_dir_passes_through_paths(tmp_path):
    target = tmp_path / "ckpt"  # need not exist yet; writer mkdirs it
    assert env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: str(target)}) == str(target)
    existing = tmp_path / "present"
    existing.mkdir()
    assert env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: str(existing)}) == str(existing)


def test_checkpoint_dir_expands_home():
    got = env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: "~/sweep-ckpt"})
    assert got is not None and "~" not in got


def test_checkpoint_dir_rejects_existing_non_directory(tmp_path):
    clash = tmp_path / "file-in-the-way"
    clash.write_text("not a directory")
    with pytest.raises(EnvConfigError, match=CHECKPOINT_DIR_VAR):
        env_checkpoint_dir(environ={CHECKPOINT_DIR_VAR: str(clash)})


# ---------------------------------------------------------------------- #
# REPRO_SERVE_WORKERS
# ---------------------------------------------------------------------- #
def test_serve_workers_unset_or_empty_returns_default():
    assert env_serve_workers(environ={}) == 0
    assert env_serve_workers(default=4, environ={}) == 4
    assert env_serve_workers(default=4, environ={SERVE_WORKERS_VAR: "  "}) == 4


def test_serve_workers_valid_values_parse():
    assert env_serve_workers(environ={SERVE_WORKERS_VAR: "3"}) == 3
    assert env_serve_workers(environ={SERVE_WORKERS_VAR: " 1 "}) == 1
    assert env_serve_workers(environ={SERVE_WORKERS_VAR: "0"}) == 0  # inline


def test_serve_workers_garbage_raises_with_variable_name():
    for bad in ("two", "1.5", "1e2", "-"):
        with pytest.raises(EnvConfigError, match=SERVE_WORKERS_VAR):
            env_serve_workers(environ={SERVE_WORKERS_VAR: bad})


def test_serve_workers_negative_raises():
    with pytest.raises(EnvConfigError, match=">= 0"):
        env_serve_workers(environ={SERVE_WORKERS_VAR: "-1"})


# ---------------------------------------------------------------------- #
# REPRO_SERVE_BATCH_WINDOW_MS
# ---------------------------------------------------------------------- #
def test_serve_batch_window_unset_or_empty_returns_default():
    assert env_serve_batch_window_ms(environ={}) == 5.0
    assert env_serve_batch_window_ms(default=2.5, environ={}) == 2.5
    assert env_serve_batch_window_ms(default=2.5, environ={SERVE_BATCH_WINDOW_VAR: " "}) == 2.5


def test_serve_batch_window_valid_values_parse():
    assert env_serve_batch_window_ms(environ={SERVE_BATCH_WINDOW_VAR: "10"}) == 10.0
    assert env_serve_batch_window_ms(environ={SERVE_BATCH_WINDOW_VAR: " 0.5 "}) == 0.5
    assert env_serve_batch_window_ms(environ={SERVE_BATCH_WINDOW_VAR: "0"}) == 0.0


def test_serve_batch_window_garbage_raises_with_variable_name():
    for bad in ("fast", "-", "1,5"):
        with pytest.raises(EnvConfigError, match=SERVE_BATCH_WINDOW_VAR):
            env_serve_batch_window_ms(environ={SERVE_BATCH_WINDOW_VAR: bad})


def test_serve_batch_window_negative_and_non_finite_raise():
    for bad in ("-1", "-0.1", "nan", "inf", "-inf"):
        with pytest.raises(EnvConfigError, match=SERVE_BATCH_WINDOW_VAR):
            env_serve_batch_window_ms(environ={SERVE_BATCH_WINDOW_VAR: bad})


# ---------------------------------------------------------------------- #
# REPRO_SERVE_MAX_QUEUE
# ---------------------------------------------------------------------- #
def test_serve_max_queue_unset_or_empty_returns_default():
    assert env_serve_max_queue(environ={}) == 256
    assert env_serve_max_queue(default=32, environ={}) == 32
    assert env_serve_max_queue(default=32, environ={SERVE_MAX_QUEUE_VAR: "  "}) == 32


def test_serve_max_queue_valid_values_parse():
    assert env_serve_max_queue(environ={SERVE_MAX_QUEUE_VAR: "1"}) == 1
    assert env_serve_max_queue(environ={SERVE_MAX_QUEUE_VAR: " 512 "}) == 512


def test_serve_max_queue_garbage_raises_with_variable_name():
    for bad in ("many", "8.5", "1e3", "-"):
        with pytest.raises(EnvConfigError, match=SERVE_MAX_QUEUE_VAR):
            env_serve_max_queue(environ={SERVE_MAX_QUEUE_VAR: bad})


def test_serve_max_queue_non_positive_raises():
    for bad in ("0", "-4"):
        with pytest.raises(EnvConfigError, match=">= 1"):
            env_serve_max_queue(environ={SERVE_MAX_QUEUE_VAR: bad})


# ---------------------------------------------------------------------- #
# real-environment integration (the default environ=os.environ path)
# ---------------------------------------------------------------------- #
def test_reads_real_environment(monkeypatch, tmp_path):
    monkeypatch.setenv(WORKERS_VAR, "5")
    monkeypatch.setenv(CACHE_DIR_VAR, str(tmp_path))
    monkeypatch.setenv(CERT_CHECKS_VAR, "12")
    monkeypatch.setenv(CHECKPOINT_DIR_VAR, str(tmp_path))
    monkeypatch.setenv(SERVE_WORKERS_VAR, "2")
    monkeypatch.setenv(SERVE_BATCH_WINDOW_VAR, "7.5")
    monkeypatch.setenv(SERVE_MAX_QUEUE_VAR, "64")
    assert env_workers() == 5
    assert env_cache_dir() == str(tmp_path)
    assert env_cert_checks() == 12
    assert env_checkpoint_dir() == str(tmp_path)
    assert env_serve_workers() == 2
    assert env_serve_batch_window_ms() == 7.5
    assert env_serve_max_queue() == 64
    monkeypatch.delenv(SERVE_WORKERS_VAR)
    monkeypatch.delenv(SERVE_BATCH_WINDOW_VAR)
    monkeypatch.delenv(SERVE_MAX_QUEUE_VAR)
    assert env_serve_workers() == 0
    assert env_serve_batch_window_ms() == 5.0
    assert env_serve_max_queue() == 256
    monkeypatch.delenv(WORKERS_VAR)
    monkeypatch.delenv(CACHE_DIR_VAR)
    monkeypatch.delenv(CERT_CHECKS_VAR)
    monkeypatch.delenv(CHECKPOINT_DIR_VAR)
    assert env_workers(default=2) == 2
    assert env_cache_dir() is None
    assert env_cert_checks() == 20
    assert env_checkpoint_dir() is None


# ---------------------------------------------------------------------- #
# REPRO_SERVE_JOB_TIMEOUT_S
# ---------------------------------------------------------------------- #
def test_serve_job_timeout_unset_or_empty_returns_default():
    from repro.envconfig import SERVE_JOB_TIMEOUT_VAR, env_serve_job_timeout_s

    assert env_serve_job_timeout_s(environ={}) == 0.0
    assert env_serve_job_timeout_s(default=3.5, environ={}) == 3.5
    assert env_serve_job_timeout_s(environ={SERVE_JOB_TIMEOUT_VAR: "  "}) == 0.0


def test_serve_job_timeout_valid_values_parse():
    from repro.envconfig import SERVE_JOB_TIMEOUT_VAR, env_serve_job_timeout_s

    assert env_serve_job_timeout_s(environ={SERVE_JOB_TIMEOUT_VAR: "2.5"}) == 2.5
    assert env_serve_job_timeout_s(environ={SERVE_JOB_TIMEOUT_VAR: " 10 "}) == 10.0
    assert env_serve_job_timeout_s(environ={SERVE_JOB_TIMEOUT_VAR: "0"}) == 0.0


def test_serve_job_timeout_rejects_garbage_and_out_of_range():
    from repro.envconfig import SERVE_JOB_TIMEOUT_VAR, env_serve_job_timeout_s

    for bad in ("fast", "-1", "-0.5", "nan", "inf"):
        with pytest.raises(EnvConfigError, match=SERVE_JOB_TIMEOUT_VAR):
            env_serve_job_timeout_s(environ={SERVE_JOB_TIMEOUT_VAR: bad})


# ---------------------------------------------------------------------- #
# REPRO_TRANSPORT / REPRO_TRANSPORT_TIMEOUT_MS / REPRO_TRANSPORT_HEARTBEAT_MS
# ---------------------------------------------------------------------- #
def test_transport_unset_or_empty_returns_default():
    from repro.envconfig import TRANSPORT_VAR, env_transport

    assert env_transport(environ={}) == "local"
    assert env_transport(default="tcp", environ={}) == "tcp"
    assert env_transport(environ={TRANSPORT_VAR: ""}) == "local"


def test_transport_valid_choices_parse_case_insensitively():
    from repro.envconfig import TRANSPORT_VAR, env_transport

    assert env_transport(environ={TRANSPORT_VAR: "local"}) == "local"
    assert env_transport(environ={TRANSPORT_VAR: "tcp"}) == "tcp"
    assert env_transport(environ={TRANSPORT_VAR: " TCP "}) == "tcp"


def test_transport_rejects_unknown_planes():
    from repro.envconfig import TRANSPORT_VAR, env_transport

    for bad in ("udp", "mpi", "1", "carrier-pigeon"):
        with pytest.raises(EnvConfigError, match=TRANSPORT_VAR):
            env_transport(environ={TRANSPORT_VAR: bad})


def test_transport_timeout_parses_and_rejects():
    from repro.envconfig import TRANSPORT_TIMEOUT_VAR, env_transport_timeout_ms

    assert env_transport_timeout_ms(environ={}) == 5000.0
    assert (
        env_transport_timeout_ms(environ={TRANSPORT_TIMEOUT_VAR: "2500"}) == 2500.0
    )
    assert (
        env_transport_timeout_ms(environ={TRANSPORT_TIMEOUT_VAR: " 1e4 "}) == 10000.0
    )
    for bad in ("soon", "0", "-100", "nan", "inf"):
        with pytest.raises(EnvConfigError, match=TRANSPORT_TIMEOUT_VAR):
            env_transport_timeout_ms(environ={TRANSPORT_TIMEOUT_VAR: bad})


def test_transport_heartbeat_parses_and_rejects():
    from repro.envconfig import (
        TRANSPORT_HEARTBEAT_VAR,
        env_transport_heartbeat_ms,
    )

    assert env_transport_heartbeat_ms(environ={}) == 100.0
    assert (
        env_transport_heartbeat_ms(environ={TRANSPORT_HEARTBEAT_VAR: "50"}) == 50.0
    )
    for bad in ("x", "0", "-5", "nan", "inf"):
        with pytest.raises(EnvConfigError, match=TRANSPORT_HEARTBEAT_VAR):
            env_transport_heartbeat_ms(environ={TRANSPORT_HEARTBEAT_VAR: bad})


def test_transport_knobs_flow_into_transport_config(monkeypatch):
    """The env knobs reach TransportConfig.from_env — and its cross-field
    liveness rule still applies on top of per-variable validation."""
    from repro.transport import TransportConfig

    cfg = TransportConfig.from_env(
        environ={
            "REPRO_TRANSPORT_TIMEOUT_MS": "4000",
            "REPRO_TRANSPORT_HEARTBEAT_MS": "200",
        }
    )
    assert cfg.timeout_ms == 4000.0 and cfg.heartbeat_ms == 200.0
    with pytest.raises(ValueError, match="liveness"):
        TransportConfig.from_env(
            environ={
                "REPRO_TRANSPORT_TIMEOUT_MS": "400",
                "REPRO_TRANSPORT_HEARTBEAT_MS": "100",
            }
        )


# ---------------------------------------------------------------------- #
# the knob table: every row, arbitrary text
# ---------------------------------------------------------------------- #
#: fragments that sit on a rule's edges: whitespace, signs, separators,
#: NaN/infinity spellings, non-ASCII digits, ``~``, the two transports
_FRAGMENTS = st.sampled_from(
    [" ", "\t", "\n", "\x1c", "　", "+", "-", "_", ".", "0", "1", "7", "e",
     "E", "x", "nan", "NaN", "inf", "-inf", "Infinity", "1e308", "1e309",
     "٣", "１２", "\U0001d7d7", "~", "~/", "/", ".", "\x00",
     "local", "TCP", "tcİ", "ß"]
)
_RAW = st.one_of(
    st.text(max_size=12),
    st.lists(_FRAGMENTS, max_size=6).map("".join),
    st.integers(-(10**30), 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(1, 5000).map(lambda n: "9" * n),  # past int()'s digit limit
)


def _in_bounds(knob, value) -> bool:
    if knob.rule in ("int>=0", "int>=1"):
        return type(value) is int and value >= int(knob.rule[-1])
    if knob.rule in ("finite>=0", "finite>0"):
        low_ok = value >= 0 if knob.rule == "finite>=0" else value > 0
        return type(value) is float and math.isfinite(value) and low_ok
    if knob.rule == "local|tcp":
        return value in ("local", "tcp")
    assert knob.rule == "directory", knob.rule
    path = Path(value)
    return isinstance(value, str) and not (path.exists() and not path.is_dir())


@settings(max_examples=400, deadline=None)
@given(knob=st.sampled_from(sorted(KNOBS.values(), key=lambda k: k.var)), raw=_RAW)
def test_every_knob_reads_arbitrary_text_as_a_value_or_a_named_error(knob, raw):
    try:
        value = knob.read(environ={knob.var: raw})
    except EnvConfigError as err:
        assert knob.var in str(err) and repr(raw) in str(err)
        return
    if raw.strip():
        assert _in_bounds(knob, value), (knob.var, raw, value)
    else:
        assert value == knob.default


def test_every_knob_unset_or_blank_gives_its_default():
    for knob in KNOBS.values():
        for environ in ({}, {knob.var: ""}, {knob.var: " \t\n"}):
            assert knob.read(environ=environ) == knob.default
            assert knob.read("other", environ=environ) == "other"


def test_public_parsers_are_the_table_rows():
    """``env_*`` are bound to the rows, one row per variable."""
    for name in envconfig.__all__:
        if name.startswith("env_"):
            parser = getattr(envconfig, name)
            row = getattr(parser, "func", parser).__self__  # dirs: a partial
            assert KNOBS[row.var] is row
    assert len(KNOBS) == sum(n.startswith("env_") for n in envconfig.__all__) == 11


def test_directory_parsers_take_no_default():
    """The directory knobs keep their ``(*, environ=None)`` signature."""
    for parser in (env_cache_dir, env_checkpoint_dir):
        assert list(inspect.signature(parser).parameters) == ["environ"]
        with pytest.raises(TypeError):
            parser("/somewhere")


def test_unusable_directory_names_are_named_errors():
    """``~user`` for no such user cannot be expanded, and a name too long
    to stat cannot be created (they used to escape as a bare
    RuntimeError and OSError)."""
    for var in (CACHE_DIR_VAR, CHECKPOINT_DIR_VAR):
        for bad in ("~no-such-user-for-repro/dir", "9" * 300):
            with pytest.raises(EnvConfigError, match=var):
                KNOBS[var].read(environ={var: bad})

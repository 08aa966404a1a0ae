"""Fuzzing the one store loader (`repro.model.store`).

Each example saves one record type (schedules or replay plans), then
damages the file: byte flips, truncation, appended garbage, an empty
file, or a foreign npz (including the other record type's store).  The
plain and the sharded loader must return without raising and without
hanging, and what they return must be ``{}`` or a subset of what was
saved with every value byte-equal to the saved one: damage may cost
entries, never give a wrong value.
"""

from __future__ import annotations

import io
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.store_codecs import CODECS

#: seconds one load may take before the example counts as a hang
_HANG_S = 10


@contextmanager
def _no_hang():
    def _alarm(signum, frame):
        raise TimeoutError(f"store load took over {_HANG_S} s")

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(_HANG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _foreign_npz(kind: str, seed: int) -> bytes:
    buf = io.BytesIO()
    if kind == "random":
        rng = np.random.default_rng(seed)
        np.savez_compressed(
            buf,
            magic=rng.integers(0, 255, 8).astype(np.uint8),
            __meta__=np.array([1]),
            e_00=np.arange(3),
            p_00_meta=np.arange(2),
        )
    else:
        np.savez_compressed(buf)
    return buf.getvalue()


mutations = st.one_of(
    st.tuples(
        st.just("flip"),
        st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
            min_size=1,
            max_size=8,
        ),
    ),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=512)),
    st.tuples(st.just("empty"), st.none()),
    st.tuples(st.just("foreign"), st.sampled_from(["other-type", "random", "empty"])),
)


def _mutate(blob: bytes, mutation, other_blob: bytes, seed: int) -> bytes:
    kind, arg = mutation
    if kind == "flip":
        data = bytearray(blob)
        for where, xor in arg:
            data[int(where * len(data))] ^= xor
        return bytes(data)
    if kind == "truncate":
        return blob[: int(arg * len(blob))]
    if kind == "append":
        return blob + arg
    if kind == "empty":
        return b""
    return other_blob if arg == "other-type" else _foreign_npz(arg, seed)


def _assert_subset(codec, loaded: dict, saved: dict) -> None:
    assert isinstance(loaded, dict)
    assert set(loaded) <= set(saved), "loader invented a key"
    for key, value in loaded.items():
        assert codec.same(key, value, saved[key]), "loader returned a wrong value"


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutation=mutations, seed=st.integers(0, 2**16))
def test_damaged_store_never_raises_hangs_or_lies(tmp_path_factory, codec, mutation, seed):
    (other,) = [c for c in CODECS if c is not codec]
    root = tmp_path_factory.mktemp("fuzz")
    saved = codec.entries(4, seed)
    path = codec.store.path(root)
    codec.save(path, saved)
    other_path = other.store.path(root / "other")
    other.save(other_path, other.entries(2, seed))
    blob = _mutate(path.read_bytes(), mutation, other_path.read_bytes(), seed)

    path.write_bytes(blob)
    shard = codec.store.shard_path(root, codec.route(next(iter(saved))))
    shard.parent.mkdir(parents=True)
    shard.write_bytes(blob)
    with _no_hang():
        _assert_subset(codec, codec.load(path), saved)
        _assert_subset(codec, codec.load_sharded(root), saved)

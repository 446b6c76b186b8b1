"""The statistics read a regular file as two halves at once.

``randtests._consume`` cuts a regular file of more than one read at a
multiple of 48 bytes, reads each half by offset in its own thread and
merges the second half's accumulators into the first's. Every sum is an
exact integer, so a file must give exactly what one pass over the same
bytes in an ``io.BytesIO`` gives, and a read error in either thread must
surface in the caller as the same ``OSError``."""

import errno
import gzip
import io
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwhite import randtests
from permwhite.cli import main
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
from permwhite.randtests import analyze, ent_analyze, nist_lite

# BLOCK_BYTES 100 reads 96 bytes at a time, so a file of more than 96 bytes
# is split: at 48 bytes up to 191, at 96 from 192 to 287, and so on.
BLOCK = 100
SIZES = (1, 6, 47, 48, 95, 96, 97, 143, 144, 145, 191, 192, 193, 287, 288,
         289, 961, 4099, 30_001)
FILLS = {
    "counter": None,
    "55": b"\x55",
    "aa": b"\xaa",
    "00": b"\x00",
    "ff": b"\xff",
}


def corpus(fill, size):
    if FILLS[fill] is None:
        return CounterSource(f"split-{size}").read_bytes(size)
    return FILLS[fill] * size


def outcome(call, src):
    """What ``call`` returns on ``src``, or the message of the
    ``PreconditionError`` it raises."""
    try:
        return call(src)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def write(tmp_path, data, name="in.bin"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("fill", FILLS)
@pytest.mark.parametrize("size", SIZES)
def test_regular_file_matches_one_pass(tmp_path, monkeypatch, fill, size):
    data = corpus(fill, size)
    path = write(tmp_path, data)
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    pread = mock.Mock(wraps=os.pread)
    monkeypatch.setattr(os, "pread", pread)
    for call in (analyze, ent_analyze, nist_lite):
        with open(path, "rb") as fh:
            got = outcome(call, fh)
            assert fh.tell() == size
        assert got == outcome(call, io.BytesIO(data)), call.__name__
    # Only a file of more than one read is read by offset.
    assert pread.called == (size > 96)


@pytest.mark.parametrize("skip", (0, 7, 48, 100))
def test_file_is_read_from_its_position(tmp_path, monkeypatch, skip):
    data = CounterSource("split-position").read_bytes(30_001)
    path = write(tmp_path, data)
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    with open(path, "rb") as fh:
        fh.read(skip)
        got = analyze(fh)
        assert fh.tell() == len(data)
    assert got == analyze(io.BytesIO(data[skip:]))


def test_file_of_default_reads_matches_one_pass(tmp_path):
    # 2 MiB + 7 bytes at BLOCK_BYTES 2^20: two reads a half, the last odd.
    data = CounterSource("split-default").read_bytes((2 << 20) + 7)
    path = write(tmp_path, data)
    with open(path, "rb") as fh:
        got = analyze(fh)
    assert got == analyze(io.BytesIO(data))


def test_compressed_file_is_read_through_its_wrapper(tmp_path, monkeypatch):
    # A GzipFile shares its file's descriptor, whose bytes are not its own.
    data = CounterSource("split-gzip").read_bytes(30_001)
    path = tmp_path / "in.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(data)
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    with gzip.open(path, "rb") as fh:
        got = analyze(fh)
    assert got == analyze(io.BytesIO(data))


def test_file_without_pread_takes_one_pass(tmp_path, monkeypatch):
    data = CounterSource("split-no-pread").read_bytes(30_001)
    path = write(tmp_path, data)
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    monkeypatch.delattr(os, "pread")
    with open(path, "rb") as fh:
        assert analyze(fh) == analyze(io.BytesIO(data))


def state(acc):
    """Everything an accumulator holds, comparable with ``==``."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(acc).items()}


def fed(make, data, read):
    """A fresh accumulator fed ``data`` in ``read``-byte pieces."""
    (acc,) = accs = (make(),)
    randtests._feed(accs, (data[i:i + read] for i in range(0, len(data), read)), read)
    return acc


@pytest.mark.parametrize("make", (randtests._ByteStats, randtests._BitStats))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merge_at_any_cut_equals_one_pass(make, data):
    kind = data.draw(st.sampled_from(("random", "55", "aa", "00", "ff")))
    length = data.draw(st.integers(0, 1500))
    if kind == "random":
        raw = data.draw(st.binary(min_size=length, max_size=length))
    else:
        raw = bytes.fromhex(kind) * length
    read = 48 * data.draw(st.integers(1, 8))
    cut = 48 * data.draw(st.integers(0, len(raw) // 48))
    merged = fed(make, raw[:cut], read)
    merged.merge(fed(make, raw[cut:], read))
    assert state(merged) == state(fed(make, raw, read))


def failing_pread(failing_thread):
    """``os.pread`` that fails with EIO in the caller's thread or in the
    worker's, and the error it raises."""
    error = OSError(errno.EIO, "injected read error")
    real = os.pread

    def pread(fd, n, offset):
        in_caller = threading.current_thread() is threading.main_thread()
        if in_caller == (failing_thread == "caller"):
            raise error
        return real(fd, n, offset)

    return pread, error


@pytest.fixture
def unhandled_thread_errors(monkeypatch):
    """Exceptions that escape a thread, which must stay empty."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)
    return seen


@pytest.mark.parametrize("failing_thread", ("caller", "worker"))
def test_read_error_in_either_half_surfaces_in_the_caller(
        tmp_path, monkeypatch, unhandled_thread_errors, failing_thread):
    path = write(tmp_path, CounterSource("split-eio").read_bytes(30_001))
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    pread, error = failing_pread(failing_thread)
    monkeypatch.setattr(os, "pread", pread)
    with open(path, "rb") as fh, pytest.raises(OSError) as raised:
        analyze(fh)
    assert raised.value is error
    assert unhandled_thread_errors == []


@pytest.mark.parametrize("command", ("analyze", "compare"))
def test_read_error_in_the_worker_exits_3(tmp_path, monkeypatch, capsys,
                                          unhandled_thread_errors, command):
    path = str(write(tmp_path, CounterSource("split-eio").read_bytes(30_001)))
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    pread, _ = failing_pread("worker")
    monkeypatch.setattr(os, "pread", pread)
    argv = [command, path] if command == "analyze" else [command, path, path]
    assert main(argv) == 3
    assert "I/O error: [Errno 5] injected read error" in capsys.readouterr().err
    assert unhandled_thread_errors == []

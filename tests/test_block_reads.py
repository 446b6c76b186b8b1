"""Whitening reads each block straight into memory its kernel holds.

A reader with ``readinto`` fills the kernel's own buffer, one without it is
read and copied, and a reader whose reads come short is read until a block
is full: each gives the bytes a regular file gives. No block-sized bytes
object is held beside the kernel's buffers, so a warm thread whitens a file
in little more memory than its draws and sort keys. Each member's
plane-order map is kept per thread, and unwhitening inverts it there, by
scattering, never through ``IndexPermutation.invert``. A thread keeps its
kernel's state only when it fits 4 MiB: a larger one does not outlive the
call."""

import io
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from permwhite._util import BLOCK_BYTES
from permwhite.entropy import CounterSource
from permwhite.permutation import IndexPermutation, MatrixPool, generate_pool
from permwhite.whitening import (WhitenConfig, _transpose_rounds, trace_save,
                                 unwhiten_stream, whiten_stream)

MIB = 1 << 20


def random_pool(n_qubits, count, seed):
    rng = np.random.default_rng(seed)
    perms = tuple(IndexPermutation(rng.permutation(1 << n_qubits))
                  for _ in range(count))
    return MatrixPool(n_qubits=n_qubits, permutations=perms)


class ReadOnly:
    """A reader with ``read`` and nothing else."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def read(self, n=-1):
        return self._data.read(n)


class Trickle:
    """A reader whose ``read`` and ``readinto`` give at most 1000 bytes a call."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def read(self, n=-1):
        return self._data.read(1000 if n < 0 else min(n, 1000))

    def readinto(self, buf):
        return self._data.readinto(memoryview(buf)[:1000])


def whiten(reader, pool):
    cfg = WhitenConfig(n_qubits=pool.n_qubits, pool_count=pool.count,
                       record_selections=True)
    out, trace_bytes = io.BytesIO(), io.BytesIO()
    trace = whiten_stream(reader, pool, cfg, CounterSource("reads-sel"), out)
    trace_save(trace, trace_bytes)
    return out.getvalue(), trace, trace_bytes.getvalue()


@pytest.mark.parametrize("size", [0, 1, BLOCK_BYTES, BLOCK_BYTES + 1, 2 * BLOCK_BYTES + 100])
@pytest.mark.parametrize("n_qubits", [1, 3, 4, 13, 16])
def test_every_reader_gives_the_bytes_of_a_regular_file(tmp_path, n_qubits, size):
    data = CounterSource(f"reads-in-{size}").read_bytes(size)
    pool = random_pool(n_qubits, 5, n_qubits)
    raw, white_path = tmp_path / "raw", tmp_path / "white"
    raw.write_bytes(data)
    with open(raw, "rb") as fh:
        white, trace, trace_bytes = whiten(fh, pool)
    white_path.write_bytes(white)
    for shape in (io.BytesIO, ReadOnly, Trickle):
        assert whiten(shape(data), pool)[::2] == (white, trace_bytes), shape
        back = io.BytesIO()
        unwhiten_stream(shape(white), pool, trace, back)
        assert back.getvalue() == data, shape
    back = io.BytesIO()
    with open(white_path, "rb") as fh:
        unwhiten_stream(fh, pool, trace, back)
    assert back.getvalue() == data


@pytest.fixture(scope="module")
def flagship_files(tmp_path_factory):
    """n=13, M=32 on a 4 MiB + 100-byte file, its whitened copy and trace."""
    work = tmp_path_factory.mktemp("reads-flagship")
    pool = generate_pool(13, 32, CounterSource("reads-flagship-pool"))
    raw, white = work / "raw.bin", work / "white.bin"
    raw.write_bytes(CounterSource("reads-flagship-in").read_bytes(4 * MIB + 100))
    cfg = WhitenConfig(n_qubits=13, pool_count=32, record_selections=True)
    with open(raw, "rb") as src, open(white, "wb") as out:
        trace = whiten_stream(src, pool, cfg, CounterSource("reads-flagship-sel"), out)
    return pool, cfg, raw, white, trace


def peaks_of(flagship, out_dir):
    """The whiten and unwhiten calls on the flagship files, each returning its
    tracemalloc peak in MiB, with the transpose masks built beforehand."""
    pool, cfg, raw, white, trace = flagship
    _transpose_rounds(1024)

    def traced(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()

    def whiten_peak():
        with open(raw, "rb") as src, open(out_dir / "w.bin", "wb") as out:
            return traced(lambda: whiten_stream(src, pool, cfg,
                                                CounterSource("reads-flagship-sel"), out))

    def unwhiten_peak():
        with open(white, "rb") as src, open(out_dir / "back.bin", "wb") as out:
            return traced(lambda: unwhiten_stream(src, pool, trace, out))

    return whiten_peak, unwhiten_peak


def test_a_warm_thread_holds_no_input_block(flagship_files, tmp_path):
    # A second call finds its buffers and plane maps made: what it still
    # allocates is its draws, sort keys and tail, about 0.1 MiB. A 1 MiB
    # block read as bytes, or 0.5 MiB of plane maps made per call, take
    # it past 0.5 MiB.
    raw, white = flagship_files[2:4]
    whiten_peak, unwhiten_peak = peaks_of(flagship_files, tmp_path)
    whiten_peak()
    peaks = {"whiten": whiten_peak()}
    unwhiten_peak()
    peaks["unwhiten"] = unwhiten_peak()
    assert (tmp_path / "w.bin").read_bytes() == white.read_bytes()
    assert (tmp_path / "back.bin").read_bytes() == raw.read_bytes()
    assert all(peak < 0.5 for peak in peaks.values()), peaks


@pytest.mark.parametrize("direction", [0, 1], ids=["whiten", "unwhiten"])
def test_a_fresh_thread_holds_its_buffers_and_maps_alone(flagship_files, tmp_path,
                                                         direction):
    # A fresh thread makes two buffers of 1.22 MiB, sized for a full
    # block's padding, and 0.5 MiB of plane maps: about 3.06 MiB. A 1 MiB
    # block read as bytes beside them takes it past 3.5 MiB.
    peaks = []
    run = peaks_of(flagship_files, tmp_path)[direction]
    thread = threading.Thread(target=lambda: peaks.append(run()))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert peaks and peaks[0] < 3.5, peaks


@pytest.mark.parametrize("n_qubits", [4, 13, 16])
def test_sliced_path_unwhitens_without_inverting_members(n_qubits):
    # The inverse plane map is the forward one scattered, so no member is
    # inverted on its own.
    data = CounterSource(f"reads-inverse-{n_qubits}").read_bytes(MIB + 1031)
    pool = random_pool(n_qubits, 32, 500 + n_qubits)
    white, trace, _ = whiten(io.BytesIO(data), pool)
    out = io.BytesIO()
    with mock.patch.object(IndexPermutation, "invert", autospec=True,
                           side_effect=IndexPermutation.invert) as spy:
        unwhiten_stream(io.BytesIO(white), pool, trace, out)
    assert spy.call_count == 0
    assert out.getvalue() == data


@pytest.mark.parametrize("count", [300, 32])
def test_a_large_state_does_not_outlive_the_call(count):
    # At n=16 the buffer pair and plane maps take 53.5 MiB with 300 members
    # and 9.5 MiB with 32, past the 4 MiB a thread keeps, so after the calls
    # it holds no more than the bound and the cached transpose masks. A
    # fresh thread, so that nothing it keeps was made before tracing began;
    # what it keeps is measured before it ends and frees its state.
    pool = random_pool(16, count, 600 + count)
    data = CounterSource(f"kept-in-{count}").read_bytes(4 * MIB)
    masks = sum(mask.nbytes for _, _, mask in _transpose_rounds(8192))
    kept = []

    def run():
        white, trace, _ = whiten(io.BytesIO(data), pool)
        back = io.BytesIO()
        unwhiten_stream(io.BytesIO(white), pool, trace, back)
        assert back.getvalue() == data
        del white, trace, back
        kept.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
    finally:
        tracemalloc.stop()
    assert not thread.is_alive()
    assert kept and kept[0] <= 4 * MIB + masks, [k / MIB for k in kept]

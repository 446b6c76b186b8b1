"""Streaming whitening engine: framing, worked byte streams, round trips,
the trace file format, and the determinism contract."""

import hashlib
import io
import os
import struct
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from permwhite.entropy import CounterSource
from permwhite.errors import FormatError
from permwhite.permutation import IndexPermutation, MatrixPool, generate_pool
from permwhite.whitening import (
    SelectionTrace,
    WhitenConfig,
    frame,
    trace_load,
    trace_save,
    unwhiten_stream,
    whiten_stream,
)

EXAMPLE_MAP = [0, 2, 3, 1]


def example_pool():
    return MatrixPool(n_qubits=2,
                      permutations=(IndexPermutation(EXAMPLE_MAP),),
                      generator_tag="example")


def identity_pool(n_qubits, count=1):
    perms = (IndexPermutation.identity(1 << n_qubits),) * count
    return MatrixPool(n_qubits=n_qubits, permutations=perms)


def run_whiten(data, pool, workers=1, record=True, key="sel"):
    cfg = WhitenConfig(n_qubits=pool.n_qubits, pool_count=pool.count,
                       record_selections=record)
    out = io.BytesIO()
    trace = whiten_stream(io.BytesIO(data), pool, cfg, CounterSource(key),
                          out, workers=workers)
    return out.getvalue(), trace


def test_frame():
    assert frame(8192 * 1000, 8192) == (1000, 0)
    assert frame(8192 * 1000 + 7, 8192) == (1000, 7)
    assert frame(0, 8192) == (0, 0)
    with pytest.raises(ValueError):
        frame(100, 0)


def test_worked_example_two_chunks():
    # 0x11 = 0001 0001; both 4-bit chunks map through the example matrix
    out, trace = run_whiten(b"\x11", example_pool())
    assert out == b"\x22"
    assert trace.chunk_bits == 4
    assert trace.indices.tolist() == [0, 0]


def test_identity_pool_copies_input():
    data = CounterSource("id-in").read_bytes(10_000)
    for n_qubits in (2, 3, 8):
        out, _ = run_whiten(data, identity_pool(n_qubits, 3))
        assert out == data


def test_empty_input():
    pool = identity_pool(3)
    out, trace = run_whiten(b"", pool)
    assert out == b""
    assert len(trace) == 0
    sink = io.BytesIO()
    unwhiten_stream(io.BytesIO(b""), pool, trace, sink)
    assert sink.getvalue() == b""


def test_size_preserved_on_all_lengths():
    pool = generate_pool(4, 3, CounterSource("sz-pool"))
    for length in (0, 1, 2, 3, 5, 16, 17, 1023, 4096):
        data = CounterSource(f"sz-{length}").read_bytes(length)
        out, _ = run_whiten(data, pool)
        assert len(out) == length


def test_tail_passes_through_unchanged():
    # 16-bit chunks align to 2 bytes; odd byte counts leave a 1-byte tail
    pool = generate_pool(4, 2, CounterSource("tail-pool"))
    data = CounterSource("tail-in").read_bytes(4097)
    out, trace = run_whiten(data, pool)
    assert out[-1] == data[-1]
    assert len(trace) == 4096 // 2


def test_hamming_weight_preserved_on_aligned_input():
    pool = generate_pool(6, 4, CounterSource("hw-pool"))
    data = CounterSource("hw-in").read_bytes(8 * 512)  # multiple of 8 bytes
    out, _ = run_whiten(data, pool)
    bits_in = np.unpackbits(np.frombuffer(data, np.uint8)).sum()
    bits_out = np.unpackbits(np.frombuffer(out, np.uint8)).sum()
    assert bits_in == bits_out


def test_byte_histogram_not_preserved_witness():
    # a 16-bit permutation moves the set bit of 0x80 0x00 across the byte
    # boundary: swap positions 0 and 15
    mapping = [15] + list(range(1, 15)) + [0]
    pool = MatrixPool(n_qubits=4, permutations=(IndexPermutation(mapping),))
    out, _ = run_whiten(bytes([0x80, 0x00]), pool)
    assert out == bytes([0x00, 0x01])


def test_round_trip_random_lengths():
    pool = generate_pool(5, 4, CounterSource("rt-pool"))
    lengths = [0, 1, 3, 4, 100, 1024, 10_000, 65_537]
    for length in lengths:
        data = CounterSource(f"rt-{length}").read_bytes(length)
        out, trace = run_whiten(data, pool)
        back = io.BytesIO()
        unwhiten_stream(io.BytesIO(out), pool, trace, back)
        assert back.getvalue() == data


def test_deterministic_across_worker_counts():
    pool = generate_pool(5, 4, CounterSource("wk-pool"))
    data = CounterSource("wk-in").read_bytes(3_000_001)
    single, trace1 = run_whiten(data, pool, workers=1)
    quad, trace4 = run_whiten(data, pool, workers=4)
    assert single == quad
    assert trace1 == trace4


def test_without_recording_returns_none():
    out, trace = run_whiten(b"\x11\x22", example_pool(), record=False)
    assert trace is None
    assert len(out) == 2


def test_pool_config_mismatch():
    pool = example_pool()
    cfg = WhitenConfig(n_qubits=3, pool_count=1)
    with pytest.raises(ValueError, match="mismatch"):
        whiten_stream(io.BytesIO(b"x"), pool, cfg, CounterSource("k"), io.BytesIO())
    cfg = WhitenConfig(n_qubits=2, pool_count=9)
    with pytest.raises(ValueError, match="mismatch"):
        whiten_stream(io.BytesIO(b"x"), pool, cfg, CounterSource("k"), io.BytesIO())
    # Both fields differ: the check still comes before any read or write.
    cfg = WhitenConfig(n_qubits=pool.n_qubits + 1, pool_count=pool.count + 1)
    source, sink = io.BytesIO(b"xyz"), io.BytesIO()
    with pytest.raises(ValueError, match="mismatch"):
        whiten_stream(source, pool, cfg, CounterSource("k"), sink)
    assert source.tell() == 0 and sink.getvalue() == b""


def test_unwhiten_rejects_wrong_chunk_size():
    pool = identity_pool(3)
    trace = SelectionTrace(chunk_bits=16, indices=np.zeros(1, np.uint32))
    with pytest.raises(ValueError, match="chunk size"):
        unwhiten_stream(io.BytesIO(b"ab"), pool, trace, io.BytesIO())


def test_unwhiten_rejects_out_of_range_index_before_writing():
    pool = identity_pool(3, count=2)
    trace = SelectionTrace(chunk_bits=8, indices=np.array([0, 7], np.uint32))
    sink = io.BytesIO()
    with pytest.raises(ValueError, match="index"):
        unwhiten_stream(io.BytesIO(b"ab"), pool, trace, sink)
    assert sink.getvalue() == b""  # nothing committed


def test_unwhiten_trace_length_mismatch():
    pool = identity_pool(3)
    short = SelectionTrace(chunk_bits=8, indices=np.zeros(1, np.uint32))
    with pytest.raises(ValueError, match="too short"):
        unwhiten_stream(io.BytesIO(b"abcd"), pool, short, io.BytesIO())
    long = SelectionTrace(chunk_bits=8, indices=np.zeros(9, np.uint32))
    with pytest.raises(ValueError, match="too long"):
        unwhiten_stream(io.BytesIO(b"abcd"), pool, long, io.BytesIO())


def whitened_16bit():
    """1001 bytes whitened in 16-bit chunks: 500 chunks and a tail byte."""
    data = CounterSource("fit-data").read_bytes(1001)
    pool = generate_pool(4, 3, CounterSource("fit-pool"))
    white, trace = run_whiten(data, pool)
    return data, pool, white, trace


@pytest.mark.parametrize("white_len", (999, 1003), ids=["one-chunk-short", "one-chunk-long"])
def test_unwhiten_refuses_a_file_of_another_length_before_writing(tmp_path, white_len):
    _, pool, white, trace = whitened_16bit()
    path = tmp_path / "white.bin"
    path.write_bytes((white + b"xy")[:white_len])
    sink = io.BytesIO()
    with open(path, "rb") as src, pytest.raises(ValueError) as refused:
        unwhiten_stream(src, pool, trace, sink)
    chunks = (white_len - 1) // 2
    assert str(refused.value) == (f"input {path} holds {chunks} chunks of 16 bits, "
                                  f"but the trace records {len(trace)}")
    assert sink.getvalue() == b""


def test_unwhiten_measures_a_file_from_its_position(tmp_path):
    data, pool, white, trace = whitened_16bit()
    path = tmp_path / "white.bin"
    path.write_bytes(b"abc" + white)
    out = io.BytesIO()
    with open(path, "rb") as src:
        src.seek(3)
        unwhiten_stream(src, pool, trace, out)
    assert out.getvalue() == data
    with open(path, "rb") as src:
        src.seek(1)                 # two bytes more than white: one more chunk
        with pytest.raises(ValueError, match=f"holds {len(trace) + 1} chunks"):
            unwhiten_stream(src, pool, trace, io.BytesIO())
    empty = SelectionTrace(chunk_bits=16, indices=np.zeros(0, np.uint32))
    with open(path, "rb") as src:
        src.seek(len(white) + 10)   # past the end, where no chunk is left
        unwhiten_stream(src, pool, empty, io.BytesIO())


def test_unwhiten_finds_a_pipe_of_another_length_during_the_pass():
    # A pipe has no length to check beforehand, like the in-memory inputs
    # of test_unwhiten_trace_length_mismatch.
    _, pool, white, trace = whitened_16bit()

    def opened(data):
        r, w = os.pipe()
        with open(w, "wb") as fh:
            fh.write(data)          # well within a pipe's buffer
        return open(r, "rb")

    with opened(white + b"xy") as src, pytest.raises(ValueError) as refused:
        unwhiten_stream(src, pool, trace, io.BytesIO())
    assert str(refused.value) == "trace too short: 500 entries, input has more than 500 chunks"
    with opened(white[:-2]) as src, pytest.raises(ValueError) as refused:
        unwhiten_stream(src, pool, trace, io.BytesIO())
    assert str(refused.value) == "trace too long: 500 entries for 499 chunks"


def test_trace_format_hand_assembled():
    trace = SelectionTrace(chunk_bits=4, indices=np.array([0, 0], np.uint32))
    sink = io.BytesIO()
    trace_save(trace, sink)
    payload = struct.pack("<2I", 0, 0)
    expected = (struct.pack("<4sHIQ", b"PWTR", 1, 4, 2) + payload
                + struct.pack("<I", zlib.crc32(payload)))
    assert sink.getvalue() == expected


def test_trace_round_trip():
    trace = SelectionTrace(chunk_bits=8192,
                           indices=np.arange(1000, dtype=np.uint32) % 32)
    sink = io.BytesIO()
    trace_save(trace, sink)
    assert trace_load(io.BytesIO(sink.getvalue())) == trace


def test_trace_empty_round_trip():
    trace = SelectionTrace(chunk_bits=32, indices=np.empty(0, np.uint32))
    sink = io.BytesIO()
    trace_save(trace, sink)
    assert trace_load(io.BytesIO(sink.getvalue())) == trace


def test_trace_equality_with_another_type_is_false():
    trace = SelectionTrace(chunk_bits=4, indices=np.array([0, 1], np.uint32))
    assert trace != [0, 1]
    assert not trace == (4, [0, 1])
    assert trace == SelectionTrace(chunk_bits=4, indices=[0, 1])


def test_trace_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        trace_load(io.BytesIO(b"WRNG" + b"\x00" * 20))


def test_trace_crc_detects_flip():
    trace = SelectionTrace(chunk_bits=8, indices=np.array([1, 2, 3], np.uint32))
    sink = io.BytesIO()
    trace_save(trace, sink)
    data = bytearray(sink.getvalue())
    data[-6] ^= 0x40  # inside the index payload
    with pytest.raises(FormatError, match="CRC"):
        trace_load(io.BytesIO(bytes(data)))


def test_trace_truncation():
    trace = SelectionTrace(chunk_bits=8, indices=np.array([1, 2, 3], np.uint32))
    sink = io.BytesIO()
    trace_save(trace, sink)
    with pytest.raises(FormatError, match="truncated"):
        trace_load(io.BytesIO(sink.getvalue()[:-3]))


def test_selection_sequence_matches_source_draws():
    # the engine must consume selector draws in chunk order
    pool = generate_pool(3, 4, CounterSource("seq-pool"))
    data = CounterSource("seq-in").read_bytes(1000)
    _, trace = run_whiten(data, pool, key="seq-sel")
    expected = CounterSource("seq-sel").random_indices(4, 1000)
    assert trace.indices.tolist() == expected.tolist()


class CountingSink:
    """Write-only sink that keeps nothing but the byte count and the CRC."""

    def __init__(self):
        self.size = 0
        self.crc = 0

    def write(self, data):
        view = memoryview(data)
        self.size += view.nbytes
        self.crc = zlib.crc32(view, self.crc)


def test_trace_save_does_not_copy_the_indices():
    trace = SelectionTrace(chunk_bits=16, indices=np.arange(4 << 20, dtype=np.uint32))
    expected = io.BytesIO()
    trace_save(trace, expected)
    sink = CountingSink()
    tracemalloc.start()
    try:
        trace_save(trace, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == len(expected.getvalue())
    assert sink.crc == zlib.crc32(expected.getvalue())
    assert peak <= 0.1 * trace.indices.nbytes


class ThreadWatchingSink:
    """Write-only sink that keeps a SHA-256 of its input and the most
    threads alive at any write."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.max_threads = 0

    def write(self, data):
        self.max_threads = max(self.max_threads, threading.active_count())
        self.sha.update(data)


def watched(call, workers):
    """Run ``call(sink, workers)``; return its output digest, its tracemalloc
    peak and its result, after checking that it started no thread."""
    sink = ThreadWatchingSink()
    before = threading.active_count()
    tracemalloc.start()
    try:
        result = call(sink, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.max_threads <= before
    return sink.sha.digest(), peak, result


def test_workers_start_no_thread_and_add_no_memory():
    # whiten_stream's ``workers`` is accepted and ignored: 8 workers run
    # exactly like one.
    pool = generate_pool(13, 4, CounterSource("one-thread-pool"))
    data = CounterSource("one-thread-in").read_bytes(8 << 20)
    cfg = WhitenConfig(n_qubits=13, pool_count=4, record_selections=True)

    def whiten(sink, workers):
        return whiten_stream(io.BytesIO(data), pool, cfg,
                             CounterSource("one-thread-sel"), sink, workers=workers)

    white1, white_peak1, trace = watched(whiten, 1)
    white8, white_peak8, trace8 = watched(whiten, 8)
    assert white8 == white1
    assert trace8 == trace
    assert white_peak8 <= 1.25 * white_peak1

    # unwhiten_stream takes no workers; it starts no thread either.
    def unwhiten(sink, _):
        unwhiten_stream(io.BytesIO(data), pool, trace, sink)

    watched(unwhiten, None)


def test_threads_whiten_at_once():
    # The sliced kernel's block buffers belong to a thread and outlive a
    # call: threads whitening different inputs with one pool at once each
    # get the bytes that a lone run gives.
    pool = generate_pool(13, 32, CounterSource("two-thread-pool"))
    cfg = WhitenConfig(n_qubits=13, pool_count=32)
    inputs = [CounterSource(f"two-thread-in-{i}").read_bytes((3 << 20) + 100 * i)
              for i in range(3)]

    def whiten(data):
        out = io.BytesIO()
        whiten_stream(io.BytesIO(data), pool, cfg, CounterSource("two-thread-sel"), out)
        return out.getvalue()

    alone = [whiten(data) for data in inputs]
    together = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def run(i):
        start.wait()
        together[i] = whiten(inputs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == alone

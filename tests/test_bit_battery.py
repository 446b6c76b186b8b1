"""The byte-table bit battery against a bit-level oracle, and the one-read
``analyze`` entry point."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from permwhite import randtests
from permwhite.entropy import CounterSource
from permwhite.randtests import (
    NistLiteReport,
    _cusum_pvalue,
    analyze,
    ent_analyze,
    nist_lite,
)

ORACLE_BLOCK_BYTES = 1 << 20
MIB = 1 << 20


def oracle_nist_lite(src) -> NistLiteReport:
    """Bit-level reference: expands every byte into eight +/-1 steps and
    runs a cumulative sum over them. Same definitions and p-value
    arithmetic as ``nist_lite``, so every field must match exactly."""
    ones = 0
    n = 0
    transitions = 0
    prev_bit = None
    bf_carry = b""
    bf_sum_sq = 0
    bf_blocks = 0
    running = 0
    min_s = 0
    max_s = 0

    while True:
        block = src.read(ORACLE_BLOCK_BYTES)
        if not block:
            break
        bits = np.unpackbits(np.frombuffer(block, dtype=np.uint8))
        n += bits.size
        ones += int(np.count_nonzero(bits))
        if prev_bit is not None and bits[0] != prev_bit:
            transitions += 1
        transitions += int(np.count_nonzero(bits[1:] != bits[:-1]))
        prev_bit = int(bits[-1])

        steps = bits.astype(np.int64) * 2 - 1
        sums = np.cumsum(steps) + running
        min_s = min(min_s, int(sums.min()))
        max_s = max(max_s, int(sums.max()))
        running = int(sums[-1])

        data = bf_carry + block
        usable = len(data) - len(data) % 16
        if usable:
            grp = np.unpackbits(
                np.frombuffer(data, dtype=np.uint8, count=usable)
            ).reshape(-1, 128)
            dev = grp.sum(axis=1, dtype=np.int64) - 64
            bf_sum_sq += int(dev @ dev)
            bf_blocks += grp.shape[0]
        bf_carry = data[usable:]

    p_monobit = math.erfc(abs(2 * ones - n) / math.sqrt(n) / math.sqrt(2))
    p_block = float(gammaincc(bf_blocks / 2.0, bf_sum_sq / 32.0 / 2.0))
    pi_ones = ones / n
    if abs(pi_ones - 0.5) >= 2.0 / math.sqrt(n):
        p_runs = 0.0
    else:
        v = transitions + 1
        p_runs = math.erfc(
            abs(v - 2.0 * n * pi_ones * (1.0 - pi_ones))
            / (2.0 * math.sqrt(2.0 * n) * pi_ones * (1.0 - pi_ones))
        )
    return NistLiteReport(
        p_monobit=p_monobit,
        p_block_frequency=p_block,
        p_runs=p_runs,
        p_cusum_forward=_cusum_pvalue(max(max_s, -min_s), n),
        p_cusum_backward=_cusum_pvalue(max(running - min_s, max_s - running), n),
        bit_count=n,
        ones_count=ones,
    )


@st.composite
def corpora(draw):
    """Uniform, biased and constant inputs whose length is not a whole
    number of 128-bit blocks."""
    n = draw(st.integers(16, 5000).filter(lambda k: k % 16))
    kind = draw(st.sampled_from(("uniform", "biased", "constant")))
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    p_one = draw(st.floats(0.0, 1.0))
    return np.packbits(rng.random(8 * n) < p_one).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=corpora(),
       block=st.one_of(st.integers(1, 40), st.integers(41, 6000)))
def test_bit_battery_matches_bit_level_oracle(data, block):
    with mock.patch.object(randtests, "BLOCK_BYTES", block):
        got = nist_lite(io.BytesIO(data))
    assert got == oracle_nist_lite(io.BytesIO(data))


def test_bit_battery_matches_oracle_across_full_blocks():
    data = CounterSource("bits-many-blocks").read_bytes(3 * (1 << 20) + 13)
    assert nist_lite(io.BytesIO(data)) == oracle_nist_lite(io.BytesIO(data))


class CountingReader:
    """Counts what is read and offers no seek, so a second pass fails."""

    def __init__(self, data: bytes):
        self._src = io.BytesIO(data)
        self.bytes_read = 0

    def read(self, n: int = -1) -> bytes:
        chunk = self._src.read(n)
        self.bytes_read += len(chunk)
        return chunk


def test_analyze_reads_input_once():
    data = CounterSource("analyze-once").read_bytes(2 * (1 << 20) + 12_345)
    reader = CountingReader(data)
    ent, nist = analyze(reader)
    assert reader.bytes_read == len(data)
    assert ent == ent_analyze(io.BytesIO(data))
    assert nist == nist_lite(io.BytesIO(data))


ROW_FILLS = {
    "ones": b"\xff",          # every row sums to +128, the int16 walk's top
    "zeros": b"\x00",         # -128, its bottom
    "alternating": b"\xaa",   # 0
}


@pytest.mark.parametrize("block", (15, 16, 17, 31, 33))
@pytest.mark.parametrize("tail", (0, 1, 15))
@pytest.mark.parametrize("fill", (*ROW_FILLS, "counter"))
def test_rows_split_across_reads_match_oracle(block, tail, fill):
    # 128-bit rows cut at every offset against the read, with 0, 1 or 15
    # bytes of an unfinished row left for the report.
    for rows in (1, 2, 40):
        size = 16 * rows + tail
        if fill == "counter":
            data = CounterSource(f"rows-{size}").read_bytes(size)
        else:
            data = ROW_FILLS[fill] * size
        with mock.patch.object(randtests, "BLOCK_BYTES", block):
            got = nist_lite(io.BytesIO(data))
        assert got == oracle_nist_lite(io.BytesIO(data)), size


def test_cusum_extreme_spanning_reads_matches_oracle():
    # The walk climbs for 2 MiB + 5 bytes and falls for 2 MiB: its maximum
    # falls mid-row in the third 1 MiB read, and the last 5 bytes are an
    # unfinished row that only the report walks.
    data = b"\xff" * ((2 << 20) + 5) + b"\x00" * (2 << 20)
    assert nist_lite(io.BytesIO(data)) == oracle_nist_lite(io.BytesIO(data))


@pytest.fixture(scope="module")
def memory_inputs():
    return {size: CounterSource("memory-bound").read_bytes(size * MIB) for size in (4, 16)}


@pytest.mark.parametrize("call", (analyze, nist_lite, ent_analyze))
def test_statistics_memory_is_bounded_and_flat_in_input_size(call, memory_inputs):
    peaks = {}
    for size, data in memory_inputs.items():
        src = io.BytesIO(data)
        tracemalloc.start()
        try:
            call(src)
            peaks[size] = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 11, peaks
    assert abs(peaks[16] - peaks[4]) <= 0.5, peaks

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


# Rows whose walk dips 64 below both ends, or rises 64 above them, at the
# row's middle bit.
DIP = b"\x00" * 8 + b"\xff" * 8
PEAK = b"\xff" * 8 + b"\x00" * 8


@st.composite
def corpora(draw):
    """Uniform, biased, constant and interior-extreme inputs whose length is
    not a whole number of 128-bit blocks. Interior-extreme inputs are uniform
    rows with DIP and PEAK rows written over some of them."""
    n = draw(st.integers(16, 5000).filter(lambda k: k % 16))
    kind = draw(st.sampled_from(("uniform", "biased", "constant", "interior")))
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "biased":
        p_one = draw(st.floats(0.0, 1.0))
        return np.packbits(rng.random(8 * n) < p_one).tobytes()
    data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if kind == "uniform":
        return data
    rows = bytearray(data)
    for r in draw(st.lists(st.integers(0, n // 16 - 1), min_size=1, max_size=8)):
        rows[16 * r:16 * r + 16] = draw(st.sampled_from((DIP, PEAK)))
    return bytes(rows)


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


def fed_in_reads(data: bytes, size: int) -> NistLiteReport:
    """``_BitStats`` fed ``data`` directly in ``size``-byte reads (the last
    may be shorter), so that a read may hold any number of whole rows."""
    stats = randtests._BitStats()
    for start in range(0, len(data), size):
        block = data[start:start + size]
        stats.update(block, np.bincount(np.frombuffer(block, np.uint8), minlength=256),
                     np.empty(4 * len(block), np.uint8))
    return stats.report()


@pytest.mark.parametrize("block", (15, 16, 17, 31, 33))
@pytest.mark.parametrize("tail", (0, 1, 15))
@pytest.mark.parametrize("fill", (*ROW_FILLS, "counter"))
def test_rows_split_across_reads_match_oracle(block, tail, fill):
    # A stream's rows split across reads of `block` whole rows each, which
    # need not be a multiple of 48 bytes when fed directly; the last read
    # leaves 0, 1 or 15 bytes of an unfinished row for the report.
    for rows in (1, 2, 40, 100):
        size = 16 * rows + tail
        if fill == "counter":
            data = CounterSource(f"rows-{size}").read_bytes(size)
        else:
            data = ROW_FILLS[fill] * size
        got = fed_in_reads(data, 16 * block)
        assert got == oracle_nist_lite(io.BytesIO(data)), size


# The walk is taken byte by byte only over rows whose bound can hold a new
# extreme; these inputs put such rows at the edges of the reads.
BOUNDED_BLOCKS = (1 << 20, 4099, 48)


def rows_per_read(block: int) -> int:
    """Whole rows in every read but the last that ``_consume`` makes at
    ``BLOCK_BYTES = block``: the largest multiple of 48 bytes, at least 48."""
    return max(48, block - block % 48) // 16


def assert_bounded_walk_matches_oracle(data: bytes, block: int) -> None:
    """``nist_lite`` at ``BLOCK_BYTES = block`` and ``_BitStats`` fed the
    same reads directly both equal the bit-level oracle."""
    want = oracle_nist_lite(io.BytesIO(data))
    with mock.patch.object(randtests, "BLOCK_BYTES", block):
        assert nist_lite(io.BytesIO(data)) == want
    assert fed_in_reads(data, 16 * rows_per_read(block)) == want


def tilted_rows(label: str, rows: int, falling: bool) -> bytes:
    """CounterSource rows with two bits of every byte cleared (falling) or
    set, so that the walk drifts about 16 per row."""
    raw = np.frombuffer(CounterSource(label).read_bytes(16 * rows), np.uint8)
    return (raw & 0xEE if falling else raw | 0x11).tobytes()


@pytest.mark.parametrize("block", BOUNDED_BLOCKS)
@pytest.mark.parametrize("where", ("first", "middle", "last"))
@pytest.mark.parametrize("row", (DIP, PEAK), ids=("dip", "peak"))
def test_extreme_strictly_inside_a_row_matches_oracle(row, where, block):
    # The walk falls to the DIP row and rises after it (the mirror for
    # PEAK), so the stream's extreme is the row's middle bit, which no row
    # end reaches. The row is the first, middle or last whole row of the
    # second read.
    per_read = rows_per_read(block)
    at = per_read + {"first": 0, "middle": per_read // 2, "last": per_read - 1}[where]
    data = (tilted_rows("inside-before", at, falling=row == DIP) + row
            + tilted_rows("inside-after", 3, falling=row == PEAK) + b"\x5a")
    bits = np.unpackbits(np.frombuffer(data, np.uint8)).view(np.int8)
    walk = np.cumsum(2 * bits - 1, dtype=np.int32)
    extreme = walk.min() if row == DIP else walk.max()
    assert np.flatnonzero(walk == extreme).tolist() == [128 * at + 63]
    assert_bounded_walk_matches_oracle(data, block)


AA = b"\xaa" * 16                     # stays within [0, 1] above its start
DIP65 = b"\x00" * 8 + b"\x7f" + b"\xff" * 7  # 65 zeros, then 63 ones
BOUND_EDGES = {
    # One read of 3 rows: the DIP's bound, [-64, 64], ties the last row's
    # end at -64 and the middle row's end at +64.
    "row-end-tie": DIP + b"\xff" * 8 + b"\xaa" * 8 + b"\x00" * 16,
    # PEAK and DIP set the running extremes to +64 and -64, in an earlier
    # read when reads hold 1 or 3 rows. Then a second DIP's bound ties
    # the running minimum, and DIP65's passes it by one.
    "running-tie": PEAK + DIP + AA + DIP,
    "running-past": PEAK + DIP + AA + DIP65,
}


@pytest.mark.parametrize("block", BOUNDED_BLOCKS)
@pytest.mark.parametrize("mirror", (False, True), ids=("min", "max"))
@pytest.mark.parametrize("edge", BOUND_EDGES)
def test_bound_that_ties_or_passes_the_extreme_matches_oracle(edge, mirror, block):
    # A row whose bound equals an extreme cannot pass it, so it need not
    # be walked; one that passes it by one must be. Complementing every
    # bit mirrors the walk, minimum to maximum.
    data = BOUND_EDGES[edge]
    if mirror:
        data = bytes(b ^ 0xFF for b in data)
    assert_bounded_walk_matches_oracle(data + b"\x3c", block)
    for rows in (1, 3):
        assert fed_in_reads(data, 16 * rows) == oracle_nist_lite(io.BytesIO(data))


def walked_rows(data: bytes, block: int) -> int:
    """Rows that ``nist_lite`` at ``BLOCK_BYTES = block`` walks byte by byte;
    the walk gathers them with one ``np.take`` per read."""
    with mock.patch.object(randtests, "BLOCK_BYTES", block), \
            mock.patch.object(np, "take", wraps=np.take) as take:
        nist_lite(io.BytesIO(data))
    return sum(len(call.args[1]) for call in take.call_args_list)


@pytest.mark.parametrize("block", BOUNDED_BLOCKS)
@pytest.mark.parametrize("fill, walked", (
    (b"\x55", "all"),     # every row ends where it starts: each could
    (b"\xaa", "all"),     # hold an extreme
    (b"\x00", "none"),    # the walk is monotone, so its extremes
    (b"\xff", "none"),    # are row ends
))
def test_constant_fills_walk_all_or_no_rows(fill, walked, block):
    rows = 3 * rows_per_read(4099) + 2
    data = fill * (16 * rows + 7)
    assert walked_rows(data, block) == (rows if walked == "all" else 0)
    assert_bounded_walk_matches_oracle(data, block)


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


@pytest.mark.parametrize("call", (analyze, nist_lite, ent_analyze))
def test_split_statistics_memory_is_bounded(call, memory_inputs, tmp_path):
    # A regular file is read as two halves at once, each with its own
    # workspace and temporaries: measured at 11.1-13.0 MiB, about twice one
    # pass's peak. How the two threads' temporaries overlap varies from run
    # to run, so the bounds leave room over the measurements.
    peaks = {}
    for size, data in memory_inputs.items():
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data)
        with open(path, "rb") as src:
            tracemalloc.start()
            try:
                call(src)
                peaks[size] = tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
    assert max(peaks.values()) <= 15, peaks
    assert peaks[16] - peaks[4] <= 2.5, peaks

"""XOR combiner and Von Neumann extractor."""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permwhite._util import BLOCK_BYTES
from permwhite.baselines import _VN_STEP, von_neumann, xor_combine
from permwhite.entropy import CounterSource


class OneByteReads(io.BytesIO):
    def read(self, n=-1):
        return super().read(1 if n is None or n < 0 else min(1, n))


class ShortReads(io.BytesIO):
    """Returns between 1 and 97 bytes per read, drawn from ``rng``."""

    def __init__(self, data, rng):
        super().__init__(data)
        self.rng = rng

    def read(self, n=-1):
        size = self.rng.randint(1, 97)
        return super().read(size if n is None or n < 0 else min(size, n))


def xor_bytes(a, b):
    out = io.BytesIO()
    n = xor_combine(io.BytesIO(a), io.BytesIO(b), out)
    return out.getvalue(), n


def vn_bytes(data):
    out = io.BytesIO()
    count = von_neumann(io.BytesIO(data), out)
    return out.getvalue(), count


def test_xor_self_is_zero():
    data = CounterSource("xz").read_bytes(1000)
    out, n = xor_bytes(data, data)
    assert out == b"\x00" * 1000
    assert n == 1000


def test_xor_known_pattern():
    out, _ = xor_bytes(b"\xff" * 16, b"\x55" * 16)
    assert out == b"\xaa" * 16


B = BLOCK_BYTES


@pytest.mark.parametrize("len_a, len_b, reader", [
    (100, 7, io.BytesIO),
    (B + 5, 2 * B + 3, io.BytesIO),
    (2 * B + 3, B + 5, io.BytesIO),
    (B + 5, 2 * B + 3, OneByteReads),
], ids=["100-7", "B+5-2B+3", "2B+3-B+5", "one-byte-reads"])
def test_xor_stops_at_shorter_stream(len_a, len_b, reader):
    a = CounterSource("xor-a").read_bytes(len_a)
    b = CounterSource("xor-b").read_bytes(len_b)
    out = io.BytesIO()
    n = xor_combine(reader(a), io.BytesIO(b), out)
    short = min(len_a, len_b)
    assert n == short
    expected = np.frombuffer(a, np.uint8, short) ^ np.frombuffer(b, np.uint8, short)
    assert out.getvalue() == expected.tobytes()


def test_xor_empty():
    out, n = xor_bytes(b"", b"abc")
    assert out == b"" and n == 0


@given(st.binary(max_size=3000), st.binary(max_size=3000))
def test_xor_involution(a, b):
    once, n = xor_bytes(a, b)
    twice, _ = xor_bytes(once, b[:n])
    assert twice == a[:n]


def test_vn_worked_pairs():
    # bit pairs 01 10 00 11 -> emits 0 then 1; packed MSB-first as 0x40
    out, count = vn_bytes(bytes([0b01100011]))
    assert count == 2
    assert out == bytes([0x40])


def test_vn_constant_input_emits_nothing():
    out, count = vn_bytes(b"\x00" * 500)
    assert count == 0 and out == b""
    out, count = vn_bytes(b"\xff" * 500)
    assert count == 0 and out == b""


def test_vn_alternating_input_emits_every_pair():
    # 01 repeated: every pair differs -> one output bit per pair
    out, count = vn_bytes(b"\x55" * 100)
    assert count == 400
    assert out == b"\x00" * 50  # all pairs are 01 -> emit 0


def test_vn_output_bound():
    for key in ("a", "b", "c"):
        data = CounterSource(key).read_bytes(10_000)
        _, count = vn_bytes(data)
        assert count <= len(data) * 8 // 2


def test_vn_padding_of_final_byte():
    # pairs 10 10 10 -> bits 111, padded right to 0xE0
    out, count = vn_bytes(bytes([0b10101000]))
    assert count == 3
    assert out == bytes([0xE0])


def scalar_vn(data):
    """The pair rule one bit pair at a time: 01 emits 0, 10 emits 1."""
    bits = []
    for byte in data:
        for shift in (6, 4, 2, 0):
            pair = (byte >> shift) & 3
            if pair in (0b01, 0b10):
                bits.append(pair >> 1)
    padded = bits + [0] * (-len(bits) % 8)
    packed = bytes(int("".join(map(str, padded[i:i + 8])), 2)
                   for i in range(0, len(padded), 8))
    return packed, len(bits)


def test_vn_every_byte_value_matches_pair_rule():
    for value in range(256):
        assert vn_bytes(bytes([value])) == scalar_vn(bytes([value])), value
    every = bytes(range(256))
    assert vn_bytes(every) == scalar_vn(every)


def test_vn_block_boundary_independence():
    # feeding in one piece or byte by byte gives identical output
    data = CounterSource("vn-split").read_bytes(4099)
    whole, count = vn_bytes(data)
    out = io.BytesIO()
    count2 = von_neumann(OneByteReads(data), out)
    assert count2 == count
    assert out.getvalue() == whole


def test_vn_debiases_ninety_percent_ones():
    # Bernoulli(0.9) bits, 1e6 pairs: output ones-fraction within 3 sigma
    # of 1/2 (differing pairs are equally likely 01 or 10)
    pairs = 1_000_000
    raw = np.frombuffer(CounterSource("bias").read_bytes(2 * pairs), np.uint8)
    bits = (raw < 230).astype(np.uint8)  # P(byte < 230) ~ 0.898
    out = io.BytesIO()
    count = von_neumann(io.BytesIO(np.packbits(bits).tobytes()), out)
    emitted = np.unpackbits(np.frombuffer(out.getvalue(), np.uint8))[:count]
    ones = int(emitted.sum())
    sigma = (count * 0.25) ** 0.5
    assert abs(ones - count / 2) < 3 * sigma


def test_vn_never_expands_bytes_into_bits():
    # One byte per bit of a 1 MiB block is 8 MiB before any temporaries.
    src = io.BytesIO(CounterSource("vn-mem").read_bytes(4 * B))
    tracemalloc.start()
    try:
        von_neumann(src, io.BytesIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


@given(st.binary(max_size=4000), st.randoms(use_true_random=False))
def test_vn_matches_scalar_oracle(data, rng):
    expected = scalar_vn(data)
    assert vn_bytes(data) == expected
    out = io.BytesIO()
    count = von_neumann(ShortReads(data, rng), out)
    assert (out.getvalue(), count) == expected


def bit_vn(data):
    """The pair rule on unpacked bits: keep the first bit of each unequal
    pair. Unlike ``scalar_vn``, fast enough for inputs of several steps."""
    pairs = np.unpackbits(np.frombuffer(data, np.uint8)).reshape(-1, 2)
    kept = pairs[pairs[:, 0] != pairs[:, 1], 0]
    return np.packbits(kept).tobytes(), kept.size


def alternating_runs(n):
    # 16-byte runs of 0xAA then 0x00: each 0xAA run emits 64 one bits, so
    # the zero-count fields of each 0x00 run start on a 32-bit word boundary,
    # and a full step ends with them, at exactly its total bit count.
    return (b"\xaa" * 16 + b"\x00" * 16) * (n // 32 + 1)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [-9, -8, -1, 0, 1, 7, 8, 9])
@pytest.mark.parametrize("fill", [
    lambda n: b"\xaa" * n,   # every output word is 0xFFFFFFFF
    lambda n: b"\x55" * n,   # full fields; the carry lands on multiples of 32
    alternating_runs,        # zero-count fields at word boundaries
    # a partial word carries over each step boundary
    lambda n: CounterSource("vn-steps").read_bytes(n),
], ids=["aa", "55", "aa-00-runs", "counter"])
def test_vn_step_boundaries(k, d, fill):
    data = fill(k * _VN_STEP + d)[:k * _VN_STEP + d]
    assert vn_bytes(data) == bit_vn(data)


def test_word_table_is_built_on_first_use():
    # evaluate's peak RSS and start-up time are taken in fresh processes
    # that import the CLI; the 256 KiB table must not be built there.
    code = (
        "import io, permwhite.cli\n"
        "from permwhite import baselines\n"
        "assert baselines._word_codes.cache_info().currsize == 0\n"
        "baselines.von_neumann(io.BytesIO(b'\\x69'), io.BytesIO())\n"
        "info = baselines._word_codes.cache_info()\n"
        "assert (info.currsize, info.misses) == (1, 1), info\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr


class CountingReads(io.BytesIO):
    """Counts the bytes that ``read`` and ``readinto`` give."""

    given = 0

    def read(self, n=-1):
        got = super().read(n)
        self.given += len(got)
        return got

    def readinto(self, buf):
        got = super().readinto(buf)
        self.given += got
        return got


@pytest.mark.parametrize("len_a, len_b", [(3 * B, B), (2 * B + 7, B + 5), (B, 3 * B)])
def test_xor_reads_the_first_stream_no_further_than_it_xors(len_a, len_b):
    # The second stream's block is read first, then as many bytes of the
    # first: a pipe as the first input loses no byte past the output.
    a = CountingReads(CounterSource("xor-a").read_bytes(len_a))
    b = io.BytesIO(CounterSource("xor-b").read_bytes(len_b))
    assert xor_combine(a, b, io.BytesIO()) == min(len_a, len_b)
    assert a.given == min(len_a, len_b)

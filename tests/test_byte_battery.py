"""The byte battery against an exact oracle: the streaming update written the
long way, with int64 copies and a first-block branch."""

import functools
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwhite import randtests
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
from permwhite.randtests import (
    _MC_RADIUS_SQ,
    ent_analyze,
    monte_carlo_pi,
    serial_correlation,
)

ORACLE_BLOCK_BYTES = 1 << 20


class OracleByteStats(randtests._ByteStats):
    """``_ByteStats`` with its per-block update done in int64 throughout:
    a widened copy of each block for the serial products, int64 Monte Carlo
    coordinates, and a branch for the first block, which keeps the first
    and last bytes as ints. Entropy, chi-square and mean are inherited."""

    def __init__(self):
        super().__init__()
        self.first = None
        self.last = None
        self.mc_carry = b""

    def update(self, block: bytes, counts: np.ndarray) -> None:
        arr = np.frombuffer(block, dtype=np.uint8)
        wide = arr.astype(np.int64)
        self.counts += counts
        if self.first is None:
            self.first = int(arr[0])
        else:
            self.cross_sum += self.last * int(arr[0])
        self.cross_sum += int(wide[:-1] @ wide[1:])
        self.last = int(arr[-1])
        self.n += arr.size

        data = self.mc_carry + block
        usable = len(data) - len(data) % 6
        if usable:
            g = np.frombuffer(data, dtype=np.uint8, count=usable).reshape(-1, 6).astype(np.int64)
            x = g[:, 0] * 65536 + g[:, 1] * 256 + g[:, 2]
            y = g[:, 3] * 65536 + g[:, 4] * 256 + g[:, 5]
            self.mc_inside += int(np.count_nonzero(x * x + y * y <= _MC_RADIUS_SQ))
            self.mc_points += g.shape[0]
        self.mc_carry = data[usable:]

    def serial_correlation(self) -> tuple[float, bool]:
        if self.n < 2:
            raise PreconditionError("serial correlation needs at least 2 bytes")
        values = np.arange(256, dtype=np.int64)
        sum_x = int(self.counts @ values)
        sum_x2 = int(self.counts @ (values * values))
        sum_xy = self.cross_sum + self.last * self.first   # wrap last -> first
        num = self.n * sum_xy - sum_x * sum_x
        den = self.n * sum_x2 - sum_x * sum_x
        if den == 0:
            return 0.0, False
        return num / den, True


def oracle_stats(data: bytes, size: int = ORACLE_BLOCK_BYTES) -> OracleByteStats:
    """The oracle fed ``data`` in ``size``-byte blocks of any length."""
    stats = OracleByteStats()
    for start in range(0, len(data), size):
        block = data[start:start + size]
        stats.update(block, np.bincount(np.frombuffer(block, dtype=np.uint8), minlength=256))
    return stats


def assert_matches_oracle(data: bytes, oracle_block: int = ORACLE_BLOCK_BYTES) -> None:
    oracle = oracle_stats(data, oracle_block)
    assert ent_analyze(io.BytesIO(data)) == oracle.report()
    assert monte_carlo_pi(io.BytesIO(data)) == oracle.monte_carlo_pi()
    assert serial_correlation(io.BytesIO(data)) == oracle.serial_correlation()


@st.composite
def corpora(draw):
    """Uniform, biased, constant and high-byte inputs of 6 to 5000 bytes,
    most of them not a whole number of 6-byte Monte Carlo points. High
    bytes (0xF0..0xFF) put the serial products' float32 row sums near 2^24."""
    n = draw(st.integers(6, 5000))
    kind = draw(st.sampled_from(("uniform", "biased", "constant", "high")))
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if kind == "high":
        return rng.integers(0xF0, 256, n, dtype=np.uint8).tobytes()
    p_one = draw(st.floats(0.0, 1.0))
    return np.packbits(rng.random(8 * n) < p_one).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=corpora(),
       block=st.one_of(st.integers(1, 40), st.integers(41, 6000)))
def test_byte_battery_matches_oracle(data, block):
    with mock.patch.object(randtests, "BLOCK_BYTES", block):
        assert_matches_oracle(data)


def test_byte_battery_matches_oracle_across_full_blocks():
    assert_matches_oracle(CounterSource("bytes-many-blocks").read_bytes(3 * (1 << 20) + 13))


@pytest.mark.parametrize("block", range(1, 13))
def test_monte_carlo_edge_points_split_across_blocks(block):
    # (2^24 - 1, 0) lies on the circle, so inside; (2^24 - 1, 1) lies outside.
    # Reads of 48 * block bytes hold 8 * block points: the first read holds
    # only inside points and the second only outside ones.
    inside, outside = b"\xff\xff\xff\x00\x00\x00", b"\xff\xff\xff\x00\x00\x01"
    data = inside * (8 * block) + outside * (8 * block)
    with mock.patch.object(randtests, "BLOCK_BYTES", 48 * block):
        assert monte_carlo_pi(io.BytesIO(data)) == 2.0
        assert_matches_oracle(data)


def fed_in_blocks(data: bytes, size: int):
    """``_ByteStats`` and the oracle fed ``data`` in ``size``-byte blocks
    (the last may be shorter), each a ``bytes`` object that holds no byte
    past its block's end, so a read past it raises."""
    stats, oracle = randtests._ByteStats(), OracleByteStats()
    for start in range(0, len(data), size):
        block = data[start:start + size]
        counts = np.bincount(np.frombuffer(block, dtype=np.uint8), minlength=256)
        stats.update(block, counts, np.empty(4 * len(block), np.uint8))
        oracle.update(block, counts)
    return stats, oracle


@pytest.mark.parametrize("points", (1, 2, 7, 1000))
def test_monte_carlo_reads_no_byte_past_a_whole_point_block(points):
    # Blocks of exactly 6k bytes: the word read at offset 2 of each
    # block's last point ends on the block's last byte.
    data = CounterSource(f"mc-whole-{points}").read_bytes(18 * points)
    stats, oracle = fed_in_blocks(data, 6 * points)
    assert (stats.mc_inside, stats.mc_points) == (oracle.mc_inside, oracle.mc_points)
    assert stats.report() == oracle.report()


@pytest.mark.parametrize("extra", range(1, 6))
@pytest.mark.parametrize("points", (1, 2, 1000))
def test_monte_carlo_leftover_bytes_carry_to_the_next_block(points, extra):
    # The oracle reads blocks of 6 * points + extra bytes, so the leftover
    # bytes of each carry to the next; the statistics read whole points at
    # the same BLOCK_BYTES, and both must count the same points.
    size = 6 * points + extra
    data = CounterSource(f"mc-carry-{points}-{extra}").read_bytes(5 * size + 3)
    with mock.patch.object(randtests, "BLOCK_BYTES", size):
        assert_matches_oracle(data, oracle_block=size)


@pytest.mark.parametrize("points", (1, 2, 1000))
def test_monte_carlo_edge_points_end_a_block(points):
    # (2^24 - 1, 0) is inside and (2^24 - 1, 1) outside; each closes a
    # block of 6k bytes.
    filler = CounterSource(f"mc-edge-{points}").read_bytes(6 * points - 6)
    data = filler + b"\xff\xff\xff\x00\x00\x00" + filler + b"\xff\xff\xff\x00\x00\x01"
    stats, oracle = fed_in_blocks(data, 6 * points)
    assert (stats.mc_inside, stats.mc_points) == (oracle.mc_inside, oracle.mc_points)
    assert stats.report() == oracle.report()


# Lengths around one and two 256-product rows and around a 1 MiB read.
CROSS_LENGTHS = (1, 2, 255, 256, 257, 258, 511, 512, 513,
                 (1 << 20) - 1, 1 << 20, (1 << 20) + 1)


@functools.lru_cache(maxsize=None)
def high_corpus(kind: str, length: int) -> bytes:
    """All 0xFF, or seeded random bytes in 0xF0..0xFF: the largest serial
    products, whose 256-product rows sum to just under 2^24 or near it."""
    if kind == "ff":
        return b"\xff" * length
    rng = np.random.default_rng(length)
    return rng.integers(0xF0, 256, length, dtype=np.uint8).tobytes()


@functools.lru_cache(maxsize=None)
def oracle_cross_sum(data: bytes) -> int:
    """Sum of data[i] * data[i + 1], in Python integers."""
    return sum(x * y for x, y in zip(data, data[1:]))


def oracle_serial_correlation(data: bytes) -> tuple[float, bool]:
    """The circular lag-1 correlation from Python integer sums."""
    n = len(data)
    sum_x = sum(data)
    sum_x2 = sum(x * x for x in data)
    sum_xy = oracle_cross_sum(data) + data[-1] * data[0]
    den = n * sum_x2 - sum_x * sum_x
    if den == 0:
        return 0.0, False
    return (n * sum_xy - sum_x * sum_x) / den, True


@pytest.mark.parametrize("block", (1 << 20, 4099, 48, None))
@pytest.mark.parametrize("length", CROSS_LENGTHS)
@pytest.mark.parametrize("kind", ("ff", "high"))
def test_cross_sum_is_exact_at_the_float32_row_bound(kind, length, block):
    # Read as ent_analyze and serial_correlation read, at BLOCK_BYTES = block,
    # or fed to one update when block is None. The correlation of all 0xFF
    # is undefined, so the cross sum is checked by itself too.
    data = high_corpus(kind, length)
    if block is None:
        stats = randtests._ByteStats()
        stats.update(data, np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256),
                     np.empty(4 * len(data), np.uint8))
    else:
        with mock.patch.object(randtests, "BLOCK_BYTES", block):
            (stats,) = randtests._consume(io.BytesIO(data), randtests._ByteStats())
    assert stats.cross_sum == oracle_cross_sum(data)
    if length >= 2:
        assert stats.serial_correlation() == oracle_serial_correlation(data)


def near_circle_corpus(count: int = 4096, seed: int = 25) -> bytes:
    """``count`` 6-byte points whose X^2 + Y^2 lies within 2^27 of the
    radius squared, on both sides: (2^24 - 1, 0) and (2^24 - 1, 1) first,
    then Y = isqrt(R^2 + e - X^2) for random X and e in [-2^27, 2^27],
    with X and Y swapped at random. A float32 sum of squares is off by up
    to 2^25 here, so only an exact decision counts these points right."""
    rng = np.random.default_rng(seed)
    points = [(2**24 - 1, 0), (2**24 - 1, 1)]
    while len(points) < count:
        x = int(rng.integers(0, 2**24))
        rest = _MC_RADIUS_SQ + int(rng.integers(-2**27, 2**27 + 1)) - x * x
        if rest < 0:
            continue
        y = math.isqrt(rest)
        if y < 2**24 and abs(x * x + y * y - _MC_RADIUS_SQ) <= 2**27:
            points.append((y, x) if rng.integers(2) else (x, y))
    return b"".join(x.to_bytes(3, "big") + y.to_bytes(3, "big") for x, y in points)


@pytest.mark.parametrize("block", (1 << 20, 48))
def test_monte_carlo_near_the_circle_matches_oracle(block):
    data = near_circle_corpus()
    offsets = [int.from_bytes(data[i:i + 3], "big") ** 2
               + int.from_bytes(data[i + 3:i + 6], "big") ** 2 - _MC_RADIUS_SQ
               for i in range(0, len(data), 6)]
    # Points on both sides of the circle, close enough that rounding in
    # float32 could move them across it.
    assert min(offsets) < -2**25 and max(offsets) > 2**25
    assert sum(-2**25 <= d <= 0 for d in offsets) > 100
    assert sum(0 < d <= 2**25 for d in offsets) > 100
    with mock.patch.object(randtests, "BLOCK_BYTES", block):
        assert_matches_oracle(data)

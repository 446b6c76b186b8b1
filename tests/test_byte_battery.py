"""The byte battery against an exact oracle: the streaming update written the
long way, with int64 copies and a first-block branch."""

import io
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


def oracle_stats(data: bytes) -> OracleByteStats:
    stats = OracleByteStats()
    for start in range(0, len(data), ORACLE_BLOCK_BYTES):
        block = data[start:start + ORACLE_BLOCK_BYTES]
        stats.update(block, np.bincount(np.frombuffer(block, dtype=np.uint8), minlength=256))
    return stats


def assert_matches_oracle(data: bytes) -> None:
    oracle = oracle_stats(data)
    assert ent_analyze(io.BytesIO(data)) == oracle.report()
    assert monte_carlo_pi(io.BytesIO(data)) == oracle.monte_carlo_pi()
    assert serial_correlation(io.BytesIO(data)) == oracle.serial_correlation()


@st.composite
def corpora(draw):
    """Uniform, biased and constant inputs of 6 to 5000 bytes, most of
    them not a whole number of 6-byte Monte Carlo points."""
    n = draw(st.integers(6, 5000))
    kind = draw(st.sampled_from(("uniform", "biased", "constant")))
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
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
    data = b"\xff\xff\xff\x00\x00\x00" + b"\xff\xff\xff\x00\x00\x01"
    with mock.patch.object(randtests, "BLOCK_BYTES", block):
        assert monte_carlo_pi(io.BytesIO(data)) == 2.0
        assert_matches_oracle(data)

"""Randomness statistics over byte streams.

Two batteries are provided. The five classic byte-mode statistics (Shannon
entropy per byte, chi-square over the 256 byte bins, arithmetic mean, the
6-byte-point Monte Carlo estimate of pi, and the lag-1 serial correlation
coefficient) follow the behavior of the well-known ENT program. A second,
smaller battery computes four of the NIST SP 800-22 tests: monobit
frequency, block frequency with 128-bit blocks, runs, and cumulative sums
in both directions.

Everything is computed in one streaming pass with bounded memory, using
exact integer accumulators wherever possible. The Monte Carlo comparison
is made in float64, which is exact for 24-bit coordinates. ``analyze`` feeds
both batteries from a single read; the bit battery works on whole bytes
through 256-entry tables and never expands a byte into bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ._util import BLOCK_BYTES, iter_blocks
from .errors import PreconditionError

# Distance-to-ideal targets used for improvement verdicts.
IDEAL_VALUES = {
    "entropy_bits_per_byte": 8.0,
    "chi_square": 256.0,
    "arithmetic_mean": 127.5,
    "monte_carlo_pi": math.pi,
    "serial_correlation": 0.0,
}

_MC_RADIUS_SQ = (2**24 - 1) ** 2
_BLOCK_FREQ_BITS = 128
_NIST_ALPHA = 0.01


@dataclass
class EntReport:
    entropy_bits_per_byte: float
    chi_square: float
    arithmetic_mean: float
    monte_carlo_pi: float
    serial_correlation: float
    serial_correlation_defined: bool
    byte_count: int


@dataclass
class NistLiteReport:
    p_monobit: float
    p_block_frequency: float
    p_runs: float
    p_cusum_forward: float
    p_cusum_backward: float
    bit_count: int
    ones_count: int

    @property
    def pass_flags(self) -> dict:
        return {
            name: getattr(self, name) >= _NIST_ALPHA
            for name in ("p_monobit", "p_block_frequency", "p_runs",
                         "p_cusum_forward", "p_cusum_backward")
        }

    @property
    def all_pass(self) -> bool:
        return all(self.pass_flags.values())


def _byte_tables():
    """Per-byte tables for the bit battery, bits read most significant first.

    For a byte with bits x_1..x_8 and walk p_k = sum_{i<=k} (2 x_i - 1):
    popcount, transitions between adjacent bits inside the byte, net step
    p_8, and the walk's minimum and maximum over p_1..p_8. Built in plain
    Python: numpy calls at import would add to every command's peak RSS.
    """
    rows = []
    for byte in range(256):
        bits = [(byte >> (7 - i)) & 1 for i in range(8)]
        walk = list(itertools.accumulate(2 * x - 1 for x in bits))
        intra = sum(a != b for a, b in zip(bits, bits[1:]))
        rows.append((sum(bits), intra, walk[-1], min(walk), max(walk)))
    return zip(*rows)


POPCOUNT, INTRA, STEP, WMIN, WMAX = _byte_tables()   # tuples indexed by byte value


def _translation(values) -> bytes:
    """A ``bytes.translate`` table for values in [-128, 127], read back as
    int8. ``translate`` does a 256-entry lookup several times faster than
    numpy fancy indexing with a uint8 index."""
    return bytes(v & 0xFF for v in values)


_STEP_T = _translation(STEP)
_LOW_T = _translation(lo - end for lo, end in zip(WMIN, STEP))   # relative to the byte's end
_SPAN_T = _translation(hi - lo for hi, lo in zip(WMAX, WMIN))
_BLOCK_FREQ_BYTES = _BLOCK_FREQ_BITS // 8


class _ByteStats:
    """Single-pass accumulator behind the five byte-mode statistics."""

    def __init__(self):
        self.counts = np.zeros(256, dtype=np.int64)
        self.n = 0
        self.first = b""            # first byte of the stream
        self.last = b""             # last byte of the previous block
        self.cross_sum = 0          # sum of x_i * x_{i+1}, non-circular part
        self.mc_carry = b""
        self.mc_inside = 0
        self.mc_points = 0

    def update(self, block: bytes, counts: np.ndarray) -> None:
        # Each carry (self.last, self.mc_carry) is prepended to the block,
        # then refilled with what the next block needs. einsum sums the uint8
        # products in int64 without a widened copy of the block.
        self.counts += counts
        self.n += len(block)
        self.first = self.first or block[:1]
        a = np.frombuffer(self.last + block, np.uint8)
        self.cross_sum += int(np.einsum("i,i", a[:-1], a[1:], dtype=np.int64))
        self.last = block[-1:]

        data = self.mc_carry + block
        usable = len(data) - len(data) % 6
        g = np.frombuffer(data, np.uint8, count=usable).reshape(-1, 6)
        # float64 holds X^2 + Y^2 < 2^49 exactly.
        x = g[:, 0] * 65536.0 + g[:, 1] * 256.0 + g[:, 2]
        y = g[:, 3] * 65536.0 + g[:, 4] * 256.0 + g[:, 5]
        self.mc_inside += int(np.count_nonzero(x * x + y * y <= _MC_RADIUS_SQ))
        self.mc_points += len(g)
        self.mc_carry = data[usable:]

    def entropy(self) -> float:
        p = self.counts[self.counts > 0] / self.n
        # + 0.0 turns the -0.0 of a constant file into 0.0.
        return float(-(p * np.log2(p)).sum()) + 0.0

    def chi_square(self) -> float:
        expected = self.n / 256.0
        d = self.counts - expected
        return float((d * d / expected).sum())

    def mean(self) -> float:
        return int(self.counts @ np.arange(256, dtype=np.int64)) / self.n

    def monte_carlo_pi(self) -> float:
        if self.mc_points == 0:
            raise PreconditionError("Monte Carlo pi needs at least 6 bytes")
        return 4.0 * self.mc_inside / self.mc_points

    def serial_correlation(self) -> tuple[float, bool]:
        if self.n < 2:
            raise PreconditionError("serial correlation needs at least 2 bytes")
        values = np.arange(256, dtype=np.int64)
        sum_x = int(self.counts @ values)
        sum_x2 = int(self.counts @ (values * values))
        sum_xy = self.cross_sum + self.last[0] * self.first[0]   # wrap last -> first
        num = self.n * sum_xy - sum_x * sum_x
        den = self.n * sum_x2 - sum_x * sum_x
        if den == 0:
            return 0.0, False
        return num / den, True

    def report(self) -> EntReport:
        if self.n < 6:
            raise PreconditionError(
                f"byte-mode battery needs at least 6 bytes, got {self.n}"
            )
        scc, defined = self.serial_correlation()
        return EntReport(
            entropy_bits_per_byte=self.entropy(),
            chi_square=self.chi_square(),
            arithmetic_mean=self.mean(),
            monte_carlo_pi=self.monte_carlo_pi(),
            serial_correlation=scc,
            serial_correlation_defined=defined,
            byte_count=self.n,
        )


class _BitStats:
    """Single-pass accumulator behind the four-test bit battery.

    Works on whole bytes through the 256-entry tables, so no bit is ever
    expanded. The only per-byte state is one int32 walk buffer, reused
    across reads because a fresh one costs as much in page faults as the
    cumulative sum that fills it.
    """

    def __init__(self):
        self.n = 0               # bits
        self.ones = 0
        self.transitions = 0
        self.last = b""          # final byte of the previous block
        self.bf_anchor = 0       # S_k at the end of the last full 128-bit block
        self.bf_sum_sq = 0       # sum over blocks of (ones_in_block - 64)^2
        self.bf_blocks = 0
        self.running = 0         # S_k after the last consumed bit
        self.min_s = 0           # min over k >= 0 of S_k
        self.max_s = 0
        self._walk = np.empty(0, dtype=np.int32)

    def update(self, block: bytes, counts: np.ndarray) -> None:
        size = len(block)
        offset = self.n // 8
        self.n += 8 * size
        self.ones += int(counts @ POPCOUNT)
        # Runs: transitions inside each byte, then between adjacent bytes
        # (low bit of one against the high bit of the next), the previous
        # block's last byte prepended.
        self.transitions += int(counts @ INTRA)
        a = np.frombuffer(self.last + block, np.uint8)
        self.transitions += int(np.count_nonzero((a[:-1] & 1) != (a[1:] >> 7)))
        self.last = block[-1:]

        # walk[j] = S at the end of byte j, relative to self.running. int32
        # is exact: a block holds at most BLOCK_BYTES = 2^20 bytes, so
        # |walk| <= 2^23.
        if self._walk.size < size:
            self._walk = np.empty(size, dtype=np.int32)
        walk = self._walk[:size]
        np.cumsum(np.frombuffer(block.translate(_STEP_T), dtype=np.int8),
                  dtype=np.int32, out=walk)

        # Block frequency: ends is S at each 128-bit block boundary this
        # read reaches. A block over which S rises by d holds (128 + d) / 2
        # ones, so (ones - 64)^2 = d^2 / 4; a partial last block is dropped.
        ends = walk[(-offset - 1) % _BLOCK_FREQ_BYTES::_BLOCK_FREQ_BYTES]
        if ends.size:
            d = np.diff(ends, prepend=self.bf_anchor - self.running)
            self.bf_sum_sq += int(np.einsum("i,i", d, d, dtype=np.int64)) // 4
            self.bf_blocks += d.size
            self.bf_anchor = self.running + int(ends[-1])

        # Cumulative sums: each byte's in-byte extremes, offset from the
        # walk at its end, bound every S_k it contributes.
        end = int(walk[-1])
        walk += np.frombuffer(block.translate(_LOW_T), dtype=np.int8)
        self.min_s = min(self.min_s, self.running + int(walk.min()))
        walk += np.frombuffer(block.translate(_SPAN_T), dtype=np.int8)
        self.max_s = max(self.max_s, self.running + int(walk.max()))
        self.running += end

    def report(self) -> NistLiteReport:
        n, ones = self.n, self.ones
        if n < _BLOCK_FREQ_BITS:
            raise PreconditionError(
                f"the four-test battery needs at least {_BLOCK_FREQ_BITS} bits, got {n}"
            )

        p_monobit = math.erfc(abs(2 * ones - n) / math.sqrt(n) / math.sqrt(2))

        # Deferred: a top-level scipy import adds ~0.3 s and ~20 MiB to every command.
        from scipy.special import gammaincc

        # chi^2 = 4 * M * sum((ones_i/M - 1/2)^2) with M = 128 reduces to sum_sq/32.
        chi = self.bf_sum_sq / 32.0
        p_block = float(gammaincc(self.bf_blocks / 2.0, chi / 2.0))

        pi_ones = ones / n
        if abs(pi_ones - 0.5) >= 2.0 / math.sqrt(n):
            p_runs = 0.0
        else:
            v = self.transitions + 1
            p_runs = math.erfc(
                abs(v - 2.0 * n * pi_ones * (1.0 - pi_ones))
                / (2.0 * math.sqrt(2.0 * n) * pi_ones * (1.0 - pi_ones))
            )

        running, min_s, max_s = self.running, self.min_s, self.max_s
        z_fwd = max(max_s, -min_s)
        z_bwd = max(running - min_s, max_s - running)
        return NistLiteReport(
            p_monobit=p_monobit,
            p_block_frequency=p_block,
            p_runs=p_runs,
            p_cusum_forward=_cusum_pvalue(z_fwd, n),
            p_cusum_backward=_cusum_pvalue(z_bwd, n),
            bit_count=n,
            ones_count=ones,
        )


def _consume(src: BinaryIO, *accumulators) -> tuple:
    """Read ``src`` once in ``BLOCK_BYTES`` blocks, feeding every accumulator
    each block and its 256-bin byte histogram; returns the accumulators."""
    # Looked up here, not bound as iter_blocks' default, so that tests can
    # move block boundaries by patching this module's BLOCK_BYTES.
    for block in iter_blocks(src, BLOCK_BYTES):
        counts = np.bincount(np.frombuffer(block, dtype=np.uint8), minlength=256)
        for acc in accumulators:
            acc.update(block, counts)
    return accumulators


def analyze(src: BinaryIO) -> tuple[EntReport, NistLiteReport]:
    """Both batteries from one read of ``src``; the preconditions of
    ``ent_analyze`` and ``nist_lite`` apply, in that order."""
    byte_stats, bit_stats = _consume(src, _ByteStats(), _BitStats())
    return byte_stats.report(), bit_stats.report()


def ent_analyze(src: BinaryIO) -> EntReport:
    """All five byte-mode statistics in one pass. Needs at least 6 bytes."""
    (stats,) = _consume(src, _ByteStats())
    return stats.report()


def monte_carlo_pi(src: BinaryIO) -> float:
    """Estimate pi from disjoint 6-byte points (X, Y as 24-bit coordinates);
    a point is inside when X^2 + Y^2 <= (2^24 - 1)^2. Leftover bytes are
    ignored."""
    (stats,) = _consume(src, _ByteStats())
    return stats.monte_carlo_pi()


def serial_correlation(src: BinaryIO) -> tuple[float, bool]:
    """Circular lag-1 Pearson correlation of the byte sequence.

    Returns (value, defined); a constant stream has zero variance, for
    which (0.0, False) is returned.
    """
    (stats,) = _consume(src, _ByteStats())
    return stats.serial_correlation()


def nist_lite(src: BinaryIO) -> NistLiteReport:
    """Monobit, 128-bit block frequency, runs, and both cumulative sums.

    Requires at least 128 bits (the block-frequency test needs one full
    block; monobit alone would need 100).
    """
    (stats,) = _consume(src, _BitStats())
    return stats.report()


def _cusum_pvalue(z: int, n: int) -> float:
    """Two-sided random-walk maximum-excursion p-value.

    The k-summation bounds use integer arithmetic truncating toward zero,
    matching the reference implementation and its published example value
    (z=4, n=10 gives 0.4116588); for realistic n the bound convention
    only moves terms that are below double precision anyway.
    """
    # Deferred: a top-level scipy import adds ~0.3 s and ~20 MiB to every command.
    from scipy.special import ndtr

    sqrt_n = math.sqrt(n)
    q = n // z
    end = math.trunc((q - 1) / 4)
    start1 = math.trunc((-q + 1) / 4)
    start2 = math.trunc((-q - 3) / 4)
    # Terms with |arg| > ~40 cannot move the sum at double precision;
    # clip the k ranges so small z on huge n stays cheap.
    window = int(40.0 * sqrt_n / (4 * z)) + 2

    def phi_sum(k_lo: int, k_hi: int, a: int, b: int) -> float:
        k = np.arange(max(k_lo, -window), min(k_hi, window) + 1, dtype=np.float64)
        return float(
            (ndtr((4 * k + a) * z / sqrt_n) - ndtr((4 * k + b) * z / sqrt_n)).sum()
        )

    sum1 = phi_sum(start1, end, 1, -1)
    sum2 = phi_sum(start2, end, 3, 1)
    return min(max(1.0 - sum1 + sum2, 0.0), 1.0)


def compare_reports(before: EntReport, after: EntReport) -> dict:
    """Per-parameter verdicts: did |value - ideal| strictly decrease?"""
    verdicts = {}
    for name, ideal in IDEAL_VALUES.items():
        if name == "serial_correlation" and not (
            before.serial_correlation_defined and after.serial_correlation_defined
        ):
            verdicts[name] = "undefined"
            continue
        dist_before = abs(getattr(before, name) - ideal)
        dist_after = abs(getattr(after, name) - ideal)
        if dist_after < dist_before:
            verdicts[name] = "improved"
        elif dist_after > dist_before:
            verdicts[name] = "worsened"
        else:
            verdicts[name] = "unchanged"
    return verdicts

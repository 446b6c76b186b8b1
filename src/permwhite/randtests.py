"""Randomness statistics over byte streams.

Two batteries are provided. The five classic byte-mode statistics (Shannon
entropy per byte, chi-square over the 256 byte bins, arithmetic mean, the
6-byte-point Monte Carlo estimate of pi, and the lag-1 serial correlation
coefficient) follow the behavior of the well-known ENT program. A second,
smaller battery computes four of the NIST SP 800-22 tests: monobit
frequency, block frequency with 128-bit blocks, runs, and cumulative sums
in both directions.

Everything is computed in one streaming pass with bounded memory, and
every sum is exact. The byte histogram is one ``np.bincount`` of each
read's uint16 byte pairs, folded to 256 bins. The Monte Carlo coordinates
are read as 24-bit fields of big-endian words; their sum of squares is
screened in float32, which is within 2^25 of the exact sum, and the few
points that close to the circle are decided in int64. The serial products
are summed in float32 rows of 256, whose partial sums stay integers below
2^24 that float32 holds exactly. ``analyze`` feeds both batteries from a
single read, and one scratch array made per pass holds the temporaries of
every read; the bit battery works on whole bytes through 256-entry tables
and never expands a byte into bits. It counts each 128-bit row's ones,
which give block frequency and the walk at every row end, and walks byte
by byte only the rows whose ones leave room for a new extreme of the
cumulative sums. Every read but the last holds whole points and rows.

A regular file of more than one read is read as two halves at once, the
caller's thread and one worker each reading its half by offset; the cut
is a multiple of 48 bytes, so each half's reads hold whole points and
rows too. The second half's accumulators are merged into the first's:
counts and sums add, the seam adds one serial product and one bit
transition, and the second half's walk starts where the first ends. As
every sum is an exact integer, every statistic is that of one pass.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import stat
import threading
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ._util import BLOCK_BYTES, fill_blocks
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
# X^2 + Y^2 summed in float32 is within 2^25 of the exact sum (below), so a
# point at or under _MC_SURELY_IN is inside and one over _MC_SURELY_OUT is
# outside; both are exact float32 values. Points between are decided in int64.
_MC_SURELY_IN = np.float32(2.0**48 - 2.0**26)
_MC_SURELY_OUT = np.float32(2.0**48 + 2.0**25)
_CROSS_ROW = 256            # serial products per float32 row: 256 * 255^2 < 2^24
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


_M1, _M2, _M4 = (np.uint64(m * 0x0101010101010101) for m in (0x55, 0x33, 0x0F))
_STEP_T = _translation(STEP)
_LOW_T = _translation(lo - end for lo, end in zip(WMIN, STEP))   # relative to the byte's end
_SPAN_T = _translation(hi - lo for hi, lo in zip(WMAX, WMIN))
_BLOCK_FREQ_BYTES = _BLOCK_FREQ_BITS // 8


def _row_ones(block, rows: int, work: np.ndarray) -> np.ndarray:
    """The number of ones in each of ``block``'s first ``rows`` 16-byte rows,
    as int64; ``work`` is scratch of at least ``32 * rows`` bytes. Each
    8-byte word's bytes are popcounted in place by SWAR shifts and masks
    (Warren, Hacker's Delight, 5-1), the row's two words added bytewise,
    and the sum taken across the word by one multiply that leaves the total
    in the top byte; no partial sum passes 128, so no byte carries into
    the next. Unlike a ``bytes.translate`` table, numpy's loops release
    the GIL, so two threads count at once."""
    words = np.ndarray((2 * rows,), "<u8", block)
    x, t = _carve(work, 2 * rows, np.uint64, np.uint64)
    np.right_shift(words, 1, out=t)
    t &= _M1
    np.subtract(words, t, out=x)        # each 2-bit field's ones
    np.right_shift(x, 2, out=t)
    t &= _M2
    x &= _M2
    x += t                              # each nibble's
    np.right_shift(x, 4, out=t)
    x += t
    x &= _M4                            # each byte's
    pairs = x.reshape(rows, 2)
    ones = pairs[:, 0] + pairs[:, 1]
    ones *= np.uint64(0x0101010101010101)
    ones >>= np.uint64(56)
    return ones.view(np.int64)


class _ByteStats:
    """Single-pass accumulator behind the five byte-mode statistics."""

    def __init__(self):
        self.counts = np.zeros(256, dtype=np.int64)
        self.n = 0
        self.first = b""            # first byte of the stream, a copy
        self.last = b""             # last byte of the previous block, a copy
        self.cross_sum = 0          # sum of x_i * x_{i+1}, non-circular part
        self.mc_inside = 0
        self.mc_points = 0

    def update(self, block, counts: np.ndarray, work: np.ndarray) -> None:
        """``block`` may be a view; every block but the last holds whole 6-byte
        points. ``work`` is scratch of at least ``17 * (len(block) // 6)`` bytes."""
        # The products of adjacent bytes are summed by einsum in float32 rows
        # of _CROSS_ROW, cast inside its buffer so that no widened copy of the
        # block is made. A row sums to at most 256 * 255^2 < 2^24, so every
        # partial sum is an integer that float32 holds exactly, in any order;
        # the row sums add in float64, and the products after the last whole
        # row in int64. The product across the seam with the previous block
        # is added on its own.
        self.counts += counts
        self.n += len(block)
        self.first = self.first or bytes(block[:1])
        a = np.frombuffer(block, np.uint8)
        rows = (a.size - 1) // _CROSS_ROW
        w = rows * _CROSS_ROW
        row_sums = np.einsum("ij,ij->i", a[:w].reshape(rows, _CROSS_ROW),
                             a[1:w + 1].reshape(rows, _CROSS_ROW), dtype=np.float32)
        self.cross_sum += int(row_sums.sum(dtype=np.float64))
        self.cross_sum += int(np.einsum("i,i", a[w:-1], a[w + 1:], dtype=np.int64))
        for prev in self.last:
            self.cross_sum += prev * block[0]
        self.last = bytes(block[-1:])

        points = len(block) // 6
        if not points:
            return
        # Point k is block[6k:6k + 6]: X is the top 24 bits of the big-endian
        # word at 6k and Y the low 24 bits of the one at 6k + 2, so neither
        # read passes the point's end. X, Y < 2^24 are exact in float32, so
        # each rounded square is within 2^23 of X^2 or Y^2, and their rounded
        # sum, below 2^49, within 2^24 more: within 2^25 of X^2 + Y^2 in all.
        x, y, r2, y2, mask = _carve(work, points, np.uint32, np.uint32,
                                    np.float32, np.float32, np.bool_)
        np.right_shift(np.ndarray((points,), ">u4", block, 0, (6,)), 8, out=x)
        np.bitwise_and(np.ndarray((points,), ">u4", block, 2, (6,)), 0xFFFFFF, out=y)
        np.square(x, out=r2, dtype=np.float32)
        r2 += np.square(y, out=y2, dtype=np.float32)
        inside = np.count_nonzero(np.less_equal(r2, _MC_SURELY_IN, out=mask))
        if np.count_nonzero(np.less_equal(r2, _MC_SURELY_OUT, out=mask)) > inside:
            near = np.flatnonzero(mask & (r2 > _MC_SURELY_IN))
            xn = x[near].astype(np.int64)
            yn = y[near].astype(np.int64)
            inside += np.count_nonzero(xn * xn + yn * yn <= _MC_RADIUS_SQ)
        self.mc_inside += int(inside)
        self.mc_points += points

    def merge(self, later: "_ByteStats") -> None:
        """Fold in the stats of the bytes that follow this pass's; this
        pass holds whole 6-byte points. Every sum is exact, so the result
        is that of one pass over both."""
        self.counts += later.counts
        self.n += later.n
        self.first = self.first or later.first
        for prev, nxt in zip(self.last, later.first):
            self.cross_sum += prev * nxt
        self.cross_sum += later.cross_sum
        self.last = later.last or self.last
        self.mc_inside += later.mc_inside
        self.mc_points += later.mc_points

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
    expanded. Each read's whole 128-bit rows (16 bytes, one block-frequency
    block) are counted first: one popcount pass and a sum per row give the
    ones in every row, hence block frequency, and one cumulative sum gives
    the walk S_k at every row end. A row's ones bound its walk, and only
    the rows whose bound passes the read's lowest or highest row end, or
    the running extreme, are walked byte by byte: they are gathered and
    laid out byte-major, so byte i of every such row is contiguous, and the
    walk inside a row is 15 int16 adds. Only the last read can end inside a
    row, and its bytes after the last whole row are walked one at a time.
    """

    def __init__(self):
        self.n = 0               # bits
        self.ones = 0
        self.transitions = 0
        self.first = b""         # first byte of the stream, a copy
        self.last = b""          # final byte of the previous block, a copy
        self.bf_sum_sq = 0       # sum over rows of (ones_in_row - 64)^2
        self.bf_blocks = 0
        self.running = 0         # S_k at the end of the last byte read
        self.min_s = 0           # min over k >= 0 of S_k so far
        self.max_s = 0

    def update(self, block, counts: np.ndarray, work: np.ndarray) -> None:
        """``block`` may be a view; every block but the last holds whole
        16-byte rows. ``work`` is scratch of at least ``3 * len(block)`` bytes."""
        self.n += 8 * len(block)
        self.ones += int(counts @ POPCOUNT)
        # Runs: transitions inside each byte, then between adjacent bytes
        # (low bit of one against the high bit of the next), and across the
        # seam with the previous block.
        self.transitions += int(counts @ INTRA)
        a = np.frombuffer(block, np.uint8)
        low, high, differ = _carve(work, a.size - 1, np.uint8, np.uint8, np.bool_)
        np.bitwise_and(a[:-1], 1, out=low)
        np.right_shift(a[1:], 7, out=high)
        self.transitions += int(np.count_nonzero(np.not_equal(low, high, out=differ)))
        for prev in self.last:
            self.transitions += (prev & 1) != (block[0] >> 7)
        self.first = self.first or bytes(block[:1])
        self.last = bytes(block[-1:])

        rows = len(block) // _BLOCK_FREQ_BYTES
        if rows:
            dev = _row_ones(block, rows, work)
            dev -= 64                   # ones - 64; S rises by 2 * dev over the row

            # Block frequency sums dev^2. ends[r] is S at the end of row r,
            # relative to self.running.
            self.bf_sum_sq += int(dev @ dev)
            self.bf_blocks += rows
            ends = np.cumsum(dev)
            ends *= 2

            # Cumulative sums. A row that ends at e and holds k ones stays within
            # [e - k, e - k + 128]: its walk falls below e by at most its ones
            # and rises above its start by at most them. Row ends are values of
            # S, so only a row whose bound passes strictly beyond the lowest or
            # highest of them, or the running extreme, can hold a new extreme.
            bottom = min(self.min_s - self.running, int(ends.min()))
            top = max(self.max_s - self.running, int(ends.max()))
            low = np.subtract(ends, dev, out=dev)   # dev is not read again
            low -= 64                   # e - k
            walked = np.flatnonzero((low < bottom) | (low > top - _BLOCK_FREQ_BITS))
            if walked.size:
                # Byte i of every walked row together. np.take copies whole rows
                # many times faster than whole[walked].
                whole = np.ndarray((rows, _BLOCK_FREQ_BYTES), np.uint8, block)
                cols = np.take(whole, walked, axis=0).T.tobytes()

                def table(t):
                    return np.frombuffer(cols.translate(t), np.int8).reshape(-1, walked.size)

                # walk[i, r] = S at the end of byte i of row r, relative to the
                # row's start; int16 is exact, as |walk| <= 128. These row adds
                # run about 3x faster than np.cumsum along axis 0.
                step = table(_STEP_T)
                (walk,) = _carve(work, step.size, np.int16)
                walk = walk.reshape(step.shape)
                walk[0] = step[0]
                for i in range(1, _BLOCK_FREQ_BYTES):
                    np.add(walk[i - 1], step[i], out=walk[i])
                del step                # freed before the next table is made

                # Each byte's in-byte extremes, offset from the walk at its end,
                # bound every S_k it contributes.
                starts = ends[walked] - walk[-1]
                walk += table(_LOW_T)
                bottom = min(bottom, int((starts + walk.min(axis=0)).min()))
                walk += table(_SPAN_T)
                top = max(top, int((starts + walk.max(axis=0)).max()))
            self.min_s = self.running + bottom
            self.max_s = self.running + top
            self.running += int(ends[-1])
        # An unfinished row, which only the last read has, counts for the walk only.
        for byte in block[rows * _BLOCK_FREQ_BYTES:]:
            self.min_s = min(self.min_s, self.running + WMIN[byte])
            self.max_s = max(self.max_s, self.running + WMAX[byte])
            self.running += STEP[byte]

    def merge(self, later: "_BitStats") -> None:
        """Fold in the stats of the bytes that follow this pass's; this
        pass holds whole 16-byte rows. Counts add, the seam adds one
        transition, and the later walk starts where this one ends."""
        self.n += later.n
        self.ones += later.ones
        self.transitions += later.transitions
        for prev, nxt in zip(self.last, later.first):
            self.transitions += (prev & 1) != (nxt >> 7)
        self.first = self.first or later.first
        self.last = later.last or self.last
        self.bf_sum_sq += later.bf_sum_sq
        self.bf_blocks += later.bf_blocks
        self.min_s = min(self.min_s, self.running + later.min_s)
        self.max_s = max(self.max_s, self.running + later.max_s)
        self.running += later.running

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


def _carve(work: np.ndarray, count: int, *dtypes) -> list:
    """Consecutive ``count``-element arrays of each dtype, views laid out
    from the start of the uint8 array ``work``."""
    sizes = [count * np.dtype(d).itemsize for d in dtypes]
    ends = itertools.accumulate(sizes)
    return [work[end - size:end].view(d) for d, size, end in zip(dtypes, sizes, ends)]


def _byte_counts(block, work: np.ndarray) -> np.ndarray:
    """The 256-bin histogram of ``block``, from one ``np.bincount`` of its
    native uint16 pairs; ``work`` holds at least ``4 * len(block)`` bytes.

    The pairs are written into an intp view of ``work``, so bincount makes
    no widened copy. Row and column sums of the 256 x 256 pair counts give
    the counts of one byte of each pair and of the other; an odd last byte
    is added by hand."""
    pairs = len(block) // 2
    (index,) = _carve(work, pairs, np.intp)
    index[...] = np.frombuffer(block, np.uint16, pairs)
    square = np.bincount(index, minlength=1 << 16).reshape(256, 256)
    counts = square.sum(axis=0) + square.sum(axis=1)
    if len(block) % 2:
        counts[block[-1]] += 1
    return counts


def _consume(src: BinaryIO, *accumulators) -> tuple:
    """Read ``src`` once, feeding every accumulator each block and its
    256-bin byte histogram; returns the accumulators. A block is the largest
    multiple of 48 = lcm(6, 16) bytes not above ``BLOCK_BYTES``, at least 48;
    ``fill_blocks`` reads each into a buffer that its thread holds.

    A regular file with more than one block left is read as two halves at
    once, by the caller and one worker thread, each through a ``_Range``
    reader into fresh accumulators; numpy's loops release the GIL, so the
    halves overlap on two cores. The cut is a multiple of 48 bytes past the
    file's position, so no Monte Carlo point or 128-bit row straddles it,
    and each accumulator's ``merge`` folds the second half into the first.
    Every sum is an exact integer, so the results are those of one pass,
    which pipes, in-memory streams and files of one block take. If the
    caller's half raises, the worker stops at its next block.
    """
    # Looked up here, not bound as a default, so that tests can move block
    # boundaries by patching this module's BLOCK_BYTES.
    size = max(48, BLOCK_BYTES - BLOCK_BYTES % 48)

    def blocks(reader):
        # Per thread; a memoryview gives ints, where uint8 wraps seam products.
        return fill_blocks(reader, memoryview(np.empty(size, np.uint8)))

    span = _file_range(src, size)
    if span is None:
        _feed(accumulators, blocks(src), size)
        return accumulators
    fd, start, stop = span
    # About half, in whole 48-byte units; neither half is empty.
    cut = start + max(48, (stop - start) // 96 * 48)
    later = [type(acc)() for acc in accumulators]
    failed = []
    halt = threading.Event()

    def second_half():
        try:
            _feed(later, blocks(_Range(fd, cut, stop)), size, halt)
        except BaseException as exc:    # raised again in the caller
            failed.append(exc)

    worker = threading.Thread(target=second_half, name="permwhite-stats")
    worker.start()
    try:
        _feed(accumulators, blocks(_Range(fd, start, cut)), size)
    except BaseException:
        halt.set()      # the worker's half is moot: it stops at its next block
        raise
    finally:
        worker.join()
    if failed:
        raise failed[0]
    src.seek(stop)      # where one pass would leave the file
    for acc, other in zip(accumulators, later):
        acc.merge(other)
    return accumulators


class _Range:
    """Reads offsets [pos, stop) of ``fd`` by ``os.preadv`` at a moving
    offset; no file position moves, so threads may read one file at once."""

    def __init__(self, fd: int, pos: int, stop: int):
        self.fd, self.pos, self.stop = fd, pos, stop

    def readinto(self, buf) -> int:
        got = os.preadv(self.fd, [buf[:self.stop - self.pos]], self.pos)
        self.pos += got
        return got


def _file_range(src: BinaryIO, size: int):
    """``(fd, start, stop)`` when ``src`` is a file object reading a regular
    file straight from its descriptor, with more than ``size`` bytes from
    its position ``start`` to its end ``stop``; else None. A wrapper such
    as ``gzip.GzipFile`` shares its file's descriptor but not its bytes, so
    only a file object whose raw stream is an ``io.FileIO`` qualifies, and
    only where ``os.preadv`` exists."""
    if not (hasattr(os, "preadv") and isinstance(getattr(src, "raw", src), io.FileIO)):
        return None
    fd = src.fileno()
    info = os.fstat(fd)
    if not stat.S_ISREG(info.st_mode) or info.st_size - src.tell() <= size:
        return None
    return fd, src.tell(), info.st_size


def _feed(accumulators, blocks, size: int, halt=None) -> None:
    """Feed every block of ``blocks`` and its histogram to each accumulator
    as ``update(block, counts, work)``, reading no further block once the
    event ``halt`` is set. ``work`` is the one scratch array of ``4 * size``
    bytes that serves the whole pass: the histogram's index, then each
    accumulator in turn. Made once, it spares the allocator a
    block-sized request per read. Block-sized temporaries freed after every
    read can let it return the heap's top to the kernel, which then faults
    the pages in again on the next read, at about half the speed. Each
    thread makes its own, so that it comes from that thread's heap."""
    work = np.empty(4 * size, np.uint8)
    for block in blocks:
        counts = _byte_counts(block, work)
        for acc in accumulators:
            acc.update(block, counts, work)
        if halt is not None and halt.is_set():
            return


def analyze(src: BinaryIO) -> tuple[EntReport, NistLiteReport]:
    """Both batteries from one read of ``src``; the preconditions of
    ``ent_analyze`` and ``nist_lite`` apply, in that order."""
    byte_stats, bit_stats = _consume(src, _ByteStats(), _BitStats())
    return byte_stats.report(), bit_stats.report()


def ent_analyze(src: BinaryIO) -> EntReport:
    """All five byte-mode statistics in one pass. Needs at least 6 bytes."""
    return _consume(src, _ByteStats())[0].report()


def monte_carlo_pi(src: BinaryIO) -> float:
    """Estimate pi from disjoint 6-byte points (X, Y as 24-bit coordinates);
    a point is inside when X^2 + Y^2 <= (2^24 - 1)^2. Leftover bytes are
    ignored."""
    return _consume(src, _ByteStats())[0].monte_carlo_pi()


def serial_correlation(src: BinaryIO) -> tuple[float, bool]:
    """Circular lag-1 Pearson correlation of the byte sequence.

    Returns (value, defined); a constant stream has zero variance, for
    which (0.0, False) is returned.
    """
    return _consume(src, _ByteStats())[0].serial_correlation()


def nist_lite(src: BinaryIO) -> NistLiteReport:
    """Monobit, 128-bit block frequency, runs, and both cumulative sums.

    Requires at least 128 bits (the block-frequency test needs one full
    block; monobit alone would need 100).
    """
    return _consume(src, _BitStats())[0].report()


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

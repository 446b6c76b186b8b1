"""Stream whitening: frame a byte stream into N-bit chunks, permute each
chunk with a randomly selected pool member, and emit the result.

Output size always equals input size. A final partial chunk (possible only
when N > 8, since every byte then may not fill a whole chunk) is copied
through unchanged rather than padded or dropped. Each direction is one
loop, in one thread, over the blocks that ``_blocks`` reads: whitening draws
a block's selections in chunk-ordinal order and records them, unwhitening
slices them from the trace; then the block is permuted and written.

Two kernels permute a block's chunks, and each returns the block as one
1-D uint8 array that is written as it is. Chunks of at most 8 bits go
through one 2^N-entry table per pool member. Larger chunks are bit-sliced:
the chunks that selected one member are stacked in groups of 8 rows, and an
8x8 bit transpose across each group's rows, in place, gathers bit p of the
8 chunks into one byte, the group's plane ``P(p) = (p & 7) * B + (p >> 3)``
for chunks of B bytes. The member's map carried into plane order,
``P . map . P^-1``, then moves bytes instead of bits, and the same transpose
turns the planes back into rows. Each member's plane-order map is built
from its own map (its inverse when unwhitening) the first time a block
selects it.
"""

from __future__ import annotations

import functools
import os
import stat
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from ._util import iter_blocks
from ._util import read_end as _read_end
from ._util import read_exact as _read_exact
from .entropy import EntropySource
from .errors import FormatError
from .permutation import DEFAULT_MAX_QUBITS, MatrixPool

TRACE_MAGIC = b"PWTR"
TRACE_VERSION = 1
_TRACE_HEADER = struct.Struct("<4sHIQ")


@dataclass
class WhitenConfig:
    """Defaults reproduce the flagship setup: 8192-bit chunks, 32 matrices."""

    n_qubits: int = 13
    pool_count: int = 32
    record_selections: bool = False


@dataclass
class SelectionTrace:
    """Pool index chosen for each full chunk, in chunk-ordinal order."""

    chunk_bits: int
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.uint32)

    def __len__(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SelectionTrace):
            return NotImplemented
        return self.chunk_bits == other.chunk_bits and bool(
            np.array_equal(self.indices, other.indices)
        )


def frame(input_bit_length: int, n_bits: int) -> tuple[int, int]:
    """Split a bit count into (full chunk count, tail bit count)."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    return input_bit_length // n_bits, input_bit_length % n_bits


def whiten_stream(
    input: BinaryIO,
    pool: MatrixPool,
    cfg: WhitenConfig,
    selector: EntropySource,
    output: BinaryIO,
    workers: int = 1,
) -> Optional[SelectionTrace]:
    """Whiten ``input`` into ``output``; returns the trace if recording.
    ``workers`` is accepted for compatibility and ignored."""
    if pool.size != 1 << cfg.n_qubits:
        raise ValueError(
            f"pool/config mismatch: pool chunk size {pool.size}, "
            f"config expects {1 << cfg.n_qubits}"
        )
    if pool.count != cfg.pool_count:
        raise ValueError(
            f"pool/config mismatch: pool has {pool.count} permutations, "
            f"config expects {cfg.pool_count}"
        )

    permute = _kernel(pool, lambda m: pool.permutations[m].map)
    # One growing buffer, viewed as the trace at the end without a copy.
    recorded = bytearray() if cfg.record_selections else None
    for full, chunks, tail in _blocks(input, pool.size):
        sel = selector.random_indices(pool.count, chunks)
        if recorded is not None:
            recorded.extend(np.ascontiguousarray(sel, dtype="<u4"))
        output.write(permute(full, sel))
        if tail:
            output.write(tail)
    if recorded is None:
        return None
    return SelectionTrace(chunk_bits=pool.size,
                          indices=np.frombuffer(recorded, dtype="<u4"))


def check_trace(pool: MatrixPool, trace: SelectionTrace, input: BinaryIO) -> None:
    """Raise ValueError unless ``pool`` has ``trace``'s chunk size and members,
    and a regular file ``input`` holds ``len(trace)`` chunks past its position."""
    if trace.chunk_bits != pool.size:
        raise ValueError(f"trace chunk size {trace.chunk_bits} != pool chunk size {pool.size}")
    top = int(trace.indices.max(initial=0))
    if top >= pool.count:
        raise ValueError(f"trace selects index {top} but the pool holds only "
                         f"{pool.count} permutations")
    try:
        info = os.fstat(input.fileno())
    except (AttributeError, OSError):    # no file behind the input
        return
    if stat.S_ISREG(info.st_mode):
        chunks = frame(8 * max(0, info.st_size - input.tell()), pool.size)[0]
        if chunks != len(trace):
            raise ValueError(f"input {input.name} holds {chunks} chunks of "
                             f"{pool.size} bits, but the trace records {len(trace)}")


def unwhiten_stream(
    input: BinaryIO,
    pool: MatrixPool,
    trace: SelectionTrace,
    output: BinaryIO,
) -> None:
    """Invert a whitening run recorded in ``trace``; bit-exact recovery."""
    check_trace(pool, trace, input)
    permute = _kernel(pool, lambda m: pool.permutations[m].invert().map)
    total, done = trace.indices.size, 0
    for full, chunks, tail in _blocks(input, pool.size):
        if done + chunks > total:
            raise ValueError(f"trace too short: {total} entries, "
                             f"input has more than {done + chunks - 1} chunks")
        output.write(permute(full, trace.indices[done:done + chunks]))
        done += chunks
        if tail:
            output.write(tail)
    if done != total:
        raise ValueError(f"trace too long: {total} entries for {done} chunks")


def _blocks(input, chunk_bits):
    """Each block of ``input`` as (full chunks' bytes, chunk count, tail of
    whole bytes); a chunk holds at most 8 KiB, so only the last block has a tail."""
    for block in iter_blocks(input):
        chunks, tail_bits = frame(8 * len(block), chunk_bits)
        full = len(block) - tail_bits // 8
        yield block[:full], chunks, block[full:]


def _kernel(pool, member_map):
    """The table kernel for chunks of at most 8 bits, else the sliced one."""
    kernel = _table_kernel if pool.size <= 8 else _sliced_kernel
    return kernel(pool.count, member_map, pool.size)


def _table_kernel(count, member_map, chunk_bits):
    """Chunks of at most 8 bits: each byte holds 8/N whole chunks, and one
    2^N-entry table per pool member maps a chunk value to its permuted
    value. The tables are stored flat, member m at ``m << N``."""
    top = chunk_bits - 1
    values = np.arange(1 << chunk_bits, dtype=np.uint8)
    columns = np.stack([member_map(m) for m in range(count)])
    tables = np.zeros((count, 1 << chunk_bits), dtype=np.uint8)
    for i in range(chunk_bits):
        # Output bit i (bit 0 is the chunk's most significant) is input bit columns[:, i].
        src_shift = (top - columns[:, i]).astype(np.uint8)[:, None]
        tables |= ((values >> src_shift) & 1) << np.uint8(top - i)
    tables = tables.ravel()
    mask = (1 << chunk_bits) - 1
    per_byte = 8 // chunk_bits

    def process(buf: bytes, sel: np.ndarray) -> np.ndarray:
        data = np.frombuffer(buf, dtype=np.uint8)
        out = np.zeros_like(data)
        for j in range(per_byte):
            shift = 8 - chunk_bits * (j + 1)
            idx = (sel[j::per_byte].astype(np.intp) << chunk_bits) | ((data >> shift) & mask)
            out |= tables.take(idx) << shift
        return out

    return process


# Warren, Hacker's Delight, 7-3: transpose an 8x8 bit matrix by three rounds
# of masked shift/xor. Take row r as a byte and column c as its bit c from
# the most significant. The round of distance d (4, 2, 1) swaps row r,
# column c with row r + d, column c - d wherever r lacks bit d and c has it:
# byte mask 0x0F, 0x33, 0x55 in the least-significant-first numbering of
# the bits. After the three rounds row k holds column k of every row, row r
# as its bit r, so the transpose is its own inverse.
_WORD = np.dtype("<u8")
_ROUNDS = ((4, 0x0F), (2, 0x33), (1, 0x55))

# Words per pass of the transpose: its array operations then run on 256 KiB
# that stays in cache, not on a whole (padded) block. A pass holds whole
# groups, since a group of 8 rows of at most 8 KiB is at most 8192 words.
_TRANSPOSE_SLICE = 1 << 15


# Cached per row size: a run uses one, and chunks of 2^4..2^16 bits have 13.
@functools.lru_cache(maxsize=None)
def _transpose_rounds(row_bytes: int) -> tuple:
    """The three rounds for rows of ``row_bytes`` bytes, as (word distance
    k, shift, mask). Row r + d's byte lies ``span = d * row_bytes`` bytes
    after row r's, in the little-endian words: ``span // 8`` words on and
    ``8 * (span % 8)`` bits up, plus the round's bit shift d. So word i
    pairs with word i + k, and the mask is one pass of words, read-only,
    holding the byte mask on a lower row's bytes and 0 on an upper row's:
    period 2 * span bytes, which divides a group and so every pass's start.
    One pass over every word with it beats numpy's strided views of the
    paired rows, whose runs are short."""
    rounds = []
    for d, byte_mask in _ROUNDS:
        span = d * row_bytes
        period = np.repeat(np.array([byte_mask, 0], dtype=np.uint8), span)
        mask = np.tile(period, _TRANSPOSE_SLICE * 8 // (2 * span)).view(_WORD)
        mask.setflags(write=False)
        rounds.append((span // 8, np.uint64(8 * (span % 8) + d), mask))
    return tuple(rounds)


def _bit_transpose(words: np.ndarray, row_bytes: int = 1) -> None:
    """Transpose, in place, the bit matrices of contiguous ``words`` that
    hold whole groups of 8 rows of ``row_bytes`` bytes; byte j of a group's
    8 rows is one matrix. Afterwards row k, byte j holds bit 8j + k of the
    group's 8 rows, row r as its bit r, MSB first."""
    words = words.reshape(-1)
    scratch = np.empty(min(words.size, _TRANSPOSE_SLICE), dtype=_WORD)
    rounds = _transpose_rounds(row_bytes)
    for start in range(0, words.size, _TRANSPOSE_SLICE):
        w = words[start:start + _TRANSPOSE_SLICE]
        for k, shift, mask in rounds:
            lo, hi = w[:w.size - k], w[k:]
            t = scratch[:lo.size]
            np.right_shift(hi, shift, out=t)
            t ^= lo
            t &= mask[:t.size]
            lo ^= t
            t <<= shift
            hi ^= t


def _plane_map(bit_map: np.ndarray) -> np.ndarray:
    """``bit_map`` (``out[i] = in[bit_map[i]]`` over chunk bits) carried into
    plane order, ``P . bit_map . P^-1``. Every plane index is below 2^16,
    since N <= 2^16, so uint16 holds them."""
    chunk_bytes = bit_map.size // 8
    # bit[k, j] = bit_map[8j + k], the source of plane P(8j + k) = k * B + j.
    bit = bit_map.reshape(chunk_bytes, 8).T.astype(np.uint16, order="C")
    return ((bit & 7) * chunk_bytes + (bit >> 3)).reshape(-1)


def _sliced_kernel(count, member_map, chunk_bits):
    """Chunks of 16 or more bits, bit-sliced (Biham, FSE 1997). The chunks
    that selected one member are stacked in groups of 8 rows of B bytes, and
    an 8x8 bit transpose across each group's rows, in place, leaves row k,
    byte j holding chunk bit 8j + k of all 8 rows. Chunk bit p is then byte
    ``P(p) = (p & 7) * B + (p >> 3)`` of the group's 8B bytes, its plane.
    Permuting a chunk's bits is permuting the group's planes through the
    member's map in plane order, ``P . map . P^-1``, one ``take`` per
    member, and a second transpose turns the planes back into rows. The
    array a block returns lives in a buffer that the next block reuses."""
    chunk_bytes = chunk_bits // 8
    # Sorting one- or two-byte keys takes numpy's stable radix sort.
    key_dtype = np.min_scalar_type(count - 1)

    @functools.lru_cache(maxsize=None)
    def plane_map(m):
        return _plane_map(member_map(m))

    # Two block buffers, kept across blocks so that their pages are not
    # faulted in afresh for each block; they grow to the largest padded block.
    held = []

    def buffers(size):
        if not held or held[0].size < size:
            held.clear()
            held.extend(np.empty(size, dtype=np.uint8) for _ in range(2))
        return held[0][:size], held[1][:size]

    def process(buf: bytes, sel: np.ndarray) -> np.ndarray:
        rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, chunk_bytes)
        # Group the rows by member, in stable order, with each member's rows
        # padded to whole groups of 8 by sort keys after them. A pad's index
        # lies past the last row: "clip" reads that row, dropped at the end.
        counts = np.bincount(sel, minlength=count)
        groups = (counts + 7) // 8
        first = np.cumsum(groups) - groups
        pads = np.repeat(np.arange(count, dtype=key_dtype), 8 * groups - counts)
        order = np.argsort(np.concatenate((sel.astype(key_dtype), pads)), kind="stable")
        grouped, permuted = buffers(order.size * chunk_bytes)
        np.take(rows, order, axis=0, out=grouped.reshape(-1, chunk_bytes), mode="clip")

        _bit_transpose(grouped.view(_WORD), chunk_bytes)
        planes = grouped.reshape(-1, chunk_bits)
        for m in np.flatnonzero(counts):
            g = slice(first[m], first[m] + groups[m])
            np.take(planes[g], plane_map(m), axis=1,
                    out=permuted.reshape(-1, chunk_bits)[g], mode="clip")
        _bit_transpose(permuted.view(_WORD), chunk_bytes)

        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        # grouped is dead once permuted is written; its buffer takes the rows.
        out = grouped[:rows.size]
        np.take(permuted.reshape(-1, chunk_bytes), where[:len(rows)], axis=0,
                out=out.reshape(-1, chunk_bytes), mode="clip")
        return out

    return process


def trace_save(trace: SelectionTrace, sink: BinaryIO) -> None:
    """Write the binary trace format (little-endian, CRC32 of the indices)."""
    sink.write(_TRACE_HEADER.pack(TRACE_MAGIC, TRACE_VERSION,
                                  trace.chunk_bits, trace.indices.size))
    # No copy for the native little-endian uint32 arrays traces hold.
    payload = np.ascontiguousarray(trace.indices, dtype="<u4")
    sink.write(payload)
    sink.write(struct.pack("<I", zlib.crc32(payload)))


def trace_load(source: BinaryIO) -> SelectionTrace:
    head = _read_exact(source, _TRACE_HEADER.size, "trace header")
    magic, version, chunk_bits, count = _TRACE_HEADER.unpack(head)
    if magic != TRACE_MAGIC:
        raise FormatError(f"bad magic {magic!r}: not a trace file")
    if version != TRACE_VERSION:
        raise FormatError(f"unsupported trace format version {version}")
    # The CRC covers only the indices, so the header's chunk size is checked here.
    if chunk_bits & (chunk_bits - 1) or not 2 <= chunk_bits <= 1 << DEFAULT_MAX_QUBITS:
        raise FormatError(f"trace chunk size {chunk_bits} is not 2^n for n in "
                          f"1..{DEFAULT_MAX_QUBITS}")
    payload = _read_exact(source, count * 4, "trace indices")
    (crc,) = struct.unpack("<I", _read_exact(source, 4, "trace CRC"))
    if zlib.crc32(payload) != crc:
        raise FormatError("trace CRC mismatch")
    _read_end(source, "the trace CRC")
    return SelectionTrace(chunk_bits=chunk_bits,
                          indices=np.frombuffer(payload, dtype="<u4"))

"""Stream whitening: frame a byte stream into N-bit chunks, permute each
chunk with a randomly selected pool member, and emit the result.

Output size always equals input size. A final partial chunk (possible only
when N > 8, since every byte then may not fill a whole chunk) is copied
through unchanged rather than padded or dropped. Whitening runs in one
thread: each block's selections are drawn in chunk-ordinal order, then the
block is permuted and written. The ``workers`` keyword of ``whiten_stream``
and ``unwhiten_stream`` is accepted for compatibility and ignored.

Two kernels permute a block's chunks. Chunks of at most 8 bits go through
one 2^N-entry table per pool member. Larger chunks are bit-sliced: grouped
8 at a time per member, an 8x8 bit transpose turns bit p of the 8 chunks
into byte p, the member's own map then moves bytes instead of bits, and
the same transpose turns the bytes back into chunks.
"""

from __future__ import annotations

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

    # One growing buffer, viewed as the trace at the end without a copy.
    recorded = bytearray() if cfg.record_selections else None

    def draw(n_chunks: int) -> np.ndarray:
        sel = selector.random_indices(pool.count, n_chunks)
        if recorded is not None:
            recorded.extend(np.ascontiguousarray(sel, dtype="<u4"))
        return sel

    _transform(input, output, pool.size, [p.map for p in pool.permutations], draw)

    if recorded is None:
        return None
    return SelectionTrace(chunk_bits=pool.size,
                          indices=np.frombuffer(recorded, dtype="<u4"))


def unwhiten_stream(
    input: BinaryIO,
    pool: MatrixPool,
    trace: SelectionTrace,
    output: BinaryIO,
    workers: int = 1,
) -> None:
    """Invert a whitening run recorded in ``trace``; bit-exact recovery.
    ``workers`` is accepted for compatibility and ignored."""
    if trace.chunk_bits != pool.size:
        raise ValueError(
            f"trace chunk size {trace.chunk_bits} != pool chunk size {pool.size}"
        )
    if trace.indices.size and int(trace.indices.max()) >= pool.count:
        raise ValueError(
            f"trace selects index {int(trace.indices.max())} "
            f"but the pool holds only {pool.count} permutations"
        )
    consumed = 0

    def draw(n_chunks: int) -> np.ndarray:
        nonlocal consumed
        if consumed + n_chunks > trace.indices.size:
            raise ValueError(
                f"trace too short: {trace.indices.size} entries, "
                f"input has more than {consumed + n_chunks - 1} chunks"
            )
        sel = trace.indices[consumed:consumed + n_chunks]
        consumed += n_chunks
        return sel

    _transform(input, output, pool.size,
               [p.invert().map for p in pool.permutations], draw)
    if consumed != trace.indices.size:
        raise ValueError(
            f"trace too long: {trace.indices.size} entries for {consumed} chunks"
        )


def _transform(input, output, chunk_bits, maps, draw):
    """Shared streaming loop. ``draw(n)`` supplies pool indices per block;
    ``maps`` holds one index map per pool member, ``out[i] = in[maps[m][i]]``.
    ``frame()`` cuts each block into chunks and a tail of whole bytes, copied
    through; a chunk holds at most 8 KiB, so only the last block has a tail."""
    kernel = _table_kernel if chunk_bits <= 8 else _sliced_kernel
    permute = kernel(maps, chunk_bits)
    for block in iter_blocks(input):
        chunks, tail_bits = frame(8 * len(block), chunk_bits)
        full = len(block) - tail_bits // 8
        output.write(permute(block[:full], draw(chunks)) + block[full:])


def _table_kernel(maps, chunk_bits):
    """Chunks of at most 8 bits: each byte holds 8/N whole chunks, and one
    2^N-entry table per pool member maps a chunk value to its permuted
    value. The tables are stored flat, member m at ``m << N``."""
    top = chunk_bits - 1
    values = np.arange(1 << chunk_bits, dtype=np.uint8)
    columns = np.stack(maps)
    tables = np.zeros((len(maps), 1 << chunk_bits), dtype=np.uint8)
    for i in range(chunk_bits):
        # Output bit i (bit 0 is the chunk's most significant) is input bit columns[:, i].
        src_shift = (top - columns[:, i]).astype(np.uint8)[:, None]
        tables |= ((values >> src_shift) & 1) << np.uint8(top - i)
    tables = tables.ravel()
    mask = (1 << chunk_bits) - 1
    per_byte = 8 // chunk_bits

    def process(buf: bytes, sel: np.ndarray) -> bytes:
        data = np.frombuffer(buf, dtype=np.uint8)
        out = np.zeros_like(data)
        for j in range(per_byte):
            shift = 8 - chunk_bits * (j + 1)
            idx = (sel[j::per_byte].astype(np.intp) << chunk_bits) | ((data >> shift) & mask)
            out |= tables.take(idx) << shift
        return out.tobytes()

    return process


# Warren, Hacker's Delight, 7-3: transpose the 8x8 bit matrix held in a
# little-endian uint64 by three masked shift/xor rounds. Row r is byte r and
# column c its bit c from the most significant, which in the uint64's own bit
# numbering is the anti-diagonal transpose: byte c of the result holds column
# c of every row, row r as its bit r, MSB first. It is its own inverse.
_WORD = np.dtype("<u8")
_TRANSPOSE_ROUNDS = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (9, 0x0055005500550055), (18, 0x0000333300003333), (36, 0x000000000F0F0F0F)))

# Words per pass of the transpose: its 18 array operations then run on
# 256 KiB that stays in cache, not on a whole (padded) block.
_TRANSPOSE_SLICE = 1 << 15


def _bit_transpose(words: np.ndarray) -> None:
    """Transpose the 8x8 bit matrix in every uint64 of contiguous ``words``,
    in place."""
    words = words.reshape(-1)
    scratch = np.empty(min(words.size, _TRANSPOSE_SLICE), dtype=words.dtype)
    for start in range(0, words.size, _TRANSPOSE_SLICE):
        w = words[start:start + _TRANSPOSE_SLICE]
        t = scratch[:w.size]
        for shift, mask in _TRANSPOSE_ROUNDS:
            np.right_shift(w, shift, out=t)
            t ^= w
            t &= mask
            w ^= t
            t <<= shift
            w ^= t


def _sliced_kernel(maps, chunk_bits):
    """Chunks of 16 or more bits, bit-sliced (Biham, FSE 1997): the chunks
    that selected one member are stacked in groups of 8, and an 8x8 bit
    transpose of byte j of the 8 chunks makes byte p of the result hold
    chunk bit 8j + p of all 8 of them. Permuting a chunk's bits is then
    permuting the group's bytes through the member's own map, one ``take``
    per member, and a second transpose turns the bytes back into chunks."""
    chunk_bytes = chunk_bits // 8
    # Sorting one- or two-byte keys takes numpy's stable radix sort.
    key_dtype = np.min_scalar_type(len(maps) - 1)

    def process(buf: bytes, sel: np.ndarray) -> bytes:
        rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, chunk_bytes)
        # Group the rows by member, in stable order, and pad each member's
        # rows to whole groups of 8 with copies of row 0 (dropped at the end).
        order = np.argsort(sel.astype(key_dtype), kind="stable")
        counts = np.bincount(sel, minlength=len(maps))
        groups = (counts + 7) // 8
        first = np.cumsum(groups) - groups
        slot = np.arange(len(order)) + np.repeat(8 * first + counts - np.cumsum(counts), counts)
        source = np.zeros(8 * int(groups.sum()), dtype=np.intp)
        source[slot] = order
        grouped = rows.take(source, axis=0).reshape(-1, 8, chunk_bytes)

        # (group, row, byte) -> (group, byte, row): one uint64 per byte j.
        sliced = np.ascontiguousarray(grouped.transpose(0, 2, 1))
        _bit_transpose(sliced.view(_WORD))
        planes = sliced.reshape(-1, chunk_bits)
        # grouped is dead once sliced is copied out of it; reuse its buffer.
        permuted = grouped.reshape(-1, chunk_bits)
        for m in np.flatnonzero(counts):
            g = slice(first[m], first[m] + groups[m])
            # The maps are in range; "clip" lets take write straight into out.
            np.take(planes[g], maps[m], axis=1, out=permuted[g], mode="clip")
        _bit_transpose(permuted.view(_WORD))

        unsliced = permuted.reshape(-1, chunk_bytes, 8).transpose(0, 2, 1)
        where = np.empty(len(order), dtype=np.intp)
        where[order] = slot
        return unsliced.reshape(-1, chunk_bytes).take(where, axis=0).tobytes()

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

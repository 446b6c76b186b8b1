"""Bit-position permutations and pools of them.

An N x N permutation matrix has exactly one 1 per row, so multiplying it
with an N-bit chunk is just index gathering. Permutations are therefore
stored as a length-N index map where ``map[i]`` is the source bit position
copied into output position ``i`` (0-based; row i of the matrix has its 1 in
column ``map[i]``). Bit 0 of a chunk is the most significant bit of its
first byte, so chunks read left to right like the bit strings they model.

Two generation modes exist:

* ``fullrange`` -- the default. Every step swaps position i with a position
  drawn uniformly from the *whole* array (1..N), sweeping i downward. This
  variant is measurably non-uniform over the permutation group; it is kept
  as the default because it is the toolkit's canonical transform.
* ``unbiased`` -- the textbook Fisher-Yates shuffle: position i swaps with a
  position drawn uniformly from [i, N], sweeping i upward. Exactly uniform
  given a uniform entropy source.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from ._util import read_end as _read_end
from ._util import read_exact as _read_exact
from .entropy import EntropySource
from .errors import FormatError

DEFAULT_MAX_QUBITS = 16

POOL_MAGIC = b"PWPL"
POOL_VERSION = 1
_POOL_HEADER = struct.Struct("<4sHBBIH")


class IndexPermutation:
    """A bijection on N bit positions; immutable after construction. The
    map is uint16 when N <= 2^16, as in every pool, else uint32."""

    __slots__ = ("size", "map")

    def __init__(self, mapping):
        arr = np.asarray(mapping)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("mapping must be a non-empty 1-d sequence")
        # Before the unsigned cast, which would truncate floats and wrap integers.
        if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= arr.size:
            raise ValueError("mapping entries must be integers in 0..N-1")
        arr = arr.astype(np.uint16 if arr.size <= 1 << 16 else np.uint32)
        if np.bincount(arr, minlength=arr.size).max() != 1:
            raise ValueError("mapping is not a bijection on 0..N-1")
        arr.setflags(write=False)
        self.size = arr.size
        self.map = arr

    @classmethod
    def identity(cls, size: int) -> "IndexPermutation":
        return cls(np.arange(size, dtype=np.uint32))

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.map, np.arange(self.size, dtype=np.uint32)))

    def apply(self, chunk) -> np.ndarray:
        """Permute a length-N bit vector: ``out[i] = chunk[map[i]]``."""
        chunk = np.asarray(chunk)
        if chunk.shape != (self.size,):
            raise ValueError(f"chunk length {chunk.shape} != permutation size {self.size}")
        return chunk[self.map]

    def invert(self) -> "IndexPermutation":
        inv = np.empty(self.size, dtype=self.map.dtype)
        inv[self.map] = np.arange(self.size, dtype=self.map.dtype)
        inv.setflags(write=False)
        # The inverse of a checked bijection is one, so the constructor's
        # checks are not run again.
        out = object.__new__(IndexPermutation)
        out.size, out.map = self.size, inv
        return out

    def compose(self, other: "IndexPermutation") -> "IndexPermutation":
        """Permutation equivalent to applying ``other`` first, then ``self``."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return IndexPermutation(other.map[self.map])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexPermutation):
            return NotImplemented
        return self.size == other.size and bool(np.array_equal(self.map, other.map))

    def __hash__(self):
        return hash((self.size, self.map.tobytes()))

    def __repr__(self) -> str:
        return f"IndexPermutation(size={self.size})"


def generate_fullrange_shuffle(n_qubits: int, rng: EntropySource) -> IndexPermutation:
    """Full-range swap shuffle over N = 2**n_qubits positions.

    Draws one integer K[i] uniform on [1, N] per position (in increasing i,
    all N in one batch), then sweeps i from N down to 1 swapping S[K[i]]
    with S[i].
    """
    n = _checked_size(n_qubits)
    k = rng.random_indices(n, n).tolist()
    s = list(range(n))
    for i in range(n - 1, -1, -1):
        p = k[i]
        s[p], s[i] = s[i], s[p]
    return IndexPermutation(s)


def generate_unbiased_shuffle(n_qubits: int, rng: EntropySource) -> IndexPermutation:
    """Textbook Fisher-Yates shuffle: uniform over all N! permutations."""
    n = _checked_size(n_qubits)
    s = list(range(n))
    for i in range(n - 1):
        j = rng.random_int(i + 1, n) - 1
        s[i], s[j] = s[j], s[i]
    return IndexPermutation(s)


SHUFFLE_MODES = {
    "fullrange": generate_fullrange_shuffle,
    "unbiased": generate_unbiased_shuffle,
}


def _checked_size(n_qubits: int) -> int:
    """Chunk size 2**n_qubits; n_qubits up to 16 keeps a chunk within 8 KiB,
    a divisor of the 1 MiB block that whitening reads."""
    if not 1 <= n_qubits <= DEFAULT_MAX_QUBITS:
        raise ValueError(f"n_qubits {n_qubits} outside 1..{DEFAULT_MAX_QUBITS}")
    return 1 << n_qubits


@dataclass(frozen=True)
class MatrixPool:
    """An ordered set of same-size permutations; the unit of persistence."""

    n_qubits: int
    permutations: tuple
    generator_tag: str = field(default="")

    def __post_init__(self):
        object.__setattr__(self, "permutations", tuple(self.permutations))
        n = _checked_size(self.n_qubits)
        if len(self.permutations) < 1:
            raise ValueError("a pool needs at least one permutation")
        for p in self.permutations:
            if p.size != n:
                raise ValueError(f"permutation size {p.size} != pool size {n}")

    @property
    def size(self) -> int:
        return 1 << self.n_qubits

    @property
    def count(self) -> int:
        return len(self.permutations)


def _pool_header(n_qubits: int, count: int, generator_tag: str) -> bytes:
    """The pool file's header and tag, once ``count``, ``generator_tag`` and
    ``n_qubits`` fit it."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count >= 1 << 32:
        raise ValueError("count must be < 2^32")
    tag = generator_tag.encode("utf-8")
    if len(tag) > 0xFFFF:
        raise ValueError("generator_tag too long")
    _checked_size(n_qubits)
    return _POOL_HEADER.pack(POOL_MAGIC, POOL_VERSION, n_qubits, 0, count, len(tag)) + tag


def _draw_members(n_qubits: int, count: int, rng: EntropySource, mode: str):
    """``count`` members, each shuffled only when the iterator reaches it;
    the mode is checked at once."""
    try:
        gen = SHUFFLE_MODES[mode]
    except KeyError:
        raise ValueError(f"unknown shuffle mode: {mode!r}") from None
    return (gen(n_qubits, rng) for _ in range(count))


def _write_pool(sink: BinaryIO, header: bytes, members) -> None:
    """Write ``header``, then each member's record and its CRC32 as
    ``members`` yields it."""
    sink.write(header)
    for perm in members:
        # Records are little-endian uint32 whatever dtype the map has.
        rec = np.ascontiguousarray(perm.map, dtype="<u4")
        sink.write(rec)
        sink.write(struct.pack("<I", zlib.crc32(rec)))


def generate_pool(
    n_qubits: int,
    count: int,
    rng: EntropySource,
    mode: str = "fullrange",
    generator_tag: str = "",
) -> MatrixPool:
    _pool_header(n_qubits, count, generator_tag)
    members = _draw_members(n_qubits, count, rng, mode)
    return MatrixPool(n_qubits=n_qubits, permutations=tuple(members),
                      generator_tag=generator_tag)


def pool_save(pool: MatrixPool, sink: BinaryIO) -> None:
    """Write the binary pool format (little-endian, CRC32 per record)."""
    _write_pool(sink, _pool_header(pool.n_qubits, pool.count, pool.generator_tag),
                pool.permutations)


def pool_load(source: BinaryIO) -> MatrixPool:
    """Read and verify a pool file; any corruption raises ``FormatError``."""
    head = _read_exact(source, _POOL_HEADER.size, "header")
    magic, version, n_qubits, _reserved, count, tag_len = _POOL_HEADER.unpack(head)
    if magic != POOL_MAGIC:
        raise FormatError(f"bad magic {magic!r}: not a pool file")
    if version != POOL_VERSION:
        raise FormatError(f"unsupported pool format version {version}")
    if not 1 <= n_qubits <= DEFAULT_MAX_QUBITS:
        raise FormatError(
            f"invalid n_qubits {n_qubits} (must be 1..{DEFAULT_MAX_QUBITS})")
    if count < 1:
        raise FormatError(f"invalid permutation count {count}")
    try:
        tag = _read_exact(source, tag_len, "generator tag").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"generator tag is not UTF-8: {exc}") from None
    n = 1 << n_qubits
    perms = []
    for idx in range(count):
        rec = _read_exact(source, n * 4, f"record {idx}")
        (crc,) = struct.unpack("<I", _read_exact(source, 4, f"record {idx} CRC"))
        if zlib.crc32(rec) != crc:
            raise FormatError(f"record {idx} CRC mismatch")
        mapping = np.frombuffer(rec, dtype="<u4")
        try:
            perms.append(IndexPermutation(mapping))
        except ValueError as exc:
            raise FormatError(f"record {idx} is corrupt: {exc}") from None
    _read_end(source, "the last record")
    return MatrixPool(n_qubits=n_qubits, permutations=tuple(perms), generator_tag=tag)

"""Entropy sources feeding permutation generation and per-chunk selection.

Three kinds are provided:

* ``OsEntropy`` -- the operating system CSPRNG (``os.urandom``).
* ``SeedFileSource`` -- raw bytes consumed strictly sequentially from a file;
  draws fail once the file is exhausted (silent wrap-around would correlate
  later draws with earlier ones).
* ``CounterSource`` -- a deterministic keyed keystream for reproducible runs.

The deterministic keystream is pinned so independent implementations can
reproduce it exactly:

    key   = SHA-256(key material)                     (32 bytes)
    block(i) = SHAKE-256(key || i as 8-byte big-endian) -> 8192 bytes
    stream = block(c0) || block(c0 + 1) || ...

where ``c0`` is the starting counter, in ``[0, 2**64)``; a stream that
would need block ``2**64`` raises ``EntropyExhausted``. String key material
is UTF-8 encoded before hashing.

Integer draws use rejection sampling: a draw from ``[lo, hi]`` with span
``s = hi - lo + 1`` reads ``ceil(k/8)`` bytes per attempt, where ``k`` is the
bit length of ``s - 1``, interprets them big-endian, masks to the low ``k``
bits, and rejects values ``>= s``. Power-of-two spans never reject, so their
byte consumption is exactly ``ceil(k/8)`` per draw. A degenerate span
(``lo == hi``) consumes nothing.

``random_indices`` batches the draws that share one span: the selection
draws of whitening and the swap targets of a fullrange shuffle. A subclass
that overrides ``random_int`` (to script its integers, say) gets those
batched draws through its own ``random_int``, one at a time.
"""

from __future__ import annotations

import hashlib
import os
from typing import BinaryIO, Union

import numpy as np

from ._util import read_up_to
from .errors import EntropyExhausted

_BLOCK_BYTES = 8192
_COUNTER_LIMIT = 1 << 64    # the counter is encoded in 8 bytes
# Indexed by word width in bytes: the narrowest dtype that holds a word.
_WORD_TYPES = (None, np.uint8, np.uint16, np.uint32, np.uint32)
# Words per np.compress call, whose intp index of the kept words it bounds.
_FILTER_SLICE = 1 << 18


class EntropySource:
    """Common draw logic; subclasses supply ``read_bytes``."""

    def read_bytes(self, n: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the source holds open; a no-op by default."""

    def __enter__(self) -> "EntropySource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def random_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive, via rejection sampling."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span == 1:
            return lo
        k = (span - 1).bit_length()
        nbytes = (k + 7) // 8
        mask = (1 << k) - 1
        while True:
            v = int.from_bytes(self.read_bytes(nbytes), "big") & mask
            if v < span:
                return lo + v

    def random_index(self, m: int) -> int:
        """Uniform index in [0, m-1]; the scalar form of ``random_indices``."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.random_int(1, m) - 1

    def random_indices(self, m: int, count: int) -> np.ndarray:
        """``count`` independent draws of ``random_index(m)`` as a uint32 array.

        Each round reads one word for every draw still owed and keeps the
        words below ``m``. Every owed draw needs at least one more word, so
        the draws consume exactly the bytes, in the same order, that
        ``count`` scalar calls would, and return the same values.

        A subclass that overrides ``random_int`` gets the draws through it
        instead, as ``count`` calls of ``random_int(1, m) - 1``.
        """
        if not 1 <= m <= 1 << 32:
            raise ValueError("m must be in [1, 2**32]")
        if count < 0:
            raise ValueError("count must be >= 0")
        if type(self).random_int is not EntropySource.random_int:
            return np.array([self.random_int(1, m) - 1 for _ in range(count)], dtype=np.uint32)
        if m == 1 or count == 0:
            return np.zeros(count, dtype=np.uint32)
        k = (m - 1).bit_length()
        nbytes = (k + 7) // 8
        mask = (1 << k) - 1
        word = _WORD_TYPES[nbytes]
        # The mask cuts only the most significant byte of a word.
        top = mask >> 8 * (nbytes - 1)
        parts = []
        owed = count
        while owed:
            # The dtype goes by position: by keyword the call costs twice as much.
            raw = np.frombuffer(self.read_bytes(nbytes * owed), np.uint8)
            # Big-endian words, assembled one byte column at a time
            # (column j is raw[j::nbytes]) because 3-byte words have no
            # numpy dtype.
            values = (raw[::nbytes] & top).astype(word, copy=False)
            for j in range(1, nbytes):
                values <<= 8
                values |= raw[j::nbytes]
            # A power-of-two span never rejects; any other m fits the word's
            # dtype, where m = 256 would not. np.compress keeps the words
            # without the per-element branch of a boolean index.
            for start in range(0, values.size, _FILTER_SLICE):
                piece = values[start:start + _FILTER_SLICE]
                parts.append(np.compress(piece < m, piece) if m & (m - 1) else piece)
                owed -= parts[-1].size
        return np.concatenate(parts, dtype=np.uint32)


class OsEntropy(EntropySource):
    def read_bytes(self, n: int) -> bytes:
        return os.urandom(n)


class SeedFileSource(EntropySource):
    """Sequential reader over a raw seed file. No header, no wrap-around."""

    def __init__(self, source: Union[str, os.PathLike, BinaryIO]):
        if hasattr(source, "read"):
            self._fh = source
            self._owns = False
        else:
            self._fh = open(source, "rb")
            self._owns = True
        self.offset = 0

    def read_bytes(self, n: int) -> bytes:
        data = read_up_to(self._fh, n)
        self.offset += len(data)
        if len(data) < n:
            raise EntropyExhausted(
                f"seed file exhausted at offset {self.offset} "
                f"({len(data)} of {n} bytes available)"
            )
        return data

    def close(self) -> None:
        if self._owns:
            self._fh.close()


class CounterSource(EntropySource):
    """Deterministic SHAKE-256 counter keystream (see module docstring)."""

    def __init__(self, key: Union[str, bytes] = "permwhite", counter_start: int = 0):
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not 0 <= counter_start < _COUNTER_LIMIT:
            raise ValueError(f"counter_start must be in [0, 2**64), got {counter_start}")
        self._key = hashlib.sha256(key).digest()
        self._counter = counter_start
        self._buf = b""
        self._off = 0

    def _block(self, index: int) -> bytes:
        if index >= _COUNTER_LIMIT:
            raise EntropyExhausted("deterministic stream ran past block 2**64 - 1")
        return hashlib.shake_256(self._key + index.to_bytes(8, "big")).digest(_BLOCK_BYTES)

    def read_bytes(self, n: int) -> bytes:
        avail = len(self._buf) - self._off
        if n <= avail:
            out = self._buf[self._off:self._off + n]
            self._off += n
            return out
        parts = [self._buf[self._off:]]
        need = n - avail
        while need > _BLOCK_BYTES:
            parts.append(self._block(self._counter))
            self._counter += 1
            need -= _BLOCK_BYTES
        self._buf = self._block(self._counter)
        self._counter += 1
        parts.append(self._buf[:need])
        self._off = need
        return b"".join(parts)


def make_source(
    kind: str,
    seed_file: Union[str, os.PathLike, BinaryIO, None] = None,
    det_key: Union[str, bytes] = "permwhite",
    det_counter: int = 0,
) -> EntropySource:
    """Build a source from CLI-style parameters."""
    if kind == "os":
        return OsEntropy()
    if kind == "seed":
        if seed_file is None:
            raise ValueError("seed source requires a seed file path")
        return SeedFileSource(seed_file)
    if kind == "det":
        return CounterSource(det_key, det_counter)
    raise ValueError(f"unknown entropy source kind: {kind!r}")

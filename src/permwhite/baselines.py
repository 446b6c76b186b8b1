"""Classical whiteners used as comparison baselines: the two-stream XOR
combiner and the Von Neumann pairwise debiaser, which reads big-endian
16-bit words through a 65,536-entry table, joins what each 8 input bytes
keep into one field of at most 32 bits, and places the fields straight
into output words; it never expands a byte into bits."""

from __future__ import annotations

import functools
from typing import BinaryIO

import numpy as np

from ._util import iter_blocks

# Bytes per von_neumann step: 64 KiB keeps the step's temporaries in cache.
_VN_STEP = 1 << 16


@functools.cache
def _word_codes() -> np.ndarray:
    """What each 16-bit word keeps, as ``bits << 4 | count``.

    A bit pair 01 keeps 0 and 10 keeps 1, most significant pair first; the
    kept bits are right-aligned, at most 8 of them.
    """
    shifts = np.array([6, 4, 2, 0], dtype=np.uint32)
    pairs = (np.arange(256, dtype=np.uint32)[:, None] >> shifts) & 3
    keep = (pairs == 1) | (pairs == 2)
    c8 = keep.sum(axis=1, dtype=np.uint32)
    after = c8[:, None] - np.cumsum(keep, axis=1, dtype=np.uint32)
    v8 = np.where(keep, (pairs >> 1) << after, 0).sum(axis=1, dtype=np.uint32)
    v = (v8[:, None] << c8[None, :]) | v8[None, :]
    return ((v << 4) | (c8[:, None] + c8[None, :])).ravel()


def xor_combine(a: BinaryIO, b: BinaryIO, out: BinaryIO) -> int:
    """XOR two byte streams; stops at the shorter one. Returns bytes written."""
    written = 0
    for ba, bb in zip(iter_blocks(a), iter_blocks(b)):
        n = min(len(ba), len(bb))
        xa = np.frombuffer(ba, dtype=np.uint8, count=n)
        xb = np.frombuffer(bb, dtype=np.uint8, count=n)
        out.write(xa ^ xb)
        written += n
    return written


def von_neumann(input: BinaryIO, out: BinaryIO) -> int:
    """Debias a byte stream; returns the number of output bits.

    Output bits are packed most-significant-bit first; the final partial
    byte, if any, is zero-padded on the right.
    """
    emitted = 0
    partial = 0  # the emitted % 32 bits not yet written, left-aligned
    for block in iter_blocks(input, _VN_STEP):
        # A zero byte keeps nothing, so padding to 8 bytes changes no field.
        e = _word_codes().take(np.frombuffer(block + bytes(-len(block) % 8), ">u2"))
        v, c = e >> 4, e & 15
        for _ in range(2):
            v = v.reshape(-1, 2)
            c = c.reshape(-1, 2)
            v = (v[:, 0] << c[:, 1]) | v[:, 1]
            c = c[:, 0] + c[:, 1]
        # Each field fills bits starts..ends of this step's words, after the
        # held bits of the partial word. Shifted into place in 64 bits, its
        # high half belongs to word starts >> 5 and its low half to the next.
        held = emitted % 32
        ends = np.cumsum(c, dtype=np.int64) + held
        starts = ends - c
        total = int(ends[-1])
        x = v.astype(np.uint64) << (64 - (starts & 31) - c).astype(np.uint64)
        word = starts >> 5
        # Each word's halves cover disjoint bit ranges below 2^32, so every
        # partial sum, in any order, is an integer below 2^32 that float64
        # holds exactly. A field starting in word total // 32 puts its (zero)
        # low half in the word after, hence the + 2.
        size = total // 32 + 2
        words = (np.bincount(word, weights=x >> 32, minlength=size)
                 + np.bincount(word + 1, weights=x & 0xFFFFFFFF, minlength=size))
        words[0] += partial
        whole = total // 32
        out.write(words[:whole].astype(">u4"))
        partial = int(words[whole])
        emitted += total - held
    out.write(partial.to_bytes(4, "big")[:(emitted % 32 + 7) // 8])
    return emitted

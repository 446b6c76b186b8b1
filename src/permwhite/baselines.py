"""Classical whiteners used as comparison baselines: the two-stream XOR
combiner and the Von Neumann pairwise debiaser, which works on whole bytes
through a 256-entry pair table and never expands a byte into bits."""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from ._util import iter_blocks

# What each byte value's four bit pairs emit, most significant pair first:
# 01 -> 0, 10 -> 1, and _NOTHING for 00 and 11.
_NOTHING = 2
_PAIR_CODES = np.array([_NOTHING, 0, 1, _NOTHING], dtype=np.uint8)[
    (np.arange(256)[:, None] >> np.array([6, 4, 2, 0])) & 3]
# Bytes per von_neumann step. np.compress (a boolean index branches per
# element) builds an intp index, 8 bytes per kept code; small steps bound it.
_VN_STEP = 1 << 16


def xor_combine(a: BinaryIO, b: BinaryIO, out: BinaryIO) -> int:
    """XOR two byte streams; stops at the shorter one. Returns bytes written."""
    written = 0
    for ba, bb in zip(iter_blocks(a), iter_blocks(b)):
        n = min(len(ba), len(bb))
        xa = np.frombuffer(ba, dtype=np.uint8, count=n)
        xb = np.frombuffer(bb, dtype=np.uint8, count=n)
        out.write((xa ^ xb).tobytes())
        written += n
    return written


def von_neumann(input: BinaryIO, out: BinaryIO) -> int:
    """Debias a byte stream; returns the number of output bits.

    Output bits are packed most-significant-bit first; the final partial
    byte, if any, is zero-padded on the right.
    """
    carry = np.empty(0, dtype=np.uint8)
    emitted = 0
    for block in iter_blocks(input, _VN_STEP):
        codes = _PAIR_CODES.take(np.frombuffer(block, dtype=np.uint8), axis=0).ravel()
        outbits = np.compress(codes < _NOTHING, codes)
        emitted += outbits.size
        carry = np.concatenate((carry, outbits))
        whole = carry.size - carry.size % 8
        out.write(np.packbits(carry[:whole]).tobytes())
        carry = carry[whole:]
    out.write(np.packbits(carry).tobytes())
    return emitted

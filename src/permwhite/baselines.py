"""Classical whiteners used as comparison baselines: the two-stream XOR
combiner and the Von Neumann pairwise debiaser."""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from ._util import iter_blocks


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


class VonNeumannExtractor:
    """Incremental extractor over a bit stream.

    Bits are taken two at a time: 01 emits 0, 10 emits 1, 00 and 11 emit
    nothing. Pairing is global across the whole stream, so a half-pair is
    held between feeds when a feed delivers an odd number of bits.
    """

    def __init__(self):
        self.pending: int | None = None

    def feed_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if self.pending is not None:
            bits = np.concatenate(([self.pending], bits))
            self.pending = None
        if bits.size % 2:
            self.pending = int(bits[-1])
            bits = bits[:-1]
        pairs = bits.reshape(-1, 2)
        # 01 -> 0 and 10 -> 1: the first bit of each differing pair.
        return pairs[pairs[:, 0] != pairs[:, 1], 0]

    def finish(self) -> None:
        # A final unpaired bit never forms a pair and is discarded.
        self.pending = None


def von_neumann(input: BinaryIO, out: BinaryIO) -> int:
    """Debias a byte stream; returns the number of output bits.

    Output bits are packed most-significant-bit first; the final partial
    byte, if any, is zero-padded on the right.
    """
    extractor = VonNeumannExtractor()
    carry = np.empty(0, dtype=np.uint8)
    emitted = 0
    for block in iter_blocks(input):
        outbits = extractor.feed_bits(np.unpackbits(np.frombuffer(block, dtype=np.uint8)))
        emitted += outbits.size
        carry = np.concatenate((carry, outbits)) if carry.size else outbits
        whole = carry.size - carry.size % 8
        if whole:
            out.write(np.packbits(carry[:whole]).tobytes())
            carry = carry[whole:]
    extractor.finish()
    if carry.size:
        out.write(np.packbits(carry).tobytes())
    return emitted

"""Output checks for the benchmark, computed without the package's own
kernels.

Each check returns ``None`` when the output is right and a one-line reason
when it is not. Only ``IndexPermutation.apply`` and the file loaders come
from the package: the chunk oracle re-derives whitened chunks from the
recorded trace one at a time, independently of the batched streaming
kernel.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from permwhite import pool_load, trace_load

POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
ORACLE_CHUNKS = 64


def byte_counts(data: bytes) -> np.ndarray:
    return np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)


def ones(counts: np.ndarray) -> int:
    return int(counts @ POPCOUNT)


def chi_square(counts: np.ndarray) -> float:
    """Chi-square of the 256 byte bins against a flat expectation."""
    expected = int(counts.sum()) / 256.0
    d = counts - expected
    return float((d * d / expected).sum())


def arithmetic_mean(counts: np.ndarray) -> float:
    return int(counts @ np.arange(256, dtype=np.int64)) / int(counts.sum())


def von_neumann_bytes(data: bytes) -> bytes:
    """Von Neumann output (01 -> 0, 10 -> 1, MSB first, zero-padded).

    Every byte holds four whole bit pairs, so the input is cut at any byte
    boundary without splitting a pair.
    """
    step = 1 << 20
    kept = []
    for start in range(0, len(data), step):
        pairs = np.unpackbits(
            np.frombuffer(data, dtype=np.uint8, count=min(step, len(data) - start),
                          offset=start)
        ).reshape(-1, 2)
        kept.append(pairs[pairs[:, 0] != pairs[:, 1], 0])
    return np.packbits(np.concatenate(kept)).tobytes() if kept else b""


def whitened(raw: bytes, raw_ones: int, white: bytes) -> str | None:
    """Whitening preserves the length and the number of set bits."""
    if len(white) != len(raw):
        return f"whitened length {len(white)} != input length {len(raw)}"
    got = ones(byte_counts(white))
    if got != raw_ones:
        return f"whitened set-bit count {got} != input {raw_ones}"
    return None


def chunk_oracle(raw: bytes, white: bytes, pool_path, trace_path,
                 rng: np.random.Generator) -> str | None:
    """Re-derive a sample of whitened chunks with ``IndexPermutation.apply``."""
    with open(pool_path, "rb") as fh:
        pool = pool_load(fh)
    with open(trace_path, "rb") as fh:
        trace = trace_load(fh)
    chunk_bytes = pool.size // 8
    n_chunks = len(raw) // chunk_bytes
    if len(trace) != n_chunks:
        return f"trace has {len(trace)} entries for {n_chunks} chunks"
    for i in rng.choice(n_chunks, size=min(ORACLE_CHUNKS, n_chunks), replace=False):
        lo, hi = int(i) * chunk_bytes, (int(i) + 1) * chunk_bytes
        bits = np.unpackbits(np.frombuffer(raw[lo:hi], dtype=np.uint8))
        perm = pool.permutations[int(trace.indices[i])]
        if np.packbits(perm.apply(bits)).tobytes() != white[lo:hi]:
            return f"chunk {int(i)} differs from IndexPermutation.apply"
    return None


def analyze_csv(text: str, counts: np.ndarray) -> str | None:
    """The ``analyze --csv`` counts and chi-square match our own."""
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(text)) if len(r) >= 2}
    n = int(counts.sum())
    want = {"byte_count": n, "bit_count": 8 * n, "ones_count": ones(counts)}
    for field, value in want.items():
        if field not in rows or int(rows[field]) != value:
            return f"analyze csv {field}={rows.get(field)!r}, expected {value}"
    if "chi_square" not in rows or float(rows["chi_square"]) != chi_square(counts):
        return (f"analyze csv chi_square={rows.get('chi_square')!r}, "
                f"expected {chi_square(counts)!r}")
    return None


def compare_text(text: str, before: np.ndarray, after: np.ndarray) -> str | None:
    """The ``compare`` table shows our chi-square and mean for both files."""
    want = {
        "Chi-Square Distribution": (chi_square, 2),
        "Arithmetic Mean": (arithmetic_mean, 4),
    }
    seen = set()
    for line in text.splitlines():
        for label, (stat, places) in want.items():
            if line.startswith(label):
                fields = line[len(label):].split()
                expected = [f"{stat(before):.{places}f}", f"{stat(after):.{places}f}"]
                if fields[:2] != expected:
                    return f"compare {label}: {fields[:2]} != {expected}"
                seen.add(label)
    if seen != set(want):
        return f"compare output lacks rows {sorted(set(want) - seen)}"
    return None

"""The bit-sliced kernel (chunks of 16 or more bits) against the bit-gather
kernel it replaced: every 16-bit chunk value through every member of a
small pool, the ways chunks can fall into groups of 8 rows per member,
pools past 256 members, and the memory a block and the pool's maps cost;
and the bit layout the transpose gives the planes, inside one-byte rows
and across longer rows."""

import io
import threading
import tracemalloc

import numpy as np
import pytest

from permwhite.entropy import CounterSource, SeedFileSource
from permwhite.permutation import IndexPermutation, MatrixPool, generate_pool
from permwhite.whitening import (_WORD, WhitenConfig, _bit_transpose, _plane_map,
                                 _transpose_rounds, unwhiten_stream, whiten_stream)

MIB = 1 << 20


def gather_kernel(maps, chunk_bits):
    """Reference: unpack to one byte per bit, gather each member's rows
    through its map, and pack again."""
    # Rows per gather: at most 2^19 unpacked bits at a time, so a member
    # selected by many chunks (small M) stays in cache.
    step = max(1, (1 << 19) // chunk_bits)

    def process(buf: bytes, sel: np.ndarray) -> bytes:
        chunks = np.unpackbits(np.frombuffer(buf, dtype=np.uint8)).reshape(-1, chunk_bits)
        out = np.empty_like(chunks)
        for m in np.unique(sel):
            rows = np.nonzero(sel == m)[0]
            for start in range(0, rows.size, step):
                part = rows[start:start + step]
                out[part] = np.take(chunks[part], maps[m], axis=1)
        return np.packbits(out).tobytes()

    return process


def random_pool(n_qubits, count, seed):
    rng = np.random.default_rng(seed)
    perms = tuple(IndexPermutation(rng.permutation(1 << n_qubits))
                  for _ in range(count))
    return MatrixPool(n_qubits=n_qubits, permutations=perms)


def scripted(selections):
    """A selector whose draws from a power-of-two pool of at most 256
    members return ``selections``: each such draw reads one byte."""
    return SeedFileSource(io.BytesIO(np.asarray(selections, dtype=np.uint8).tobytes()))


def check_against_gather(data, pool, make_selector):
    """Whiten at 1 and 2 workers, compare with the gather kernel applied to
    the recorded selections, and unwhiten back to the input."""
    maps = np.array([p.map for p in pool.permutations], dtype=np.intp)
    full = len(data) * 8 // pool.size * pool.size // 8
    for workers in (1, 2):
        cfg = WhitenConfig(n_qubits=pool.n_qubits, pool_count=pool.count,
                           record_selections=True)
        out = io.BytesIO()
        trace = whiten_stream(io.BytesIO(data), pool, cfg, make_selector(), out,
                              workers=workers)
        expected = gather_kernel(maps, pool.size)(data[:full], trace.indices) + data[full:]
        assert out.getvalue() == expected
    back = io.BytesIO()
    unwhiten_stream(io.BytesIO(expected), pool, trace, back)
    assert back.getvalue() == data
    return trace


def test_every_16_bit_chunk_through_every_member():
    rng = np.random.default_rng(16)
    perms = [IndexPermutation.identity(16), IndexPermutation(np.arange(15, -1, -1))]
    perms += [IndexPermutation(rng.permutation(16)) for _ in range(6)]
    pool = MatrixPool(n_qubits=4, permutations=tuple(perms))
    # copy m of all 2^16 chunk values (1 MiB in all) goes through member m
    every = np.arange(1 << 16, dtype=">u2").tobytes()
    trace = check_against_gather(every * 8, pool,
                                 lambda: scripted(np.repeat(np.arange(8), 1 << 16)))
    assert np.array_equal(np.bincount(trace.indices), [1 << 16] * 8)


def test_groups_mostly_padding():
    # 128 chunks of 8 KiB per block for 32 members: about 4 rows each, so
    # most groups of 8 are padding; the last block is only a 1031-byte tail
    data = CounterSource("sliced-pad-in").read_bytes(MIB + 1031)
    pool = random_pool(16, 32, 1)
    trace = check_against_gather(data, pool, lambda: CounterSource("sliced-pad-sel"))
    assert len(trace) == 128
    assert np.any(np.bincount(trace.indices, minlength=32) % 8)


@pytest.mark.parametrize("n_qubits", [4, 7, 13])
def test_one_member_takes_every_chunk(n_qubits):
    data = CounterSource(f"sliced-one-{n_qubits}").read_bytes(MIB + 2 * (1 << n_qubits) // 8 + 1)
    pool = random_pool(n_qubits, 4, n_qubits)
    chunks = len(data) * 8 // pool.size
    trace = check_against_gather(data, pool, lambda: scripted(np.full(chunks, 2)))
    assert set(trace.indices.tolist()) == {2}


@pytest.mark.parametrize("n_qubits", [5, 10])
def test_members_never_selected(n_qubits):
    # two blocks; members 1 and 6 only, then 0, 3 and 4 only
    data = CounterSource(f"sliced-some-{n_qubits}").read_bytes(2 * MIB)
    per_block = MIB * 8 // (1 << n_qubits)
    rng = np.random.default_rng(n_qubits)
    selections = np.concatenate([rng.choice([1, 6], per_block),
                                 rng.choice([0, 3, 4], per_block)])
    pool = random_pool(n_qubits, 8, 100 + n_qubits)
    trace = check_against_gather(data, pool, lambda: scripted(selections))
    assert np.array_equal(trace.indices, selections)


@pytest.mark.parametrize("chunk_bytes", [2, 4, 1024])
def test_transpose_turns_chunk_bit_p_into_plane_byte_p(chunk_bytes):
    # 40 groups of 8 rows; at 1024 bytes that is more words than one
    # transpose pass, so the slicing is crossed too
    rng = np.random.default_rng(chunk_bytes)
    groups = rng.integers(0, 256, (40, 8, chunk_bytes), dtype=np.uint8)
    sliced = np.ascontiguousarray(groups.transpose(0, 2, 1))
    scratch = np.empty(sliced.size // 8, dtype=_WORD)
    _bit_transpose(sliced.view(_WORD), scratch)
    planes = sliced.reshape(40, chunk_bytes * 8)
    # plane byte p, MSB first, is chunk bit p of rows 0..7
    bits = np.unpackbits(groups, axis=-1)
    assert np.array_equal(np.unpackbits(planes, axis=-1).reshape(40, -1, 8),
                          bits.transpose(0, 2, 1))
    _bit_transpose(sliced.view(_WORD), scratch)
    assert np.array_equal(sliced, groups.transpose(0, 2, 1))


@pytest.mark.parametrize("row_bytes", [1, 2, 4, 8, 16, 1024, 8192])
def test_transpose_across_rows_turns_chunk_bit_8j_plus_k_into_row_k_byte_j(row_bytes):
    # At 1024 bytes, 40 groups of 8 rows are more words than one transpose
    # pass, so the slicing is crossed too. At 8192 bytes, 9 groups cross
    # two passes with the longest mask period, 2 * 4096 words.
    n_groups = 40 if row_bytes == 1024 else 9
    rng = np.random.default_rng(row_bytes)
    rows = rng.integers(0, 256, (n_groups, 8, row_bytes), dtype=np.uint8)
    words = rows.reshape(-1).view(_WORD).copy()
    scratch = np.empty_like(words)
    _bit_transpose(words, scratch, row_bytes)
    assert words.dtype == np.uint64
    assert all(shift.dtype == np.uint64 and isinstance(mask, np.ndarray)
               and mask.dtype == np.uint64 and not mask.flags.writeable
               for _, shift, mask in _transpose_rounds(row_bytes))
    # bits[g, r, j, k] is chunk bit 8j + k of row r; row k, byte j of the
    # result holds it as its bit r, MSB first
    bits = np.unpackbits(rows, axis=-1).reshape(n_groups, 8, row_bytes, 8)
    expected = np.packbits(bits.transpose(0, 3, 2, 1), axis=-1)
    assert np.array_equal(words.view(np.uint8), expected.reshape(-1))
    _bit_transpose(words, scratch, row_bytes)
    assert np.array_equal(words.view(np.uint8), rows.reshape(-1))


@pytest.mark.parametrize("n_qubits", [4, 13, 16])
def test_plane_map_is_the_bit_map_in_plane_order(n_qubits):
    n = 1 << n_qubits
    bit_map = np.random.default_rng(n_qubits).permutation(n).astype(np.uint32)
    plane = _plane_map(bit_map)
    assert plane.dtype == np.uint16
    assert int(plane.max()) == n - 1
    # chunk bit p sits at plane (p & 7) * B + (p >> 3)
    p = np.arange(n)
    to_plane = (p & 7) * (n // 8) + (p >> 3)
    expected = np.empty(n, dtype=np.intp)
    expected[to_plane] = to_plane[bit_map]
    assert np.array_equal(plane, expected)


@pytest.mark.parametrize("n_qubits", [4, 13])
def test_pool_over_256_members(n_qubits):
    # 300 members: each draw reads a two-byte word, and the kernel sorts
    # two-byte keys
    data = CounterSource(f"sliced-wide-{n_qubits}").read_bytes(MIB + 1031)
    pool = random_pool(n_qubits, 300, 300 + n_qubits)
    trace = check_against_gather(data, pool,
                                 lambda: CounterSource(f"sliced-wide-sel-{n_qubits}"))
    assert int(trace.indices.max()) > 255


def test_block_memory_stays_near_the_block():
    # 2 MiB at n=13, M=32: the gather kernel's one-byte-per-bit arrays
    # peaked at 22 MiB; the sliced kernel holds a few block-sized arrays
    pool = generate_pool(13, 32, CounterSource("sliced-mem-pool"))
    data = CounterSource("sliced-mem-in").read_bytes(2 * MIB)
    cfg = WhitenConfig(n_qubits=13, pool_count=32)
    tracemalloc.start()
    try:
        whiten_stream(io.BytesIO(data), pool, cfg, CounterSource("sliced-mem-sel"),
                      io.BytesIO(), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * MIB


@pytest.fixture(scope="module")
def flagship_run(tmp_path_factory):
    """n=13, M=32 on 4 MiB + 100 bytes: the pool, the input file, its
    whitened copy and the trace, all made before any peak is taken."""
    work = tmp_path_factory.mktemp("flagship")
    pool = generate_pool(13, 32, CounterSource("flagship-pool"))
    raw, white = work / "raw.bin", work / "white.bin"
    raw.write_bytes(CounterSource("flagship-in").read_bytes(4 * MIB + 100))
    cfg = WhitenConfig(n_qubits=13, pool_count=32, record_selections=True)
    with open(raw, "rb") as src, open(white, "wb") as out:
        trace = whiten_stream(src, pool, cfg, CounterSource("flagship-sel"), out)
    return pool, raw, white, trace


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whitening_holds_one_input_block(flagship_run, tmp_path):
    # As in a fresh process: two kernel buffers of 1.1 MiB, the transpose
    # masks (0.75 MiB), 0.5 MiB of plane maps and one 1 MiB input block.
    # A second block or a transpose scratch of its own takes it past 5 MiB.
    pool, raw, white, trace = flagship_run
    cfg = WhitenConfig(n_qubits=13, pool_count=32, record_selections=True)
    _transpose_rounds.cache_clear()
    with open(raw, "rb") as src, open(tmp_path / "w.bin", "wb") as out:
        peak = traced_peak(lambda: whiten_stream(src, pool, cfg,
                                                 CounterSource("flagship-sel"), out))
    assert (tmp_path / "w.bin").read_bytes() == white.read_bytes()
    assert peak < 5.0 * MIB


def test_unwhitening_holds_one_input_block(flagship_run, tmp_path):
    # As whitening, with the masks already built and an inverse map built
    # and dropped per member.
    pool, raw, white, trace = flagship_run
    with open(white, "rb") as src, open(tmp_path / "back.bin", "wb") as out:
        peak = traced_peak(lambda: unwhiten_stream(src, pool, trace, out))
    assert (tmp_path / "back.bin").read_bytes() == raw.read_bytes()
    assert peak < 4.25 * MIB


def test_a_fresh_thread_holds_one_input_block(flagship_run, tmp_path):
    # Each thread keeps its kernel buffers across calls, so the two tests
    # above may find them made already. A fresh thread makes its own, and
    # its peaks include them, as in a fresh process.
    pool, raw, white, trace = flagship_run
    cfg = WhitenConfig(n_qubits=13, pool_count=32, record_selections=True)
    peaks = {}

    def run():
        _transpose_rounds.cache_clear()
        with open(raw, "rb") as src, open(tmp_path / "w.bin", "wb") as out:
            peaks["whiten"] = traced_peak(lambda: whiten_stream(
                src, pool, cfg, CounterSource("flagship-sel"), out))
        with open(white, "rb") as src, open(tmp_path / "back.bin", "wb") as out:
            peaks["unwhiten"] = traced_peak(lambda: unwhiten_stream(src, pool, trace, out))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert (tmp_path / "w.bin").read_bytes() == white.read_bytes()
    assert (tmp_path / "back.bin").read_bytes() == raw.read_bytes()
    assert peaks["whiten"] < 5.0 * MIB
    assert peaks["unwhiten"] < 4.25 * MIB


def test_pool_maps_are_not_copied_per_run():
    # n=16, M=300: the uint16 maps take 37.5 MiB. Whitening reads each member's map
    # in place, and unwhitening holds one inverse map per member, so
    # neither peak grows by a stack of the whole pool widened to intp.
    pool = random_pool(16, 300, 16)
    data = CounterSource("pool-copy-in").read_bytes(MIB)
    cfg = WhitenConfig(n_qubits=16, pool_count=300, record_selections=True)
    maps_bytes = sum(p.map.nbytes for p in pool.permutations)
    out = io.BytesIO()
    tracemalloc.start()
    try:
        trace = whiten_stream(io.BytesIO(data), pool, cfg, CounterSource("pool-copy-sel"),
                              out)
        whiten_peak = tracemalloc.get_traced_memory()[1]
        whitened = io.BytesIO(out.getvalue())
        back = io.BytesIO()
        tracemalloc.reset_peak()
        unwhiten_stream(whitened, pool, trace, back)
        unwhiten_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.getvalue() == data
    assert maps_bytes == 75 * MIB // 2
    assert whiten_peak <= 40 * MIB
    assert unwhiten_peak <= maps_bytes + 40 * MIB


def test_unwhiten_inverts_each_member_only_when_selected():
    # n=16, M=300: an inverse map per member up front held 75 MiB. Inverting
    # a member when a block first selects it holds only the plane-order
    # maps of the members that the block's 128 chunks select.
    pool = random_pool(16, 300, 17)
    data = CounterSource("lazy-inverse-in").read_bytes(MIB)
    cfg = WhitenConfig(n_qubits=16, pool_count=300, record_selections=True)
    out = io.BytesIO()
    trace = whiten_stream(io.BytesIO(data), pool, cfg, CounterSource("lazy-inverse-sel"),
                          out)
    whitened = io.BytesIO(out.getvalue())
    back = io.BytesIO()
    tracemalloc.start()
    try:
        unwhiten_stream(whitened, pool, trace, back)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.getvalue() == data
    assert peak <= 40 * MIB

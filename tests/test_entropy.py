"""Entropy sources: rejection-sampling arithmetic, determinism, uniformity."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2

from permwhite.entropy import (
    CounterSource,
    EntropySource,
    OsEntropy,
    SeedFileSource,
    make_source,
)
from permwhite.errors import EntropyExhausted


class CountingSource(EntropySource):
    """Wraps a byte string and counts consumption."""

    def __init__(self, data):
        self.data = data
        self.consumed = 0

    def read_bytes(self, n):
        out = self.data[self.consumed:self.consumed + n]
        assert len(out) == n, "test source exhausted"
        self.consumed += n
        return out


def test_degenerate_range_consumes_nothing():
    src = CountingSource(b"\xff" * 8)
    assert src.random_int(7, 7) == 7
    assert src.consumed == 0


def test_zero_seed_bytes_give_lower_bound():
    # span 256 reads one byte; 0x00 maps to lo
    src = SeedFileSource(io.BytesIO(b"\x00" * 32))
    assert all(src.random_int(1, 256) == 1 for _ in range(32))


def test_rejection_consumption_span_six():
    # span 6 masks 3 bits of one byte; 0x07 rejects, 0x05 accepts as lo+5
    src = CountingSource(bytes([0x07, 0x05]))
    assert src.random_int(1, 6) == 6
    assert src.consumed == 2


def test_two_byte_span():
    # span 300 needs 9 bits -> 2 bytes per attempt, big-endian
    src = CountingSource(bytes([0x01, 0x2a]))  # 0x012a & 0x1ff = 298
    assert src.random_int(0, 299) == 298
    assert src.consumed == 2


def test_rejection_never_escapes_range():
    # all 256 one-byte states for a span-3 draw return only 0..2
    for byte in range(256):
        src = CountingSource(bytes([byte]) + b"\x00\x00")
        assert src.random_int(1, 3) - 1 in (0, 1, 2)


@given(st.integers(-5000, 5000), st.integers(0, 5000), st.binary(min_size=64, max_size=64))
def test_random_int_bounds(lo, width, noise):
    src = CountingSource(noise + b"\x00" * 64)
    value = src.random_int(lo, lo + width)
    assert lo <= value <= lo + width


def test_random_int_rejects_empty_range():
    with pytest.raises(ValueError):
        CounterSource("x").random_int(3, 2)


def test_random_index_m1_consumes_nothing():
    src = CountingSource(b"")
    assert src.random_index(1) == 0
    assert src.consumed == 0


def test_counter_source_is_deterministic():
    a = CounterSource("det-key").read_bytes(100_000)
    b = CounterSource("det-key").read_bytes(100_000)
    assert a == b
    assert a != CounterSource("other-key").read_bytes(100_000)


def test_counter_source_pinned_construction():
    # independently recompute: SHA-256(key), then SHAKE-256(key32 || i:8 BE)
    import hashlib

    key32 = hashlib.sha256(b"pinned").digest()
    block0 = hashlib.shake_256(key32 + (0).to_bytes(8, "big")).digest(8192)
    block1 = hashlib.shake_256(key32 + (1).to_bytes(8, "big")).digest(8192)
    src = CounterSource("pinned")
    assert src.read_bytes(10_000) == (block0 + block1)[:10_000]


def test_counter_start_shifts_stream():
    whole = CounterSource("shift").read_bytes(3 * 8192)
    tail = CounterSource("shift", counter_start=1).read_bytes(2 * 8192)
    assert tail == whole[8192:]


def test_counter_source_bytes_key_matches_utf8_str():
    assert CounterSource("clef").read_bytes(64) == CounterSource(b"clef").read_bytes(64)


def test_read_patterns_agree():
    # many small reads == one large read
    a = CounterSource("chunks")
    small = b"".join(a.read_bytes(n) for n in (1, 7, 100, 8192, 3, 20000))
    b = CounterSource("chunks")
    assert small == b.read_bytes(len(small))


def test_seed_file_exhaustion():
    src = SeedFileSource(io.BytesIO(b"\xaa" * 10))
    src.read_bytes(8)
    with pytest.raises(EntropyExhausted, match="offset"):
        src.read_bytes(3)


def test_seed_file_sequential():
    src = SeedFileSource(io.BytesIO(bytes(range(10))))
    assert src.read_bytes(4) == bytes([0, 1, 2, 3])
    assert src.read_bytes(2) == bytes([4, 5])


def test_sources_close_as_context_managers(tmp_path):
    path = tmp_path / "seed.bin"
    path.write_bytes(bytes(range(16)))
    with SeedFileSource(path) as src:
        assert src.read_bytes(4) == bytes([0, 1, 2, 3])
    with pytest.raises(ValueError):   # read of a closed file
        src.read_bytes(1)
    with CounterSource("ctx") as det, OsEntropy() as osrc:
        assert len(det.read_bytes(4)) == len(osrc.read_bytes(4)) == 4


def test_make_source_factory():
    assert isinstance(make_source("os"), OsEntropy)
    assert isinstance(make_source("det", det_key="k"), CounterSource)
    assert isinstance(make_source("seed", seed_file=io.BytesIO(b"x")), SeedFileSource)
    with pytest.raises(ValueError):
        make_source("seed")
    with pytest.raises(ValueError):
        make_source("weird")


def test_random_indices_matches_scalar_power_of_two():
    batched = CounterSource("vec").random_indices(32, 5000)
    scalar_src = CounterSource("vec")
    scalar = [scalar_src.random_index(32) for _ in range(5000)]
    assert batched.tolist() == scalar


# 1-, 1-, 1-, 2-, 3- and 4-byte rejection words, then the largest span of
# each word width, which never rejects
@pytest.mark.parametrize("m", [3, 5, 33, 300, 65537, (1 << 24) + 3,
                               257, 65536, 1 << 24, 1 << 32])
def test_random_indices_matches_scalar_general(m):
    batched = CounterSource(f"vec{m}").random_indices(m, 2000)
    scalar_src = CounterSource(f"vec{m}")
    scalar = [scalar_src.random_index(m) for _ in range(2000)]
    assert batched.dtype == np.uint32
    assert batched.tolist() == scalar
    assert int(batched.max()) < m

    seed = CounterSource(f"seed{m}").read_bytes(20_000)
    batched_src = SeedFileSource(io.BytesIO(seed))
    scalar_src = SeedFileSource(io.BytesIO(seed))
    assert batched_src.random_indices(m, 500).tolist() == [
        scalar_src.random_index(m) for _ in range(500)]
    assert batched_src.offset == scalar_src.offset

    # a seed too short for the batch runs dry at the same offset
    short = seed[:batched_src.offset - 1]
    batched_src = SeedFileSource(io.BytesIO(short))
    scalar_src = SeedFileSource(io.BytesIO(short))
    with pytest.raises(EntropyExhausted):
        batched_src.random_indices(m, 500)
    with pytest.raises(EntropyExhausted):
        for _ in range(500):
            scalar_src.random_index(m)
    assert batched_src.offset == scalar_src.offset == len(short)



# 1-byte words, from a span of two to one that never rejects
@pytest.mark.parametrize("m", [2, 5, 200, 256])
def test_random_indices_one_byte_words(m):
    seed = CounterSource(f"byte-words{m}").read_bytes(40_000)
    batched_src = SeedFileSource(io.BytesIO(seed))
    scalar_src = SeedFileSource(io.BytesIO(seed))
    batched = batched_src.random_indices(m, 20_000)
    assert batched.dtype == np.uint32
    assert batched.tolist() == [scalar_src.random_index(m) for _ in range(20_000)]
    assert batched_src.offset == scalar_src.offset


class ScriptedInts(EntropySource):
    """Scripts its integers through ``random_int`` and reads no bytes."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = []

    def read_bytes(self, n):
        raise AssertionError("a source with scripted integers reads no bytes")

    def random_int(self, lo, hi):
        self.calls.append((lo, hi))
        return self.values.pop(0)


@pytest.mark.parametrize("m, script", [(5, [3, 1, 5, 5, 2]), (1, [1, 1])])
def test_random_indices_through_overridden_random_int(m, script):
    src = ScriptedInts(script)
    out = src.random_indices(m, len(script))
    assert out.dtype == np.uint32
    assert out.tolist() == [v - 1 for v in script]
    assert src.calls == [(1, m)] * len(script)


class RecordingSource(CountingSource):
    """Overrides only ``read_bytes``, and records each request."""

    def __init__(self, data):
        super().__init__(data)
        self.requests = []

    def read_bytes(self, n):
        self.requests.append(n)
        return super().read_bytes(n)


def test_random_indices_reads_once_per_rejection_round():
    data = CounterSource("rounds").read_bytes(4000)
    src = RecordingSource(data)
    src.random_indices(5, 1000)
    # each round reads one 3-bit word, in one byte, for every draw still owed
    owed, pos, rounds = 1000, 0, []
    while owed:
        rounds.append(owed)
        owed -= sum((b & 7) < 5 for b in data[pos:pos + owed])
        pos += rounds[-1]
    assert src.requests == rounds
    assert 1 < len(rounds) < 40


def test_random_indices_memory_stays_near_its_result():
    # 4 Mi draws at m = 5 return 16 MiB of uint32 and read 4 MiB of words
    # in the first round. An intp index of that round's kept words, made at
    # once, would add 20 MiB more.
    src = CounterSource("peak")
    tracemalloc.start()
    try:
        src.random_indices(5, 4 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_random_indices_empty():
    assert CounterSource("e").random_indices(8, 0).size == 0


@pytest.mark.parametrize("m", [0, 2**32 + 1])
def test_random_indices_rejects_m_outside_uint32(m):
    with pytest.raises(ValueError):
        CounterSource("range").random_indices(m, 1)


def test_dice_frequencies_within_three_sigma():
    # 6e6 draws on [1, 6]: each face expected 1e6, sigma = sqrt(n p (1-p))
    draws = 6_000_000
    src = CounterSource("dice")
    counts = np.zeros(7, dtype=np.int64)
    for _ in range(draws):
        counts[src.random_int(1, 6)] += 1
    expected = draws / 6
    sigma = np.sqrt(draws * (1 / 6) * (5 / 6))
    assert counts[0] == 0
    for face in range(1, 7):
        assert abs(counts[face] - expected) < 3 * sigma


def test_selection_frequencies_within_three_sigma():
    # 3.2e6 pool-index draws at m=32: each index expected 1e5
    draws = 3_200_000
    sel = CounterSource("select-32").random_indices(32, draws)
    counts = np.bincount(sel, minlength=32)
    expected = draws / 32
    sigma = np.sqrt(draws * (1 / 32) * (31 / 32))
    assert all(abs(c - expected) < 3 * sigma for c in counts)


def test_random_int_uniformity_chi_square_band():
    # goodness of fit over a small non-power-of-two range at 1e6 draws
    draws = 1_000_000
    span = 10
    src = CounterSource("gof")
    counts = np.zeros(span, dtype=np.int64)
    for _ in range(draws):
        counts[src.random_int(0, span - 1)] += 1
    expected = draws / span
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = span - 1
    assert chi2.ppf(0.0005, dof) < stat < chi2.ppf(0.9995, dof)


def test_os_entropy_length_and_variety():
    data = OsEntropy().read_bytes(4096)
    assert len(data) == 4096
    assert len(set(data)) > 64

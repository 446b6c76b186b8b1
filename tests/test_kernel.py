"""The streaming whitening kernel, chunk by chunk, against
``IndexPermutation.apply``: both kernel paths (byte tables for chunks of at
most 8 bits, bit slicing above), block boundaries, tails, worker counts,
frozen digests of pinned runs, and the memory a recorded trace costs."""

import hashlib
import io
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from permwhite.entropy import CounterSource
from permwhite.permutation import IndexPermutation, MatrixPool, generate_pool, pool_save
from permwhite.whitening import WhitenConfig, trace_save, unwhiten_stream, whiten_stream

MIB = 1 << 20


def random_pool(n_qubits, count, seed):
    rng = np.random.default_rng(seed)
    perms = tuple(IndexPermutation(rng.permutation(1 << n_qubits))
                  for _ in range(count))
    return MatrixPool(n_qubits=n_qubits, permutations=perms)


def whiten(data, pool, workers=1, key="kernel-sel"):
    cfg = WhitenConfig(n_qubits=pool.n_qubits, pool_count=pool.count,
                       record_selections=True)
    out = io.BytesIO()
    trace = whiten_stream(io.BytesIO(data), pool, cfg, CounterSource(key), out,
                          workers=workers)
    return out.getvalue(), trace


def chunk_bits_of(data, chunk_bits, n_chunks):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return bits[:n_chunks * chunk_bits].reshape(n_chunks, chunk_bits)


def oracle(data, pool, indices):
    """Each full chunk permuted by ``apply`` of its traced member, as bits."""
    n = pool.size
    chunks = chunk_bits_of(data, n, indices.size)
    if n > 8:
        return np.array([pool.permutations[m].apply(chunk)
                         for m, chunk in zip(indices, chunks)]).reshape(-1, n)
    # A chunk of at most 8 bits takes one of 2^N values: apply every member
    # to every value once, then look each chunk up.
    every = np.unpackbits(np.arange(1 << n, dtype=np.uint8)[:, None], axis=1)[:, 8 - n:]
    applied = np.array([[perm.apply(v) for v in every] for perm in pool.permutations])
    values = chunks @ (1 << np.arange(n - 1, -1, -1))
    return applied[indices, values]


def check_against_oracle(data, pool):
    chunk_bytes = max(pool.size // 8, 1)
    single, trace = whiten(data, pool, workers=1)
    double, trace2 = whiten(data, pool, workers=2)
    assert double == single and trace2 == trace
    n_chunks = len(data) * 8 // pool.size
    assert len(trace) == n_chunks
    assert np.array_equal(chunk_bits_of(single, pool.size, n_chunks),
                          oracle(data, pool, trace.indices))
    full = n_chunks * chunk_bytes
    assert single[full:] == data[full:]
    back = io.BytesIO()
    unwhiten_stream(io.BytesIO(single), pool, trace, back)
    assert back.getvalue() == data


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n_qubits", range(1, 17))
def test_kernel_matches_per_chunk_oracle(n_qubits, count):
    chunk_bytes = max((1 << n_qubits) // 8, 1)
    # three full chunks and the longest tail a chunk size allows
    length = 37 if chunk_bytes == 1 else 4 * chunk_bytes - 1
    data = CounterSource(f"kernel-in-{n_qubits}").read_bytes(length)
    check_against_oracle(data, random_pool(n_qubits, count, n_qubits * 100 + count))


@pytest.mark.parametrize("n_qubits", [2, 13])
def test_kernel_matches_oracle_across_batches(n_qubits):
    # more than one 1 MiB batch, and a 5-byte tail for the sliced path
    length = MIB + 3 * max((1 << n_qubits) // 8, 1) + (5 if n_qubits > 3 else 0)
    data = CounterSource(f"kernel-big-{n_qubits}").read_bytes(length)
    check_against_oracle(data, random_pool(n_qubits, 5, n_qubits))


# SHA-256 of the pool file, the whitened output and the trace file for a
# pinned run. n=2 takes the table kernel; the rest take the sliced kernel
# on rows of 2, 4, 16, 128, 1024 and 8192 bytes. Between them they cover
# every kind of transpose round: rows that share one uint64 (n=4, 5),
# short runs of words between rows (n=7), long runs (n=10, 13, 16),
# transpose passes that cross a slice (n=16) and a last block that ends
# in a partial chunk (every n above 3).
PINNED_DIGESTS = {
    1: ("ff40d9fd6d3ab9bb8f2f5c60145cdb090a2e77973cdcf0a5c9a5d41a9426f627",
        "556a051c166616af912981da1ae8494419ed03e4e612fba538bb6e7fbf68c062",
        "0ba760cce3df48e866417fa9046d37b3fc878026488ab3dbc61e2ee3e7aecf97"),
    2: ("42a133885f10d1f37b95c6ba4f4444a3c4b0d3def45e134a8261ca6a0f327f5a",
        "ecfade446450ad6fb26647a9f611ed4b0bb0243114e4afe3c13f8bae6e49d9cd",
        "37aad778930df29a98776eabf7e67a6f5af8eae3d90cf1b6fed2b629f1967d73"),
    3: ("1647e7234e29d26962172c80e269443f1910853b2fb08845b00fd8928fdf3b5e",
        "ecc9eed714ab9f2ef7aac0d50631c3e95bf94d50e318ad6f16fa0d6a56f4a15d",
        "bbb9e6ac3a075a5294279d1c74183cb32b2f2e9a956c76c52ab8558801b1c248"),
    4: ("250a903be5310fde72a20605ca4f86746e84b7a32697c032069d79fa020ffb5a",
        "381e74149011f1de1ae87f5473790df3277a0e36db116bee5cd76f80c57b5996",
        "e59dbda39e6c9432d5033d6cb726169ab809e69a4c6bb6cfb373bb00d42f49c4"),
    5: ("248373377952a96d997c453750983a163b30a5529086089086812382cb1a1395",
        "9b2be10326542a61d355e33c54a840c5857688b4ec0047f82dc7056371daac7a",
        "2a06d0f8c47fa5e63981202ccac35d5fda129afc68bfa4a11bc9a24237f302bf"),
    7: ("331f8e25f835230a5622a66f67f33592e286c229b0490e00ac86bc58af5216a4",
        "1319e358cf6f6c35da964001b418ca6d57a6ab2b1304934e75b36c96ce0788df",
        "51ae1cbebc86707be41a292ddec54c696750db6ec575602aa9635869c8af05f2"),
    10: ("824a5b6fedc9384c5d6f9f04220ad0a4c7c522c521e352db518b57b73a39edd5",
         "368bc5f258dd4baba4e5ecf81f9532bfc03e20d516ac0b065b885df29ab7a828",
         "c4433d0543d62fcbeebfd8325e4384eac8b763cfe7db59e2f280bbc97a696ec8"),
    13: ("4c9a18a58f0169607a87cd462948327813fa6b0b2109f267c430db7ab078cdda",
         "1a1ceddb5d94270bc7375289cdda4bb2a588a8a1b17d04d5dbdc97b6e0e348d1",
         "2aa89adc3b65fffc7a4788fd32fa93b7ce6862925afbe4aab2015f371bf3822b"),
    16: ("68332574430ddd232453234239776179ea3b9cda52b29d48dedf805cca7cbbd8",
         "4761b442ba10822562fcf02e17b883d32471cc5b73a17e6abcd8cc00ac7fa7cd",
         "01931302259e44adfe29114767a8bda3207fcc06fc74363c19183bb67346fcd4"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_qubits", sorted(PINNED_DIGESTS))
def test_pinned_run_digests(n_qubits, workers):
    # two full 1 MiB blocks and a last block that ends in a partial chunk
    data = CounterSource("pinned-input").read_bytes(2 * MIB + 1031)
    pool = generate_pool(n_qubits, 5, CounterSource(f"pinned-pool-{n_qubits}"))
    cfg = WhitenConfig(n_qubits=n_qubits, pool_count=5, record_selections=True)
    out = io.BytesIO()
    trace = whiten_stream(io.BytesIO(data), pool, cfg,
                          CounterSource(f"pinned-sel-{n_qubits}"), out, workers=workers)
    pool_file, trace_file = io.BytesIO(), io.BytesIO()
    pool_save(pool, pool_file)
    trace_save(trace, trace_file)
    digests = tuple(hashlib.sha256(b.getvalue()).hexdigest()
                    for b in (pool_file, out, trace_file))
    assert digests == PINNED_DIGESTS[n_qubits]


def table_path_maps(n_qubits):
    n = 1 << n_qubits
    if n <= 4:
        return list(itertools.permutations(range(n)))
    rng = np.random.default_rng(8)
    return [tuple(range(n)), tuple(reversed(range(n)))] + [
        tuple(rng.permutation(n)) for _ in range(100)]


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_table_path_exhaustive(n_qubits):
    n = 1 << n_qubits
    every_byte = bytes(range(256))
    byte_bits = np.unpackbits(np.frombuffer(every_byte, dtype=np.uint8)).reshape(256, 8)
    for mapping in table_path_maps(n_qubits):
        perm = IndexPermutation(mapping)
        pool = MatrixPool(n_qubits=n_qubits, permutations=(perm,))
        expected = bytes(
            int(np.packbits(np.concatenate([perm.apply(c) for c in bits.reshape(-1, n)]))[0])
            for bits in byte_bits)
        out, trace = whiten(every_byte, pool)
        assert out == expected
        back = io.BytesIO()
        unwhiten_stream(io.BytesIO(out), pool, trace, back)
        assert back.getvalue() == every_byte


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_table_path_with_more_than_256_members(n_qubits):
    # A member past 255 puts the flat table index m << N | v past 16 bits
    # (up to 76,799 at n=3, M=300).
    data = CounterSource(f"kernel-wide-{n_qubits}").read_bytes(4099)
    pool = random_pool(n_qubits, 300, 300 + n_qubits)
    assert whiten(data, pool)[1].indices.max() >= 256
    check_against_oracle(data, pool)


@pytest.mark.parametrize("n_qubits", (1, 2, 3))
def test_table_path_unwhitens_without_inverting_members(n_qubits):
    # The inverse tables come from the pool's maps inverted together, so
    # no member is inverted on its own before the first block.
    data = CounterSource(f"kernel-inverse-{n_qubits}").read_bytes(4099)
    pool = random_pool(n_qubits, 300, 400 + n_qubits)
    white, trace = whiten(data, pool)
    out = io.BytesIO()
    with mock.patch.object(IndexPermutation, "invert", autospec=True,
                           side_effect=IndexPermutation.invert) as spy:
        unwhiten_stream(io.BytesIO(white), pool, trace, out)
    assert spy.call_count == 0
    assert out.getvalue() == data


def test_recording_holds_the_trace_once():
    # 8 MiB of 4-bit chunks record a 64 MiB trace; building it must not
    # hold a second copy of the selections alongside the first
    pool = random_pool(2, 4, 1)
    data = bytes(8 * MIB)
    peaks = {}
    for record in (False, True):
        cfg = WhitenConfig(n_qubits=2, pool_count=4, record_selections=record)
        tracemalloc.start()
        try:
            trace = whiten_stream(io.BytesIO(data), pool, cfg,
                                  CounterSource("kernel-mem"), io.BytesIO())
            peaks[record] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    trace_bytes = len(trace) * 4
    assert trace_bytes == 64 * MIB
    assert peaks[True] - peaks[False] <= 1.2 * trace_bytes

"""Permutation representation, the two shuffle modes, and their algebra."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permwhite.entropy import CounterSource, EntropySource, SeedFileSource
from permwhite.permutation import (
    IndexPermutation,
    MatrixPool,
    generate_fullrange_shuffle,
    generate_pool,
    generate_unbiased_shuffle,
    pool_save,
)

# The 4x4 example: output positions 0..3 take input bits 0,2,3,1.
EXAMPLE_MAP = [0, 2, 3, 1]


class ScriptedSource(EntropySource):
    """Returns a fixed list of draw values; asserts each is in range."""

    def __init__(self, values):
        self.values = list(values)

    def random_int(self, lo, hi):
        v = self.values.pop(0)
        assert lo <= v <= hi, f"scripted value {v} outside [{lo}, {hi}]"
        return v


class MinSource(EntropySource):
    """Always returns the lower bound of the requested range."""

    def random_int(self, lo, hi):
        return lo


def dense_matrix(mapping):
    """0/1 matrix with row i carrying its 1 in column mapping[i]."""
    n = len(mapping)
    m = np.zeros((n, n), dtype=np.uint8)
    m[np.arange(n), mapping] = 1
    return m


def dense_apply(mapping, bits):
    """Matrix-vector oracle for IndexPermutation.apply."""
    return dense_matrix(mapping) @ np.asarray(bits, dtype=np.uint8)


def permutations_strategy(size):
    return st.permutations(list(range(size)))


def test_identity():
    p = IndexPermutation.identity(8)
    assert p.is_identity()
    assert p.size == 8
    chunk = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    assert np.array_equal(p.apply(chunk), chunk)


def test_apply_worked_example():
    # bit string 0001 -> 0010 under the example matrix
    p = IndexPermutation(EXAMPLE_MAP)
    out = p.apply(np.array([0, 0, 0, 1], dtype=np.uint8))
    assert out.tolist() == [0, 0, 1, 0]


def test_apply_matches_dense_oracle_on_worked_example():
    out = dense_apply(EXAMPLE_MAP, [0, 0, 0, 1])
    assert out.tolist() == [0, 0, 1, 0]


def test_apply_convention_out_takes_from_map():
    p = IndexPermutation([2, 0, 3, 1])
    chunk = np.array([10, 20, 30, 40])
    out = p.apply(chunk)
    for i in range(4):
        assert out[i] == chunk[p.map[i]]


def test_apply_rejects_wrong_length():
    p = IndexPermutation(EXAMPLE_MAP)
    with pytest.raises(ValueError):
        p.apply(np.zeros(5, dtype=np.uint8))


def test_invert_worked_example():
    p = IndexPermutation(EXAMPLE_MAP)
    assert p.invert().map.tolist() == [0, 3, 1, 2]


def test_invert_map_is_read_only_uint16():
    inverse = IndexPermutation(EXAMPLE_MAP).invert().map
    assert inverse.dtype == np.uint16 and not inverse.flags.writeable


def test_compose_is_apply_after_apply():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = IndexPermutation(rng.permutation(16))
        b = IndexPermutation(rng.permutation(16))
        chunk = rng.integers(0, 2, size=16).astype(np.uint8)
        combined = a.compose(b)
        assert np.array_equal(combined.apply(chunk), a.apply(b.apply(chunk)))


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(11)
    p = IndexPermutation(rng.permutation(32))
    assert p.compose(p.invert()).is_identity()
    assert p.invert().compose(p).is_identity()


@given(permutations_strategy(16), st.lists(st.integers(0, 1), min_size=16, max_size=16))
def test_invert_round_trip(mapping, bits):
    p = IndexPermutation(mapping)
    chunk = np.array(bits, dtype=np.uint8)
    assert np.array_equal(p.invert().apply(p.apply(chunk)), chunk)


@given(permutations_strategy(8), st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_apply_preserves_weight_and_length(mapping, bits):
    p = IndexPermutation(mapping)
    chunk = np.array(bits, dtype=np.uint8)
    out = p.apply(chunk)
    assert out.size == chunk.size
    assert out.sum() == chunk.sum()


@given(permutations_strategy(8), st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_apply_matches_dense_oracle(mapping, bits):
    p = IndexPermutation(mapping)
    chunk = np.array(bits, dtype=np.uint8)
    assert np.array_equal(p.apply(chunk), dense_apply(mapping, bits))


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        IndexPermutation([0, 0, 2, 3])
    with pytest.raises(ValueError):
        IndexPermutation([0, 1, 2, 4])
    with pytest.raises(ValueError):
        IndexPermutation([])


@pytest.mark.parametrize("mapping", [
    [0.5, 1], [1.0, 0.0], np.array([1, 0], dtype=np.float32), [True, False],
    [-1, 0], [1, 2**32], np.array([2**32 + 1, 0], dtype=np.uint64)])
def test_rejects_entries_that_are_not_indices(mapping):
    # no truncation of floats, no bools as 0/1, no wrapping into range
    with pytest.raises(ValueError):
        IndexPermutation(mapping)


def test_accepts_any_integer_dtype():
    for dtype in (np.int8, np.uint16, np.int64, np.uint64):
        p = IndexPermutation(np.array([2, 0, 1], dtype=dtype))
        assert p.map.dtype == np.uint16 and p.map.tolist() == [2, 0, 1]


@pytest.mark.parametrize("size, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.uint32)])
def test_map_dtype_at_the_uint16_boundary(size, dtype):
    # Every pool map (N <= 2^16) is uint16; a longer map keeps uint32. Both
    # give the values that an intp reference gives.
    rng = np.random.default_rng(size)
    a, b = rng.permutation(size), rng.permutation(size)
    p, q = IndexPermutation(a), IndexPermutation(b)
    inverse, composed = p.invert().map, p.compose(q).map
    for arr in (p.map, inverse, composed):
        assert arr.dtype == dtype and not arr.flags.writeable
    assert np.array_equal(inverse, np.argsort(a))
    assert np.array_equal(composed, b[a])
    chunk = rng.integers(0, 2, size, dtype=np.uint8)
    assert np.array_equal(p.apply(chunk), chunk[a])
    assert int(inverse.max()) == size - 1


def test_equality_and_hash():
    a = IndexPermutation(EXAMPLE_MAP)
    b = IndexPermutation(list(EXAMPLE_MAP))
    assert a == b
    assert hash(a) == hash(b)
    assert a != IndexPermutation([0, 1, 2, 3])


def test_equality_with_another_type_is_false():
    p = IndexPermutation(EXAMPLE_MAP)
    assert p != EXAMPLE_MAP
    assert not p == "IndexPermutation(size=4)"


def test_compose_rejects_another_size():
    with pytest.raises(ValueError, match="size mismatch"):
        IndexPermutation(EXAMPLE_MAP).compose(IndexPermutation.identity(8))


def test_repr_names_the_size():
    assert repr(IndexPermutation.identity(16)) == "IndexPermutation(size=16)"


# fullrange mode: draws K[i] on [1, N] for i = 1..N, then sweeps i downward
# swapping S[K[i]] <-> S[i].


def test_fullrange_scripted_identity():
    # K = [2, 1, 4, 3]: every swap undoes itself pairwise -> identity
    p = generate_fullrange_shuffle(2, ScriptedSource([2, 1, 4, 3]))
    assert p.is_identity()


def test_fullrange_scripted_worked_matrix():
    # K = [3, 1, 1, 2] produces the 4x4 example matrix
    p = generate_fullrange_shuffle(2, ScriptedSource([3, 1, 1, 2]))
    assert p.map.tolist() == EXAMPLE_MAP


def test_fullrange_identity_returning_rng():
    # a source that always answers i for position i leaves S untouched
    class Reflect(EntropySource):
        def __init__(self):
            self.i = 0

        def random_int(self, lo, hi):
            self.i += 1
            return self.i

    p = generate_fullrange_shuffle(3, Reflect())
    assert p.is_identity()


def scalar_fullrange_map(n_qubits, rng):
    """Oracle: the fullrange shuffle from N scalar ``random_int(1, N)`` draws."""
    n = 1 << n_qubits
    k = [rng.random_int(1, n) for _ in range(n)]
    s = list(range(n))
    for i in range(n - 1, -1, -1):
        p = k[i] - 1
        s[p], s[i] = s[i], s[p]
    return s


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 8, 13, 16])
def test_fullrange_batched_draws_match_scalar_oracle(n_qubits):
    key = f"fullrange-oracle-{n_qubits}"
    batched, scalar = CounterSource(key), CounterSource(key)
    assert (generate_fullrange_shuffle(n_qubits, batched).map.tolist()
            == scalar_fullrange_map(n_qubits, scalar))
    # both consumed the same bytes, so the streams go on alike
    assert batched.read_bytes(64) == scalar.read_bytes(64)

    seed = CounterSource(key).read_bytes(3 << n_qubits)
    batched, scalar = SeedFileSource(io.BytesIO(seed)), SeedFileSource(io.BytesIO(seed))
    assert (generate_fullrange_shuffle(n_qubits, batched).map.tolist()
            == scalar_fullrange_map(n_qubits, scalar))
    assert batched.offset == scalar.offset


# SHA-256 of pool_save(generate_pool(n, 4, CounterSource(f"pool-pin-{n}"),
# mode=mode)), frozen from N scalar random_int draws per fullrange member.
POOL_DIGESTS = {
    ("fullrange", 2): "2b7b6a2983a155c97a1af6fe6c13d2e14512f655937966c9449294c66c9d123f",
    ("fullrange", 3): "0ebbb342b39cc1159488388e733b539b60cc32aa5057e4d1972d7fb02984c0bb",
    ("fullrange", 13): "1e3da3e9315bf7354527d422e9f1cd28e7cbfabbecfb472511cb0a3706507029",
    ("fullrange", 16): "0a3642a0ff4c85be7dde7691e70e13f1c2876fab04595d3588c0dfb47d792e49",
    ("unbiased", 3): "a236869ebc53248a6194325839c15a97f014e3eefab1141d0090340583b75404",
    ("unbiased", 8): "7a4469208bcbc39db1c22b58cb7788ac575e3852fc4c29f0f6d50375c5445cb6",
}


@pytest.mark.parametrize("mode, n_qubits", sorted(POOL_DIGESTS))
def test_pinned_pool_digests(mode, n_qubits):
    pool = generate_pool(n_qubits, 4, CounterSource(f"pool-pin-{n_qubits}"), mode=mode)
    buf = io.BytesIO()
    pool_save(pool, buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == POOL_DIGESTS[mode, n_qubits]


def test_unbiased_min_source_is_identity():
    assert generate_unbiased_shuffle(3, MinSource()).is_identity()


def test_unbiased_two_positions_swap():
    # N=2, single draw returning 2 -> positions swapped
    p = generate_unbiased_shuffle(1, ScriptedSource([2]))
    assert p.map.tolist() == [1, 0]


def test_shuffles_are_valid_permutations():
    rng = CounterSource("shuffle-validity")
    for _ in range(10):
        assert IndexPermutation(generate_fullrange_shuffle(4, rng).map) is not None
        assert IndexPermutation(generate_unbiased_shuffle(4, rng).map) is not None


def test_size_limits():
    rng = CounterSource("cap")
    for n_qubits in (0, 17):
        with pytest.raises(ValueError):
            generate_unbiased_shuffle(n_qubits, rng)
        with pytest.raises(ValueError):
            generate_fullrange_shuffle(n_qubits, rng)
        with pytest.raises(ValueError):
            generate_pool(n_qubits, 1, rng)
    p = generate_unbiased_shuffle(5, rng)
    assert p.size == 32


@pytest.mark.parametrize("n_qubits", [0, 17])
def test_pool_rejects_size_outside_limits(n_qubits):
    # A chunk of 2^17 bits would no longer divide the 1 MiB read block.
    perm = IndexPermutation.identity(1 << n_qubits)
    with pytest.raises(ValueError):
        MatrixPool(n_qubits=n_qubits, permutations=(perm,))


def test_generate_pool_properties():
    pool = generate_pool(3, 5, CounterSource("pool"), mode="unbiased",
                         generator_tag="unit")
    assert pool.size == 8
    assert pool.count == 5
    assert pool.generator_tag == "unit"
    assert all(p.size == 8 for p in pool.permutations)


def test_generate_pool_deterministic():
    a = generate_pool(4, 3, CounterSource("same-key"))
    b = generate_pool(4, 3, CounterSource("same-key"))
    assert a.permutations == b.permutations


def test_generate_pool_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_pool(3, 0, CounterSource("x"))
    with pytest.raises(ValueError):
        generate_pool(3, 1, CounterSource("x"), mode="sideways")


def test_matrix_pool_validates_sizes():
    with pytest.raises(ValueError):
        MatrixPool(n_qubits=3, permutations=(IndexPermutation.identity(4),))
    with pytest.raises(ValueError):
        MatrixPool(n_qubits=2, permutations=())

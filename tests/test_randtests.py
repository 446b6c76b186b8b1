"""Statistics batteries against exact fixtures and independent oracles."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from permwhite import randtests
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
from permwhite.randtests import (
    EntReport,
    compare_reports,
    ent_analyze,
    monte_carlo_pi,
    nist_lite,
    serial_correlation,
    _cusum_pvalue,
)

CYCLIC = bytes(range(256)) * 64


def analyze(data):
    return ent_analyze(io.BytesIO(data))


# naive in-memory oracle: same definitions, written independently in
# float64 against whole arrays


def oracle_ent(data):
    arr = np.frombuffer(data, np.uint8).astype(np.float64)
    n = arr.size
    counts = np.bincount(np.frombuffer(data, np.uint8), minlength=256)
    freq = counts[counts > 0] / n
    entropy = float(-(freq * np.log2(freq)).sum())
    expected = n / 256.0
    chi = float(((counts - expected) ** 2 / expected).sum())
    mean = float(arr.mean())
    nxt = np.roll(arr, -1)
    num = n * float(arr @ nxt) - float(arr.sum()) ** 2
    den = n * float(arr @ arr) - float(arr.sum()) ** 2
    scc = (num / den, True) if den else (0.0, False)
    groups = arr[: n - n % 6].reshape(-1, 6)
    x = groups[:, 0] * 65536 + groups[:, 1] * 256 + groups[:, 2]
    y = groups[:, 3] * 65536 + groups[:, 4] * 256 + groups[:, 5]
    inside = int((x * x + y * y <= (2**24 - 1) ** 2).sum())
    pi_est = 4.0 * inside / groups.shape[0]
    return entropy, chi, mean, pi_est, scc


def test_cyclic_corpus_is_exact():
    r = analyze(CYCLIC)
    assert r.entropy_bits_per_byte == 8.0
    assert r.chi_square == 0.0
    assert r.arithmetic_mean == 127.5
    assert r.byte_count == len(CYCLIC)


def test_cyclic_serial_correlation_near_one():
    r = analyze(CYCLIC)
    assert r.serial_correlation_defined
    # sequence is almost perfectly lag-1 correlated; compare to the oracle
    *_, (scc, defined) = oracle_ent(CYCLIC)
    assert defined
    assert r.serial_correlation == pytest.approx(scc, rel=1e-12)
    assert 0.95 < r.serial_correlation < 1.0


def test_all_zero_corpus():
    n = 1 << 20
    r = analyze(b"\x00" * n)
    assert r.entropy_bits_per_byte == 0.0
    assert r.arithmetic_mean == 0.0
    assert r.chi_square == 255 * n  # single loaded bin, closed form
    assert not r.serial_correlation_defined
    assert r.serial_correlation == 0.0
    assert r.monte_carlo_pi == 4.0  # every point at the origin


def test_all_ff_monte_carlo_outside():
    assert monte_carlo_pi(io.BytesIO(b"\xff" * 600)) == 0.0


def test_alternating_bytes_scc_minus_one():
    value, defined = serial_correlation(io.BytesIO(b"\x00\xff" * 3000))
    assert defined
    assert value == -1.0


def test_leftover_monte_carlo_bytes_ignored():
    # 6 zero bytes form one inside point; the 5 extra bytes do nothing
    assert monte_carlo_pi(io.BytesIO(b"\x00" * 11)) == 4.0


def test_monte_carlo_boundary_geometry():
    # point (2^24-1, 0) lies exactly on the circle -> inside (<=)
    inside = b"\xff\xff\xff" + b"\x00\x00\x00"
    assert monte_carlo_pi(io.BytesIO(inside)) == 4.0


def test_chi_square_invariant_under_relabeling():
    data = CounterSource("relabel").read_bytes(100_000)
    relabeled = bytes(b ^ 0x5A for b in data)
    assert analyze(data).chi_square == pytest.approx(
        analyze(relabeled).chi_square, rel=1e-12)


def test_streaming_matches_oracle_on_varied_corpora():
    corpora = [
        CounterSource("o-uniform").read_bytes(1 << 20),
        bytes((i * 7 + (i >> 3)) % 251 for i in range(1 << 20)),
        CYCLIC * 16,
        b"\x00\xff" * (1 << 19),
    ]
    for data in corpora:
        r = analyze(data)
        entropy, chi, mean, pi_est, (scc, defined) = oracle_ent(data)
        assert r.entropy_bits_per_byte == pytest.approx(entropy, rel=1e-9, abs=1e-12)
        assert r.chi_square == pytest.approx(chi, rel=1e-9, abs=1e-9)
        assert r.arithmetic_mean == pytest.approx(mean, rel=1e-9)
        assert r.monte_carlo_pi == pytest.approx(pi_est, rel=1e-9)
        assert r.serial_correlation_defined == defined
        assert r.serial_correlation == pytest.approx(scc, rel=1e-9, abs=1e-12)


def test_streaming_is_block_boundary_invariant(monkeypatch):
    # one-pass accumulators must not care how reads split the stream;
    # at BLOCK_BYTES 9973 the stream is read in 9936-byte pieces, so the
    # serial products cross 30 seams and a short last read ends in a byte
    # that is no whole point
    data = CounterSource("split").read_bytes(300_001)
    whole = ent_analyze(io.BytesIO(data))
    monkeypatch.setattr("permwhite.randtests.BLOCK_BYTES", 9973)
    pieces = ent_analyze(io.BytesIO(data))
    assert whole == pieces


class BlockLengths:
    """An accumulator that only records the length of each block it is fed,
    the size of the workspace that comes with it, and how many later
    passes were merged into it."""

    def __init__(self):
        self.lengths = []
        self.work_sizes = []
        self.merges = 0

    def update(self, block, counts, work):
        self.lengths.append(len(block))
        self.work_sizes.append(work.size)

    def merge(self, later):
        self.lengths += later.lengths
        self.work_sizes += later.work_sizes
        self.merges += 1 + later.merges


def check_reads(src, size, monkeypatch, block):
    # 48 is the lcm of a 6-byte Monte Carlo point and a 16-byte row, so
    # only the last read may end inside either.
    monkeypatch.setattr("permwhite.randtests.BLOCK_BYTES", block)
    (spy,) = randtests._consume(src, BlockLengths())
    assert len(spy.lengths) > 1
    assert all(n % 48 == 0 for n in spy.lengths[:-1])
    assert sum(spy.lengths) == size
    # _byte_counts needs 4 bytes of workspace per byte of a read.
    assert all(w >= 4 * n for n, w in zip(spy.lengths, spy.work_sizes))
    return spy


@pytest.mark.parametrize("block", (1, 47, 48, 49, 100, 9973))
def test_reads_hold_whole_points_and_rows(monkeypatch, block):
    data = CounterSource("framing").read_bytes(30_001)
    assert check_reads(io.BytesIO(data), len(data), monkeypatch, block).merges == 0


@pytest.mark.parametrize("block", (1, 47, 48, 49, 100, 9973))
def test_file_reads_hold_whole_points_and_rows(tmp_path, monkeypatch, block):
    # A regular file is read as two halves, each its own sequence of reads.
    path = tmp_path / "framing.bin"
    path.write_bytes(CounterSource("framing").read_bytes(30_001))
    with open(path, "rb") as fh:
        assert check_reads(fh, 30_001, monkeypatch, block).merges == 1


def test_precondition_errors():
    with pytest.raises(PreconditionError):
        analyze(b"\x00" * 5)
    with pytest.raises(PreconditionError):
        serial_correlation(io.BytesIO(b"\x01"))
    with pytest.raises(PreconditionError):
        nist_lite(io.BytesIO(b"\xaa" * 15))  # 120 bits < one 128-bit block


def test_entropy_bounds_and_ranges():
    for key in ("r1", "r2", "r3"):
        r = analyze(CounterSource(key).read_bytes(4096))
        assert 0.0 <= r.entropy_bits_per_byte <= 8.0
        assert 0.0 <= r.arithmetic_mean <= 255.0
        assert 0.0 <= r.monte_carlo_pi <= 4.0
        assert -1.0 <= r.serial_correlation <= 1.0


@settings(max_examples=30)
@given(st.binary(min_size=6, max_size=4096))
def test_statistic_ranges_hold_for_arbitrary_bytes(data):
    r = analyze(data)
    assert 0.0 <= r.entropy_bits_per_byte <= 8.0 + 1e-12
    assert r.chi_square >= 0.0
    assert 0.0 <= r.monte_carlo_pi <= 4.0
    if r.serial_correlation_defined:
        assert -1.0 - 1e-12 <= r.serial_correlation <= 1.0 + 1e-12


# four-test battery


def bits_of(data):
    return np.unpackbits(np.frombuffer(data, np.uint8))


def oracle_monobit(data):
    steps = bits_of(data).astype(np.int64) * 2 - 1
    return math.erfc(abs(int(steps.sum())) / math.sqrt(steps.size) / math.sqrt(2))


def oracle_block_frequency(data):
    bits = bits_of(data)
    nblocks = bits.size // 128
    pi = bits[: nblocks * 128].reshape(-1, 128).mean(axis=1)
    chi = 4.0 * 128 * float(((pi - 0.5) ** 2).sum())
    return float(gammaincc(nblocks / 2.0, chi / 2.0))


def oracle_runs(data):
    bits = bits_of(data)
    n = bits.size
    pi = bits.mean()
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int((bits[1:] != bits[:-1]).sum())
    return math.erfc(abs(v - 2 * n * pi * (1 - pi))
                     / (2 * math.sqrt(2 * n) * pi * (1 - pi)))


def test_nist_matches_oracles_on_random_data():
    for key in ("n1", "n2", "n3"):
        data = CounterSource(key).read_bytes(12_503)  # odd size, many blocks
        rep = nist_lite(io.BytesIO(data))
        assert rep.p_monobit == pytest.approx(oracle_monobit(data), rel=1e-9)
        assert rep.p_block_frequency == pytest.approx(
            oracle_block_frequency(data), rel=1e-9)
        assert rep.p_runs == pytest.approx(oracle_runs(data), rel=1e-9)
        assert rep.bit_count == len(data) * 8
        assert rep.ones_count == int(bits_of(data).sum())


def test_cusum_against_published_vectors():
    # z=4 over 10 bits -> 0.4116588; z=16 over 100 bits -> 0.219194
    assert _cusum_pvalue(4, 10) == pytest.approx(0.4116588, abs=1e-6)
    assert _cusum_pvalue(16, 100) == pytest.approx(0.219194, abs=1e-6)


def test_cusum_forward_excursion_value():
    # oracle the walk maximum with numpy, then pin the p-value mapping
    data = CounterSource("cusum").read_bytes(2000)
    steps = bits_of(data).astype(np.int64) * 2 - 1
    walk = np.cumsum(steps)
    z = int(np.abs(walk).max())
    rep = nist_lite(io.BytesIO(data))
    assert rep.p_cusum_forward == pytest.approx(
        _cusum_pvalue(z, steps.size), rel=1e-12)


def test_cusum_backward_equals_forward_of_reversed_bits():
    data = CounterSource("cusum-rev").read_bytes(4000)
    rep = nist_lite(io.BytesIO(data))
    reversed_bits = np.packbits(bits_of(data)[::-1]).tobytes()
    rev = nist_lite(io.BytesIO(reversed_bits))
    assert rep.p_cusum_backward == pytest.approx(rev.p_cusum_forward, rel=1e-12)
    assert rep.p_cusum_forward == pytest.approx(rev.p_cusum_backward, rel=1e-12)


def test_alternating_bits_extremes():
    data = b"\x55" * 125_000  # 0101... over 10^6 bits
    rep = nist_lite(io.BytesIO(data))
    assert rep.p_monobit == 1.0  # sum of +/-1 steps is exactly 0
    assert rep.p_runs == 0.0  # run count maximal
    assert rep.pass_flags["p_monobit"]
    assert not rep.pass_flags["p_runs"]
    assert not rep.all_pass


def test_all_ones_fails_monobit():
    rep = nist_lite(io.BytesIO(b"\xff" * 1000))
    assert rep.p_monobit < 1e-12
    assert not rep.pass_flags["p_monobit"]


def test_nist_block_boundary_invariant(monkeypatch):
    data = CounterSource("nist-split").read_bytes(50_021)
    whole = nist_lite(io.BytesIO(data))
    monkeypatch.setattr("permwhite.randtests.BLOCK_BYTES", 9973)
    pieces = nist_lite(io.BytesIO(data))
    assert whole == pieces


# improvement verdicts


def report_with(**kwargs):
    base = dict(entropy_bits_per_byte=7.9999, chi_square=256.0,
                arithmetic_mean=127.5, monte_carlo_pi=math.pi,
                serial_correlation=0.0, serial_correlation_defined=True,
                byte_count=1 << 20)
    base.update(kwargs)
    return EntReport(**base)


def test_identical_reports_unchanged():
    r = report_with()
    assert set(compare_reports(r, r).values()) == {"unchanged"}


def test_scc_sign_flip_with_smaller_magnitude_improves():
    before = report_with(serial_correlation=-0.000024)
    after = report_with(serial_correlation=0.000022)
    assert compare_reports(before, after)["serial_correlation"] == "improved"


def test_mean_closer_to_ideal_improves():
    before = report_with(arithmetic_mean=127.5035)
    after = report_with(arithmetic_mean=127.4985)
    assert compare_reports(before, after)["arithmetic_mean"] == "improved"


def test_chi_overshoot_past_ideal_worsens():
    # 265.55 is 9.55 away from 256; 236.57 is 19.43 away
    before = report_with(chi_square=265.55)
    after = report_with(chi_square=236.57)
    assert compare_reports(before, after)["chi_square"] == "worsened"


def test_undefined_scc_verdict():
    before = report_with(serial_correlation_defined=False)
    after = report_with()
    assert compare_reports(before, after)["serial_correlation"] == "undefined"


def test_mixed_verdicts():
    before = report_with(entropy_bits_per_byte=7.9, chi_square=300.0)
    after = report_with(entropy_bits_per_byte=7.95, chi_square=400.0)
    verdicts = compare_reports(before, after)
    assert verdicts["entropy_bits_per_byte"] == "improved"
    assert verdicts["chi_square"] == "worsened"
    assert verdicts["arithmetic_mean"] == "unchanged"

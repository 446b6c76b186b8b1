"""Refusals of out-of-range arguments: the command exits 2 and leaves no
output or temp file, the library raises."""

import io
import os

import pytest

from permwhite import cli
from permwhite.cli import main
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
from permwhite.permutation import SHUFFLE_MODES
from permwhite.randtests import monte_carlo_pi


def leftovers(directory):
    return [p for p in os.listdir(directory) if p.startswith(".permwhite-tmp-")]


@pytest.fixture
def whitened(tmp_path):
    """A pool, an input, its whitened output and the trace, all on disk."""
    pool, src = tmp_path / "p.pool", tmp_path / "in.bin"
    white, trace = tmp_path / "white.bin", tmp_path / "run.trace"
    src.write_bytes(CounterSource("refusals").read_bytes(4_099))
    assert main(["gen-pool", str(pool), "--n-qubits", "3", "--count", "4",
                 "--source", "det", "--key", "refusals-pool"]) == 0
    assert main(["whiten", str(src), str(white), "--pool", str(pool),
                 "--trace", str(trace), "--source", "det"]) == 0
    return pool, src, white, trace


def test_whiten_with_zero_workers_is_usage_error(tmp_path, whitened, capsys):
    pool, src, _, _ = whitened
    out, trace = tmp_path / "out.bin", tmp_path / "out.trace"
    rc = main(["whiten", str(src), str(out), "--pool", str(pool), "--trace", str(trace),
               "--source", "det", "--workers", "0"])
    assert rc == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()
    assert leftovers(tmp_path) == []


def test_unwhiten_with_zero_workers_is_usage_error(tmp_path, whitened, capsys):
    pool, _, white, trace = whitened
    out = tmp_path / "back.bin"
    rc = main(["unwhiten", str(white), str(out), "--pool", str(pool),
               "--trace", str(trace), "--workers", "0"])
    assert rc == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_gen_pool_with_oversized_tag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "p.pool"
    tag = "é" * 40_000   # 80,000 UTF-8 bytes, over the 16-bit length field
    rc = main(["gen-pool", str(out), "--n-qubits", "3", "--count", "2",
               "--source", "det", "--tag", tag])
    assert rc == 2
    assert "generator_tag too long" in capsys.readouterr().err
    assert not out.exists()
    assert leftovers(tmp_path) == []


@pytest.fixture
def shuffle_calls(monkeypatch):
    """Every shuffle call is recorded and fails at once, so a refusal that
    comes only after generating cannot run for long."""
    calls = []

    def spy(n_qubits, rng):
        calls.append(n_qubits)
        raise AssertionError("a shuffle ran before the refusal")

    for mode in SHUFFLE_MODES:
        monkeypatch.setitem(SHUFFLE_MODES, mode, spy)
    return calls


def test_gen_pool_refuses_an_oversized_tag_before_generating(tmp_path, capsys,
                                                             shuffle_calls):
    out = tmp_path / "p.pool"
    rc = main(["gen-pool", str(out), "--n-qubits", "3", "--count", "2",
               "--source", "det", "--tag", "é" * 40_000])
    assert rc == 2
    assert shuffle_calls == []
    assert "generator_tag too long" in capsys.readouterr().err
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_gen_pool_refuses_a_count_over_32_bits_before_generating(tmp_path, capsys,
                                                                 shuffle_calls):
    out = tmp_path / "p.pool"
    rc = main(["gen-pool", str(out), "--n-qubits", "1", "--count", str(1 << 32),
               "--source", "det"])
    assert rc == 2
    assert shuffle_calls == []
    assert "count must be < 2^32" in capsys.readouterr().err
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_random_index_refuses_empty_range():
    with pytest.raises(ValueError):
        CounterSource("refusals").random_index(0)


def test_random_indices_refuses_negative_count():
    with pytest.raises(ValueError):
        CounterSource("refusals").random_indices(5, -1)


def test_monte_carlo_pi_needs_one_point():
    with pytest.raises(PreconditionError):
        monte_carlo_pi(io.BytesIO(b"\x00" * 5))


def test_unwhiten_refuses_a_short_input_before_opening_the_output(
        tmp_path, monkeypatch, capsys):
    # n=3: one chunk per byte, so an input one byte short is one chunk short
    pool, src = tmp_path / "p.pool", tmp_path / "in.bin"
    white, trace = tmp_path / "white.bin", tmp_path / "run.trace"
    src.write_bytes(CounterSource("refusals-short").read_bytes(4_099))
    assert main(["gen-pool", str(pool), "--n-qubits", "3", "--count", "5",
                 "--source", "det", "--key", "refusals-short-pool"]) == 0
    assert main(["whiten", str(src), str(white), "--pool", str(pool),
                 "--trace", str(trace), "--source", "det"]) == 0
    short = tmp_path / "short.bin"
    short.write_bytes(white.read_bytes()[:-1])
    opened = []
    real_output = cli._atomic_output

    def recording_output(path):
        opened.append(path)
        return real_output(path)

    monkeypatch.setattr(cli, "_atomic_output", recording_output)
    out = tmp_path / "back.bin"
    rc = main(["unwhiten", str(short), str(out), "--pool", str(pool),
               "--trace", str(trace)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "4098 chunks" in err and "records 4099" in err
    assert opened == []
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_unwhiten_names_a_trace_of_another_chunk_size(tmp_path, capsys):
    # An n=4 trace of 4096 bytes records 2048 chunks; an n=3 pool frames
    # the input into 4096. The chunk size is the cause, not the count.
    src, white, trace = tmp_path / "in.bin", tmp_path / "white.bin", tmp_path / "run.trace"
    pool4, pool3 = tmp_path / "n4.pool", tmp_path / "n3.pool"
    src.write_bytes(CounterSource("refusals-n").read_bytes(4096))
    for pool, n in ((pool4, "4"), (pool3, "3")):
        assert main(["gen-pool", str(pool), "--n-qubits", n, "--count", "4",
                     "--source", "det", "--key", f"refusals-n{n}"]) == 0
    assert main(["whiten", str(src), str(white), "--pool", str(pool4),
                 "--trace", str(trace), "--source", "det"]) == 0
    capsys.readouterr()
    out = tmp_path / "back.bin"
    rc = main(["unwhiten", str(white), str(out), "--pool", str(pool3),
               "--trace", str(trace)])
    assert rc == 2
    assert "chunk size" in capsys.readouterr().err
    assert not out.exists()
    assert leftovers(tmp_path) == []


def test_unwhiten_refuses_too_few_members_before_opening_the_output(
        tmp_path, monkeypatch, capsys):
    src, white, trace = tmp_path / "in.bin", tmp_path / "white.bin", tmp_path / "run.trace"
    big, small = tmp_path / "m32.pool", tmp_path / "m5.pool"
    src.write_bytes(CounterSource("refusals-m").read_bytes(4_099))
    for pool, m in ((big, "32"), (small, "5")):
        assert main(["gen-pool", str(pool), "--n-qubits", "3", "--count", m,
                     "--source", "det", "--key", f"refusals-m{m}"]) == 0
    assert main(["whiten", str(src), str(white), "--pool", str(big),
                 "--trace", str(trace), "--source", "det"]) == 0
    capsys.readouterr()
    opened = []
    real_output = cli._atomic_output

    def recording_output(path):
        opened.append(path)
        return real_output(path)

    monkeypatch.setattr(cli, "_atomic_output", recording_output)
    out = tmp_path / "back.bin"
    rc = main(["unwhiten", str(white), str(out), "--pool", str(small),
               "--trace", str(trace)])
    assert rc == 2
    assert "pool holds only 5 permutations" in capsys.readouterr().err
    assert opened == []
    assert not out.exists()
    assert leftovers(tmp_path) == []

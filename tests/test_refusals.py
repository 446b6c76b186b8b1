"""Refusals of out-of-range arguments: the command exits 2 and leaves no
output or temp file, the library raises."""

import io
import os

import pytest

from permwhite.cli import main
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
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


def test_random_index_refuses_empty_range():
    with pytest.raises(ValueError):
        CounterSource("refusals").random_index(0)


def test_random_indices_refuses_negative_count():
    with pytest.raises(ValueError):
        CounterSource("refusals").random_indices(5, -1)


def test_monte_carlo_pi_needs_one_point():
    with pytest.raises(PreconditionError):
        monte_carlo_pi(io.BytesIO(b"\x00" * 5))

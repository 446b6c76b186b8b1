"""Every block loop reads through ``_util.read_into`` into a buffer it holds.

Whitening, the statistics (one pass and both halves), ``von_neumann`` and
``xor_combine`` fill their own buffers through ``_util.fill_blocks``, so a
block is a view that the next read overwrites. Whatever the reader, each
must give what the same bytes give fed as one ``bytes`` block, which no
buffer reuse can corrupt: a seam byte kept as a view, or taken as a numpy
uint8 that wraps a product at 256, shows. A non-blocking reader's None
("no data yet") is no end of input: it raises ``BlockingIOError``, which
the command line reports as an I/O error (exit 3)."""

import errno
import io
from types import SimpleNamespace
from unittest import mock

import pytest

from permwhite import _util, baselines, cli, randtests
from permwhite.cli import main
from permwhite.entropy import CounterSource
from permwhite.errors import PreconditionError
from permwhite.permutation import generate_pool
from permwhite.randtests import analyze, ent_analyze, nist_lite
from permwhite.whitening import (WhitenConfig, trace_load, unwhiten_stream,
                                 whiten_stream)

# BLOCK_BYTES 100: the statistics read 96 bytes at a time, xor 100; vn
# reads 20-byte steps, each padded to 24 bytes in its buffer.
BLOCK = 100
VN_STEP = 20
SIZES = (0, 1, 47, 48, 49, 95, 96, 97, 191, 2 * 96 + 7)


class ReadOnly:
    """A reader with ``read`` and nothing else."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def read(self, n=-1):
        return self._data.read(n)


class Trickle:
    """A reader whose ``readinto`` gives at most ``cap`` bytes a call."""

    def __init__(self, data, cap):
        self._data, self._cap = io.BytesIO(data), cap

    def readinto(self, buf):
        return self._data.readinto(memoryview(buf)[:self._cap])


class Stalling(io.RawIOBase):
    """A non-blocking reader: it has ``ready`` bytes of ``data``, then
    returns None from ``readinto`` (and so from ``read``), as a
    non-blocking pipe or socket does while no more bytes have arrived."""

    def __init__(self, data, ready):
        self._data, self._ready, self._pos = data, ready, 0

    def readable(self):
        return True

    def readinto(self, buf):
        if self._pos == self._ready < len(self._data):
            return None
        got = min(len(buf), self._ready - self._pos, 1000)
        buf[:got] = self._data[self._pos:self._pos + got]
        self._pos += got
        return got


def readers(tmp_path, data, name):
    """Each reader shape over ``data``; the regular file is opened last."""
    path = tmp_path / name
    path.write_bytes(data)
    yield "bytesio", io.BytesIO(data)
    yield "read-only", ReadOnly(data)
    yield "trickle-1000", Trickle(data, 1000)
    yield "trickle-7", Trickle(data, 7)
    with open(path, "rb") as fh:
        yield "file", fh


def outcome(call, *args):
    """What ``call`` returns, or the message of its ``PreconditionError``."""
    try:
        return call(*args)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def one_block(data):
    """The byte and bit accumulators fed ``data`` as one ``bytes`` block."""
    accs = (randtests._ByteStats(), randtests._BitStats())
    randtests._feed(accs, [data] if data else [], max(48, len(data)))
    return accs


def reference(call, data):
    byte_stats, bit_stats = one_block(data)
    reports = {"analyze": lambda: (byte_stats.report(), bit_stats.report()),
               "ent_analyze": byte_stats.report, "nist_lite": bit_stats.report}
    return outcome(reports[call.__name__])


def scalar_vn(data):
    """The pair rule one bit pair at a time: 01 emits 0, 10 emits 1."""
    bits = [(byte >> shift) & 2 for byte in data for shift in (6, 4, 2, 0)
            if ((byte >> shift) & 3) in (1, 2)]
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        out[i // 8] |= (bit >> 1) << (7 - i % 8)
    return bytes(out), len(bits)


@pytest.fixture
def small_reads(monkeypatch):
    monkeypatch.setattr(randtests, "BLOCK_BYTES", BLOCK)
    monkeypatch.setattr(baselines, "BLOCK_BYTES", BLOCK)
    monkeypatch.setattr(baselines, "_VN_STEP", VN_STEP)


@pytest.mark.parametrize("size", SIZES)
def test_statistics_match_one_block_from_every_reader(tmp_path, small_reads, size):
    data = CounterSource(f"loop-stats-{size}").read_bytes(size)
    for call in (analyze, ent_analyze, nist_lite):
        want = reference(call, data)
        for shape, reader in readers(tmp_path, data, "in.bin"):
            assert outcome(call, reader) == want, (call.__name__, shape)


@pytest.mark.parametrize("size", SIZES)
def test_baselines_match_one_block_from_every_reader(tmp_path, small_reads, size):
    data = CounterSource(f"loop-vn-{size}").read_bytes(size)
    other = CounterSource(f"loop-xor-{size}").read_bytes(size // 2 + 3)
    for shape, reader in readers(tmp_path, data, "in.bin"):
        out = io.BytesIO()
        count = baselines.von_neumann(reader, out)
        assert (out.getvalue(), count) == scalar_vn(data), shape
    for a, b in ((data, other), (other, data)):
        want = bytes(x ^ y for x, y in zip(a, b))
        for (shape, ra), (_, rb) in zip(readers(tmp_path, a, "a.bin"),
                                        readers(tmp_path, b, "b.bin")):
            out = io.BytesIO()
            assert baselines.xor_combine(ra, rb, out) == len(want), shape
            assert out.getvalue() == want, shape


def test_every_block_loop_reads_through_read_into(tmp_path, monkeypatch, small_reads):
    spy = mock.Mock(wraps=_util.read_into)
    monkeypatch.setattr(_util, "read_into", spy)
    data = CounterSource("loop-spy").read_bytes(1000)
    path = tmp_path / "in.bin"
    path.write_bytes(data)
    pool = generate_pool(4, 3, CounterSource("loop-spy-pool"))
    cfg = WhitenConfig(n_qubits=4, pool_count=3, record_selections=True)

    def whiten():
        white = io.BytesIO()
        trace = whiten_stream(io.BytesIO(data), pool, cfg, CounterSource("sel"), white)
        return white.getvalue(), trace

    def halves():
        with open(path, "rb") as fh:
            analyze(fh)

    white, trace = whiten()
    passes = {
        "whiten": whiten,
        "unwhiten": lambda: unwhiten_stream(io.BytesIO(white), pool, trace, io.BytesIO()),
        "one pass": lambda: analyze(io.BytesIO(data)),
        "halves": halves,
        "von_neumann": lambda: baselines.von_neumann(io.BytesIO(data), io.BytesIO()),
        "xor_combine": lambda: baselines.xor_combine(io.BytesIO(data), io.BytesIO(data),
                                                     io.BytesIO()),
    }
    for name, run in passes.items():
        spy.reset_mock()
        run()
        assert spy.called, name


def would_block(call):
    with pytest.raises(BlockingIOError) as raised:
        call()
    assert raised.value.errno == errno.EAGAIN


@pytest.mark.parametrize("ready", (0, 1000, 100_000))
def test_a_would_block_read_is_no_end_of_input(ready):
    data = CounterSource("loop-stall").read_bytes(300_000)
    pool = generate_pool(3, 5, CounterSource("loop-stall-pool"))
    cfg = WhitenConfig(n_qubits=3, pool_count=5)
    would_block(lambda: whiten_stream(Stalling(data, ready), pool, cfg,
                                      CounterSource("sel"), io.BytesIO()))
    would_block(lambda: analyze(Stalling(data, ready)))
    would_block(lambda: baselines.von_neumann(Stalling(data, ready), io.BytesIO()))
    would_block(lambda: _util.read_up_to(Stalling(data, ready), len(data)))
    would_block(lambda: _util.read_into(Stalling(data, ready), bytearray(len(data))))
    read_only = SimpleNamespace(read=Stalling(data, ready).read)
    would_block(lambda: _util.read_into(read_only, bytearray(len(data))))


def test_a_would_block_trace_read_is_no_truncated_trace():
    would_block(lambda: trace_load(Stalling(b"PWTR" + bytes(100), 4)))


@pytest.mark.parametrize("command", ("whiten", "analyze"))
def test_a_would_block_input_exits_3(tmp_path, monkeypatch, capsys, command):
    data = CounterSource("loop-stall-cli").read_bytes(300_000)
    src, out = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(data)
    pool = tmp_path / "p.pool"
    assert main(["gen-pool", str(pool), "--n-qubits", "3", "--count", "5",
                 "--source", "det"]) == 0

    def open_stalling(file, mode="r", *args, **kwargs):
        if str(file) == str(src):
            return Stalling(data, 100_000)
        return open(file, mode, *args, **kwargs)

    # The module global shadows the builtin for the command line's code alone.
    monkeypatch.setattr(cli, "open", open_stalling, raising=False)
    argv = {"whiten": ["whiten", str(src), str(out), "--pool", str(pool), "--source", "det"],
            "analyze": ["analyze", str(src), "--csv", str(out)]}[command]
    assert main(argv) == 3
    assert "I/O error" in capsys.readouterr().err
    assert not out.exists()

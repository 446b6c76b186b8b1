"""End-to-end command-line behavior, run in process through main()."""

import argparse
import io
import json
import os
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import pytest

from permwhite import cli
from permwhite.cli import main
from permwhite.entropy import CounterSource, SeedFileSource
from permwhite.permutation import (
    IndexPermutation,
    MatrixPool,
    generate_pool,
    pool_load,
    pool_save,
)
from permwhite.randtests import EntReport
from permwhite.reports import report_to_csv

MIB = 1 << 20


def run_cli(*argv):
    return main(list(argv))


def write_identity_pool(path, n_qubits=3, count=2):
    size = 1 << n_qubits
    perms = tuple(IndexPermutation.identity(size) for _ in range(count))
    with open(path, "wb") as fh:
        pool_save(MatrixPool(n_qubits, perms, "identity"), fh)


@pytest.fixture
def pool_file(tmp_path):
    path = tmp_path / "small.pool"
    rc = run_cli("gen-pool", str(path), "--n-qubits", "3", "--count", "4",
                 "--source", "det", "--key", "cli-pool")
    assert rc == 0
    return path


# --- gen-pool ---

def test_gen_pool_is_deterministic(tmp_path):
    a = tmp_path / "a.pool"
    b = tmp_path / "b.pool"
    for path in (a, b):
        rc = run_cli("gen-pool", str(path), "--n-qubits", "2", "--count", "3",
                     "--source", "det", "--key", "same-key")
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_pool_rejects_zero_count(tmp_path):
    rc = run_cli("gen-pool", str(tmp_path / "x.pool"), "--count", "0",
                 "--source", "det")
    assert rc == 2


def test_gen_pool_rejects_unknown_mode(tmp_path):
    rc = run_cli("gen-pool", str(tmp_path / "x.pool"), "--mode", "sideways")
    assert rc == 2


def test_gen_pool_exhausted_seed(tmp_path):
    seed = tmp_path / "seed.bin"
    seed.write_bytes(b"\x00\x01\x02")  # one permutation of 4 needs 4 draws
    rc = run_cli("gen-pool", str(tmp_path / "x.pool"), "--n-qubits", "2",
                 "--count", "1", "--source", "seed", "--seed-file", str(seed))
    assert rc == 3


# n=4 has 16 positions, so two fullrange permutations take 32 one-byte draws
def test_gen_pool_seed_file_of_exact_length(tmp_path):
    seed = tmp_path / "seed.bin"
    seed.write_bytes(CounterSource("gen-pool-seed").read_bytes(32))
    out = tmp_path / "x.pool"
    rc = run_cli("gen-pool", str(out), "--n-qubits", "4", "--count", "2",
                 "--source", "seed", "--seed-file", str(seed))
    assert rc == 0
    expected = io.BytesIO()
    with SeedFileSource(str(seed)) as rng:
        pool_save(generate_pool(4, 2, rng), expected)
    assert out.read_bytes() == expected.getvalue()


def test_gen_pool_seed_file_one_byte_short(tmp_path, capsys):
    seed = tmp_path / "seed.bin"
    seed.write_bytes(CounterSource("gen-pool-seed").read_bytes(31))
    out = tmp_path / "x.pool"
    rc = run_cli("gen-pool", str(out), "--n-qubits", "4", "--count", "2",
                 "--source", "seed", "--seed-file", str(seed))
    assert rc == 3
    assert "exhausted at offset 31" in capsys.readouterr().err
    assert not out.exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".permwhite-tmp-")]


def test_gen_pool_peak_does_not_grow_with_the_count(tmp_path):
    # Each member is written as it is drawn: at n=16 a pool of 10 members
    # peaks where a pool of 2 does, not 8 maps of 256 KiB above it.
    peaks = []
    for count in (2, 10):
        tracemalloc.start()
        try:
            rc = run_cli("gen-pool", str(tmp_path / f"{count}.pool"), "--n-qubits", "16",
                         "--count", str(count), "--source", "det")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rc == 0
    assert abs(peaks[1] - peaks[0]) < MIB // 4, peaks
    with open(tmp_path / "10.pool", "rb") as fh:
        expected = io.BytesIO()
        pool_save(generate_pool(16, 10, CounterSource("permwhite")), expected)
        assert fh.read() == expected.getvalue()


# --- whiten / unwhiten ---

def test_whiten_preserves_size(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(CounterSource("cli-data").read_bytes(10_007))
    rc = run_cli("whiten", str(src), str(dst), "--pool", str(pool_file),
                 "--source", "det", "--key", "cli-sel")
    assert rc == 0
    assert dst.stat().st_size == src.stat().st_size
    assert dst.read_bytes() != src.read_bytes()


def test_whiten_identity_pool_copies_input(tmp_path):
    pool = tmp_path / "id.pool"
    write_identity_pool(pool)
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(bytes(range(256)) * 5)
    rc = run_cli("whiten", str(src), str(dst), "--pool", str(pool),
                 "--source", "det")
    assert rc == 0
    assert dst.read_bytes() == src.read_bytes()


def test_whiten_unwhiten_round_trip(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    mid = tmp_path / "white.bin"
    back = tmp_path / "back.bin"
    trace = tmp_path / "run.trace"
    src.write_bytes(CounterSource("cli-rt").read_bytes(4_099))  # odd tail
    rc = run_cli("whiten", str(src), str(mid), "--pool", str(pool_file),
                 "--trace", str(trace), "--source", "det", "--key", "rt-sel")
    assert rc == 0
    rc = run_cli("unwhiten", str(mid), str(back), "--pool", str(pool_file),
                 "--trace", str(trace))
    assert rc == 0
    assert back.read_bytes() == src.read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("extra, rc, said", [(0, 0, "wrote"), (2, 2, "trace too short"),
                                             (-2, 2, "trace too long")],
                         ids=["same-length", "one-chunk-more", "one-chunk-less"])
def test_unwhiten_from_a_fifo(tmp_path, capsys, extra, rc, said):
    # A FIFO has no size to check beforehand: the pass itself must refuse
    # an input of another length, before the output is renamed into place.
    pool, src = tmp_path / "p.pool", tmp_path / "in.bin"
    white, trace = tmp_path / "white.bin", tmp_path / "run.trace"
    data = CounterSource("cli-fifo").read_bytes(4_099)  # 2049 16-bit chunks, a tail byte
    src.write_bytes(data)
    assert run_cli("gen-pool", str(pool), "--n-qubits", "4", "--count", "3",
                   "--source", "det", "--key", "fifo-pool") == 0
    assert run_cli("whiten", str(src), str(white), "--pool", str(pool),
                   "--trace", str(trace), "--source", "det") == 0
    fed = (white.read_bytes() + b"xy")[:len(data) + extra]  # under a pipe's 64 KiB
    fifo = tmp_path / "white.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:    # waits for the reader to open it
            fh.write(fed)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    capsys.readouterr()                 # drop what gen-pool and whiten said
    back = tmp_path / "back.bin"
    assert run_cli("unwhiten", str(fifo), str(back), "--pool", str(pool),
                   "--trace", str(trace)) == rc
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert said in capsys.readouterr().err
    if rc == 0:
        assert back.read_bytes() == data
    else:
        assert not back.exists()
    assert [p for p in os.listdir(tmp_path) if p.startswith(".permwhite-tmp-")] == []


def test_whiten_is_deterministic_given_key(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    src.write_bytes(CounterSource("cli-det").read_bytes(8_192))
    outs = []
    for name in ("o1.bin", "o2.bin"):
        dst = tmp_path / name
        rc = run_cli("whiten", str(src), str(dst), "--pool", str(pool_file),
                     "--source", "det", "--key", "fixed-sel")
        assert rc == 0
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1]


def test_unwhiten_requires_trace(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    rc = run_cli("unwhiten", str(src), str(tmp_path / "out.bin"),
                 "--pool", str(pool_file))
    assert rc == 2


def test_unwhiten_refuses_missing_trace_before_reading_pool(tmp_path, capsys):
    pool = tmp_path / "junk.pool"
    pool.write_bytes(b"not a pool at all, sorry")
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    out = tmp_path / "out.bin"
    rc = run_cli("unwhiten", str(src), str(out), "--pool", str(pool))
    assert rc == 2
    assert "requires --trace" in capsys.readouterr().err
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".permwhite")]
    assert leftovers == []


def test_failed_run_leaves_no_output(tmp_path, pool_file):
    dst = tmp_path / "out.bin"
    rc = run_cli("whiten", str(tmp_path / "missing.bin"), str(dst),
                 "--pool", str(pool_file), "--source", "det")
    assert rc == 3
    assert not dst.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".permwhite")]
    assert leftovers == []



def test_unwritable_trace_leaves_output_untouched(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    dst = tmp_path / "white.bin"
    src.write_bytes(CounterSource("cli-trace-dir").read_bytes(4_096))
    dst.write_bytes(b"an earlier output")
    rc = run_cli("whiten", str(src), str(dst), "--pool", str(pool_file),
                 "--trace", str(tmp_path / "nodir" / "run.trace"),
                 "--source", "det", "--key", "trace-dir-sel")
    assert rc == 3
    assert dst.read_bytes() == b"an earlier output"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".permwhite")]
    assert leftovers == []


def test_trace_at_output_path_is_usage_error(tmp_path, pool_file, capsys):
    src = tmp_path / "raw.bin"
    src.write_bytes(CounterSource("cli-same").read_bytes(4_096))
    out = tmp_path / "x.bin"
    rc = run_cli("whiten", str(src), str(out), "--pool", str(pool_file),
                 "--trace", str(tmp_path / "." / "x.bin"), "--source", "det")
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["raw.bin", "small.pool"]


@pytest.mark.parametrize("argv, via", [
    (("unwhiten", "w.bin", "t.tr", "--trace", "t.tr"), "flag"),
    (("unwhiten", "w.bin", "./small.pool", "--trace", "t.tr"), "flag"),
    (("unwhiten", "w.bin", "small.pool", "--trace", "t.tr"), "env"),
    (("whiten", "raw.bin", "small.pool", "--trace", "t2.tr"), "flag"),
    (("whiten", "raw.bin", "small.pool", "--trace", "t2.tr"), "env"),
    (("whiten", "raw.bin", "small.pool", "--trace", "t2.tr"), "config"),
    (("whiten", "raw.bin", "w2.bin", "--trace", "small.pool"), "flag"),
], ids=["unwhiten-over-trace", "unwhiten-over-pool", "unwhiten-over-env-pool",
        "whiten-over-pool", "whiten-over-env-pool", "whiten-over-config-pool",
        "trace-over-pool"])
def test_output_over_pool_or_trace_is_usage_error(tmp_path, monkeypatch,
                                                  pool_file, argv, via):
    monkeypatch.chdir(tmp_path)
    Path("raw.bin").write_bytes(CounterSource("cli-clobber").read_bytes(4_096))
    assert run_cli("whiten", "raw.bin", "w.bin", "--pool", "small.pool",
                   "--trace", "t.tr", "--source", "det") == 0
    kept = {name: Path(name).read_bytes() for name in ("small.pool", "t.tr")}
    before = sorted(os.listdir("."))
    extra = []
    if via == "flag":
        extra = ["--pool", "small.pool"]
    elif via == "env":
        monkeypatch.setenv(cli.POOL_ENV, "small.pool")
    else:
        Path("run.cfg").write_text("pool = small.pool\n")
        before.append("run.cfg")
        extra = ["--config", "run.cfg"]
    assert run_cli(*argv, *extra) == 2
    assert {name: Path(name).read_bytes() for name in kept} == kept
    assert sorted(os.listdir(".")) == sorted(before)


@pytest.mark.parametrize("link", [os.link, os.symlink], ids=["hard-link", "symlink"])
def test_output_linked_to_the_trace_is_usage_error(tmp_path, monkeypatch, pool_file, link):
    # the trace under another name is still the trace
    monkeypatch.chdir(tmp_path)
    Path("raw.bin").write_bytes(CounterSource("cli-link").read_bytes(4_096))
    assert run_cli("whiten", "raw.bin", "w.bin", "--pool", "small.pool",
                   "--trace", "t.tr", "--source", "det") == 0
    link("t.tr", "alias.tr")
    kept = Path("t.tr").read_bytes()
    assert run_cli("unwhiten", "w.bin", "alias.tr", "--pool", "small.pool",
                   "--trace", "t.tr") == 2
    assert Path("t.tr").read_bytes() == kept


def test_whiten_in_place_is_allowed(tmp_path, monkeypatch, pool_file):
    monkeypatch.chdir(tmp_path)
    raw = CounterSource("cli-in-place").read_bytes(4_096)
    Path("raw.bin").write_bytes(raw)
    assert run_cli("whiten", "raw.bin", "raw.bin", "--pool", "small.pool",
                   "--trace", "t.tr", "--source", "det") == 0
    assert run_cli("unwhiten", "raw.bin", "back.bin", "--pool", "small.pool",
                   "--trace", "t.tr") == 0
    assert Path("back.bin").read_bytes() == raw


# --- analyze / compare ---

def test_analyze_cyclic_file(tmp_path, capsys):
    path = tmp_path / "cyclic.bin"
    path.write_bytes(bytes(range(256)) * 64)
    rc = run_cli("analyze", str(path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "8.000000" in out
    assert "0.00" in out
    assert "127.5000" in out
    assert "P-value" in out


def test_analyze_reports_undefined_scc(tmp_path, capsys):
    path = tmp_path / "zeros.bin"
    path.write_bytes(b"\x00" * 4096)
    report = tmp_path / "zeros.csv"
    rc = run_cli("analyze", str(path), "--csv", str(report))
    assert rc == 0
    out = capsys.readouterr().out
    assert "undefined" in out
    assert "-0.000000" not in out
    assert "entropy_bits_per_byte,0\n" in report.read_text()

    other = tmp_path / "random.bin"
    other.write_bytes(CounterSource("cli-zeros").read_bytes(4096))
    assert run_cli("compare", str(path), str(other)) == 0
    out = capsys.readouterr().out
    assert "-0.000000" not in out
    (scc_row,) = [line for line in out.splitlines()
                  if line.startswith("Serial Correlation")]
    assert scc_row.split()[3:5] == ["undefined", "0.011342"]


def test_analyze_csv_output(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(CounterSource("cli-csv").read_bytes(20_000))
    report = tmp_path / "report.csv"
    rc = run_cli("analyze", str(path), "--csv", str(report))
    assert rc == 0
    text = report.read_text()
    assert text.startswith("parameter,value")
    assert "entropy_bits_per_byte" in text
    assert "p_monobit" in text


@pytest.mark.parametrize("size, rc, bit_count", [
    (5, 5, None),      # byte-mode battery needs at least 6 bytes
    (6, 5, None),      # the bit battery needs at least 128 bits
    (15, 5, None),     # 120 bits, all of them an unfinished 128-bit row
    (16, 0, 128),
    (17, 0, 136),      # one whole row and one byte carried into the report
])
def test_analyze_csv_preconditions_on_tiny_files(tmp_path, capsys, size, rc, bit_count):
    path = tmp_path / "tiny.bin"
    path.write_bytes(CounterSource("cli-tiny").read_bytes(size))
    report = tmp_path / "tiny.csv"
    assert run_cli("analyze", str(path), "--csv", str(report)) == rc
    err = capsys.readouterr().err
    if bit_count is None:
        assert not report.exists()
        assert ("at least 6 bytes" if size < 6 else "at least 128 bits") in err
    else:
        assert f"bit_count,{bit_count}\n" in report.read_text()


def test_compare_file_with_itself_is_unchanged(tmp_path, capsys):
    path = tmp_path / "same.bin"
    path.write_bytes(CounterSource("cli-cmp").read_bytes(30_000))
    rc = run_cli("compare", str(path), str(path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "unchanged" in out
    assert "improved" not in out
    assert "worsened" not in out


def test_compare_from_reports(tmp_path, capsys):
    def report(path, mean):
        ent = EntReport(entropy_bits_per_byte=7.99, chi_square=260.0,
                        arithmetic_mean=mean, monte_carlo_pi=3.14,
                        serial_correlation=0.001,
                        serial_correlation_defined=True, byte_count=1_000_000)
        path.write_text(report_to_csv(ent))

    before = tmp_path / "before.csv"
    after = tmp_path / "after.csv"
    report(before, 127.5035)
    report(after, 127.4985)
    figure = tmp_path / "figure.csv"
    rc = run_cli("compare", str(before), str(after), "--from-reports",
                 "--figure-csv", str(figure))
    assert rc == 0
    out = capsys.readouterr().out
    assert "improved" in out
    lines = figure.read_text().strip().splitlines()
    assert lines[0] == "label,chi_square,arithmetic_mean"
    assert len(lines) == 3
    assert lines[1].startswith("before.csv,")


@pytest.mark.parametrize("labels, names", [
    (("--label-before", "raw", "--label-after", "white, n=13"),
     ["raw", '"white, n=13"']),
    ((), ["stuck.bin", "white.bin"]),
], ids=["labels", "basenames"])
def test_compare_figure_rows_carry_labels(tmp_path, capsys, labels, names):
    raw, white = tmp_path / "stuck.bin", tmp_path / "white.bin"
    raw.write_bytes(b"\x00\x01\x03" * 1000)
    white.write_bytes(CounterSource("cli-labels").read_bytes(3000))
    figure = tmp_path / "figure.csv"
    rc = run_cli("compare", str(raw), str(white), "--figure-csv", str(figure), *labels)
    assert rc == 0
    lines = figure.read_text().splitlines()
    assert lines[0] == "label,chi_square,arithmetic_mean"
    # a label is everything before the last two fields, as written
    assert [line.rsplit(",", 2)[0] for line in lines[1:]] == names


# --- baselines ---

def test_xor_command(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    out = tmp_path / "x.bin"
    a.write_bytes(b"\xff" * 64)
    b.write_bytes(b"\x55" * 64)
    assert run_cli("xor", str(a), str(b), str(out)) == 0
    assert out.read_bytes() == b"\xaa" * 64


def test_vn_command(tmp_path):
    src = tmp_path / "in.bin"
    out = tmp_path / "vn.bin"
    src.write_bytes(b"\x55" * 100)  # every pair is 01 -> emits 0
    assert run_cli("vn", str(src), str(out)) == 0
    assert out.read_bytes() == b"\x00" * 50


# --- exit codes and option resolution ---

def test_exit_code_missing_input(tmp_path):
    rc = run_cli("analyze", str(tmp_path / "nope.bin"))
    assert rc == 3


def test_exit_code_corrupt_pool(tmp_path):
    pool = tmp_path / "junk.pool"
    pool.write_bytes(b"not a pool at all, sorry")
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    rc = run_cli("whiten", str(src), str(tmp_path / "out.bin"),
                 "--pool", str(pool), "--source", "det")
    assert rc == 4


def test_exit_code_input_too_short(tmp_path):
    path = tmp_path / "tiny.bin"
    path.write_bytes(b"\x01\x02\x03")
    rc = run_cli("analyze", str(path))
    assert rc == 5


# A file object allocates a read request in full before reading, which a
# BytesIO never does, so hostile headers are tested on real files.

def test_lying_trace_header_is_format_error(tmp_path, pool_file, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    trace = tmp_path / "lying.trace"
    trace.write_bytes(struct.pack("<4sHIQ", b"PWTR", 1, 8, 1 << 40))
    out = tmp_path / "out.bin"
    rc = run_cli("unwhiten", str(src), str(out), "--pool", str(pool_file),
                 "--trace", str(trace))
    assert rc == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chunk_bits", [0, 3, 1 << 17])
def test_impossible_trace_chunk_size_is_format_error(tmp_path, pool_file, capsys,
                                                     chunk_bits):
    src = tmp_path / "in.bin"
    white = tmp_path / "white.bin"
    trace = tmp_path / "run.trace"
    src.write_bytes(CounterSource("cli-chunk-bits").read_bytes(1_000))
    rc = run_cli("whiten", str(src), str(white), "--pool", str(pool_file),
                 "--trace", str(trace), "--source", "det")
    assert rc == 0
    # The header's chunk size is not under the trace CRC.
    data = bytearray(trace.read_bytes())
    struct.pack_into("<I", data, 6, chunk_bits)
    trace.write_bytes(bytes(data))
    out = tmp_path / "out.bin"
    rc = run_cli("unwhiten", str(white), str(out), "--pool", str(pool_file),
                 "--trace", str(trace))
    assert rc == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".permwhite")]
    assert leftovers == []


@pytest.mark.parametrize("n_qubits, count", [(40, 1), (17, 1), (3, 2**32 - 1)])
def test_lying_pool_header_is_format_error(tmp_path, capsys, n_qubits, count):
    record = struct.pack("<8I", *range(8))
    pool = tmp_path / "lying.pool"
    pool.write_bytes(struct.pack("<4sHBBIH", b"PWPL", 1, n_qubits, 0, count, 0)
                     + record + struct.pack("<I", zlib.crc32(record)))
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    out = tmp_path / "out.bin"
    rc = run_cli("whiten", str(src), str(out), "--pool", str(pool),
                 "--source", "det")
    assert rc == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def _no_output_left(tmp_path, out):
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".permwhite-tmp-")]
    return not out.exists() and leftovers == []


@pytest.mark.parametrize("damage", ["junk appended", "count lowered"])
def test_pool_with_trailing_bytes_is_format_error(tmp_path, capsys, damage):
    pool = tmp_path / "p.pool"
    assert run_cli("gen-pool", str(pool), "--n-qubits", "3", "--count", "5",
                   "--source", "det", "--key", "cli-trailing") == 0
    data = bytearray(pool.read_bytes())
    if damage == "junk appended":
        data += b"junk"
    else:
        # The count is under no CRC: 4 leaves the fifth record trailing.
        struct.pack_into("<I", data, 8, 4)
    pool.write_bytes(bytes(data))
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    out = tmp_path / "out.bin"
    rc = run_cli("whiten", str(src), str(out), "--pool", str(pool),
                 "--source", "det")
    assert rc == 4
    assert "trailing bytes" in capsys.readouterr().err
    assert _no_output_left(tmp_path, out)


def test_trace_with_trailing_bytes_is_format_error(tmp_path, pool_file, capsys):
    src = tmp_path / "in.bin"
    white = tmp_path / "white.bin"
    trace = tmp_path / "run.trace"
    src.write_bytes(CounterSource("cli-trailing").read_bytes(1_000))
    assert run_cli("whiten", str(src), str(white), "--pool", str(pool_file),
                   "--trace", str(trace), "--source", "det") == 0
    trace.write_bytes(trace.read_bytes() + b"junk")
    out = tmp_path / "out.bin"
    rc = run_cli("unwhiten", str(white), str(out), "--pool", str(pool_file),
                 "--trace", str(trace))
    assert rc == 4
    assert "trailing bytes" in capsys.readouterr().err
    assert _no_output_left(tmp_path, out)


def test_gen_pool_rejects_cap_above_loadable_size(tmp_path):
    rc = run_cli("gen-pool", str(tmp_path / "big.pool"), "--n-qubits", "17",
                 "--source", "det")
    assert rc == 2
    assert not (tmp_path / "big.pool").exists()


# Two 4096-bit permutations draw 2 * 8192 bytes: from counter 2**64 - 1,
# the second block would need a counter the 8-byte encoding cannot hold.
@pytest.mark.parametrize("counter, expected", [
    (-1, 2), (2**64, 2), (2**64 - 1, 3),
])
def test_gen_pool_counter_outside_64_bits(tmp_path, capsys, counter, expected):
    out = tmp_path / "x.pool"
    rc = run_cli("gen-pool", str(out), "--n-qubits", "12", "--count", "2",
                 "--source", "det", "--counter", str(counter))
    assert rc == expected
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_output_mode_follows_umask(tmp_path, pool_file):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(64)))
    out = tmp_path / "out.bin"
    old = os.umask(0o027)
    try:
        rc = run_cli("whiten", str(src), str(out), "--pool", str(pool_file),
                     "--source", "det")
    finally:
        os.umask(old)
    assert rc == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_no_command_touches_the_umask(tmp_path, monkeypatch, capsys):
    # The kernel applies the umask when an output's temp file is created;
    # no command reads it through os.umask, which can only set it.
    f = {name: str(tmp_path / name) for name in (
        "in.bin", "p.pool", "white.bin", "run.trace", "back.bin", "r.csv",
        "fig.csv", "x.bin", "vn.bin")}
    (tmp_path / "in.bin").write_bytes(CounterSource("cli-umask").read_bytes(4_096))
    calls = []
    real_umask = os.umask

    def spy(mask):
        calls.append(mask)
        return real_umask(mask)

    monkeypatch.setattr(os, "umask", spy)
    steps = [
        ["gen-pool", f["p.pool"], "--n-qubits", "4", "--count", "4",
         "--source", "det", "--key", "cli-umask"],
        ["whiten", f["in.bin"], f["white.bin"], "--pool", f["p.pool"],
         "--trace", f["run.trace"], "--source", "det"],
        ["unwhiten", f["white.bin"], f["back.bin"], "--pool", f["p.pool"],
         "--trace", f["run.trace"]],
        ["analyze", f["white.bin"], "--csv", f["r.csv"]],
        ["compare", f["in.bin"], f["white.bin"], "--figure-csv", f["fig.csv"]],
        ["xor", f["in.bin"], f["white.bin"], f["x.bin"]],
        ["vn", f["in.bin"], f["vn.bin"]],
    ]
    for argv in steps:
        assert run_cli(*argv) == 0, argv
    capsys.readouterr()
    assert calls == []
    assert all(os.path.getsize(path) for path in f.values())


def test_exit_code_bad_flag():
    assert run_cli("gen-pool", "x.pool", "--no-such-flag") == 2


def test_exit_code_no_command(capsys):
    assert run_cli() == 2
    capsys.readouterr()  # swallow the help text


def test_whiten_without_pool_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.delenv("PWHITEN_POOL", raising=False)
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    rc = run_cli("whiten", str(src), str(tmp_path / "out.bin"),
                 "--source", "det")
    assert rc == 2


def test_pool_env_variable(tmp_path, monkeypatch, pool_file):
    monkeypatch.setenv("PWHITEN_POOL", str(pool_file))
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(CounterSource("env-pool").read_bytes(2048))
    rc = run_cli("whiten", str(src), str(dst), "--source", "det")
    assert rc == 0
    assert dst.stat().st_size == 2048


@pytest.mark.parametrize("workers", ["0", "abc"])
def test_workers_env_variable_is_ignored(tmp_path, monkeypatch, pool_file,
                                         workers):
    src = tmp_path / "in.bin"
    src.write_bytes(CounterSource("cli-workers").read_bytes(2048))

    def whiten(name, *extra):
        dst = tmp_path / name
        rc = run_cli("whiten", str(src), str(dst), "--pool", str(pool_file),
                     "--source", "det", *extra)
        assert rc == 0
        return dst.read_bytes()

    plain = whiten("plain.bin")
    monkeypatch.setenv("PWHITEN_WORKERS", workers)
    assert whiten("env.bin") == plain
    config = tmp_path / "run.conf"
    config.write_text(f"workers = {workers}\n")
    assert whiten("conf.bin", "--config", str(config)) == plain


def test_config_file_supplies_options(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# pool shape\n"
        "n-qubits = 2\n"
        "count = 3\n"
        "source = det\n"
        "key = conf-key\n"
        "unused-by-gen-pool = whatever\n"
    )
    out = tmp_path / "conf.pool"
    rc = run_cli("gen-pool", str(out), "--config", str(config))
    assert rc == 0
    direct = tmp_path / "direct.pool"
    rc = run_cli("gen-pool", str(direct), "--n-qubits", "2", "--count", "3",
                 "--source", "det", "--key", "conf-key")
    assert rc == 0
    assert out.read_bytes() == direct.read_bytes()


def test_flag_beats_config(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("count = 3\nsource = det\nkey = conf-key\n")
    out = tmp_path / "flag.pool"
    rc = run_cli("gen-pool", str(out), "--config", str(config),
                 "--n-qubits", "2", "--count", "1")
    assert rc == 0
    direct = tmp_path / "direct.pool"
    run_cli("gen-pool", str(direct), "--n-qubits", "2", "--count", "1",
            "--source", "det", "--key", "conf-key")
    assert out.read_bytes() == direct.read_bytes()


def test_config_beats_environment(tmp_path, monkeypatch, pool_file):
    monkeypatch.setenv("PWHITEN_POOL", str(tmp_path / "does-not-exist.pool"))
    config = tmp_path / "run.conf"
    config.write_text(f"pool = {pool_file}\nsource = det\n")
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x07" * 64)
    rc = run_cli("whiten", str(src), str(tmp_path / "out.bin"),
                 "--config", str(config))
    assert rc == 0


def test_malformed_config_line(tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("this line has no equals sign\n")
    rc = run_cli("gen-pool", str(tmp_path / "x.pool"), "--config", str(config))
    assert rc == 2


@pytest.mark.parametrize("line", ["counter = abc", "count = x"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, line):
    config = tmp_path / "bad.conf"
    config.write_text(f"source = det\n{line}\n")
    out = tmp_path / "x.pool"
    rc = run_cli("gen-pool", str(out), "--n-qubits", "2", "--config", str(config))
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_config_key_not_honoured_by_analyze(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(CounterSource("cli-conf").read_bytes(30_000))
    report = tmp_path / "out.csv"
    config = tmp_path / "run.conf"
    config.write_text(f"csv = {report}\n")
    assert run_cli("analyze", str(src), "--config", str(config)) == 0
    assert not report.exists()


@pytest.mark.parametrize("command", [
    "gen-pool", "whiten", "unwhiten", "analyze", "compare", "xor", "vn",
])
def test_command_help(capsys, command):
    assert run_cli(command, "--help") == 0
    out = capsys.readouterr().out
    if command == "gen-pool":
        for default in ("13", "32", "fullrange", "os"):
            assert f"(default {default})" in out


# --- hostile report and pool files ---

@pytest.mark.parametrize("rows", [
    b"chi_square," + b"1" * (140 * 1024) + b"\n",
    b"\xff\xfe,1\n",
    b"chi_square,nan\n",
    b"chi_square,inf\n",
], ids=["huge-field", "not-utf8", "nan", "inf"])
def test_hostile_report_csv_is_format_error(tmp_path, capsys, rows):
    ent = EntReport(entropy_bits_per_byte=7.99, chi_square=260.0,
                    arithmetic_mean=127.5, monte_carlo_pi=3.14,
                    serial_correlation=0.001,
                    serial_correlation_defined=True, byte_count=1_000_000)
    good = tmp_path / "good.csv"
    good.write_text(report_to_csv(ent))
    hostile = tmp_path / "hostile.csv"
    hostile.write_bytes(good.read_bytes() + rows)
    figure = tmp_path / "figure.csv"
    rc = run_cli("compare", str(good), str(hostile), "--from-reports",
                 "--figure-csv", str(figure))
    assert rc == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not figure.exists()


def test_pool_tag_not_utf8_is_format_error(tmp_path, capsys):
    record = struct.pack("<8I", *range(8))
    pool = tmp_path / "tag.pool"
    pool.write_bytes(struct.pack("<4sHBBIH", b"PWPL", 1, 3, 0, 1, 2)
                     + b"\xff\xfe" + record
                     + struct.pack("<I", zlib.crc32(record)))
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00" * 16)
    out = tmp_path / "out.bin"
    rc = run_cli("whiten", str(src), str(out), "--pool", str(pool),
                 "--source", "det")
    assert rc == 4
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


# --- one parser per process ---

def test_main_builds_no_parser(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main() built a parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    monkeypatch.delenv("PWHITEN_POOL", raising=False)
    config = tmp_path / "run.conf"
    config.write_text("count = 3\nsource = det\n")
    pool = tmp_path / "conf.pool"
    rc = run_cli("gen-pool", str(pool), "--n-qubits", "2",
                 "--config", str(config))
    assert rc == 0
    # A config applies to its own call only.
    fresh = tmp_path / "fresh.pool"
    rc = run_cli("gen-pool", str(fresh), "--n-qubits", "2", "--source", "det")
    assert rc == 0
    with open(pool, "rb") as fh_conf, open(fresh, "rb") as fh_fresh:
        assert (pool_load(fh_conf).count, pool_load(fh_fresh).count) == (3, 32)

    # PWHITEN_POOL is read when a command runs, not when the parser is built.
    monkeypatch.setenv("PWHITEN_POOL", str(pool))
    src = tmp_path / "in.bin"
    src.write_bytes(CounterSource("cli-once").read_bytes(4_099))
    white = tmp_path / "white.bin"
    trace = tmp_path / "run.trace"
    back = tmp_path / "back.bin"
    rc = run_cli("whiten", str(src), str(white), "--trace", str(trace),
                 "--source", "det")
    assert rc == 0
    rc = run_cli("unwhiten", str(white), str(back), "--trace", str(trace))
    assert rc == 0
    assert back.read_bytes() == src.read_bytes()


def run_python(*argv):
    """Run a fresh interpreter with this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def run_module(*argv):
    return run_python("-m", "permwhite.cli", *argv)


def test_module_entry_point():
    done = run_module("gen-pool", "--help")
    assert done.returncode == 0
    assert "(default 13)" in done.stdout
    done = run_module("whiten")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert "usage:" in done.stderr


# Run in a fresh interpreter, because this one has scipy loaded already.
# Each step reports whether scipy is loaded once it has finished.
_STARTUP_SCRIPT = """
import json, sys
import permwhite
loaded = {"import permwhite": (0, "scipy" in sys.modules)}
from permwhite.cli import main
for argv in json.loads(sys.argv[1]):
    loaded[argv[0]] = (main(argv), "scipy" in sys.modules)
sys.stderr.write(json.dumps(loaded))
"""


def test_only_analyze_loads_scipy(tmp_path):
    f = {name: str(tmp_path / name) for name in (
        "in.bin", "p.pool", "white.bin", "run.trace", "back.bin", "x.bin",
        "vn.bin", "r.csv")}
    (tmp_path / "in.bin").write_bytes(CounterSource("cli-startup").read_bytes(4_096))
    steps = [
        ["gen-pool", f["p.pool"], "--n-qubits", "3", "--count", "4",
         "--source", "det", "--key", "cli-startup"],
        ["whiten", f["in.bin"], f["white.bin"], "--pool", f["p.pool"],
         "--trace", f["run.trace"], "--source", "det"],
        ["unwhiten", f["white.bin"], f["back.bin"], "--pool", f["p.pool"],
         "--trace", f["run.trace"]],
        ["compare", f["in.bin"], f["white.bin"]],
        ["xor", f["in.bin"], f["white.bin"], f["x.bin"]],
        ["vn", f["in.bin"], f["vn.bin"]],
        ["analyze", f["white.bin"], "--csv", f["r.csv"]],
    ]
    done = run_python("-c", _STARTUP_SCRIPT, json.dumps(steps))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stderr.splitlines()[-1])
    expected = {name: [0, name == "analyze"]
                for name in ["import permwhite"] + [argv[0] for argv in steps]}
    assert loaded == expected
    assert Path(f["back.bin"]).read_bytes() == Path(f["in.bin"]).read_bytes()

    here = tmp_path / "here.csv"
    assert run_cli("analyze", f["white.bin"], "--csv", str(here)) == 0
    assert here.read_bytes() == Path(f["r.csv"]).read_bytes()

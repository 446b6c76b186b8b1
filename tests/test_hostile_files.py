"""Hostile-input gate: pool, trace and report files that the CLI wrote, then
mutated, must end in a clean exit (0, 2 or 4) with no output left behind,
and the binary loaders' memory stays bounded by the bytes the file holds.

Mutations are truncation, one flipped bit, a header field overwritten with
0x00..., 0xff... or a lying value, and bytes spliced in from another file.
Exit 2 covers a well-formed file that no longer matches, such as a pool
shrunk below the indices its trace selects.
"""

import os
import struct
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permwhite.cli import main
from permwhite.entropy import CounterSource
from permwhite.errors import FormatError
from permwhite.permutation import pool_load
from permwhite.whitening import trace_load

SHAPES = [(3, 5), (4, 300)]
KINDS = ("pool", "trace", "csv")

# (offset, width) of each little-endian header field
HEADER_FIELDS = {
    "pool": ((0, 4), (4, 2), (6, 1), (7, 1), (8, 4), (12, 2)),
    "trace": ((0, 4), (4, 2), (6, 4), (10, 8)),
}

GATE = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The good files, per shape: pool, input, whitened output, trace and
    report CSV, all written through the CLI."""
    made = {}
    for n, m in SHAPES:
        d = tmp_path_factory.mktemp(f"good-n{n}-m{m}")
        paths = {k: str(d / k) for k in ("pool", "input", "white", "trace", "csv")}
        with open(paths["input"], "wb") as fh:
            fh.write(CounterSource(f"hostile-input-{n}").read_bytes(4_099))
        for argv in (
            ["gen-pool", paths["pool"], "--n-qubits", str(n), "--count", str(m),
             "--source", "det", "--key", f"hostile-{n}-{m}", "--tag", "gate"],
            ["whiten", paths["input"], paths["white"], "--pool", paths["pool"],
             "--trace", paths["trace"], "--source", "det"],
            ["analyze", paths["white"], "--csv", paths["csv"]],
        ):
            assert main(argv) == 0
        made[n, m] = paths
    return made


def _field_spans(kind, data):
    if kind in HEADER_FIELDS:
        return HEADER_FIELDS[kind]
    # A report's fields are its values: the text after each row's comma.
    spans, start = [], 0
    for line in data.split(b"\n"):
        comma = line.find(b",")
        if comma >= 0:
            spans.append((start + comma + 1, len(line) - comma - 1))
        start += len(line) + 1
    return tuple(spans)


mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(0, 7)),
    st.tuples(st.just("field"), st.integers(0, 63),
              st.one_of(st.sampled_from(["zeros", "ones"]),
                        st.integers(-8, 8),              # off by a little
                        st.integers(0, (1 << 64) - 1))),  # any value at all
    st.tuples(st.just("splice"), st.integers(0, 1 << 20),
              st.sampled_from([(shape, kind) for shape in SHAPES
                               for kind in ("pool", "trace", "csv", "white")]),
              st.integers(0, 1 << 20), st.integers(1, 64), st.booleans()),
)


def mutate(kind, data, mutation, files):
    op, *args = mutation
    if op == "truncate":
        return data[:args[0] % len(data)]
    if op == "flip":
        pos, bit = args[0] % len(data), args[1]
        return data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1:]
    if op == "field":
        spans = _field_spans(kind, data)
        offset, width = spans[args[0] % len(spans)]
        fill = args[1]
        if fill == "zeros":
            new = b"\x00" * width
        elif fill == "ones":
            new = b"\xff" * width
        elif kind == "csv":
            new = str(fill).encode()
        else:
            real = int.from_bytes(data[offset:offset + width], "little")
            value = real + fill if -8 <= fill <= 8 else fill
            new = (value % (1 << 8 * width)).to_bytes(width, "little")
        return data[:offset] + new + data[offset + width:]
    pos, (shape, donor_kind), start, length, overwrite = args
    with open(files[shape][donor_kind], "rb") as fh:
        donor = fh.read()
    start %= len(donor)
    piece = donor[start:start + length]
    pos %= len(data) + 1
    return data[:pos] + piece + data[pos + len(piece) * overwrite:]


def _run(kind, paths, hostile, workdir):
    """Run the consumer of ``kind`` on the hostile file; return its exit
    code and the outputs it was asked to write."""
    if kind == "pool":
        white, trace = os.path.join(workdir, "w"), os.path.join(workdir, "t")
        rc = main(["whiten", paths["input"], white, "--pool", hostile,
                   "--trace", trace, "--source", "det"])
        back = os.path.join(workdir, "b")
        rc2 = main(["unwhiten", paths["white"], back, "--pool", hostile,
                    "--trace", paths["trace"]])
        return [(rc, [white, trace]), (rc2, [back])]
    if kind == "trace":
        back = os.path.join(workdir, "b")
        return [(main(["unwhiten", paths["white"], back, "--pool", paths["pool"],
                       "--trace", hostile]), [back])]
    figure = os.path.join(workdir, "f")
    return [(main(["compare", paths["csv"], hostile, "--from-reports",
                   "--figure-csv", figure]), [figure])]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=["n3-m5", "n4-m300"])
@GATE
@given(mutation=mutations)
# Well-formed files that no longer match, refused once the output is open:
# a pool one member short of the trace's indices, a trace of another size.
@example(mutation=("field", 4, -1))
@example(mutation=("field", 2, 32))
def test_mutated_file_exits_cleanly(files, shape, kind, mutation):
    paths = files[shape]
    with open(paths[kind], "rb") as fh:
        data = mutate(kind, fh.read(), mutation, files)
    with tempfile.TemporaryDirectory() as workdir:
        hostile = os.path.join(workdir, "hostile")
        with open(hostile, "wb") as fh:
            fh.write(data)
        for rc, outputs in _run(kind, paths, hostile, workdir):
            assert rc in (0, 2, 4)
            if rc:
                assert not any(os.path.exists(p) for p in outputs)
            leftovers = [p for p in os.listdir(workdir) if p.startswith(".permwhite")]
            assert leftovers == []


def _load_peak(load, data):
    """The tracemalloc peak of ``load`` reading ``data`` from a real file;
    a ``FormatError`` is a clean refusal."""
    with tempfile.TemporaryDirectory() as workdir:
        hostile = os.path.join(workdir, "hostile")
        with open(hostile, "wb") as fh:
            fh.write(data)
        tracemalloc.start()
        try:
            with open(hostile, "rb") as fh:
                try:
                    load(fh)
                except FormatError:
                    pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("kind, load", [("pool", pool_load), ("trace", trace_load)])
@pytest.mark.parametrize("shape", SHAPES, ids=["n3-m5", "n4-m300"])
@GATE
@given(mutation=mutations)
def test_mutated_file_loads_in_bounded_memory(files, shape, kind, load, mutation):
    with open(files[shape][kind], "rb") as fh:
        data = mutate(kind, fh.read(), mutation, files)
    peak = _load_peak(load, data)
    assert peak <= 8 * len(data) + (1 << 20), (peak, len(data))


def test_lying_pool_count_loads_in_bounded_memory(files):
    # The largest count the header can claim, over a real n=4, M=300 pool.
    with open(files[4, 300]["pool"], "rb") as fh:
        data = bytearray(fh.read())
    struct.pack_into("<I", data, 8, (1 << 32) - 1)
    peak = _load_peak(pool_load, bytes(data))
    assert peak <= 8 * len(data) + (1 << 20), (peak, len(data))

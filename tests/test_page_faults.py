"""Repeated commands reuse their memory from one command to the next.

A process that runs ``analyze``, ``compare`` and ``vn`` over and over, as
the benchmark's evaluate workload does, or ``whiten --trace``, ``whiten``
and ``unwhiten``, as its default-roundtrip workload does, should take its
pages from the heap it already holds. A pass whose temporaries let the
allocator hand the heap's top back to the kernel after every read faults
it in again on the next one, and runs about half as fast.

Order matters, so each set runs in the benchmark's order, after an
in-process gen-pool. A third set is a fresh process that loads its pool
from a file written before it started and runs only untraced whitens.
It faults none either, because the kernel's buffers belong to the thread
and outlive each call; when each call made its own, the heap's top was
trimmed as they were freed and every whiten after the first faulted about
800 pages."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permwhite.entropy import CounterSource
from permwhite.permutation import generate_pool, pool_save

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="minor page-fault counts are read on Linux")

WARM_PASSES = 5
COUNTED_PASSES = 20
MAX_FAULTS_PER_COMMAND = 64

# Writes an input with every 64th byte stuck at 0 (2 MiB for the
# statistics, 4 MiB + 100 bytes at n=13, M=32 for whitening), then runs the
# commands in turn and prints, per command, the minor page faults of the
# counted passes. The statistics read a copy whitened in set-up.
CHILD = """\
import contextlib, io, os, resource, sys
import numpy as np
from permwhite.cli import main
from permwhite.entropy import CounterSource

work, workload = sys.argv[1], sys.argv[2]
names = ("raw", "pool", "white", "csv", "vn", "trace", "w2", "back")
path = {name: os.path.join(work, name) for name in names}
size = {"evaluate": 2 << 20, "roundtrip": (4 << 20) + 100}[workload]
data = np.frombuffer(CounterSource("fault-guard").read_bytes(size), np.uint8).copy()
data[::64] = 0
with open(path["raw"], "wb") as fh:
    fh.write(data.tobytes())
pool = ["--pool", path["pool"]]
select = ["--source", "det", "--key", "fault-guard-select"]
commands = {
    "evaluate": {
        "analyze": ["analyze", path["white"], "--csv", path["csv"]],
        "compare": ["compare", path["raw"], path["white"]],
        "vn": ["vn", path["raw"], path["vn"]],
    },
    "roundtrip": {
        "whiten_trace": ["whiten", path["raw"], path["white"], *pool,
                         "--trace", path["trace"], *select],
        "whiten": ["whiten", path["raw"], path["w2"], *pool, *select],
        "unwhiten": ["unwhiten", path["white"], path["back"], *pool,
                     "--trace", path["trace"]],
    },
}[workload]
faults = dict.fromkeys(commands, 0)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["gen-pool", path["pool"], "--n-qubits", "13", "--count", "32",
                 "--source", "det", "--key", "fault-guard-pool"]) == 0
    if workload == "evaluate":
        assert main(["whiten", path["raw"], path["white"], *pool, *select]) == 0
    for done in range(int(sys.argv[3]) + int(sys.argv[4])):
        for name, argv in commands.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            if done >= int(sys.argv[3]):
                faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(" ".join(f"{name}={count}" for name, count in faults.items()))
"""


# Given a pool file and an input file, runs untraced whitens alone, with
# nothing before them in the process, and prints the minor page faults of
# the counted passes.
WHITEN_ONLY_CHILD = """\
import contextlib, io, resource, sys
from permwhite.cli import main

raw, pool, out, warm, counted = sys.argv[1:]
argv = ["whiten", raw, out, "--pool", pool,
        "--source", "det", "--key", "fault-guard-select"]
faults = 0
with contextlib.redirect_stderr(io.StringIO()):
    for done in range(int(warm) + int(counted)):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        if done >= int(warm):
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


def faults_per_command(tmp_path, workload):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), workload, str(WARM_PASSES),
         str(COUNTED_PASSES)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return {name: int(count) / COUNTED_PASSES for name, count in
            (field.split("=") for field in done.stdout.split())}


def test_repeated_commands_take_no_new_pages(tmp_path):
    per_command = faults_per_command(tmp_path, "evaluate")
    assert set(per_command) == {"analyze", "compare", "vn"}
    assert all(n < MAX_FAULTS_PER_COMMAND for n in per_command.values()), per_command


def test_repeated_whitening_takes_no_new_pages(tmp_path):
    per_command = faults_per_command(tmp_path, "roundtrip")
    assert set(per_command) == {"whiten_trace", "whiten", "unwhiten"}
    assert all(n < MAX_FAULTS_PER_COMMAND for n in per_command.values()), per_command


def test_whitening_with_a_pool_from_a_file_takes_no_new_pages(tmp_path):
    raw, pool, out = (str(tmp_path / name) for name in ("raw", "pool", "white"))
    data = np.frombuffer(CounterSource("fault-guard").read_bytes((4 << 20) + 100),
                         np.uint8).copy()
    data[::64] = 0
    with open(raw, "wb") as fh:
        fh.write(data)
    with open(pool, "wb") as fh:
        pool_save(generate_pool(13, 32, CounterSource("fault-guard-pool")), fh)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", WHITEN_ONLY_CHILD, raw, pool, out, str(WARM_PASSES),
         str(COUNTED_PASSES)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / COUNTED_PASSES < MAX_FAULTS_PER_COMMAND, done.stdout

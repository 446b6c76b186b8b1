"""The statistics pass reuses its memory from one command to the next.

A process that runs ``analyze``, ``compare`` and ``vn`` over and over, as
the benchmark's evaluate workload does, should take its pages from the
heap it already holds. A pass whose temporaries let the allocator hand the
heap's top back to the kernel after every read faults it in again on the
next one, and runs about half as fast."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="minor page-fault counts are read on Linux")

WARM_PASSES = 5
COUNTED_PASSES = 20
MAX_FAULTS_PER_COMMAND = 64

# Writes a 2 MiB input with every 64th byte stuck at 0 and its whitened
# copy, then runs the three commands in turn and prints, per command, the
# minor page faults of the counted passes.
CHILD = """\
import contextlib, io, os, resource, sys
import numpy as np
from permwhite.cli import main
from permwhite.entropy import CounterSource

work = sys.argv[1]
path = {name: os.path.join(work, name) for name in ("raw", "pool", "white", "csv", "vn")}
data = np.frombuffer(CounterSource("fault-guard").read_bytes(2 << 20), np.uint8).copy()
data[::64] = 0
with open(path["raw"], "wb") as fh:
    fh.write(data.tobytes())
commands = {
    "analyze": ["analyze", path["white"], "--csv", path["csv"]],
    "compare": ["compare", path["raw"], path["white"]],
    "vn": ["vn", path["raw"], path["vn"]],
}
faults = dict.fromkeys(commands, 0)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["gen-pool", path["pool"], "--n-qubits", "13", "--count", "32",
                 "--source", "det", "--key", "fault-guard-pool"]) == 0
    assert main(["whiten", path["raw"], path["white"], "--pool", path["pool"],
                 "--source", "det", "--key", "fault-guard-select"]) == 0
    for done in range(int(sys.argv[2]) + int(sys.argv[3])):
        for name, argv in commands.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            if done >= int(sys.argv[2]):
                faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(" ".join(f"{name}={count}" for name, count in faults.items()))
"""


def test_repeated_commands_take_no_new_pages(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(WARM_PASSES), str(COUNTED_PASSES)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    faults = {name: int(count) for name, count in
              (field.split("=") for field in done.stdout.split())}
    assert set(faults) == {"analyze", "compare", "vn"}
    per_command = {name: count / COUNTED_PASSES for name, count in faults.items()}
    assert all(n < MAX_FAULTS_PER_COMMAND for n in per_command.values()), per_command

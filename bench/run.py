#!/usr/bin/env python3
"""permwhite benchmark: CLI throughput on three workloads, or a traced
per-layer run over the same inputs.

    python3 bench/run.py --workload default-roundtrip --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` beside this directory; nothing is
installed or downloaded. Inputs come from ``CounterSource`` streams keyed by
``--seed``, are written to a scratch directory under ``.bench_work/`` and
are the only thing the commands see. Load is closed-loop from this one
process: one command at a time, at most two worker threads.

With ``--trace 0`` the workload's three commands run through
``permwhite.cli.main`` in a loop for ``--seconds`` seconds, every output is
checked, and the end-to-end metrics are reported (``run_commands`` says
which sample each one takes). With ``--trace 1`` the traced pipeline in
``traced.py`` runs instead and the per-layer metrics are reported. Metric
names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above it
are a human-readable report, and the full record (environment, per-command
samples and, when traced, the spans) is written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Keep numpy's BLAS single-threaded here and in every child: the benchmark
# never runs more than the two whitening workers it asks for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIB = 1 << 20

MIN_PASSES = 3
SIDE_REPS = 12          # gen-pool bursts and fresh starts spread over a run
SETUP_BURST = 0.1       # seconds of back-to-back gen-pool per burst, at least one
START_ARGV = ["-m", "permwhite.cli", "gen-pool", "--help"]

COMMANDS = {
    "whiten": "whiten --trace",
    "whiten_w2": "whiten --workers 2",
    "unwhiten": "unwhiten",
    "analyze": "analyze --csv",
    "compare": "compare raw white",
    "vn": "vn raw",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    pool_count: int
    corpus_bytes: int
    commands: tuple      # reported as cmd1_MiBps, cmd2_MiBps, cmd3_MiBps
    heaviest: str        # the command whose fresh process gives peak_rss_MiB


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # The 100-byte remainder leaves a partial chunk, so the tail path runs.
    Workload("default-roundtrip", 13, 32, 4 * MIB + 100,
             ("whiten", "whiten_w2", "unwhiten"), "whiten"),
    Workload("fine-oddpool", 3, 5, MIB // 32,
             ("whiten", "whiten_w2", "unwhiten"), "whiten"),
    # The pool whitens the input during set-up; only evaluation is timed.
    Workload("evaluate", 13, 32, 2 * MIB,
             ("analyze", "compare", "vn"), "analyze"),
)}

ZERO_STRIDE = 64    # every 64th byte is stuck at 0x00, as in desk_scale.json


def _preflight() -> None:
    if not (SRC / "permwhite" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'permwhite'}; run from a "
                 "checkout of the repository")


# Runs one CLI command, then reports the process's own peak RSS on stderr.
_HWM_CHILD = """\
import sys
from permwhite.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    sys.stderr.write("".join(line for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Bench:
    """One run: its inputs, its scratch files and its failure count."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.work = work
        self.pool_key = f"bench-pool-{seed}"
        self.select_key = f"bench-select-{seed}"
        names = ("raw", "pool", "white", "trace", "w2", "restored", "csv", "vn")
        self.path = {n: str(work / f"{n}.bin") for n in names}
        self.attempted = 0
        self.failures: list[str] = []
        self.verified: dict[str, bytes] = {}
        self.oracle_rng = np.random.default_rng(seed)

        data = np.frombuffer(
            CounterSource(f"bench-corpus-{seed}").read_bytes(workload.corpus_bytes),
            dtype=np.uint8).copy()
        data[::ZERO_STRIDE] = 0
        self.raw = data.tobytes()
        Path(self.path["raw"]).write_bytes(self.raw)
        self.raw_counts = checks.byte_counts(self.raw)
        self.raw_ones = checks.ones(self.raw_counts)

    # -- running and checking one command ------------------------------------

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")

    def cli(self, argv: list) -> tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        return seconds, code, out.getvalue(), err.getvalue()

    def op(self, what: str, argv: list, check) -> float | None:
        """Run one checked command; its wall seconds, or None if it failed."""
        self.attempted += 1
        try:
            seconds, code, out, err = self.cli(argv)
        except Exception as exc:    # a crash in the program is a failed operation
            self.fail(what, f"raised {exc!r}")
            return None
        if code != 0:
            self.fail(what, f"exit {code}: {err.strip()[-300:]}")
            return None
        reason = check(out)
        if reason is not None:
            self.fail(what, reason)
            return None
        return seconds

    def same_as_verified(self, name: str, first_check) -> str | None:
        """Full check on the first output, byte equality on later ones."""
        data = Path(self.path[name]).read_bytes()
        if name in self.verified:
            if data != self.verified[name]:
                return f"{name} output differs from the verified one"
            return None
        reason = first_check(data)
        if reason is None:
            self.verified[name] = data
        return reason

    # -- the workload commands: (argv, input bytes, output check) ------------

    def cmd_whiten(self):
        p = self.path
        argv = ["whiten", p["raw"], p["white"], "--pool", p["pool"],
                "--trace", p["trace"], "--source", "det", "--key", self.select_key]

        def check(_stdout):
            return self.same_as_verified("white", lambda white: (
                checks.whitened(self.raw, self.raw_ones, white)
                or checks.chunk_oracle(self.raw, white, p["pool"], p["trace"],
                                       self.oracle_rng)
            )) or self.same_as_verified("trace", lambda _trace: None)

        return argv, len(self.raw), check

    def cmd_whiten_w2(self):
        p = self.path
        argv = ["whiten", p["raw"], p["w2"], "--pool", p["pool"], "--workers", "2",
                "--source", "det", "--key", self.select_key]

        def check(_stdout):
            w2 = Path(p["w2"]).read_bytes()
            if "white" in self.verified:
                if w2 != self.verified["white"]:
                    return "--workers 2 output differs from the single-worker output"
                return None
            return checks.whitened(self.raw, self.raw_ones, w2)

        return argv, len(self.raw), check

    def cmd_unwhiten(self):
        p = self.path
        argv = ["unwhiten", p["white"], p["restored"], "--pool", p["pool"],
                "--trace", p["trace"]]

        def check(_stdout):
            if Path(p["restored"]).read_bytes() != self.raw:
                return "restored bytes differ from the input"
            return None

        return argv, len(self.raw), check

    def cmd_analyze(self):
        argv = ["analyze", self.path["white"], "--csv", self.path["csv"]]

        def check(_stdout):
            text = Path(self.path["csv"]).read_text(encoding="utf-8")
            return checks.analyze_csv(text, self.white_counts)

        return argv, len(self.raw), check

    def cmd_compare(self):
        argv = ["compare", self.path["raw"], self.path["white"]]

        def check(stdout):
            return checks.compare_text(stdout, self.raw_counts, self.white_counts)

        return argv, 2 * len(self.raw), check

    def cmd_vn(self):
        argv = ["vn", self.path["raw"], self.path["vn"]]

        def check(_stdout):
            if Path(self.path["vn"]).read_bytes() != self.vn_expected:
                return "vn output differs from the pairwise oracle"
            return None

        return argv, len(self.raw), check

    # -- set-up --------------------------------------------------------------

    def gen_pool_argv(self) -> list:
        return ["gen-pool", self.path["pool"], "--n-qubits", str(self.w.n_qubits),
                "--count", str(self.w.pool_count), "--mode", "fullrange",
                "--source", "det", "--key", self.pool_key]

    def check_pool(self, _stdout) -> str | None:
        def first(data):
            with open(self.path["pool"], "rb") as fh:
                pool = pool_load(fh)
            if (pool.n_qubits, pool.count) != (self.w.n_qubits, self.w.pool_count):
                return f"pool shape {(pool.n_qubits, pool.count)}"
            ident = np.arange(pool.size)
            if any(not np.array_equal(np.sort(p.map), ident) for p in pool.permutations):
                return "pool holds a map that is not a permutation"
            return None
        return self.same_as_verified("pool", first)

    def setup(self) -> None:
        """Write the pool, and for evaluate the whitened input, that the
        timed commands read."""
        self.op("gen-pool", self.gen_pool_argv(), self.check_pool)
        if "analyze" in self.w.commands:
            for name in ("whiten", "unwhiten"):
                argv, _, check = getattr(self, f"cmd_{name}")()
                self.op(f"set-up {name}", argv, check)
            white = Path(self.path["white"])
            self.white_counts = checks.byte_counts(
                white.read_bytes() if white.exists() else b"")
            self.vn_expected = checks.von_neumann_bytes(self.raw)

    def gen_pool_burst(self) -> list:
        """gen-pool repeated for SETUP_BURST seconds, at least once."""
        times = []
        t_end = time.perf_counter() + SETUP_BURST
        while not times or time.perf_counter() < t_end:
            took = self.op("gen-pool", self.gen_pool_argv(), self.check_pool)
            if took is None:
                break
            times.append(took)
        return times

    # -- fresh processes -------------------------------------------------------

    def child(self, argv: list) -> tuple[float, int, str]:
        """Run ``argv`` in a fresh interpreter: wall seconds, exit code, stderr."""
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], env=_child_env(), cwd=self.work,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=False)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            self.fail(f"child {argv[:3]}", f"exit {proc.returncode}")
        return seconds, proc.returncode, proc.stderr

    def cli_start(self) -> list:
        took, code, _ = self.child(START_ARGV)
        return [took] if code == 0 else []

    def peak_rss(self) -> float:
        """Peak RSS in MiB of a fresh process running the heaviest command.

        The child reports its own VmHWM. Its rusage would not do: on Linux
        ``ru_maxrss`` carries the parent's high-water mark across fork and
        exec, so it would report this harness instead.
        """
        argv, _, check = getattr(self, f"cmd_{self.w.heaviest}")()
        _, code, err = self.child(["-c", _HWM_CHILD, *argv])
        if code != 0:
            return 0.0
        reason = check("")
        if reason is None and "VmHWM:" not in err:
            reason = "no VmHWM line from the child"
        if reason is not None:
            self.fail(f"child {argv[0]}", reason)
            return 0.0
        return int(err.rsplit("VmHWM:", 1)[1].split()[0]) / 1024.0    # kB


def run_commands(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """The timed loop: the workload's commands in order, pass after pass.

    The set-up and start-up samples are spread evenly over the loop rather
    than taken in one burst, so that they see the same machine as the
    commands: on a shared host the speed drifts over tens of seconds.

    Each throughput is the run's best sample. On a shared host, interpreted
    Python runs at two speeds about 2x apart, switching every fraction of a
    second to minutes, so a median reports the share of the run spent slow
    rather than the program. Samples short enough to fall inside a fast
    spell make the best one the program at the host's fast level, which a
    change to the program moves as much as it moves any sample. ``setup_s``
    and ``cli_start_s`` are medians: a gen-pool at n=13 or a fresh process
    is too long to fit in a fast spell, and their best samples spread more.
    """
    bench.setup()
    bench.child(START_ARGV)                     # warm the page and bytecode caches
    samples = {name: [] for name in bench.w.commands}
    side = {"setup": [], "start": []}
    due = [("setup", bench.gen_pool_burst), ("start", bench.cli_start)] * SIDE_REPS
    t0 = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < t0 + seconds:
        for name in bench.w.commands:
            argv, nbytes, check = getattr(bench, f"cmd_{name}")()
            took = bench.op(name, argv, check)
            if took is not None:
                samples[name].append(nbytes / MIB / took)
        passes += 1
        elapsed = time.perf_counter() - t0
        while due and elapsed >= seconds * (1 - len(due) / (2 * SIDE_REPS)):
            kind, sample = due.pop(0)
            side[kind] += sample()
    for kind, sample in due:
        side[kind] += sample()

    def median(values):
        return statistics.median(values) if values else 0.0

    metrics = {"setup_s": median(side["setup"])}
    for slot, name in enumerate(bench.w.commands, 1):
        metrics[f"cmd{slot}_MiBps"] = max(samples[name], default=0.0)
    metrics["cli_start_s"] = median(side["start"])
    metrics["peak_rss_MiB"] = bench.peak_rss()
    detail = {"passes": passes, "MiBps_samples": samples,
              "setup_samples": side["setup"], "cli_start_samples": side["start"]}
    return metrics, detail


def _report_commands(bench: Bench, metrics: dict, detail: dict) -> None:
    w = bench.w

    def median_note(values):
        return f", median {statistics.median(values):.6g}" if values else ""

    print(f"  setup_s        {metrics['setup_s']:.6f} s   gen-pool n={w.n_qubits} "
          f"M={w.pool_count}, median of {len(detail['setup_samples'])}")
    for slot, name in enumerate(w.commands, 1):
        s = detail["MiBps_samples"][name]
        print(f"  cmd{slot}_MiBps    {metrics[f'cmd{slot}_MiBps']:.3f} MiB/s   "
              f"{name}_MiBps = {COMMANDS[name]}, best of {len(s)}{median_note(s)}, "
              f"{getattr(bench, f'cmd_{name}')()[1] / MIB:.3f} MiB input")
    print(f"  cli_start_s    {metrics['cli_start_s']:.4f} s   "
          f"python -m permwhite.cli gen-pool --help, median of "
          f"{len(detail['cli_start_samples'])}")
    print(f"  peak_rss_MiB   {metrics['peak_rss_MiB']:.1f} MiB   "
          f"fresh process running {COMMANDS[w.heaviest]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print("env: " + json.dumps(env))

    WORK.mkdir(exist_ok=True)
    work = Path(WORK / f"{args.workload}-{args.seed}-{os.getpid()}")
    work.mkdir()
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            values, detail = traced.run(bench, args.seconds)
            for name in sorted(values):
                v = values[name]
                print(f"  {name:<36} {v if isinstance(v, int) else f'{v:.6g}'}")
        else:
            values, detail = run_commands(bench, args.seconds)
            _report_commands(bench, values, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    failed = len(bench.failures)
    print(f"  failed_ops     {failed}/{bench.attempted} = "
          f"{failed / bench.attempted:.4f} share of checked operations")
    for reason in bench.failures:
        print(f"  FAILED {reason}")

    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, **detail, "failures": bench.failures,
                                  "result": result}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _preflight()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import checks
    import traced
    from permwhite import CounterSource, cli, pool_load

    sys.exit(main())

"""The traced run: per-layer metrics from outside the package.

Each public call into a module is timed directly, or through a proxy handed
to the call: ``TracedSource`` (an ``EntropySource`` subclass) for selection
draws, and ``TracedReader``/``TracedWriter`` around the streams. Spans
(id, name, start, end, parent) stay in memory and are returned with the
metrics, which ``run.py`` writes out when the run ends.

One traced pass goes through every module on the workload's pool shape and
corpus: permutation, whitening (with entropy inside it), randtests,
reports, baselines and cli. Passes repeat for the run's seconds; times are
medians over passes, and counts must repeat exactly from pass to pass.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
from permwhite import (
    CounterSource,
    EntropySource,
    WhitenConfig,
    ent_analyze,
    generate_pool,
    nist_lite,
    pool_load,
    pool_save,
    render_ent_text,
    render_nist_text,
    report_to_csv,
    trace_load,
    trace_save,
    unwhiten_stream,
    von_neumann,
    whiten_stream,
    xor_combine,
)

MIB = 1 << 20
PEAK_ALLOC_BYTES = 4 * MIB      # nist_lite input seen by tracemalloc
COUNTS = ("entropy.draws", "entropy.bytes_read", "entropy.accept_ratio",
          "whitening.chunks", "whitening.tail_bytes",
          "randtests.ent_analyze.bytes_read", "randtests.nist_lite.bytes_read")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [id, name, start, end, parent]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    def seconds(self, sid: int) -> float:
        return self.spans[sid][3] - self.spans[sid][2]

    def child_seconds(self, sid: int, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[4] == sid and s[1] == name)


class TracedReader:
    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer
        self.bytes = 0

    def read(self, n: int = -1) -> bytes:
        with self._tracer.span("io.read"):
            data = self._fh.read(n)
        self.bytes += len(data)
        return data


class TracedWriter:
    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self._tracer = tracer
        self.stamps: list[float] = []

    def write(self, data) -> int:
        with self._tracer.span("io.write"):
            n = self._fh.write(data)
        self.stamps.append(time.perf_counter())
        return n


class TracedSource(EntropySource):
    """Counts every byte the draw logic reads from the wrapped source."""

    kind = "traced"

    def __init__(self, inner: EntropySource, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.draws = 0
        self.attempts = 0
        self.bytes_read = 0

    def read_bytes(self, n: int) -> bytes:
        self.bytes_read += n
        return self._inner.read_bytes(n)

    def random_indices(self, m: int, count: int) -> np.ndarray:
        before = self.bytes_read
        with self._tracer.span("entropy.random_indices"):
            out = super().random_indices(m, count)
        width = ((m - 1).bit_length() + 7) // 8     # bytes per rejection attempt
        self.draws += count
        self.attempts += (self.bytes_read - before) // width if m > 1 else count
        return out


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _stream(tracer, fn, src_path, dst_path, name):
    """Run ``fn(reader, writer)`` under a span with proxied streams."""
    with open(src_path, "rb") as src, open(dst_path, "wb") as dst:
        reader, writer = TracedReader(src, tracer), TracedWriter(dst, tracer)
        with tracer.span(name) as sid:
            result = fn(reader, writer)
    return sid, writer, result


def one_pass(bench, tracer: Tracer) -> dict:
    w, p, m = bench.w, bench.path, {}
    raw_len = len(bench.raw)

    def verify(what: str, reason: str | None) -> None:
        bench.attempted += 1
        if reason:
            bench.fail(what, reason)

    # permutation
    with tracer.span("permutation.generate_pool") as sid:
        pool = generate_pool(w.n_qubits, w.pool_count, CounterSource(bench.pool_key))
    m["permutation.generate_pool_s"] = tracer.seconds(sid)
    with open(p["pool"], "wb") as fh, tracer.span("permutation.pool_save") as sid:
        pool_save(pool, fh)
    m["permutation.pool_save_s"] = tracer.seconds(sid)
    with open(p["pool"], "rb") as fh, tracer.span("permutation.pool_load") as sid:
        pool = pool_load(fh)
    m["permutation.pool_load_s"] = tracer.seconds(sid)
    with tracer.span("permutation.invert") as sid:
        for perm in pool.permutations:
            perm.invert()
    m["permutation.invert_s"] = tracer.seconds(sid)

    # whitening, with the selection draws proxied
    cfg = WhitenConfig(n_qubits=w.n_qubits, pool_count=w.pool_count,
                       record_selections=True)
    source = TracedSource(CounterSource(bench.select_key), tracer)
    sid, writer, trace = _stream(
        tracer, lambda r, o: whiten_stream(r, pool, cfg, source, o),
        p["raw"], p["white"], "whitening.whiten_stream")
    whiten_s = tracer.seconds(sid)
    draw_s = tracer.child_seconds(sid, "entropy.random_indices")
    read_s = tracer.child_seconds(sid, "io.read")
    write_s = tracer.child_seconds(sid, "io.write")
    m.update({
        "entropy.draw_s": draw_s,
        "entropy.draws": source.draws,
        "entropy.bytes_read": source.bytes_read,
        "entropy.accept_ratio": source.draws / source.attempts if source.attempts else 1.0,
        "whitening.whiten.read_s": read_s,
        "whitening.whiten.write_s": write_s,
        "whitening.whiten.kernel_s": whiten_s - read_s - write_s - draw_s,
    })
    gaps = np.diff([tracer.spans[sid][2], *writer.stamps]) * 1e3
    m["whitening.batch_ms_p50"] = float(np.percentile(gaps, 50))
    m["whitening.batch_ms_p99"] = float(np.percentile(gaps, 99))
    chunk_bytes = pool.size // 8
    m["whitening.chunks"] = len(trace)
    m["whitening.tail_bytes"] = raw_len - len(trace) * chunk_bytes
    verify("whiten_stream", None if len(trace) == raw_len // chunk_bytes
           else f"{len(trace)} chunks for {raw_len} bytes")
    white = Path(p["white"]).read_bytes()
    with open(p["trace"], "wb") as fh, tracer.span("whitening.trace_save") as sid:
        trace_save(trace, fh)
    m["whitening.trace_save_s"] = tracer.seconds(sid)
    verify("whiten_stream", checks.whitened(bench.raw, bench.raw_ones, white)
           or checks.chunk_oracle(bench.raw, white, p["pool"], p["trace"],
                                  bench.oracle_rng))
    with open(p["trace"], "rb") as fh, tracer.span("whitening.trace_load") as sid:
        trace = trace_load(fh)
    m["whitening.trace_load_s"] = tracer.seconds(sid)

    sid, _, _ = _stream(
        tracer, lambda r, o: unwhiten_stream(r, pool, trace, o),
        p["white"], p["restored"], "whitening.unwhiten_stream")
    read_s = tracer.child_seconds(sid, "io.read")
    write_s = tracer.child_seconds(sid, "io.write")
    m["whitening.unwhiten.read_s"] = read_s
    m["whitening.unwhiten.write_s"] = write_s
    m["whitening.unwhiten.kernel_s"] = tracer.seconds(sid) - read_s - write_s
    verify("unwhiten_stream", None if Path(p["restored"]).read_bytes() == bench.raw
           else "restored bytes differ from the input")

    # randtests and reports, on the whitened output
    white_counts = checks.byte_counts(white)
    reports = {}
    for name, fn in (("ent_analyze", ent_analyze), ("nist_lite", nist_lite)):
        with open(p["white"], "rb") as fh:
            reader = TracedReader(fh, tracer)
            with tracer.span(f"randtests.{name}") as sid:
                reports[name] = fn(reader)
        m[f"randtests.{name}_s"] = tracer.seconds(sid)
        m[f"randtests.{name}.bytes_read"] = reader.bytes
    ent, nist = reports["ent_analyze"], reports["nist_lite"]
    prefix = io.BytesIO(white[:PEAK_ALLOC_BYTES])
    tracemalloc.start()
    try:
        with tracer.span("randtests.nist_lite.tracemalloc"):
            nist_lite(prefix)
        m["randtests.nist_lite.peak_alloc_MiB"] = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    with tracer.span("reports.render") as sid:
        render_ent_text(ent)
        render_nist_text(nist)
        csv_text = report_to_csv(ent, nist)
    m["reports.render_s"] = tracer.seconds(sid)
    verify("ent_analyze/nist_lite", checks.analyze_csv(csv_text, white_counts))

    # baselines
    with open(p["raw"], "rb") as src, open(p["vn"], "wb") as dst, \
            tracer.span("baselines.von_neumann") as sid:
        von_neumann(src, dst)
    m["baselines.von_neumann_s"] = tracer.seconds(sid)
    verify("von_neumann", None if Path(p["vn"]).read_bytes() == bench.vn_expected
           else "output differs from the pairwise oracle")
    with open(p["raw"], "rb") as a, open(p["white"], "rb") as b, \
            open(p["w2"], "wb") as dst, tracer.span("baselines.xor_combine") as sid:
        xor_combine(a, b, dst)
    m["baselines.xor_combine_s"] = tracer.seconds(sid)
    xored = np.frombuffer(bench.raw, np.uint8) ^ np.frombuffer(white, np.uint8)
    verify("xor_combine", None if Path(p["w2"]).read_bytes() == xored.tobytes()
           else "output differs from numpy XOR")

    # cli: the whiten command against the library calls it makes, untraced
    cli_s = bench.op("cli whiten", bench.cmd_whiten()[0], lambda _out: (
        None if Path(p["white"]).read_bytes() == white
        else "cli whiten output differs from whiten_stream"))
    with open(p["pool"], "rb") as fh:
        load_s, pool = _timed(lambda: pool_load(fh))
    with open(p["raw"], "rb") as src, open(p["restored"], "wb") as dst:
        lib_s, trace = _timed(lambda: whiten_stream(
            src, pool, cfg, CounterSource(bench.select_key), dst))
    with open(p["trace"], "wb") as fh:
        save_s, _ = _timed(lambda: trace_save(trace, fh))
    verify("whiten_stream untraced", None if Path(p["restored"]).read_bytes() == white
           else "untraced output differs from the traced one")
    m["cli.whiten.overhead_s"] = (cli_s or 0.0) - (load_s + lib_s + save_s)
    m["bench.trace_overhead_pct"] = (whiten_s / lib_s - 1.0) * 100.0
    return m


def run(bench, seconds: float) -> tuple[dict, dict]:
    """Traced passes for ``seconds`` (at least one); medians of the times."""
    bench.vn_expected = checks.von_neumann_bytes(bench.raw)
    tracer = Tracer()
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        with tracer.span("pass"):
            passes.append(one_pass(bench, tracer))
    first = passes[0]
    for later in passes[1:]:
        for name in COUNTS:
            if later[name] != first[name]:
                bench.fail("traced counts", f"{name} {later[name]} != {first[name]}")
    values = {name: first[name] if name in COUNTS
              else statistics.median(p[name] for p in passes) for name in first}
    spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
             for s in tracer.spans]
    return values, {"passes": len(passes), "pass_metrics": passes, "spans": spans}

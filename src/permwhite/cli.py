"""Command-line front end.

Subcommands: gen-pool, whiten, unwhiten, analyze, compare, xor, vn.

Exit codes: 0 success, 2 usage error, 3 I/O error (including an exhausted
seed file), 4 corrupt or unrecognized file format, 5 statistical-test
precondition not met (input too short).

Option resolution order: command-line flags, then a ``--config`` file of
flat ``key = value`` lines, then ``PWHITEN_POOL`` for the pool, then the
built-in defaults that ``COMMAND --help`` prints. Config keys are long
option names, with dashes or underscores. gen-pool honours n_qubits, count,
mode, tag, source, seed_file, key and counter; whiten honours pool, trace,
source, seed_file, key and counter; unwhiten honours pool and trace. Other
keys are ignored, so one manifest can drive a whole pipeline. whiten's
``--workers`` (an int of at least 1) is accepted for compatibility and
ignored; unwhiten has no such option.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

from .baselines import von_neumann, xor_combine
from .entropy import make_source
from .errors import EntropyExhausted, FormatError, PreconditionError
from .permutation import SHUFFLE_MODES, generate_pool, pool_load, pool_save
from .randtests import analyze, compare_reports, ent_analyze
from .reports import (
    figure_csv,
    parse_report_csv,
    render_comparison,
    render_ent_text,
    render_nist_text,
    report_to_csv,
)
from .whitening import (
    WhitenConfig,
    check_trace,
    trace_load,
    trace_save,
    unwhiten_stream,
    whiten_stream,
)

POOL_ENV = "PWHITEN_POOL"

_EXIT_USAGE = 2
_EXIT_IO = 3
_EXIT_FORMAT = 4
_EXIT_PRECONDITION = 5

_SOURCE_KEYS = ("source", "seed_file", "key", "counter")
CONFIG_KEYS = {
    "gen-pool": ("n_qubits", "count", "mode", "tag", *_SOURCE_KEYS),
    "whiten": ("pool", "trace", *_SOURCE_KEYS),
    "unwhiten": ("pool", "trace"),
}

_REPORT_MAX_BYTES = 64 * 1024  # a real analyze --csv report is under 1 KiB


def _load_config(path: str, command: str) -> list:
    """``command``'s keys as ``--key=value`` flags: "=" keeps "-1" a value."""
    keys = CONFIG_KEYS.get(command, ())
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key in keys:
                settings[key] = f"--{key.replace('_', '-')}={value.strip()}"
    return list(settings.values())


def _umask() -> int:
    """The process umask; ``os.umask`` can only read it by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _atomic_output(path: str):
    """Write to a temp file and rename into place only on success."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".permwhite-tmp-")
    fh = os.fdopen(fd, "wb")
    try:
        yield fh
        # mkstemp creates 0600; give the output the mode open() would.
        os.fchmod(fd, 0o666 & ~_umask())
        fh.close()
        os.replace(tmp, path)
    except BaseException:
        fh.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _make_selector(args: argparse.Namespace):
    return make_source(args.source, seed_file=args.seed_file,
                       det_key=args.key, det_counter=args.counter)


def _cmd_gen_pool(args: argparse.Namespace) -> int:
    with _make_selector(args) as rng:
        pool = generate_pool(args.n_qubits, args.count, rng, mode=args.mode,
                             generator_tag=args.tag)
    with _atomic_output(args.output) as fh:
        pool_save(pool, fh)
    print(f"wrote {args.output}: {args.count} permutations of "
          f"{1 << args.n_qubits} bits ({args.n_qubits} qubits, {args.mode})",
          file=sys.stderr)
    return 0


def _identity(path: str):
    """The file ``path`` names: its inode if it exists, else its real path."""
    try:
        return os.stat(path)[1:3]  # st_ino, st_dev
    except OSError:
        return os.path.realpath(path)


def _open_pool(args: argparse.Namespace, writes_trace: bool):
    """Load the pool after refusing an output that is the pool or the trace."""
    path = os.environ.get(POOL_ENV) if args.pool is None else args.pool
    if path is None:
        raise ValueError(f"no pool file given (use --pool or {POOL_ENV})")
    ident = {p: _identity(p) for p in (path, args.trace, args.output) if p is not None}
    clashes = [(args.output, "pool", path), (args.output, "trace", args.trace),
               (args.trace if writes_trace else None, "pool", path)]
    for out, what, kept in clashes:
        if None not in (out, kept) and ident[out] == ident[kept]:
            raise ValueError(f"output {out} would overwrite the {what} {kept}")
    with open(path, "rb") as fh:
        return pool_load(fh)


def _cmd_whiten(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    pool = _open_pool(args, writes_trace=True)
    cfg = WhitenConfig(n_qubits=pool.n_qubits, pool_count=pool.count,
                       record_selections=args.trace is not None)
    trace_output = (contextlib.nullcontext() if args.trace is None
                    else _atomic_output(args.trace))
    # Both outputs are opened before any work, and the trace (entered last)
    # is renamed into place first: a trace that cannot be written leaves no
    # whitened output that nothing could unwhiten.
    with _make_selector(args) as selector, open(args.input, "rb") as src, \
            _atomic_output(args.output) as out, trace_output as trace_fh:
        trace = whiten_stream(src, pool, cfg, selector, out)
        if trace is not None:
            trace_save(trace, trace_fh)
    traced = "" if args.trace is None else f" and trace {args.trace}"
    print(f"wrote {args.output}{traced}", file=sys.stderr)
    return 0


def _cmd_unwhiten(args: argparse.Namespace) -> int:
    if args.trace is None:
        raise ValueError("unwhiten requires --trace")
    pool = _open_pool(args, writes_trace=False)
    with open(args.trace, "rb") as fh:
        trace = trace_load(fh)
    with open(args.input, "rb") as src:
        check_trace(pool, trace, src)
        with _atomic_output(args.output) as out:
            unwhiten_stream(src, pool, trace, out)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as fh:
        ent, nist = analyze(fh)
    sys.stdout.write(render_ent_text(ent, title=args.input))
    sys.stdout.write("\n")
    sys.stdout.write(render_nist_text(nist))
    if args.csv:
        with _atomic_output(args.csv) as fh:
            fh.write(report_to_csv(ent, nist).encode("utf-8"))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _read_report(path: str, from_reports: bool):
    with open(path, "rb") as fh:
        if not from_reports:
            return ent_analyze(fh)
        data = fh.read(_REPORT_MAX_BYTES + 1)
    if len(data) > _REPORT_MAX_BYTES:
        raise FormatError(f"{path}: too large for a report CSV")
    try:
        return parse_report_csv(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: report CSV is not UTF-8: {exc}") from None


def _cmd_compare(args: argparse.Namespace) -> int:
    before = _read_report(args.before, args.from_reports)
    after = _read_report(args.after, args.from_reports)
    verdicts = compare_reports(before, after)
    sys.stdout.write(render_comparison(before, after, verdicts))
    if args.figure_csv:
        rows = [
            (args.label_before or os.path.basename(args.before),
             before.chi_square, before.arithmetic_mean),
            (args.label_after or os.path.basename(args.after),
             after.chi_square, after.arithmetic_mean),
        ]
        with _atomic_output(args.figure_csv) as fh:
            fh.write(figure_csv(rows).encode("utf-8"))
        print(f"wrote {args.figure_csv}", file=sys.stderr)
    return 0


def _cmd_xor(args: argparse.Namespace) -> int:
    with open(args.a, "rb") as a, open(args.b, "rb") as b, \
            _atomic_output(args.output) as out:
        written = xor_combine(a, b, out)
    print(f"wrote {args.output}: {written} bytes", file=sys.stderr)
    return 0


def _cmd_vn(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as src, _atomic_output(args.output) as out:
        bits = von_neumann(src, out)
    print(f"wrote {args.output}: {bits} bits", file=sys.stderr)
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat 'key = value' settings file")

    source_opts = argparse.ArgumentParser(add_help=False)
    source_opts.add_argument("--source", choices=("os", "seed", "det"),
                             default="os",
                             help="entropy source (default %(default)s)")
    source_opts.add_argument("--seed-file", metavar="FILE",
                             help="raw byte file backing --source seed")
    source_opts.add_argument("--key", metavar="KEY", default="permwhite",
                             help="key material for --source det "
                                  "(default %(default)s)")
    source_opts.add_argument("--counter", type=int, metavar="N", default=0,
                             help="starting block counter for --source det "
                                  "(default %(default)s)")

    pool_opts = argparse.ArgumentParser(add_help=False)
    pool_opts.add_argument("--pool", metavar="FILE",
                           help=f"pool file (or set {POOL_ENV})")
    pool_opts.add_argument("--trace", metavar="FILE",
                           help="per-chunk selection trace that whiten "
                                "writes and unwhiten reads")

    parser = argparse.ArgumentParser(
        prog="permwhite",
        description="Size-preserving whitening of random byte streams with "
                    "pools of bit-permutation matrices, plus statistics to "
                    "judge the result.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)

    p = sub.add_parser("gen-pool", parents=[common, source_opts],
                       help="generate a permutation pool file")
    p.add_argument("output", help="pool file to write")
    p.add_argument("--n-qubits", type=int, metavar="N", default=13,
                   help="chunk size is 2^N bits (default %(default)s)")
    p.add_argument("--count", type=int, metavar="M", default=32,
                   help="permutations in the pool (default %(default)s)")
    p.add_argument("--mode", choices=tuple(sorted(SHUFFLE_MODES)),
                   default="fullrange",
                   help="shuffle procedure (default %(default)s)")
    p.add_argument("--tag", metavar="TEXT", default="",
                   help="free-form generator tag")
    p.set_defaults(func=_cmd_gen_pool)

    p = sub.add_parser("whiten", parents=[common, source_opts, pool_opts],
                       help="whiten a byte file with a pool")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--workers", type=int, metavar="W", default=1,
                   help="an int of at least 1, accepted for compatibility "
                        "and ignored: whitening runs in one thread")
    p.set_defaults(func=_cmd_whiten)

    p = sub.add_parser("unwhiten", parents=[common, pool_opts],
                       help="invert a whitening run from its trace")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_unwhiten)

    p = sub.add_parser("analyze", parents=[common],
                       help="run the statistics batteries on a byte file")
    p.add_argument("input")
    p.add_argument("--csv", metavar="FILE",
                   help="also write a machine-readable parameter,value CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", parents=[common],
                       help="per-parameter improvement verdicts for two files")
    p.add_argument("before")
    p.add_argument("after")
    p.add_argument("--from-reports", action="store_true",
                   help="inputs are analyze --csv reports, not raw bytes")
    p.add_argument("--figure-csv", metavar="FILE",
                   help="write label,chi_square,arithmetic_mean rows")
    p.add_argument("--label-before", metavar="TEXT")
    p.add_argument("--label-after", metavar="TEXT")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("xor", parents=[common],
                       help="XOR two byte files (stops at the shorter)")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("output")
    p.set_defaults(func=_cmd_xor)

    p = sub.add_parser("vn", parents=[common],
                       help="Von Neumann pairwise debiasing")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_vn)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            # argv[0] is the command (the top-level parser takes only --help);
            # config flags go right after it, so the command line's win.
            config = _load_config(args.config, args.command)
            args = _PARSER.parse_args([argv[0], *config, *argv[1:]])
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    except ValueError as exc:
        print(f"permwhite: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except EntropyExhausted as exc:
        print(f"permwhite: entropy exhausted: {exc}", file=sys.stderr)
        return _EXIT_IO
    except OSError as exc:
        print(f"permwhite: I/O error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except FormatError as exc:
        print(f"permwhite: bad file: {exc}", file=sys.stderr)
        return _EXIT_FORMAT
    except PreconditionError as exc:
        print(f"permwhite: {exc}", file=sys.stderr)
        return _EXIT_PRECONDITION


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()

"""Command-line front end.

Subcommands: gen-pool, whiten, unwhiten, analyze, compare, xor, vn.

Exit codes: 0 success, 2 usage error, 3 I/O error (including an exhausted
seed file), 4 corrupt or unrecognized file format, 5 statistical-test
precondition not met (input too short).

Option resolution order: command-line flags, then a ``--config`` file of
flat ``key = value`` lines, then the environment (``PWHITEN_POOL``,
``PWHITEN_WORKERS``), then built-in defaults. Config keys are the long
option names with dashes replaced by underscores; keys a subcommand does
not use are ignored so one manifest can drive a whole pipeline.
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
    trace_load,
    trace_save,
    unwhiten_stream,
    whiten_stream,
)

POOL_ENV = "PWHITEN_POOL"
WORKERS_ENV = "PWHITEN_WORKERS"

_EXIT_USAGE = 2
_EXIT_IO = 3
_EXIT_FORMAT = 4
_EXIT_PRECONDITION = 5


class _UsageError(Exception):
    pass


def _load_config(path: str) -> dict:
    settings = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
            settings[key.strip().replace("-", "_")] = value.strip()
    return settings


class _Settings:
    """Flag > config file > environment > default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def get(self, name, default=None, cast=None, env=None):
        value = getattr(self._args, name, None)
        if value is None:
            value = self._config.get(name)
        if value is None and env is not None:
            value = os.environ.get(env)
        if value is None:
            return default
        if cast is not None and isinstance(value, str):
            try:
                value = cast(value)
            except ValueError:
                raise _UsageError(f"invalid value for {name}: {value!r}") from None
        return value


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


def _make_selector(settings: _Settings):
    return make_source(
        settings.get("source", default="os"),
        seed_file=settings.get("seed_file"),
        det_key=settings.get("key", default="permwhite"),
        det_counter=settings.get("counter", default=0, cast=int),
    )


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _cmd_gen_pool(args: argparse.Namespace, config: dict) -> int:
    settings = _Settings(args, config)
    n_qubits = settings.get("n_qubits", default=13, cast=int)
    count = settings.get("count", default=32, cast=int)
    mode = settings.get("mode", default="fullrange")
    tag = settings.get("tag", default="")
    with _make_selector(settings) as rng:
        pool = generate_pool(n_qubits, count, rng, mode=mode, generator_tag=tag)
    with _atomic_output(args.output) as fh:
        pool_save(pool, fh)
    _status(f"wrote {args.output}: {count} permutations of "
            f"{1 << n_qubits} bits ({n_qubits} qubits, {mode})")
    return 0


def _open_pool(settings: _Settings):
    pool_path = settings.get("pool", env=POOL_ENV)
    if pool_path is None:
        raise _UsageError(f"no pool file given (use --pool or {POOL_ENV})")
    with open(pool_path, "rb") as fh:
        return pool_load(fh)


def _workers(settings: _Settings) -> int:
    workers = settings.get("workers", default=1, cast=int, env=WORKERS_ENV)
    if workers < 1:
        raise _UsageError("--workers must be at least 1")
    return workers


def _cmd_whiten(args: argparse.Namespace, config: dict) -> int:
    settings = _Settings(args, config)
    pool = _open_pool(settings)
    trace_path = settings.get("trace")
    cfg = WhitenConfig(
        n_qubits=pool.n_qubits,
        pool_count=pool.count,
        record_selections=trace_path is not None,
    )
    workers = _workers(settings)
    with _make_selector(settings) as selector, open(args.input, "rb") as src, \
            _atomic_output(args.output) as out:
        trace = whiten_stream(src, pool, cfg, selector, out, workers=workers)
    if trace_path is not None:
        with _atomic_output(trace_path) as fh:
            trace_save(trace, fh)
        _status(f"wrote {args.output} and trace {trace_path}")
    else:
        _status(f"wrote {args.output}")
    return 0


def _cmd_unwhiten(args: argparse.Namespace, config: dict) -> int:
    settings = _Settings(args, config)
    pool = _open_pool(settings)
    trace_path = settings.get("trace")
    if trace_path is None:
        raise _UsageError("unwhiten requires --trace")
    with open(trace_path, "rb") as fh:
        trace = trace_load(fh)
    workers = _workers(settings)
    with open(args.input, "rb") as src, _atomic_output(args.output) as out:
        unwhiten_stream(src, pool, trace, out, workers=workers)
    _status(f"wrote {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace, config: dict) -> int:
    with open(args.input, "rb") as fh:
        ent, nist = analyze(fh)
    sys.stdout.write(render_ent_text(ent, title=args.input))
    sys.stdout.write("\n")
    sys.stdout.write(render_nist_text(nist))
    if args.csv:
        with _atomic_output(args.csv) as fh:
            fh.write(report_to_csv(ent, nist).encode("utf-8"))
        _status(f"wrote {args.csv}")
    return 0


def _read_report(path: str, from_reports: bool):
    if from_reports:
        with open(path, encoding="utf-8") as fh:
            return parse_report_csv(fh.read())
    with open(path, "rb") as fh:
        return ent_analyze(fh)


def _cmd_compare(args: argparse.Namespace, config: dict) -> int:
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
        _status(f"wrote {args.figure_csv}")
    return 0


def _cmd_xor(args: argparse.Namespace, config: dict) -> int:
    with open(args.a, "rb") as a, open(args.b, "rb") as b, \
            _atomic_output(args.output) as out:
        written = xor_combine(a, b, out)
    _status(f"wrote {args.output}: {written} bytes")
    return 0


def _cmd_vn(args: argparse.Namespace, config: dict) -> int:
    with open(args.input, "rb") as src, _atomic_output(args.output) as out:
        bits = von_neumann(src, out)
    _status(f"wrote {args.output}: {bits} bits")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="flat 'key = value' settings file")

    source_opts = argparse.ArgumentParser(add_help=False)
    source_opts.add_argument("--source", choices=("os", "seed", "det"),
                             help="entropy source (default os)")
    source_opts.add_argument("--seed-file", metavar="FILE",
                             help="raw byte file backing --source seed")
    source_opts.add_argument("--key", metavar="KEY",
                             help="key material for --source det")
    source_opts.add_argument("--counter", type=int, metavar="N",
                             help="starting block counter for --source det")

    parser = argparse.ArgumentParser(
        prog="permwhite",
        description="Size-preserving whitening of random byte streams with "
                    "pools of bit-permutation matrices, plus statistics to "
                    "judge the result.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-pool", parents=[common, source_opts],
                       help="generate a permutation pool file")
    p.add_argument("output", help="pool file to write")
    p.add_argument("--n-qubits", type=int, metavar="N",
                   help="chunk size is 2^N bits (default 13)")
    p.add_argument("--count", type=int, metavar="M",
                   help="permutations in the pool (default 32)")
    p.add_argument("--mode", choices=tuple(sorted(SHUFFLE_MODES)),
                   help="shuffle procedure (default fullrange)")
    p.add_argument("--tag", metavar="TEXT", help="free-form generator tag")
    p.set_defaults(func=_cmd_gen_pool)

    p = sub.add_parser("whiten", parents=[common, source_opts],
                       help="whiten a byte file with a pool")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--pool", metavar="FILE",
                   help=f"pool file (or set {POOL_ENV})")
    p.add_argument("--trace", metavar="FILE",
                   help="record per-chunk selections for later unwhiten")
    p.add_argument("--workers", type=int, metavar="W",
                   help=f"parallel workers (or set {WORKERS_ENV})")
    p.set_defaults(func=_cmd_whiten)

    p = sub.add_parser("unwhiten", parents=[common],
                       help="invert a whitening run from its trace")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--pool", metavar="FILE",
                   help=f"pool file (or set {POOL_ENV})")
    p.add_argument("--trace", metavar="FILE",
                   help="selection trace written by whiten")
    p.add_argument("--workers", type=int, metavar="W",
                   help=f"parallel workers (or set {WORKERS_ENV})")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return _EXIT_USAGE
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (_UsageError, ValueError) as exc:
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

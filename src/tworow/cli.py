"""Command line front end: basis export, spectral measures, walk sampling
and the verification report.

Every command is deterministic given its flags and seed; identical
invocations produce byte-identical output.  Exit codes: 0 success,
1 verification failure, 2 usage error, including an ``--out`` file that
cannot be opened, 141 (128 + SIGPIPE) when the reader closes stdout early.

``main(argv)`` is the in-process API: it returns the exit code.  The
``tworow`` script, ``python -m tworow`` and ``python -m tworow.cli`` go
through ``run``, which flushes the output and ends the process with
``os._exit``: every call is a fresh interpreter, and tearing down the
modules that ``site`` and the package loaded cost about 10-14 ms of each
call after its output was complete.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from math import comb
from typing import NoReturn, TextIO

from .gz import iter_basis
from .markov import (
    BitPrefix,
    central_kernel,
    kernel_from_prefix,
    path_product_table,
    sample_paths,
    spectral_measure,
    transition_counts,
    within_three_sigma,
)
from .serialize import write_basis, write_kernel, write_measure, write_summary, write_trace
from .verify import run_scope

MAX_BASIS_LEVEL = 16
# C(14, 4).  The slowest export it admits, n = 12, m = 6, writes 102 MB of
# JSON (README times it); C(14, 7) would be about 1.4 GB.
MAX_BASIS_VECTORS = 1001
MAX_SAMPLE_DEPTH = 64


def _output(out: str | None) -> AbstractContextManager[TextIO]:
    """The stream a command writes to: the current ``sys.stdout``, or the
    file ``out`` as UTF-8 with newline translation off.  A file that cannot
    be opened is a usage error."""
    if out is None:
        return nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot open --out {out}: {exc.strerror or exc}") from None


def _thread_cap() -> None:
    """Honor the YM_THREADS cap.  The implementation is single process and
    single thread, so any positive cap is respected as written."""
    raw = os.environ.get("YM_THREADS", "1")
    try:
        if int(raw) >= 1:
            return
    except ValueError:
        pass
    raise ValueError(f"YM_THREADS must be a positive integer, got {raw!r}")


def cmd_basis(args: argparse.Namespace) -> int:
    n, m = args.n, args.m
    if not 0 <= n <= MAX_BASIS_LEVEL:
        raise ValueError(f"n must lie in 0..{MAX_BASIS_LEVEL}, got {n}")
    if not 0 <= 2 * m <= n:
        raise ValueError(f"m must lie in 0..n/2, got n={n}, m={m}")
    count = comb(n, m)
    if count > MAX_BASIS_VECTORS:
        raise ValueError(
            f"basis exports at most {MAX_BASIS_VECTORS} vectors, got C({n}, {m}) = {count}"
        )
    with _output(args.out) as handle:
        write_basis(handle, n, m, iter_basis(n, m))
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    prefix = BitPrefix.from_string(args.xi)
    n = len(prefix) if args.n is None else args.n
    if not 1 <= n <= len(prefix):
        raise ValueError(f"n must lie in 1..|xi|={len(prefix)}, got {n}")
    if n > MAX_BASIS_LEVEL:
        raise ValueError(f"n must be at most {MAX_BASIS_LEVEL}, got {n}")
    table = spectral_measure(prefix, n)
    kernel = kernel_from_prefix(prefix, n)
    match = table == path_product_table(kernel)
    with _output(args.out) as handle:
        if args.format == "json":
            write_measure(handle, prefix, table, kernel, match)
        else:
            write_kernel(handle, kernel)
    return 0 if match else 1


def cmd_sample(args: argparse.Namespace) -> int:
    depth = args.depth
    if not 1 <= depth <= MAX_SAMPLE_DEPTH:
        raise ValueError(f"depth must lie in 1..{MAX_SAMPLE_DEPTH}, got {depth}")
    if args.count < 0:
        raise ValueError(f"count must be nonnegative, got {args.count}")
    if args.central:
        kernel = central_kernel(depth)
    else:
        kernel = kernel_from_prefix(BitPrefix.from_string(args.xi), depth)
    if args.mode == "summary":
        counts = transition_counts(kernel, depth, args.count, args.seed)
        rows = []
        for (n, k), (visits, ups) in counts.items():
            row = kernel.transition(n, k)
            ok = within_three_sigma(visits, ups, row.up, row.den)
            rows.append((n, k, visits, ups, row.up, row.den, ok))
        write, doc = write_summary, (rows,)
    else:
        paths = sample_paths(kernel, depth, args.count, args.seed)
        write, doc = write_trace, (depth, paths)
    with _output(args.out) as handle:
        write(handle, *doc)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_scope(args.scope, args.n_max)
    failures = sum(not r.ok for r in results)
    with _output(args.out) as handle:
        for r in results:
            handle.write(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}\n")
        handle.write(f"{len(results)} checks, {failures} failures\n")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworow",
        description=(
            "Exact Gelfand-Tsetlin bases for two-row symmetric group "
            "representations, spectral Markov measures of induced vectors, "
            "and their random walks."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_basis = sub.add_parser(
        "basis", help="emit the degree-m Gelfand-Tsetlin basis with exact norms"
    )
    p_basis.add_argument("--n", type=int, required=True, help="number of variables")
    p_basis.add_argument(
        "--m",
        type=int,
        required=True,
        help=f"form degree, at most n/2, with C(n, m) <= {MAX_BASIS_VECTORS}",
    )
    p_basis.add_argument("--format", choices=["json"], default="json")
    p_basis.add_argument("--out", help="output path (default stdout)")
    p_basis.set_defaults(func=cmd_basis)

    p_measure = sub.add_parser(
        "measure",
        help="spectral table of a direction sequence, its kernel, and the "
        "exact oracle crosscheck",
    )
    p_measure.add_argument("--xi", required=True, help="direction bits, e.g. 0101")
    p_measure.add_argument("--n", type=int, help="level (default: the full length)")
    p_measure.add_argument("--format", choices=["json", "csv"], default="json")
    p_measure.add_argument("--out", help="output path (default stdout)")
    p_measure.set_defaults(func=cmd_measure)

    p_sample = sub.add_parser(
        "sample", help="run the random walk; CSV trace or frequency summary"
    )
    group = p_sample.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", help="direction bits driving the induced walk")
    group.add_argument(
        "--central", action="store_true", help="walk the two-frequency central kernel"
    )
    p_sample.add_argument("--depth", type=int, required=True, help="levels per path")
    p_sample.add_argument("--count", type=int, default=1000, help="number of paths")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--mode", choices=["summary", "trace"], default="summary")
    p_sample.add_argument("--out", help="output path (default stdout)")
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the exact self-check suites")
    p_verify.add_argument(
        "--scope", choices=["all", "gz", "markov", "central"], default="all"
    )
    p_verify.add_argument(
        "--n-max", type=int, help="cap the level bounds of every suite in scope"
    )
    p_verify.add_argument("--out", help="output path (default stdout)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_cap()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early: send the exit flush to the null
        # device and exit as SIGPIPE would, with nothing on stderr.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run() -> NoReturn:
    """The command-line entry point: ``main()`` on ``sys.argv``, then a
    flush of stdout and stderr and ``os._exit`` with its code, so the
    interpreter skips its teardown and atexit handlers do not run; the
    package registers none.  An exception that escapes ``main``, such as
    argparse's ``SystemExit``, ends the process the usual way."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

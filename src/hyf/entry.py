"""The ``hyf`` command's front door: the parser, the exit codes and ``main``.

This module imports neither numpy nor any compute module, so ``--version``,
``--help``, ``<command> --help`` and every usage error argparse finds answer
from the standard library alone.  Once argparse has chosen a command,
:func:`main` imports :mod:`hyf.cli`, which holds the command bodies, and
runs the chosen one.

Exit codes are part of the contract so shell pipelines can branch on the
failure class:

* 0 success
* 1 usage error (bad flags, bad rate syntax, nonpositive horizon, ...),
  or output that cannot be delivered (unwritable file, stdout closed early
  or refusing writes)
* 2 tick-file parse error (reported with a line number)
* 3 input validation error (shared timestamps, non-monotone times, ...)
* 4 detector disagreement under ``--method all``, or in ``loss-table``'s
  interval-rule cross-check
* 5 rejection budget exceeded while generating inputs

Tick files are CSV with the exact header ``time,price``.  The default
seed is :data:`hyf.adversary.DEFAULT_SEED`; the ``HYF_SEED`` environment
variable overrides it, an explicit ``--seed`` wins over both.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import (
    DetectorDisagreement,
    RejectionBudgetExceeded,
    TickParseError,
    ValidationError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DISAGREEMENT = 4
EXIT_REJECTION = 5

DEFAULT_RATE_PAIRS = "1,1;1,1/2;1,1/4;1,1/10"


class _UsageError(Exception):
    pass


class _OutputError(Exception):
    pass


class _StdoutError(Exception):
    """stdout is closed, or refused a write or the flush."""


def _stdout_error(exc: OSError | None) -> _StdoutError:
    # None: the process started without a stdout (``>&-``)
    if exc is None or isinstance(exc, BrokenPipeError):
        return _StdoutError("stdout closed before the output was written")
    return _StdoutError(f"cannot write to stdout: {exc.strerror or exc}")


def _write_stdout(chunks) -> None:
    """Write each string of ``chunks`` to stdout; a stdout that is closed or
    refuses a write is a :class:`_StdoutError`."""
    out = sys.stdout
    if out is None:
        raise _stdout_error(None)
    write = out.write
    for chunk in chunks:
        try:
            write(chunk)
        except OSError as exc:
            raise _stdout_error(exc) from None


def _flush_stdout() -> None:
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            raise _stdout_error(exc) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage problems are exit 1 here
    def error(self, message):
        raise _UsageError(message)

    # argparse writes help and version text to stderr when there is no
    # stdout, and drops a write that fails; here they fail like any output
    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            super()._print_message(message, file)
        elif message:
            _write_stdout((message,))


def build_parser() -> _Parser:
    """The parser; each command's ``body`` is the name of the function in
    :mod:`hyf.cli` that runs it, looked up at each call."""
    parser = _Parser(
        prog="hyf",
        description="Asynchronous covariance estimation and cancelled-data accounting.",
    )
    parser.add_argument("--version", action="version", version=f"hyf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser("estimate", help="covariance of two tick files")
    estimate.add_argument("file_a")
    estimate.add_argument("file_b")
    estimate.add_argument("--jitter", action="store_true",
                          help="break cross-file timestamp ties deterministically")
    estimate.add_argument("--json", action="store_true")
    estimate.set_defaults(body="_cmd_estimate")

    detect = sub.add_parser("detect", help="locate cancelled data points")
    detect.add_argument("file_a")
    detect.add_argument("file_b")
    detect.add_argument("--method", choices=["interval", "label", "oracle", "all"],
                        default="interval")
    detect.add_argument("--include-boundary", action="store_true")
    detect.add_argument("--jitter", action="store_true",
                        help="break cross-file timestamp ties deterministically")
    detect.add_argument("--json", action="store_true")
    detect.set_defaults(body="_cmd_detect")

    simulate = sub.add_parser("simulate", help="write a synthetic asynchronous pair")
    simulate.add_argument("--rate-a", type=float, default=1.0)
    simulate.add_argument("--rate-b", type=float, default=1.0)
    simulate.add_argument("--horizon", type=float, required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out-prefix", required=True)
    simulate.add_argument("--json", action="store_true")
    simulate.set_defaults(body="_cmd_simulate")

    table = sub.add_parser("loss-table", help="empirical loss grid over rates and horizons")
    table.add_argument("--runs", type=int, default=1000)
    table.add_argument("--horizons", default="100,1000",
                       help="comma separated, e.g. '100,1000'")
    table.add_argument("--rates", default=DEFAULT_RATE_PAIRS,
                       help="semicolon separated pairs, e.g. '1,1;1,1/2'")
    table.add_argument("--seed", type=int, default=None)
    table.add_argument("--include-boundary", action="store_true")
    table.add_argument("--json", action="store_true")
    table.set_defaults(body="_cmd_loss_table")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            # numpy and the compute modules load only for a chosen command
            from . import cli

            return getattr(cli, args.body)(args)
        finally:
            # a closed or full stdout surfaces here, not in the flush at exit
            _flush_stdout()
    except _UsageError as exc:
        print(f"hyf: error: {exc}", file=sys.stderr)
        print("run 'hyf --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except _StdoutError as exc:
        if sys.stdout is not None:
            # keep the flush at exit quiet, as the Python docs recommend
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"hyf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _OutputError as exc:
        print(f"hyf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TickParseError as exc:
        print(f"hyf: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"hyf: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DetectorDisagreement as exc:
        print(f"hyf: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except RejectionBudgetExceeded as exc:
        print(f"hyf: {exc}", file=sys.stderr)
        return EXIT_REJECTION

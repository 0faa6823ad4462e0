"""Command line surface: estimate, detect, simulate, loss-table.

Exit codes are part of the contract so shell pipelines can branch on the
failure class:

* 0 success
* 1 usage error (bad flags, bad rate syntax, nonpositive horizon, ...),
  or output that cannot be delivered (unwritable file, stdout closed early)
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
import contextlib
import gc
import io
import json
import os
import pickle
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import __version__
from .adversary import DEFAULT_SEED, AdversaryConfig, attach_random_walk, generate_inputs
from .core import ObservationSeries, first_shared_time, merge_labels, safe_median, validate_series
from .errors import DetectorDisagreement, RejectionBudgetExceeded, ValidationError
from .estimator import hy_covariance, telescope_rows
from .montecarlo import check_runs, loss_table
from .nonextant import (
    NonextantReport,
    detect_interval_rule,
    detect_label_rule,
    oracle_detect,
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


class TickParseError(Exception):
    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path, self.line, self.message = path, line, message

    def __reduce__(self):
        # pickle would rebuild it from its one formatted arg; a forked
        # reader sends it through a pipe
        return type(self), (self.path, self.line, self.message)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage problems are exit 1 here
    def error(self, message):
        raise _UsageError(message)


@dataclass
class TickFile:
    path: str
    times: np.ndarray
    prices: np.ndarray


# bytes a plain numeric tick body is made of; any other byte (space,
# letters, numpy-only whitespace such as \x1c, non-ASCII) goes to the
# line-by-line parser
_NUMERIC_BODY_BYTES = b"0123456789eE.+-,\r\n"


def read_tick_file(path: str) -> TickFile:
    """Parse a ``time,price`` CSV; any malformed content is a parse error.

    A plain numeric body is parsed by ``np.loadtxt``.  Its result counts
    only when it has one two-column row per body line, so a blank line
    (which ``loadtxt`` skips) never passes; every other file, and every
    failure, goes through :func:`_read_tick_lines`, which owns all messages.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise TickParseError(path, 0, f"cannot read file: {exc}") from exc
    header, _, body = raw.partition(b"\n")
    # loadtxt warns on a body of blank lines only, so the first row must
    # have content
    if (
        header in (b"time,price", b"time,price\r")
        and body[:1] not in (b"", b"\r", b"\n")
        and not body.translate(None, _NUMERIC_BODY_BYTES)
    ):
        rows = body.count(b"\n") + (not body.endswith(b"\n"))
        try:
            data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2,
                              comments=None, encoding="ascii")
        except ValueError:
            pass
        else:
            if data.shape == (rows, 2):
                return TickFile(path, data[:, 0], data[:, 1])
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise TickParseError(path, line, f"not UTF-8 text (byte {raw[exc.start]:#04x})") from None
    return _read_tick_lines(path, text)


def _read_tick_lines(path: str, text: str) -> TickFile:
    """Line-by-line parse of a decoded tick file; the reference parser."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0].rstrip("\r") != "time,price":
        raise TickParseError(path, 1, "header must be exactly 'time,price'")
    times: list[float] = []
    prices: list[float] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.rstrip("\r").split(",")
        if len(fields) != 2:
            raise TickParseError(path, lineno, f"expected 2 fields, got {len(fields)}")
        try:
            times.append(float(fields[0]))
            prices.append(float(fields[1]))
        except ValueError:
            raise TickParseError(path, lineno, f"not a number: {line!r}") from None
    return TickFile(path, np.asarray(times, dtype=float), np.asarray(prices, dtype=float))


def write_tick_file(path: str, series: ObservationSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,price\n")
        for t, p in zip(series.times.tolist(), series.values.tolist()):
            fh.write(f"{t!r},{p!r}\n")


# Leg B's text work moves to a forked child, beside leg A in this process,
# when the smaller leg holds at least this many bytes (reads) or points
# (writes).  Forking and reaping a child costs 2-3 ms at 100-130 MB RSS;
# parsing costs 20-35 ns per byte and writing about 3 µs per point, so
# the break-even is near 100 kB, and at 1 MiB (about 25k rows of
# simulated text) the saving is ten times the cost.  A 10k-tick leg
# (about 0.4 MB) stays in process.
FORK_MIN_BYTES = 1 << 20
FORK_MIN_POINTS = 25_000


def _read_leg(path: str) -> tuple[np.ndarray, np.ndarray]:
    tick = read_tick_file(path)
    return tick.times, tick.prices


def _write_leg(path: str, series: ObservationSeries) -> tuple:
    write_tick_file(path, series)
    return ()


def _outcome(task, args):
    try:
        return task(*args)
    except Exception as exc:
        return exc


def _both_legs(task, args_a: tuple, args_b: tuple, fork: bool) -> list:
    """``[task(*args_a), task(*args_b)]``, an exception where a leg raised.

    Both legs always run.  ``task`` returns a tuple of float64 arrays.
    With ``fork`` (on a platform that has ``os.fork``), leg B runs in a
    forked child while this process runs leg A; a child that ends without
    sending a whole outcome has its leg rerun here, so both paths give
    the same outcomes.
    """
    child = _start_child(task, args_b) if fork and hasattr(os, "fork") else None
    if child is None:
        return [_outcome(task, args_a), _outcome(task, args_b)]
    pid, read_fd = child
    try:
        # closed before the wait, so a child blocked on a full pipe ends
        with open(read_fd, "rb") as pipe:
            outcome_a = _outcome(task, args_a)
            outcome_b = _receive(pipe)
    finally:
        os.waitpid(pid, 0)
    if outcome_b is None:
        outcome_b = _outcome(task, args_b)
    return [outcome_a, outcome_b]


def _start_child(task, args):
    """Fork a child that sends ``task(*args)``'s outcome down a pipe;
    return ``(pid, read end)``, or None where no pipe or child can be made."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        # Python 3.12+ warns on fork() in a process with threads, and
        # numpy's BLAS pool is one.  The child runs only the tick parser or
        # writer, which take no lock of those threads, and leaves by
        # os._exit, so the warning is silenced here rather than raised.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        _run_child(task, args, read_fd, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _run_child(task, args, read_fd: int, write_fd: int) -> None:
    """Send the outcome as a pickled header (the exception, or the column
    sizes) and then the columns' raw bytes; never return.

    ``os._exit`` skips atexit hooks and never flushes the stdio buffers
    copied from the parent; with the collector off, no finalizer of an
    object copied from the parent runs here either.
    """
    code = 1
    try:
        gc.disable()
        os.close(read_fd)
        outcome = _outcome(task, args)
        with open(write_fd, "wb") as pipe:
            if isinstance(outcome, Exception):
                pickle.dump(outcome, pipe)
            else:
                pickle.dump(tuple(column.size for column in outcome), pipe)
                for column in outcome:
                    pipe.write(np.ascontiguousarray(column, dtype=float).data)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe):
    """The child's outcome, or None when it sent no whole one.

    Whatever stops a whole outcome arriving (a child that died, an
    exception that does not unpickle) only makes the caller rerun the leg,
    where its own error, if any, surfaces.
    """
    try:
        header = pickle.load(pipe)
        if isinstance(header, Exception):
            return header
        block = np.empty(sum(header))
        view = memoryview(block).cast("B")
        while view:
            count = pipe.readinto(view)
            if not count:
                return None
            view = view[count:]
        ends = np.cumsum((0, *header))
        return tuple(block[start:end] for start, end in zip(ends, ends[1:]))
    except Exception:
        return None


def _raise_first(outcomes: list) -> list:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _large_files(path_a: str, path_b: str) -> bool:
    try:
        return min(os.stat(path_a).st_size, os.stat(path_b).st_size) >= FORK_MIN_BYTES
    except (OSError, ValueError):
        return False


def _tie_jitter(times_a: np.ndarray, times_b: np.ndarray) -> np.ndarray:
    """Deterministically nudge leg-B timestamps that collide with leg A.

    Each tied time moves up by ``1e-9`` of the median finite merged gap, or
    by one ulp where that step is too small to change it (epoch seconds).
    """
    merged = np.sort(np.concatenate([times_a, times_b]))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(merged)
        gaps = gaps[(gaps > 0) & (gaps < np.inf)]
        if gaps.size == 0:
            return times_b
        eps = 1e-9 * safe_median(gaps)
        out = times_b.copy()
        tied = np.isin(out, times_a)
        t = out[tied]
        out[tied] = np.maximum(t + eps, np.nextafter(t, np.inf))
    return out


def _load_pair(args) -> tuple[ObservationSeries, ObservationSeries]:
    (times_a, prices_a), (times_b, prices_b) = _raise_first(_both_legs(
        _read_leg, (args.file_a,), (args.file_b,), _large_files(args.file_a, args.file_b)))
    if getattr(args, "jitter", False):
        times_b = _tie_jitter(times_a, times_b)
    # a fully synchronous pair is well defined for the interval algebra;
    # a partial timestamp collision is ambiguous data and gets rejected
    shared = first_shared_time(times_a, times_b)
    if shared is not None and not np.array_equal(times_a, times_b):
        raise ValidationError(
            f"time {float(shared)!r} appears in both files; asynchronous inputs "
            "must not share timestamps (rerun with --jitter to break ties)"
        )
    s1 = validate_series(times_a, prices_a, "A")
    s2 = validate_series(times_b, prices_b, "B")
    return s1, s2


def _resolve_seed(args) -> int:
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        env = os.environ.get("HYF_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "HYF_SEED"
        except ValueError:
            raise _UsageError(f"HYF_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 2**64:
        raise _UsageError(f"{source} must be a 64-bit unsigned integer, got {seed}")
    return seed


def _parse_rate(token: str) -> float:
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse rate {token!r}") from None


def _parse_rate_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise _UsageError(f"rate pair must look like 'a,b', got {chunk!r}")
        a, b = (_parse_rate(p) for p in parts)
        pairs.append((a, b))
    if not pairs:
        raise _UsageError("need at least one rate pair")
    return pairs


def _parse_horizons(text: str) -> list[float]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(float(chunk))
        except ValueError:
            raise _UsageError(f"cannot parse horizon {chunk!r}") from None
    if not out:
        raise _UsageError("need at least one horizon")
    return out


_JSON_SCALARS = frozenset({int, float, bool, type(None)})


def _json_dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, faster on long lists.

    ``json`` runs its C encoder only without ``indent``, so a non-empty list
    of plain numbers, bools and ``None`` is dumped flat and split at its
    ``", "`` separators, which no such scalar contains.  Dicts with string
    keys recurse; any other value takes the indenting encoder, whose
    structural newlines are the only raw newlines in its output.  A list
    or dict that ``obj`` holds more than once is encoded once per depth;
    only those texts are kept, so the peak memory stays that of one pass.
    """
    return _encode(obj, "", _repeated(obj), {})


def _repeated(obj) -> set[int]:
    """ids of the lists and dicts that ``obj`` holds more than once."""
    seen: set[int] = set()
    repeated: set[int] = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            children = item.values()
        elif isinstance(item, list):
            children = () if set(map(type, item)) <= _JSON_SCALARS else item
        else:
            continue
        if id(item) in seen:
            repeated.add(id(item))
        else:
            seen.add(id(item))
            stack.extend(children)
    return repeated


def _encode(obj, pad: str, repeated: set[int], memo: dict) -> str:
    key = (id(obj), pad)
    if key in memo:
        return memo[key]
    inner = pad + "  "
    if isinstance(obj, list) and obj:
        if set(map(type, obj)) <= _JSON_SCALARS:
            body = inner + json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        else:
            body = ",\n".join(inner + _encode(v, inner, repeated, memo) for v in obj)
        text = f"[\n{body}\n{pad}]"
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {_encode(v, inner, repeated, memo)}"
                          for k, v in obj.items())
        text = f"{{\n{body}\n{pad}}}"
    else:
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    if id(obj) in repeated:
        memo[key] = text
    return text


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    """Print ``payload`` as JSON, or else ``text_lines``, built only here."""
    if args.json:
        print(_json_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _legs_payload(report: NonextantReport, s1: ObservationSeries, s2: ObservationSeries) -> dict:
    return {
        "A": {
            "indices": list(report.nonextant_1),
            "times": s1.times[np.asarray(report.nonextant_1, dtype=np.intp)].tolist(),
        },
        "B": {
            "indices": list(report.nonextant_2),
            "times": s2.times[np.asarray(report.nonextant_2, dtype=np.intp)].tolist(),
        },
    }


def _report_payload(report: NonextantReport, legs: dict) -> dict:
    loss = report.f_total / report.m if report.m > 0 else None
    return {
        "method": report.method,
        "legs": legs,
        "f_interior": report.f_interior,
        "f_total": report.f_total,
        "m": report.m,
        "loss": loss,
    }


def _report_lines(payload: dict) -> list[str]:
    loss = payload["loss"]
    return [
        f"method {payload['method']}",
        "nonextant_A indices={} times={}".format(
            ",".join(map(str, payload["legs"]["A"]["indices"])),
            ",".join(repr(t) for t in payload["legs"]["A"]["times"]),
        ),
        "nonextant_B indices={} times={}".format(
            ",".join(map(str, payload["legs"]["B"]["indices"])),
            ",".join(repr(t) for t in payload["legs"]["B"]["times"]),
        ),
        f"f_interior {payload['f_interior']}",
        f"f_total {payload['f_total']}",
        f"overlaps {payload['m']}",
        "loss undefined" if loss is None else f"loss {loss!r}",
    ]


def _cmd_estimate(args) -> int:
    s1, s2 = _load_pair(args)
    covariance = hy_covariance(s1, s2)
    terms = telescope_rows(s1, s2)
    results = {
        "covariance": covariance,
        "overlaps": len(terms.pairs),
        "raw_terms": len(terms.pairs),
        "grouped_terms": len(terms.groups),
    }
    payload = {
        "command": "estimate",
        "inputs": {"file_a": args.file_a, "file_b": args.file_b},
        "results": results,
        "seed": None,
        "version": __version__,
    }
    _emit(args, payload, [
        f"covariance {covariance!r}",
        f"overlaps {results['overlaps']}",
        f"raw_terms {results['raw_terms']}",
        f"grouped_terms {results['grouped_terms']}",
    ])
    return EXIT_OK


def _cmd_detect(args) -> int:
    s1, s2 = _load_pair(args)
    reports: list[NonextantReport] = []
    if args.method in ("interval", "all"):
        reports.append(detect_interval_rule(s1, s2, include_boundary=args.include_boundary))
    if args.method in ("label", "all"):
        reports.append(detect_label_rule(merge_labels(s1, s2), include_boundary=args.include_boundary))
    if args.method in ("oracle", "all"):
        reports.append(oracle_detect(s1, s2, include_boundary=args.include_boundary))

    agree = all(reports[0].same_points(r) for r in reports[1:])
    # agreeing reports name the same points: one legs dict serves all, and
    # _json_dumps encodes it once
    shared = _legs_payload(reports[0], s1, s2) if agree else None
    payloads = [_report_payload(r, shared or _legs_payload(r, s1, s2)) for r in reports]
    payload = {
        "command": "detect",
        "inputs": {
            "file_a": args.file_a,
            "file_b": args.file_b,
            "method": args.method,
            "include_boundary": args.include_boundary,
        },
        "results": {"reports": payloads, "agree": agree if args.method == "all" else None},
        "seed": None,
        "version": __version__,
    }

    def lines():
        for p in payloads:
            yield from _report_lines(p)
        if args.method == "all":
            yield f"agreement {'ok' if agree else 'FAILED'}"

    _emit(args, payload, lines())
    if not agree:
        raise DetectorDisagreement("detectors disagree; this indicates a bug")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    try:
        config = AdversaryConfig(args.rate_a, args.rate_b, args.horizon, seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    s1, s2 = generate_inputs(config)
    s1, s2 = attach_random_walk(s1, s2, seed=seed)
    path_a = f"{args.out_prefix}_a.csv"
    path_b = f"{args.out_prefix}_b.csv"
    outcomes = list(zip((path_a, path_b), _both_legs(
        _write_leg, (path_a, s1), (path_b, s2), min(s1.n_points, s2.n_points) >= FORK_MIN_POINTS)))
    failed = [(path, outcome) for path, outcome in outcomes if isinstance(outcome, Exception)]
    if failed:
        # no half pair stays behind; an error that names its path came
        # from open(), so that file was never touched
        for path, outcome in outcomes:
            if not (isinstance(outcome, OSError) and outcome.filename == path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        path, exc = failed[0]
        if isinstance(exc, OSError):
            raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise exc
    results = {
        "file_a": path_a,
        "file_b": path_b,
        "points_a": s1.n_points,
        "points_b": s2.n_points,
    }
    payload = {
        "command": "simulate",
        "inputs": {
            "rate_a": args.rate_a,
            "rate_b": args.rate_b,
            "horizon": args.horizon,
            "out_prefix": args.out_prefix,
        },
        "results": results,
        "seed": seed,
        "version": __version__,
    }
    _emit(args, payload, [
        f"wrote {path_a} ({s1.n_points} points)",
        f"wrote {path_b} ({s2.n_points} points)",
    ])
    return EXIT_OK


def _cmd_loss_table(args) -> int:
    rate_pairs = _parse_rate_pairs(args.rates)
    horizons = _parse_horizons(args.horizons)
    seed = _resolve_seed(args)
    try:
        for rate_a, rate_b in rate_pairs:
            for horizon in horizons:
                AdversaryConfig(rate_a, rate_b, horizon, seed)
        check_runs(args.runs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    mode = "total" if args.include_boundary else "interior"
    table = loss_table(rate_pairs, horizons, args.runs, seed, boundary_mode=mode)

    cells = [
        {
            "rate_a": s.config.rate_a,
            "rate_b": s.config.rate_b,
            "horizon": s.config.horizon,
            "runs": s.runs,
            "boundary_mode": s.boundary_mode,
            "mean_loss": s.mean_loss,
            "std_loss": s.std_loss,
            "theoretical": s.theoretical,
        }
        for s in table.cells()
    ]
    payload = {
        "command": "loss-table",
        "inputs": {
            "rates": args.rates,
            "horizons": args.horizons,
            "runs": args.runs,
            "boundary_mode": mode,
        },
        "results": {"cells": cells, "theoretical": list(table.theoretical)},
        "seed": seed,
        "version": __version__,
    }

    header = ["horizon".ljust(10)] + [
        f"r={a:g},{b:g}".ljust(16) for a, b in table.rate_pairs
    ]
    lines = [
        f"loss f/m (mean ± sample std, boundary={mode}, runs={args.runs}, seed={seed})",
        "".join(header).rstrip(),
    ]
    for horizon, row in zip(table.horizons, table.rows):
        cells_txt = [f"{s.mean_loss:.3f} ± {s.std_loss:.3f}".ljust(16) for s in row]
        lines.append("".join([f"{horizon:g}".ljust(10)] + cells_txt).rstrip())
    exact = [f"{v:.6g}".ljust(16) for v in table.theoretical]
    lines.append("".join(["exact".ljust(10)] + exact).rstrip())
    _emit(args, payload, lines)
    return EXIT_OK


def build_parser() -> _Parser:
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
    estimate.set_defaults(func=_cmd_estimate)

    detect = sub.add_parser("detect", help="locate cancelled data points")
    detect.add_argument("file_a")
    detect.add_argument("file_b")
    detect.add_argument("--method", choices=["interval", "label", "oracle", "all"],
                        default="interval")
    detect.add_argument("--include-boundary", action="store_true")
    detect.add_argument("--jitter", action="store_true",
                        help="break cross-file timestamp ties deterministically")
    detect.add_argument("--json", action="store_true")
    detect.set_defaults(func=_cmd_detect)

    simulate = sub.add_parser("simulate", help="write a synthetic asynchronous pair")
    simulate.add_argument("--rate-a", type=float, default=1.0)
    simulate.add_argument("--rate-b", type=float, default=1.0)
    simulate.add_argument("--horizon", type=float, required=True)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out-prefix", required=True)
    simulate.add_argument("--json", action="store_true")
    simulate.set_defaults(func=_cmd_simulate)

    table = sub.add_parser("loss-table", help="empirical loss grid over rates and horizons")
    table.add_argument("--runs", type=int, default=1000)
    table.add_argument("--horizons", default="100,1000",
                       help="comma separated, e.g. '100,1000'")
    table.add_argument("--rates", default=DEFAULT_RATE_PAIRS,
                       help="semicolon separated pairs, e.g. '1,1;1,1/2'")
    table.add_argument("--seed", type=int, default=None)
    table.add_argument("--include-boundary", action="store_true")
    table.add_argument("--json", action="store_true")
    table.set_defaults(func=_cmd_loss_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        finally:
            # a closed stdout surfaces here, not in the flush at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # keep the flush at exit quiet, as the Python docs recommend
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("hyf: error: stdout closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"hyf: error: {exc}", file=sys.stderr)
        print("run 'hyf --help' for usage", file=sys.stderr)
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


if __name__ == "__main__":
    sys.exit(main())

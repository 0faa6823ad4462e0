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
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .adversary import DEFAULT_SEED, AdversaryConfig, attach_random_walk, generate_inputs
from . import core
from .core import (
    ObservationSeries,
    first_shared_time,
    merge_labels,
    safe_median,
    tie_mask,
    validate_series,
)
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


# bytes a plain numeric tick body is made of; any other byte (space,
# letters, numpy-only whitespace such as \x1c, non-ASCII) goes to the
# line-by-line parser
_NUMERIC_BODY_BYTES = b"0123456789eE.+-,\r\n"

# header lines the fast path takes, the longest last
_FAST_HEADERS = (b"time,price\n", b"time,price\r\n")


# bytes of a tick file's body read at a time by the streamed reader, the
# size of a block of float64 (see core.BLOCK_POINTS).  The reader holds
# about 2.5 chunks beside its columns; a chunk is about 1700 rows of
# simulated text, and np.loadtxt costs about 3 µs per call, so 1 MiB
# chunks would hold 16 times the memory for no measurable gain in time.
READ_CHUNK_BYTES = 1 << 16


def read_tick_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``time,price`` CSV into read-only ``(times, prices)``; any
    malformed content is a parse error.

    A plain numeric body is parsed by ``np.loadtxt``, whose result counts
    only when it has one two-column row per body line, so a blank line
    (which ``loadtxt`` skips) never passes.  A regular file is streamed
    (:func:`_streamed_columns`): two passes over pieces of about
    :data:`READ_CHUNK_BYTES`, so that the reader holds its two columns and
    a few pieces, never the whole text.  An input that cannot seek (a
    pipe) is read whole, and so is a file the streamed reader refuses.
    A whole body that is not plain numeric text, or that ``loadtxt``
    refuses, goes through :func:`_read_tick_lines`, which owns all
    messages.
    """
    try:
        # unbuffered, so each read makes one bytes object of its own size;
        # the header is read a byte at a time, no further than the longest
        # header the fast path takes
        with open(path, "rb", buffering=0) as fh:
            header = fh.readline(len(_FAST_HEADERS[-1]))
            if fh.seekable():
                columns = _streamed_columns(fh, header)
                if columns is not None:
                    return _frozen_columns(*columns)
                fh.seek(0)
                header = fh.readline(len(_FAST_HEADERS[-1]))
            body = fh.read()
    except OSError as exc:
        raise TickParseError(path, 0, f"cannot read file: {exc}") from exc
    data = _parsed_piece(body) if header in _FAST_HEADERS else None
    if data is not None:
        del body
        return _frozen_columns(data[:, 0].copy(), data[:, 1].copy())
    raw = header + body
    del body
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise TickParseError(path, line, f"not UTF-8 text (byte {raw[exc.start]:#04x})") from None
    return _read_tick_lines(path, text)


def _streamed_columns(fh, header: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns of the plain numeric body after ``header``, parsed a
    piece at a time, or None where the whole-body reader must decide.

    Pass 1 counts the rows; pass 2 reads the body again and writes each
    piece's rows straight into the two columns.  Both passes check every
    piece, and pass 2's pieces must fill the columns exactly, so a file
    that changes between the passes is refused rather than read in part.
    The pieces go through ``map``, so no loop variable keeps the last one
    while the next is read.
    """
    if header not in _FAST_HEADERS:
        return None
    start = fh.tell()
    rows = 0
    for count in map(_piece_rows, _pieces(fh)):
        if count is None:
            return None
        rows += count
    fh.seek(start)
    times, prices = np.empty(rows), np.empty(rows)
    filled = 0
    for data in map(_parsed_piece, _pieces(fh)):
        if data is None or filled + len(data) > rows:
            return None
        times[filled:filled + len(data)], prices[filled:filled + len(data)] = data.T
        filled += len(data)
    return (times, prices) if filled == rows else None


def _pieces(fh) -> Iterator[bytes]:
    """The rest of ``fh`` as whole lines, read :data:`READ_CHUNK_BYTES` at a
    time: a piece ends at a chunk's last newline, the text after it is
    carried into the next piece, and a last line with no newline is a
    piece of its own."""
    carry: list[bytes] = []
    while chunk := fh.read(READ_CHUNK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            carry.append(chunk)
            continue
        # one copy into the piece; the chunk goes before the piece is
        # checked or parsed, and the piece before the next chunk is read
        piece = b"".join([*carry, memoryview(chunk)[:cut]])
        carry = [chunk[cut:]]
        del chunk
        yield piece
        del piece
    rest = b"".join(carry)
    if rest:
        yield rest


def _piece_rows(piece: bytes) -> int | None:
    """Rows of a piece of body that starts at a line, or None where
    ``loadtxt`` may not parse it: it is empty, holds a byte outside
    :data:`_NUMERIC_BODY_BYTES`, or starts with a blank line (``loadtxt``
    warns on a piece of blank lines only)."""
    if piece[:1] in (b"", b"\r", b"\n") or piece.translate(None, _NUMERIC_BODY_BYTES):
        return None
    # numpy compares bytes several times faster than bytes.count counts
    # one; a chunk at a time, so that a whole body takes no mask of its size
    view = np.frombuffer(piece, dtype=np.uint8)
    newlines = sum(int(np.count_nonzero(view[k:k + READ_CHUNK_BYTES] == ord("\n")))
                   for k in range(0, view.size, READ_CHUNK_BYTES))
    return newlines + (not piece.endswith(b"\n"))


def _parsed_piece(piece: bytes) -> np.ndarray | None:
    """``np.loadtxt``'s ``(rows, 2)`` array of a piece of body that starts at
    a line, or None where :func:`_piece_rows` refuses the piece, or
    ``loadtxt`` refuses it or skips a line of it."""
    rows = _piece_rows(piece)
    if rows is None:
        return None
    try:
        data = np.loadtxt(io.BytesIO(piece), delimiter=",", ndmin=2,
                          comments=None, encoding="ascii")
    except ValueError:
        return None
    return data if data.shape == (rows, 2) else None


def _read_tick_lines(path: str, text: str) -> tuple[np.ndarray, np.ndarray]:
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
    return _frozen_columns(np.asarray(times, dtype=float), np.asarray(prices, dtype=float))


def _frozen_columns(times: np.ndarray, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # frozen here, the columns go to validate_series without a copy
    times.flags.writeable = prices.flags.writeable = False
    return times, prices


def write_tick_file(path: str, series: ObservationSeries) -> None:
    """Write ``series`` as a ``time,price`` CSV, each float by its ``repr``.

    The text is formatted in pieces of a quarter of
    :data:`hyf.core.BLOCK_POINTS` rows (about 80 kB of text), so that a
    piece's float lists, line strings and joined text take about five
    blocks of float64, whatever the length of the leg.
    """
    times, values = series.times, series.values
    step = max(1, core.BLOCK_POINTS // 4)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,price\n")
        for start in range(0, times.size, step):
            piece = slice(start, start + step)
            fh.write("".join([f"{t!r},{p!r}\n"
                              for t, p in zip(times[piece].tolist(), values[piece].tolist())]))


# Leg B's text work moves to a forked child, beside leg A in this process,
# when the smaller leg holds at least this many bytes (reads) or points
# (writes).  Forking and reaping a child costs 2-3 ms at 100-130 MB RSS;
# parsing costs 20-35 ns per byte and writing about 3 µs per point, so
# the break-even is near 100 kB, and at 1 MiB (about 25k rows of
# simulated text) the saving is ten times the cost.  A 10k-tick leg
# (about 0.4 MB) stays in process.
FORK_MIN_BYTES = 1 << 20
FORK_MIN_POINTS = 25_000


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
        columns = tuple(np.empty(size) for size in header)
        for column in columns:
            view = memoryview(column).cast("B")
            while view:
                count = pipe.readinto(view)
                if not count:
                    return None
                view = view[count:]
            # frozen like the parent's own leg, see _frozen_columns
            column.flags.writeable = False
        return columns
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
    sorted_a = np.sort(times_a)
    merged = np.sort(np.concatenate([sorted_a, times_b]))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(merged)
        gaps = gaps[(gaps > 0) & (gaps < np.inf)]
        if gaps.size == 0 or sorted_a.size == 0:
            return times_b
        eps = 1e-9 * safe_median(gaps)
        out = times_b.copy()
        tied = tie_mask(sorted_a, out)
        t = out[tied]
        out[tied] = np.maximum(t + eps, np.nextafter(t, np.inf))
    return out


def _load_pair(args) -> tuple[ObservationSeries, ObservationSeries]:
    (times_a, prices_a), (times_b, prices_b) = _raise_first(_both_legs(
        read_tick_file, (args.file_a,), (args.file_b,), _large_files(args.file_a, args.file_b)))
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


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` in pieces, faster on long lists.

    ``json`` runs its C encoder only without ``indent``, so a non-empty list
    (or tuple) of plain numbers, bools and ``None``, or a 1-D numeric or bool
    array, is dumped flat by :func:`_scalar_blocks`; an array is encoded as
    the list its ``tolist()`` gives.  Dicts with string keys recurse; any other value
    takes the indenting encoder, whose structural newlines are the only raw
    newlines in its output.  No piece holds more than one block or one such
    value, except that a list or dict that ``obj`` holds more than once is
    encoded once per depth and its text kept.
    """
    return _encode(obj, "", _repeated(obj), {})


class _Gathered:
    """``values[indices]``, gathered only a slice at a time: a 1-D array's
    ``len`` and slices, which is all :func:`_scalar_blocks` takes."""

    def __init__(self, values: np.ndarray, indices: np.ndarray):
        self.values, self.indices = values, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, block: slice) -> np.ndarray:
        return self.values[self.indices[block]]


def _is_scalar_list(obj) -> bool:
    """True for a 1-D numeric or bool array, such an array's :class:`_Gathered`
    items, and a list or tuple of plain scalars."""
    if isinstance(obj, _Gathered):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        return obj.ndim == 1 and obj.dtype.kind in "biuf"
    return isinstance(obj, (list, tuple)) and set(map(type, obj)) <= _JSON_SCALARS


def _repeated(obj) -> set[int]:
    """ids of the lists, arrays and dicts that ``obj`` holds more than once."""
    seen: set[int] = set()
    repeated: set[int] = set()
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            children = item.values()
        elif _is_scalar_list(item):
            children = ()
        elif isinstance(item, (list, tuple)):
            children = item
        else:
            continue
        if id(item) in seen:
            repeated.add(id(item))
        else:
            seen.add(id(item))
            stack.extend(children)
    return repeated


def _scalar_blocks(items, sep: str) -> Iterator[str]:
    """JSON texts of plain scalars joined by ``sep``, in pieces of
    :data:`hyf.core.BLOCK_POINTS` items, each one C-encoder dump split at its
    ``", "``, which no such scalar holds.

    ``items`` is a list, a tuple, a 1-D array or a :class:`_Gathered`; an
    array is gathered and turned into Python scalars one block at a time.
    A block of integers or finite floats is dumped by ``repr``, which gives
    the same text: it writes each item's text into one buffer, where
    ``json.dumps`` keeps every item's text until it joins them (2.5 times
    the peak memory).
    """
    for block in core.blocks(len(items)):
        piece, dump = items[block], json.dumps
        if isinstance(piece, np.ndarray):
            if piece.dtype.kind in "iu" or (piece.dtype.kind == "f" and np.isfinite(piece).all()):
                dump = repr
            piece = piece.tolist()
        if block.start:
            yield sep
        yield dump(piece)[1:-1].replace(", ", sep)


def _encode(obj, pad: str, repeated: set[int], memo: dict) -> Iterator[str]:
    if id(obj) not in repeated:
        yield from _encode_once(obj, pad, repeated, memo)
        return
    key = (id(obj), pad)
    if key not in memo:
        # the pieces, not their join, which would hold the text twice
        memo[key] = list(_encode_once(obj, pad, repeated, memo))
    yield from memo[key]


def _encode_once(obj, pad: str, repeated: set[int], memo: dict) -> Iterator[str]:
    inner = pad + "  "
    if _is_scalar_list(obj):
        if len(obj):
            yield "[\n" + inner
            yield from _scalar_blocks(obj, ",\n" + inner)
            yield f"\n{pad}]"
        else:
            yield "[]"
    elif isinstance(obj, (list, tuple)) and obj:
        yield "[\n" + inner
        for k, value in enumerate(obj):
            if k:
                yield ",\n" + inner
            yield from _encode(value, inner, repeated, memo)
        yield f"\n{pad}]"
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        for k, (key, value) in enumerate(obj.items()):
            yield f"{',' if k else '{'}\n{inner}{json.dumps(key)}: "
            yield from _encode(value, inner, repeated, memo)
        yield f"\n{pad}}}"
    else:
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def _emit(args, payload: dict, text: Iterable[str]) -> None:
    """Write ``payload`` as JSON, or else ``text``, built only here; both
    piece by piece."""
    write = sys.stdout.write
    for chunk in _json_chunks(payload) if args.json else text:
        write(chunk)
    if args.json:
        write("\n")


def _legs_payload(report: NonextantReport, s1: ObservationSeries, s2: ObservationSeries) -> dict:
    # the writers gather the times and turn both lists into Python scalars
    # a block at a time
    return {
        "A": {"indices": report.nonextant_1, "times": _Gathered(s1.times, report.nonextant_1)},
        "B": {"indices": report.nonextant_2, "times": _Gathered(s2.times, report.nonextant_2)},
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


def _leg_lines(legs: dict) -> Iterator[str]:
    """The ``nonextant_<leg>`` lines in pieces; a finite float's JSON is its repr."""
    for leg in ("A", "B"):
        yield f"nonextant_{leg} indices="
        yield from _scalar_blocks(legs[leg]["indices"], ",")
        yield " times="
        yield from _scalar_blocks(legs[leg]["times"], ",")
        yield "\n"


def _report_lines(payload: dict, leg_lines: Iterable[str]) -> Iterator[str]:
    loss = "undefined" if payload["loss"] is None else repr(payload["loss"])
    yield f"method {payload['method']}\n"
    yield from leg_lines
    yield f"f_interior {payload['f_interior']}\nf_total {payload['f_total']}\n"
    yield f"overlaps {payload['m']}\nloss {loss}\n"


def _cmd_estimate(args) -> int:
    s1, s2 = _load_pair(args)
    covariance = hy_covariance(s1, s2)
    terms = telescope_rows(s1, s2)
    results = {
        "covariance": covariance,
        "overlaps": terms.raw_count,
        "raw_terms": terms.raw_count,
        "grouped_terms": terms.grouped_count,
    }
    payload = {
        "command": "estimate",
        "inputs": {"file_a": args.file_a, "file_b": args.file_b},
        "results": results,
        "seed": None,
        "version": __version__,
    }
    _emit(args, payload, [
        f"covariance {covariance!r}\n",
        f"overlaps {results['overlaps']}\n",
        f"raw_terms {results['raw_terms']}\n",
        f"grouped_terms {results['grouped_terms']}\n",
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
    # _json_chunks encodes it once
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
        # formats a legs dict that several reports share once, like
        # _json_chunks encodes it once
        shared_lines = list(_leg_lines(shared)) if agree and len(payloads) > 1 else None
        for p in payloads:
            yield from _report_lines(p, shared_lines or _leg_lines(p["legs"]))
        if args.method == "all":
            yield f"agreement {'ok' if agree else 'FAILED'}\n"

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
        f"wrote {path_a} ({s1.n_points} points)\n",
        f"wrote {path_b} ({s2.n_points} points)\n",
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
    _emit(args, payload, (line + "\n" for line in lines))
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

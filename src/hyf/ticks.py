"""Tick files, the ``time,price`` CSV the CLI reads and writes, and the
two legs' tick work run side by side.

:func:`read_tick_file` parses a file or a pipe in one pass,
:func:`write_tick_file` writes a series; :func:`read_legs` and
:func:`write_legs` run a reader or writer they are given on both legs of
a pair, leg B in a forked child when the pair is large enough to gain
from it.
"""

from __future__ import annotations

import array
import gc
import io
import os
import pickle
import re
import warnings
from typing import Iterator

import numpy as np

from . import core
from .core import ObservationSeries
from .errors import TickParseError


# bytes a plain numeric tick body is made of; any other byte (space,
# letters, numpy-only whitespace such as \x1c, non-ASCII) goes to the
# line-by-line parser
_NUMERIC_BODY_BYTES = b"0123456789eE.+-,\r\n"

# bytes of a tick file's body read at a time by the streamed reader, the
# size of a block of float64 (see core.BLOCK_POINTS).  The reader holds
# about 1.5 chunks beside its columns; a chunk is about 1700 rows of
# simulated text, and np.loadtxt costs about 3 µs per call, so 1 MiB
# chunks would hold 16 times the memory for no measurable gain in time.
READ_CHUNK_BYTES = 1 << 16


def read_tick_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a ``time,price`` CSV, a file or a pipe, into read-only
    ``(times, prices)``; any malformed content is a parse error.

    The input is read once, in pieces of about :data:`READ_CHUNK_BYTES`,
    each parsed alone into two columns that grow to exactly the rows so
    far, so the reader never holds the whole text.  A plain numeric piece
    goes to ``np.loadtxt``; the first piece, which holds the header, and
    any piece the fast path refuses go to :func:`_read_tick_lines`, which
    owns the header rule and all messages.
    """
    try:
        # unbuffered, so each read makes one bytes object of its own size
        with open(path, "rb", buffering=0) as fh:
            times, prices = np.empty(0), np.empty(0)
            line = 1  # of the file, where the next piece starts
            pieces = _pieces(fh)
            for piece in pieces:
                data = _parsed_piece(piece) if line > 1 else None
                rows = _read_piece_lines(path, piece, line, pieces) if data is None else data.T
                # the piece and its rows go before the next chunk is read
                del piece, data
                _extend((times, prices), rows)
                del rows
                line = 2 + times.size
    except OSError as exc:
        raise TickParseError(path, 0, f"cannot read file: {exc}") from exc
    return _frozen_columns(times, prices)


def _extend(columns, tails) -> None:
    """Grow each owned column in place by the values of its tail.  The
    resize moves the column's buffer, so no view of a column may outlive
    it."""
    for column, tail in zip(columns, tails):
        rows = column.size
        column.resize(rows + tail.size, refcheck=False)
        column[rows:] = tail


def _read_piece_lines(path: str, piece: bytes, line: int, pieces) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_read_tick_lines` of ``piece``, from line ``line`` of the file.
    A byte that is not UTF-8 anywhere ranks above a line defect, so the
    defect is raised once the ``pieces`` left are decoded, one at a time."""
    text = _decoded(path, piece, line)
    try:
        return _read_tick_lines(path, text, line)
    except TickParseError as exc:
        # a copy without the traceback, which would hold the parse's text
        defect = TickParseError(exc.path, exc.line, exc.message)
    del text
    line += piece.count(b"\n")
    for piece in pieces:
        _decoded(path, piece, line)
        line += piece.count(b"\n")
        del piece
    raise defect


def _decoded(path: str, raw: bytes, first_line: int) -> str:
    """Whole lines from line ``first_line`` as text; bad UTF-8 is an error."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = first_line + raw.count(b"\n", 0, exc.start)
        raise TickParseError(path, line, f"not UTF-8 text (byte {raw[exc.start]:#04x})") from None


def _pieces(fh) -> Iterator[bytes]:
    """``fh`` in pieces of whole lines, read :data:`READ_CHUNK_BYTES` at a
    time: a piece ends at a chunk's last newline, and the last piece is
    the text after the input's last newline, empty where there is none."""
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
    yield b"".join(carry)


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


def _read_tick_lines(path: str, text: str, first_line: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse of decoded tick-file text that starts at line
    ``first_line`` of the file, with the header from line 1; the reference
    parser.  It cuts one line at a time and keeps float64 values, so it
    holds little beside the text."""
    lines = (match[0].rstrip("\n") for match in re.finditer(".*\n|.+", text))
    if first_line == 1 and next(lines, "").rstrip("\r") != "time,price":
        raise TickParseError(path, 1, "header must be exactly 'time,price'")
    times, prices = array.array("d"), array.array("d")
    for lineno, line in enumerate(lines, start=max(first_line, 2)):
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


def read_legs(read, path_a: str, path_b: str) -> list:
    """``[read(path_a), read(path_b)]`` by :func:`_both_legs`, leg B in a
    forked child when both files hold at least :data:`FORK_MIN_BYTES`."""
    try:
        fork = min(os.stat(path_a).st_size, os.stat(path_b).st_size) >= FORK_MIN_BYTES
    except (OSError, ValueError):
        fork = False
    return _both_legs(read, (path_a,), (path_b,), fork)


def write_legs(write, path_a: str, s1: ObservationSeries,
               path_b: str, s2: ObservationSeries) -> list:
    """``[write(path_a, s1), write(path_b, s2)]`` by :func:`_both_legs`, leg B
    in a forked child when both legs hold at least :data:`FORK_MIN_POINTS`."""
    return _both_legs(write, (path_a, s1), (path_b, s2),
                      min(s1.n_points, s2.n_points) >= FORK_MIN_POINTS)


def _outcome(task, args):
    try:
        return task(*args)
    except Exception as exc:
        return exc


def _both_legs(task, args_a: tuple, args_b: tuple, fork: bool) -> list:
    """``[task(*args_a), task(*args_b)]``, an exception where a leg raised.

    Both legs always run.  ``task`` returns a tuple of float64 arrays, or
    None, which a forked leg B gives back as no arrays.  With ``fork`` (on
    a platform that has ``os.fork``), leg B runs in a forked child while
    this process runs leg A; a child that ends without sending a whole
    outcome has its leg rerun here, so both paths give the same outcomes.
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
                columns = outcome or ()
                pickle.dump(tuple(column.size for column in columns), pipe)
                for column in columns:
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

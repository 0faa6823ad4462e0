"""Cumulative covariance over overlapping observation intervals.

The estimator is the double sum of increment products over every pair of
overlapping intervals::

    sum over (i, j) of (P[i] - P[i-1]) * (Q[j] - Q[j-1])
    whenever (t1[i-1], t1[i]] and (t2[j-1], t2[j]] intersect

It is affine in every individual observation value, and grouping the sum
by a fixed anchor interval telescopes the opposite-leg increments into a
single endpoint difference; :func:`telescope_rows` returns that grouping
and the term values as arrays.  Some observations drop out of the
telescoped form entirely; :mod:`hyf.nonextant` locates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal

import numpy as np

from .core import ObservationSeries, blocks, clip_ranges, enumerate_overlaps, range_blocks
from .errors import ValidationError

Anchoring = Literal["row", "alternative"]


@dataclass(frozen=True, eq=False)
class TermList:
    """The double sum's overlap pairs plus one telescoped grouping of them.

    ``pairs`` holds the 1-based overlap pairs ``(i, j)`` in staircase
    order, one raw summand each.  ``groups`` holds one row
    ``(axis, anchor, lo, hi)`` per telescoped run, in the order of the
    run's first pair: axis 0 is a row (leg-2 interval ``anchor`` against
    leg-1 intervals ``lo..hi``), axis 1 a column (leg-1 interval
    ``anchor`` against leg-2 intervals ``lo..hi``).  :attr:`raw_terms`
    and :attr:`grouped_terms` hold the term values, one per pair and one
    per group.  All four are built on first access; :attr:`raw_count`
    (the overlap count ``m``) and :attr:`grouped_count` are their lengths,
    known without building them.
    """

    s1: ObservationSeries
    s2: ObservationSeries
    anchoring: Anchoring
    raw_count: int
    grouped_count: int

    @cached_property
    def pairs(self) -> np.ndarray:
        return enumerate_overlaps(self.s1, self.s2).pairs

    @cached_property
    def groups(self) -> np.ndarray:
        return _Sweep.of(self.s1, self.s2, self.anchoring).groups()

    @cached_property
    def raw_terms(self) -> np.ndarray:
        i, j = self.pairs.T
        with np.errstate(over="ignore", invalid="ignore"):
            return self.s1.increments[i - 1] * self.s2.increments[j - 1]

    @cached_property
    def grouped_terms(self) -> np.ndarray:
        # anchor increment times the swept leg's endpoint difference; axis 0
        # anchors on leg 2 and sweeps leg 1, axis 1 the other way round
        axis, anchor, lo, hi = self.groups.T
        out = np.empty(len(self.groups))
        with np.errstate(over="ignore", invalid="ignore"):
            for a, (anchored, swept) in enumerate(((self.s2, self.s1), (self.s1, self.s2))):
                on = axis == a
                v = swept.values
                out[on] = anchored.increments[anchor[on] - 1] * (v[hi[on]] - v[lo[on] - 1])
        return out

    def raw_total(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.raw_terms.sum())

    def grouped_total(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.grouped_terms.sum())


def _sum_blocks(
    series: ObservationSeries, opposite: ObservationSeries
) -> Iterator[tuple[slice, np.ndarray]]:
    """Telescoped opposite-leg increment sum over each own interval, a block
    of intervals at a time: ``(block, sums)``.

    The opposite increments over a met range ``lo..hi`` sum to
    ``values[hi] - values[lo - 1]``, which is 0 for an empty range.
    """
    v, m_opp = opposite.values, opposite.n_intervals
    for b, first, last in range_blocks(opposite.times, series.times):
        lo, count = clip_ranges(first, last, m_opp)
        # the range's last interval, then the point before its first
        count += lo
        count -= 1
        lo -= 1
        sums = v[count]
        sums -= v[lo]
        yield b, sums


def _opposite_sums(series: ObservationSeries, opposite: ObservationSeries) -> np.ndarray:
    """All of :func:`_sum_blocks`'s sums, in one array."""
    sums = np.empty(series.n_intervals)
    for b, part in _sum_blocks(series, opposite):
        sums[b] = part
    return sums


def hy_covariance(s1: ObservationSeries, s2: ObservationSeries) -> float:
    """Evaluate the double sum, telescoped per leg-1 interval.

    Each leg-1 increment multiplies the summed leg-2 increments over the
    intervals it overlaps, so no pair is materialised.  Raises
    :class:`ValidationError` when finite prices overflow that sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = float(np.dot(s1.increments, _opposite_sums(s1, s2)))
    if not np.isfinite(covariance):
        raise ValidationError(f"covariance is {covariance!r}: the price products overflow")
    return covariance


def _row_blocks(
    s1: ObservationSeries, s2: ObservationSeries
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The overlap pairs row by row, a block of leg-1 intervals at a time.

    Each block with pairs gives ``(i, lo, count)``: its row ``r`` holds the
    ``count[r] >= 1`` pairs ``(i + r, lo[r])`` to ``(i + r, lo[r] + count[r] - 1)``,
    and the rows of all blocks follow each other in staircase order.  Leg
    2's intervals tile ``(t2[0], t2[-1]]``, so the leg-1 intervals that meet
    leg 2 are the consecutive ones that meet that span.
    """
    m2 = s2.n_intervals
    for b, first, last in range_blocks(s2.times, s1.times):
        lo, count = clip_ranges(first, last, m2)
        met = count > 0
        if met.any():
            a, z = int(np.argmax(met)), met.size - int(np.argmax(met[::-1]))
            yield b.start + a + 1, lo[a:z], count[a:z]


def _staircase(s1: ObservationSeries, s2: ObservationSeries) -> tuple[int, np.ndarray, np.ndarray]:
    """All of :func:`_row_blocks`'s rows at once: ``(i0, lo, count)``."""
    rows = list(_row_blocks(s1, s2))
    if not rows:
        return 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return rows[0][0], np.concatenate([r[1] for r in rows]), np.concatenate([r[2] for r in rows])


class _StepRuns:
    """Maximal runs of the staircase's step types, from its rows fed in order.

    Step ``k`` leads from pair ``k`` to pair ``k + 1``.  Row ``r``'s pairs
    are joined by ``count[r] - 1`` column steps ``(i, j + 1)`` (type 1),
    and then comes the step out of its last pair: type 0 is a row step
    ``(i + 1, j)``, into a next row that starts at the same leg-2 interval;
    any other step is type 2 (a shared timestamp moves the next row on by
    one interval, and one extra step closes the last row).  A row's column
    steps are one run, between two turns; consecutive turns of one type
    form one run when the rows between them have no column step.

    :meth:`feed` takes the rows a block at a time and :meth:`close` ends
    them; each returns the ``(type, length)`` of the runs it completed.  A
    row's turn depends on the next row, so the last row fed is held back,
    and so is the run of turns still open at the end of a block.  Under
    ``"alternative"`` anchoring the first row with a column step is taken
    out as ``column``, the ``(axis, anchor, lo, hi)`` group factored out
    first, whose first pair is pair ``cut``; the rows on either side of it
    join with a step of type 2.
    """

    def __init__(self, anchoring: Anchoring) -> None:
        self.column: tuple | None = None
        self.cut = 0
        self._seek = anchoring == "alternative"
        # (lo, last, count) of the held row; a row whose turn must be type 2
        # is held with last = 0, where no row starts
        self._held = (np.empty(0, dtype=np.int64),) * 3
        self._open = (-1, 0)

    def feed(self, i: int, lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Take rows ``i, i + 1, ...`` with ``lo`` and ``count`` (see :func:`_row_blocks`)."""
        last = lo + count
        last -= 1
        if self._seek:
            wide = np.flatnonzero(count > 1)
            if wide.size:
                r = int(wide[0])
                self.column = (1, i + r, int(lo[r]), int(last[r]))
                self.cut += int(count[:r].sum())
                self._seek = False
                lo, last, count = (np.delete(x, r) for x in (lo, last, count))
                if r:
                    last[r - 1] = 0
                else:
                    self._held[1][:] = 0
            else:
                self.cut += int(count.sum())
        lo, last, count = (np.concatenate(pair) for pair in zip(self._held, (lo, last, count)))
        self._held = lo[-1:], last[-1:], count[-1:]
        turn = np.full(max(lo.size - 1, 0), 2, dtype=np.int8)
        turn[lo[1:] == last[:-1]] = 0
        return self._runs(turn, count[:-1])

    def close(self) -> tuple[np.ndarray, np.ndarray]:
        """End the rows: the held row's turn closes the staircase."""
        count = self._held[2]
        kind, length = self._runs(np.full(count.size, 2, dtype=np.int8), count)
        open_kind, open_length = self._open
        if open_kind < 0:
            return kind, length
        return np.append(kind, np.int8(open_kind)), np.append(length, open_length)

    def _runs(self, turn: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The runs these rows (with their turns) complete; the last run of
        turns stays open, and rows that open no run extend the one open before."""
        # row r opens a run of its column steps when it has any, then a run of
        # turns when its turn does not continue the previous row's run
        open_kind, open_length = self._open
        wide = count > 1
        opens = np.empty(turn.size, dtype=bool)
        np.not_equal(turn[:1], open_kind, out=opens[:1])
        np.not_equal(turn[1:], turn[:-1], out=opens[1:])
        opens |= wide
        rows = np.flatnonzero(opens)
        if not rows.size:
            self._open = open_kind, open_length + turn.size
            return np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64)
        slots = np.full((turn.size, 2), -1, dtype=np.int8)
        slots[wide, 0] = 1
        slots[opens, 1] = turn[opens]
        # the run open before, then every run these rows open
        kind = np.concatenate([[open_kind], slots[slots >= 0]]).astype(np.int8)
        length = np.empty(kind.size, dtype=np.int64)
        length[0] = open_length + rows[0]
        steps = count[wide]
        steps -= 1
        length[1:][kind[1:] == 1] = steps
        # a run of turns lasts until the next row that opens one
        length[1:][kind[1:] != 1] = np.diff(rows, append=turn.size)
        self._open = int(kind[-1]), int(length[-1])
        done = slice(0 if open_kind >= 0 else 1, -1)
        return kind[done], length[done]


def _swallowed(kind: np.ndarray, length: np.ndarray, first: int = 0) -> np.ndarray:
    """Whether the longest-run greedy sweep swallows each run's first step.

    At each pair the sweep takes the longer of the row run and the column
    run that start there (the row on ties, so a lone pair is a row) and
    continues after it.  A row or column run of ``r`` steps so becomes one
    group of ``r + 1`` pairs, and the step after it is swallowed as the
    group's boundary.  A run whose first step was swallowed keeps its other
    steps; when that was its only step, the next run starts whole, so
    swallowing alternates along a chain of one-step runs.  Every other
    step left open closes a single-pair group.  ``first`` is whether the
    first run's first step is swallowed.  Returns int8 0/1 per run.
    """
    telescoping = kind < 2
    # swallowed[r] is fixed unless run r - 1 is a one-step row or column
    # run; otherwise it flips once per such run since the last fixed one,
    # that is by the parity of r minus the parity of that run
    fixed = np.arange(kind.size)
    fixed[1:][telescoping[:-1] & (length[:-1] == 1)] = 0
    np.maximum.accumulate(fixed, out=fixed)
    swallowed = np.empty(kind.size, dtype=np.int8)
    swallowed[:1] = first
    swallowed[1:] = telescoping[:-1]
    swallowed = swallowed[fixed]
    fixed &= 1
    swallowed ^= fixed
    del fixed
    swallowed[1::2] ^= 1
    return swallowed


def _group_count(kind: np.ndarray, length: np.ndarray, first: int) -> tuple[int, int]:
    """Number of groups that runs ``kind, length`` close, without building them,
    and whether the step after them is swallowed (``first`` as for :func:`_swallowed`)."""
    swallowed = _swallowed(kind, length, first).view(bool)
    telescoping = kind < 2
    # one group per row or column run unless its only step was swallowed
    groups = np.count_nonzero(telescoping) - np.count_nonzero(
        telescoping & swallowed & (length == 1))
    # one single-pair group per open step of any other run
    other = ~telescoping
    groups += length[other].sum() - np.count_nonzero(swallowed[other])
    if kind.size:
        # after a one-step row or column run swallowing flips, after any
        # other run it is whether that run telescopes
        first = (not swallowed[-1]) if telescoping[-1] and length[-1] == 1 else telescoping[-1]
    return int(groups), int(first)


@dataclass(frozen=True, eq=False)
class _Sweep:
    """The staircase the greedy sweep takes, as rows and step runs.

    ``i0``, ``lo`` and ``count`` are :func:`_staircase`'s rows; ``kind``
    and ``length`` the step runs of the rows the sweep takes, which under
    ``"alternative"`` anchoring leave out the row of ``column``, the
    ``(axis, anchor, lo, hi)`` group factored out first, whose first pair
    is pair ``cut``.
    """

    i0: int
    lo: np.ndarray
    count: np.ndarray
    kind: np.ndarray
    length: np.ndarray
    column: tuple | None = None
    cut: int = 0

    @classmethod
    def of(cls, s1: ObservationSeries, s2: ObservationSeries, anchoring: Anchoring) -> "_Sweep":
        i0, lo, count = _staircase(s1, s2)
        runs = _StepRuns(anchoring)
        kind, length = (np.concatenate(x) for x in zip(runs.feed(i0, lo, count), runs.close()))
        return cls(i0, lo, count, kind, length, runs.column, runs.cut)

    def groups(self) -> np.ndarray:
        """The ``(axis, anchor, lo, hi)`` rows, in sweep order of their first pair."""
        kind, length = self.kind, self.length.copy()
        swallowed = _swallowed(kind, length)
        # each run's first open pair and number of open steps
        first = np.cumsum(length)
        first -= length
        first += swallowed
        length -= swallowed
        del swallowed
        # a row or column run with an open step is one group, from its
        # first open pair to its last pair; any other run is a one-pair
        # group per open step
        telescoping = kind < 2
        axis = np.where(telescoping, kind, 0)
        span = np.where(telescoping, length, 0)
        per_run = np.minimum(length, 1, out=length, where=telescoping)
        del telescoping
        # group g of run r starts at pair first[r] + g - (groups before run r)
        first += per_run
        first -= np.cumsum(per_run)
        start = np.repeat(first, per_run)
        del first
        start += np.arange(start.size)
        end = np.repeat(span, per_run)
        del span
        end += start
        axis = np.repeat(axis, per_run)
        del per_run
        groups = np.empty((start.size, 4), dtype=np.int64)
        groups[:, 0] = axis
        # axis 0 anchors on leg-2 interval j and sweeps i, axis 1 the
        # other way round
        row = axis == 0
        del axis
        column = ~row

        def put(k: int, on_row: np.ndarray, on_column: np.ndarray) -> None:
            # no temporary of the whole column, as np.where would make
            np.copyto(groups[:, k], on_row, where=row)
            np.copyto(groups[:, k], on_column, where=column)

        i, j = self._pair(start)
        put(1, j, i)
        put(2, i, j)
        del i, j
        i, j = self._pair(end)
        put(3, i, j)
        if self.column is not None:
            groups = np.insert(groups, np.searchsorted(start, self.cut), self.column, axis=0)
        return groups

    def _pair(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(i, j)`` of the sweep's pairs ``k``."""
        if self.column is not None:
            # the sweep's pairs from the cut on come after the column's
            _, _, lo, hi = self.column
            k = k + (k >= self.cut) * (hi - lo + 1)
        ends = np.cumsum(self.count)
        row = np.searchsorted(ends, k, side="right")
        # pair k is the (k - first pair of its row)-th of its row
        j = k - ends[row]
        j += self.count[row]
        j += self.lo[row]
        row += self.i0
        return row, j


def telescope_rows(
    s1: ObservationSeries,
    s2: ObservationSeries,
    anchoring: Anchoring = "row",
) -> TermList:
    """Group the double sum into telescoped anchor terms.

    ``"row"`` applies the longest-run greedy sweep (rows preferred on
    ties).  ``"alternative"`` first factors out the full column at the
    first upward corner of the staircase and then sweeps the remainder;
    it generally produces one more group than ``"row"`` and the same
    total value.  Neither grouping is claimed to be minimal.  The terms
    come back with their counts; pairs and groups are built when read.
    """
    if anchoring not in ("row", "alternative"):
        raise ValueError(f"unknown anchoring {anchoring!r}")
    # the rows a block at a time, each block's runs counted as they close
    runs = _StepRuns(anchoring)
    raw = groups = swallowed = 0
    for i, lo, count in _row_blocks(s1, s2):
        raw += int(count.sum())
        closed, swallowed = _group_count(*runs.feed(i, lo, count), swallowed)
        groups += closed
    groups += _group_count(*runs.close(), swallowed)[0] + (runs.column is not None)
    return TermList(s1, s2, anchoring, raw, groups)


def point_coefficients(series: ObservationSeries, opposite: ObservationSeries) -> np.ndarray:
    """Linear coefficient of every value of ``series`` in the double sum.

    The estimator is affine in each observation value; entry ``k`` is the
    exact derivative of :func:`hy_covariance` with respect to
    ``series.values[k]``.  Raises :class:`ValidationError` when finite
    prices overflow a coefficient.
    """
    coeff = np.empty(series.n_points)
    # the sum over the interval before point k less the one after it; no
    # interval lies before the first point or after the last
    before = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        for b, sums in _sum_blocks(series, opposite):
            np.subtract(np.concatenate([before, sums[:-1]]), sums, out=coeff[b])
            before = sums[-1:]
        np.subtract(before, 0.0, out=coeff[-1:])
    if not all(np.isfinite(coeff[b]).all() for b in blocks(coeff.size)):
        raise ValidationError(f"leg {series.label}: a point coefficient overflows")
    return coeff

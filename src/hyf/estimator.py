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
from typing import Literal

import numpy as np

from .core import ObservationSeries, clip_ranges, enumerate_overlaps, overlap_ranges
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


def _opposite_sums(series: ObservationSeries, opposite: ObservationSeries) -> np.ndarray:
    """Telescoped opposite-leg increment sum over each own interval.

    The opposite increments over a met range ``lo..hi`` sum to
    ``values[hi] - values[lo - 1]``, which is 0 for an empty range.
    """
    t = series.times
    lo, count = clip_ranges(
        *overlap_ranges(opposite.times, t[:-1], t[1:]), opposite.n_intervals
    )
    v = opposite.values
    # the range's last interval, then the point before its first
    count += lo
    count -= 1
    lo -= 1
    sums = v[count]
    sums -= v[lo]
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


def _staircase(s1: ObservationSeries, s2: ObservationSeries) -> tuple[int, np.ndarray, np.ndarray]:
    """The overlap pairs row by row, without building them: ``(i0, lo, count)``.

    Row ``r`` holds the ``count[r] >= 1`` pairs ``(i0 + r, lo[r])`` to
    ``(i0 + r, lo[r] + count[r] - 1)``, and the rows follow each other in
    staircase order.  Leg 2's intervals tile ``(t2[0], t2[-1]]``, so the
    leg-1 intervals that meet leg 2 are the consecutive ones that meet
    that span.
    """
    t1 = s1.times
    lo, count = clip_ranges(*overlap_ranges(s2.times, t1[:-1], t1[1:]), s2.n_intervals)
    met = count > 0
    if not met.any():
        return 1, lo[:0], count[:0]
    a, b = int(np.argmax(met)), met.size - int(np.argmax(met[::-1]))
    return a + 1, lo[a:b], count[a:b]


def _turns(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Type of the step out of each row's last pair (int8).

    Type 0 is a row step ``(i + 1, j)``, into a next row that starts at the
    same leg-2 interval; any other step is type 2: a shared timestamp moves
    the next row on by one interval, and one extra step closes the last row.
    """
    turn = np.full(lo.size, 2, dtype=np.int8)
    last = lo[:-1] + count[:-1]
    last -= 1
    turn[:-1][lo[1:] == last] = 0
    return turn


def _step_runs(turn: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of the staircase's step types: (type, length) per run.

    Step ``k`` leads from pair ``k`` to pair ``k + 1``.  Row ``r``'s pairs
    are joined by ``count[r] - 1`` column steps ``(i, j + 1)`` (type 1),
    and then comes the step ``turn[r]`` out of its last pair.  A row's
    column steps are one run, between two turns; consecutive turns of one
    type form one run when the rows between them have no column step.
    """
    # row r opens a run of its column steps when it has any, then a run of
    # turns when its turn does not continue the previous row's run
    wide = count > 1
    opens = np.empty(turn.size, dtype=bool)
    opens[:1] = True
    np.not_equal(turn[1:], turn[:-1], out=opens[1:])
    opens |= wide
    slots = np.full((turn.size, 2), -1, dtype=np.int8)
    slots[wide, 0] = 1
    slots[opens, 1] = turn[opens]
    kind = slots[slots >= 0]
    del slots
    length = np.empty(kind.size, dtype=np.int64)
    steps = count[wide]
    steps -= 1
    length[kind == 1] = steps
    del steps
    # a run of turns lasts until the next row that opens one
    rows = np.flatnonzero(opens)
    length[kind != 1] = np.diff(rows, append=turn.size)
    return kind, length


def _swallowed(kind: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Whether the longest-run greedy sweep swallows each run's first step.

    At each pair the sweep takes the longer of the row run and the column
    run that start there (the row on ties, so a lone pair is a row) and
    continues after it.  A row or column run of ``r`` steps so becomes one
    group of ``r + 1`` pairs, and the step after it is swallowed as the
    group's boundary.  A run whose first step was swallowed keeps its other
    steps; when that was its only step, the next run starts whole, so
    swallowing alternates along a chain of one-step runs.  Every other
    step left open closes a single-pair group.  Returns int8 0/1 per run.
    """
    telescoping = kind < 2
    # swallowed[r] is fixed unless run r - 1 is a one-step row or column
    # run; otherwise it flips once per such run since the last fixed one,
    # that is by the parity of r minus the parity of that run
    fixed = np.arange(kind.size)
    fixed[1:][telescoping[:-1] & (length[:-1] == 1)] = 0
    np.maximum.accumulate(fixed, out=fixed)
    swallowed = np.zeros(kind.size, dtype=np.int8)
    swallowed[1:] = telescoping[:-1]
    swallowed = swallowed[fixed]
    fixed &= 1
    swallowed ^= fixed
    del fixed
    swallowed[1::2] ^= 1
    return swallowed


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
        turn = _turns(lo, count)
        wide = count > 1
        if anchoring != "alternative" or not wide.any():
            return cls(i0, lo, count, *_step_runs(turn, count))
        # the full column of the first row with a column step (the first
        # upward corner); the rows on either side of it join with a step
        # of type 2, as i moves on by two
        r = int(np.argmax(wide))
        turn = np.delete(turn, r)
        turn[r - 1:r] = 2
        column = (1, i0 + r, int(lo[r]), int(lo[r] + count[r] - 1))
        runs = _step_runs(turn, np.delete(count, r))
        return cls(i0, lo, count, *runs, column, int(count[:r].sum()))

    def group_count(self) -> int:
        """Number of groups, without building them."""
        kind, length = self.kind, self.length
        swallowed = _swallowed(kind, length).view(bool)
        telescoping = kind < 2
        # one group per row or column run unless its only step was swallowed
        groups = np.count_nonzero(telescoping) - np.count_nonzero(
            telescoping & swallowed & (length == 1))
        # one single-pair group per open step of any other run
        other = ~telescoping
        groups += length[other].sum() - np.count_nonzero(swallowed[other])
        return int(groups) + (self.column is not None)

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
    sweep = _Sweep.of(s1, s2, anchoring)
    return TermList(s1, s2, anchoring, int(sweep.count.sum()), sweep.group_count())


def point_coefficients(series: ObservationSeries, opposite: ObservationSeries) -> np.ndarray:
    """Linear coefficient of every value of ``series`` in the double sum.

    The estimator is affine in each observation value; entry ``k`` is the
    exact derivative of :func:`hy_covariance` with respect to
    ``series.values[k]``.  Raises :class:`ValidationError` when finite
    prices overflow a coefficient.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        padded = np.concatenate([[0.0], _opposite_sums(series, opposite), [0.0]])
        coeff = padded[:-1] - padded[1:]
    if not np.isfinite(coeff).all():
        raise ValidationError(f"leg {series.label}: a point coefficient overflows")
    return coeff


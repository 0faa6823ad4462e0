"""Cumulative covariance over overlapping observation intervals.

The estimator is the double sum of increment products over every pair of
overlapping intervals::

    sum over (i, j) of (P[i] - P[i-1]) * (Q[j] - Q[j-1])
    whenever (t1[i-1], t1[i]] and (t2[j-1], t2[j]] intersect

It is affine in every individual observation value, and grouping the sum
by a fixed anchor interval telescopes the opposite-leg increments into a
single endpoint difference; :func:`telescope_rows` returns that grouping
and the term values as arrays.  Each leg-1 interval meets a range of
leg-2 intervals (:func:`hyf.core.overlap_ranges`), so the pairs form a
staircase: a column of pairs per leg-1 interval, each joined to the next
by a row step or a step of both.  ``m`` is the sum of the ranges'
lengths, and the grouping telescopes along the runs of row and column
steps.  Some observations drop out of the telescoped form entirely;
:mod:`hyf.nonextant` locates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Literal

import numpy as np

from .core import (ObservationSeries, _met_ranges, _next, blocks, clip_ranges, enumerate_overlaps,
                   overlap_ranges, range_blocks)
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
        return _groups(self.s1, self.s2, self.anchoring)

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


def _exact_sum(values) -> float:
    """The correctly rounded sum of finite floats ``values``, however far its
    partial sums stray past the float range.

    Every finite double is an integer multiple of ``2**-1074``, so the
    values are added exactly as those integers and divided once.  The
    division raises :class:`OverflowError` when the sum is beyond the float
    range; an infinite value raises it too, and a nan ``ValueError``.
    """
    unit = 1 << 1074
    total = 0
    for x in values:
        numerator, denominator = x.as_integer_ratio()
        total += numerator * (unit // denominator)
    return total / unit


def hy_covariance(s1: ObservationSeries, s2: ObservationSeries) -> float:
    """Evaluate the double sum, telescoped per leg-1 interval.

    Each leg-1 increment multiplies the summed leg-2 increments over the
    intervals it overlaps, so no pair is materialised.  The result is the
    correctly rounded sum of these products (``math.fsum``), the same on
    every machine, BLAS thread count and block size.  Raises
    :class:`ValidationError` when a product or the sum is beyond the float
    range.
    """
    v = s1.values

    def products():
        return chain.from_iterable(
            (sums * (v[_next(b)] - v[b])).tolist() for b, sums in _sum_blocks(s1, s2))

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            covariance = math.fsum(products())
        except ValueError:  # inf - inf
            covariance = math.nan
        except OverflowError:  # a partial sum of finite products: sum them exactly
            try:
                covariance = _exact_sum(products())
            except (OverflowError, ValueError):
                raise ValidationError(
                    "covariance is beyond the float range: the price products overflow") from None
    if not math.isfinite(covariance):
        raise ValidationError(f"covariance is {covariance!r}: the price products overflow")
    return covariance


def _merged(kind: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs ``kind, length`` with the empty ones dropped and neighbours of one kind joined."""
    keep = length > 0
    kind, length = kind[keep], length[keep]
    starts = np.flatnonzero(np.diff(kind, prepend=np.int8(-1)))
    return kind[starts], np.add.reduceat(length, starts)


def _step_runs(
    s1: ObservationSeries, s2: ObservationSeries, anchoring: Anchoring = "row"
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The staircase's step runs as the greedy sweep takes them, a block of
    leg-1 intervals at a time: ``(kind, length, taken)``.

    Step ``k`` leads from overlap pair ``k`` to pair ``k + 1``.  A leg-1
    interval that meets ``count`` leg-2 intervals from ``lo`` on gives
    ``count - 1`` column steps ``(i, j + 1)`` (kind 1) and one turn to
    the next interval: a row step ``(i + 1, j)`` (kind 0) where that
    interval's ``lo`` is this one's last met interval, else a step of
    both (kind 2).  The last met interval's turn is a closing kind-2 step
    that ends the last pair, so ``m`` is the number of steps.  The runs
    are the run-length code of the kinds in staircase order.  One
    interval of lookahead per block decides each turn, and the last two
    runs are held back until later intervals end them.

    Under ``"alternative"`` anchoring the first kind-1 run goes with its
    row, with the step into the row and the step out of it; unless the
    row came first, one kind-2 step joins the pairs on either side.  The
    block where this happens gives the number of pairs that went as
    ``taken``.
    """
    t1, t2, m2 = s1.times, s2.times, s2.n_intervals
    held, seek = ((0, 0), (0, 0)), anchoring == "alternative"
    for b in blocks(t1.size - 1):
        # the block's intervals and the one after it, if any
        t = t1[b.start:b.stop + 2]
        lo, count = clip_ranges(*overlap_ranges(t2, t[:-1], t[1:]), m2)
        n = b.stop - b.start
        # the held runs, then per interval its column steps and its turn;
        # an interval that meets nothing gives -1 and 0 steps, both dropped
        kind = np.full(2 * n + 2, 2, dtype=np.int8)
        length = np.empty(2 * n + 2, dtype=np.int64)
        kind[:2], length[:2] = held
        kind[2::2] = 1
        np.subtract(count[:n], 1, out=length[2::2])
        np.minimum(count[:n], 1, out=length[3::2])
        # each interval's last met interval; the turn is a row step where
        # the next interval's lo is that one
        count += lo
        count -= 1
        kind[3::2][:lo.size - 1][lo[1:] == count[:-1]] = 0
        del t, lo, count
        kind, length = _merged(kind, length)
        taken = 0
        if seek and (kind == 1).any():
            r = int(np.argmax(kind == 1))
            seek, taken = False, int(length[r]) + 1
            length[r + 1] -= 1
            length[r - 1] -= r > 0
            kind[r], length[r] = 2, r > 0
            kind, length = _merged(kind, length)
        n = kind.size if b.stop == t1.size - 1 else max(kind.size - 2, 0)
        yield kind[:n], length[:n], taken
        held = tuple(np.pad(x[n:], (2 - x.size + n, 0)) for x in (kind, length))


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


def _groups(s1: ObservationSeries, s2: ObservationSeries, anchoring: Anchoring) -> np.ndarray:
    """:attr:`TermList.groups`, from all the runs at once.

    Pair ``k`` lies in the first met leg-1 interval whose pairs reach past
    ``k`` (:func:`~hyf.core._met_ranges`).  Under ``"alternative"``
    anchoring the sweep's pairs from the left-out column's first pair on
    come after the column's, and the column comes before the first group
    that starts there.
    """
    kind, length, taken = zip(*_step_runs(s1, s2, anchoring))
    kind, length, taken = np.concatenate(kind), np.concatenate(length), sum(taken)
    swallowed = _swallowed(kind, length)
    # a row or column run with an open step is one group, from its first
    # open pair to its last pair; any other run is a one-pair group per
    # open step
    telescoping = kind < 2
    length -= swallowed
    per_run = np.where(telescoping, np.minimum(length, 1), length)
    # group g of run r starts at r's first open pair + g - (groups before r)
    start = np.repeat(np.cumsum(length + swallowed) - length + per_run - np.cumsum(per_run), per_run)
    start += np.arange(start.size)
    end = start + np.repeat(np.where(telescoping, length, 0), per_run)
    axis = np.repeat(np.where(telescoping, kind, 0), per_run)
    del kind, length, swallowed, telescoping, per_run
    met, lo, count = _met_ranges(s1, s2)
    ends = np.cumsum(count)
    if taken:
        # the left-out column is the first of two pairs or more
        r = int(np.argmax(count > 1))
        cut = int(ends[r] - count[r])
        for k in (start, end):
            np.add(k, taken, out=k, where=k >= cut)
        at = np.searchsorted(start, cut)
        start, end, axis = (np.insert(x, at, v)
                            for x, v in ((start, cut), (end, cut + taken - 1), (axis, 1)))
    # pair k of met interval r is (met[r] + 1, k + lo[r] - the pairs before r)
    lo -= ends
    lo += count
    del count

    def pair(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.searchsorted(ends, k, side="right")
        return met[r] + 1, lo[r] + k

    (i, j), (i_end, j_end) = pair(start), pair(end)
    del start, end
    # axis 0 anchors on leg-2 interval j and sweeps i, axis 1 the other way
    row = axis == 0
    return np.stack([axis, np.where(row, j, i), np.where(row, i, j), np.where(row, i_end, j_end)], 1)


def telescope_rows(
    s1: ObservationSeries,
    s2: ObservationSeries,
    anchoring: Anchoring = "row",
) -> TermList:
    """Group the double sum into telescoped anchor terms.

    ``m`` is the number of the staircase's steps (:func:`_step_runs`),
    and a row (column) group telescopes along a run of row (column)
    steps.  ``"row"`` applies the longest-run greedy sweep (rows
    preferred on ties).  ``"alternative"`` first factors out the full
    column at the first upward corner of the staircase and then sweeps
    the remainder; it generally produces one more group than ``"row"``
    and the same total value.  Neither grouping is claimed to be
    minimal.  The terms come back with their counts, from the runs a
    block at a time; pairs and groups are built when read.
    """
    if anchoring not in ("row", "alternative"):
        raise ValueError(f"unknown anchoring {anchoring!r}")
    raw = groups = swallowed = 0
    for kind, length, taken in _step_runs(s1, s2, anchoring):
        raw += int(length.sum()) + taken
        closed, swallowed = _group_count(kind, length, swallowed)
        groups += closed + (taken > 0)
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

"""Cumulative covariance over overlapping observation intervals.

The estimator is the double sum of increment products over every pair of
overlapping intervals::

    sum over (i, j) of (P[i] - P[i-1]) * (Q[j] - Q[j-1])
    whenever (t1[i-1], t1[i]] and (t2[j-1], t2[j]] intersect

It is affine in every individual observation value, and grouping the sum
by a fixed anchor interval telescopes the opposite-leg increments into a
single endpoint difference; :func:`telescope_rows` returns that grouping
and the term values as arrays.  The pairs step from one to the next
across the merged events, the distinct times strictly inside the legs'
common span, so ``m`` is the number of events plus one, and the grouping
telescopes along the runs of one leg's events.  Some observations drop
out of the telescoped form entirely; :mod:`hyf.nonextant` locates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Literal

import numpy as np

from .core import ObservationSeries, _next, blocks, clip_ranges, enumerate_overlaps, range_blocks
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


def _event_runs(
    s1: ObservationSeries, s2: ObservationSeries, anchoring: Anchoring = "row"
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """The staircase's step runs as the greedy sweep takes them, a block of
    leg-2 points at a time: ``(kind, length, taken)``.

    Step ``k`` leads from overlap pair ``k`` to pair ``k + 1`` across one
    event, a distinct merged time strictly inside the common span
    ``(max(t1[0], t2[0]), min(t1[-1], t2[-1]))``: a leg-1 time alone is a
    row step ``(i + 1, j)`` (kind 0), a leg-2 time alone a column step
    ``(i, j + 1)`` (kind 1), and a time of both legs moves both (kind 2).
    One closing kind-2 step ends the last pair, so ``m`` is the number of
    events plus one.  The runs are the run-length code of the kinds in
    time order; the leg-1 points between two leg-2 points are one kind-0
    run.  The last two runs are held back until later events end them.

    Under ``"alternative"`` anchoring the first kind-1 run goes with its
    row, with the step into the row and the step out of it; unless the
    row came first, one kind-2 step joins the pairs on either side.  The
    block where this happens gives the number of pairs that went as
    ``taken``, and a kind-2 run may then come in two parts, which count
    as one.
    """
    t1, t2 = s1.times, s2.times
    start, stop = max(t1[0], t2[0]), min(t1[-1], t2[-1])
    if not start < stop:
        yield np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64), 0
        return
    inside = t2[np.searchsorted(t2, start, side="right"):np.searchsorted(t2, stop, side="left")]
    # the held runs, and the leg-1 points up to the last event so far
    held, passed = ((0, 0), (0, 0)), int(np.searchsorted(t1, start, side="right"))
    seek = anchoring == "alternative"
    # the leg-2 events, then the closing one at the span's end
    for b in blocks(inside.size + 1):
        closing = b.stop > inside.size
        t = np.append(inside[b], stop) if closing else inside[b]
        pos = np.searchsorted(t1, t)
        tie = t1[pos] == t
        tie[-1] |= closing
        # the held runs, then per event a kind-0 run of the leg-1 points
        # since the event before, and the event
        kind = np.zeros(2 * t.size + 2, dtype=np.int8)
        length = np.ones(2 * t.size + 2, dtype=np.int64)
        kind[:2], length[:2] = held
        kind[3::2] = tie + 1
        length[2::2] = pos - np.append(passed, pos[:-1] + tie[:-1])
        passed = int(pos[-1] + tie[-1])
        del t, pos, tie
        kind, length = _merged(kind, length)
        r, taken = int(np.argmax(kind == 1)), 0
        if seek and kind[r] == 1 and r + 1 < kind.size:
            seek, taken = False, int(length[r]) + 1
            length[r + 1] -= 1
            length[r - 1] -= r > 0
            kind[r], length[r] = 2, r > 0
            kind, length = _merged(kind, length)
        n = kind.size if closing else max(kind.size - 2, 0)
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

    Pair ``k`` is the first pair moved on by the ``k`` steps before it.
    Under ``"alternative"`` anchoring the sweep's pairs from the left-out
    column's first pair on come after the column's, and the column comes
    before the first group that starts there.
    """
    def runs(anchoring: Anchoring) -> tuple[np.ndarray, np.ndarray, int]:
        kind, length, taken = zip(*_event_runs(s1, s2, anchoring))
        return np.concatenate(kind), np.concatenate(length), sum(taken)

    steps, step_length, _ = runs("row")
    kind, length, taken = (steps, step_length, 0) if anchoring == "row" else runs(anchoring)
    first_time = max(s1.times[0], s2.times[0])
    first_pair = [int(np.searchsorted(s.times, first_time, side="right")) for s in (s1, s2)]
    ends = np.cumsum(step_length)

    def pair(k: np.ndarray) -> list[np.ndarray]:
        r = np.searchsorted(ends, k, side="right")
        # the steps of run r still ahead of pair k
        ahead = ends[r] - k
        # i moves on the steps of kinds 0 and 2, j on those of kinds 1 and 2
        return [first + np.cumsum(step_length * moves)[r] - ahead * moves[r]
                for first, moves in zip(first_pair, (steps != 1, steps != 0))]

    # the pairs before the first kind-1 run, and those the sweep leaves out
    ones = np.flatnonzero(steps == 1)
    cut = int(step_length[:ones[0]].sum()) if ones.size else 0
    swallowed = _swallowed(kind, length)
    # a row or column run with an open step is one group, from its first
    # open pair to its last pair; any other run is a one-pair group per
    # open step
    telescoping = kind < 2
    # not in place: under "row" anchoring length is step_length
    length = length - swallowed
    per_run = np.where(telescoping, np.minimum(length, 1), length)
    # group g of run r starts at r's first open pair + g - (groups before r)
    start = np.repeat(np.cumsum(length + swallowed) - length + per_run - np.cumsum(per_run), per_run)
    start += np.arange(start.size)
    end = start + np.repeat(np.where(telescoping, length, 0), per_run)
    axis = np.repeat(np.where(telescoping, kind, 0), per_run)
    del swallowed, telescoping, per_run, length
    (i, j), (i_end, j_end) = (pair(k + (k >= cut) * taken) for k in (start, end))
    # axis 0 anchors on leg-2 interval j and sweeps i, axis 1 the other way
    row = axis == 0
    groups = np.stack([axis, np.where(row, j, i), np.where(row, i, j), np.where(row, i_end, j_end)], 1)
    if taken:
        i, j = (int(x[0]) for x in pair(np.array([cut])))
        groups = np.insert(groups, np.searchsorted(start, cut), (1, i, j, j + taken - 1), axis=0)
    return groups


def telescope_rows(
    s1: ObservationSeries,
    s2: ObservationSeries,
    anchoring: Anchoring = "row",
) -> TermList:
    """Group the double sum into telescoped anchor terms.

    ``m`` is the number of distinct merged times strictly inside the
    legs' common span plus one (:func:`_event_runs`), and a row (column)
    group telescopes along a run of leg-1 (leg-2) events.  ``"row"``
    applies the longest-run greedy sweep (rows preferred on ties).
    ``"alternative"`` first factors out the full column at the first
    upward corner of the staircase and then sweeps the remainder; it
    generally produces one more group than ``"row"`` and the same total
    value.  Neither grouping is claimed to be minimal.  The terms come
    back with their counts, from the runs a block at a time; pairs and
    groups are built when read.
    """
    if anchoring not in ("row", "alternative"):
        raise ValueError(f"unknown anchoring {anchoring!r}")
    raw = groups = swallowed = 0
    for kind, length, taken in _event_runs(s1, s2, anchoring):
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

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
    per group, computed on first access.
    """

    s1: ObservationSeries
    s2: ObservationSeries
    pairs: np.ndarray
    groups: np.ndarray

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


def _step_runs(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of the staircase's step types: (type, first step, length).

    Step ``k`` leads from pair ``k`` to pair ``k + 1``.  Type 0 is a row
    step ``(i + 1, j)``, type 1 a column step ``(i, j + 1)`` and type 2
    any other step; one extra type-2 step closes the last pair.  Types
    are int8; each column's differences are taken and dropped in turn.
    """
    kind = np.full(len(pairs), 2, dtype=np.int8)
    d = np.diff(pairs[:, 0])
    row, column = d == 1, d == 0
    del d
    d = np.diff(pairs[:, 1])
    row &= d == 0
    column &= d == 1
    del d
    kind[:-1][row] = 0
    kind[:-1][column] = 1
    del row, column
    changes = np.empty(len(pairs), dtype=bool)
    changes[:1] = True
    np.not_equal(kind[1:], kind[:-1], out=changes[1:])
    first = np.flatnonzero(changes)
    del changes
    return kind[first], first, np.diff(first, append=len(pairs))


def _greedy_groups(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longest-run greedy partition of a staircase into telescoping runs.

    At each pair take the longer of the row run and the column run that
    start there (the row on ties, so a lone pair is a row) and continue
    after it.  A row or column run of ``r`` steps so becomes one group of
    ``r + 1`` pairs, and the step after it is swallowed as the group's
    boundary.  A run whose first step was swallowed keeps its other
    steps; when that was its only step, the next run starts whole, so
    swallowing alternates along a chain of one-step runs.  Every other
    step left open closes a single-pair group.

    Returns the ``(axis, anchor, lo, hi)`` rows and each group's first
    pair index.
    """
    if len(pairs) == 0:
        return np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64)
    kind, first, length = _step_runs(pairs)
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
    # from here on each run's first open pair and number of open steps
    first += swallowed
    length -= swallowed
    del swallowed
    # a row or column run with an open step is one group, from its first
    # open pair to its last pair; any other run is a one-pair group per
    # open step
    axis = np.where(telescoping, kind, 0)
    span = np.where(telescoping, length, 0)
    per_run = np.minimum(length, 1, out=length, where=telescoping)
    del kind, telescoping
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
    groups[:, 1] = pairs[start, 1 - axis]
    groups[:, 2] = pairs[start, axis]
    groups[:, 3] = pairs[end, axis]
    return groups, start


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
    total value.  Neither grouping is claimed to be minimal.
    """
    if anchoring not in ("row", "alternative"):
        raise ValueError(f"unknown anchoring {anchoring!r}")
    pairs = enumerate_overlaps(s1, s2).pairs
    remainder, column = pairs, None
    if anchoring == "alternative" and len(pairs):
        kind, first, length = _step_runs(pairs)
        corners = np.flatnonzero(kind == 1)
        if corners.size:
            a = first[corners[0]]
            b = a + length[corners[0]] + 1
            remainder = np.concatenate([pairs[:a], pairs[b:]])
            column = (1, pairs[a, 0], pairs[a, 1], pairs[b - 1, 1])
    groups, starts = _greedy_groups(remainder)
    if column is not None:
        # present groups in sweep order of their first pair
        groups = np.insert(groups, np.searchsorted(starts, a), column, axis=0)
    return TermList(s1, s2, pairs, groups)


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


"""Detection of observations that cancel out of the covariance entirely.

A data point is *nonextant* when the estimator's output does not depend
on its value, i.e. its linear coefficient is zero.  Three detectors each
decide this from their own input, so that the test suite and ``detect
--method all`` can cross-check them:

* interval rule, from the two series: a point is cancelled when its two
  adjacent intervals meet the same clipped range of opposite-leg
  intervals (the intervals before a leg's first point and after its last
  meet nothing); it is contained when the union of the two intervals
  lies inside a single opposite-leg interval,
* label rule, from the merged A/B labels alone: for an own point ``k``,
  ``before`` and ``after`` count the opposite labels before and after it,
  and ``prev`` and ``next`` say whether its merged neighbours carry its
  own label.  It is contained when ``prev and next and before >= 1 and
  after >= 1`` (the middle of a same-label triple).  Its left side is
  empty when ``k == 0 or before == 0 or (after == 0 and prev)``, its right
  side when ``k`` is its leg's last point ``or after == 0 or (before == 0
  and next)``.  Any other point is detected when both sides are empty, or
  when neither is and ``(prev or before <= 1) and (next or after <= 1)``,
* coefficient oracle, from the analytic coefficients under prices of its
  own: a point is detected when its coefficient is zero, and contained
  when its two adjacent intervals lie inside one opposite-leg interval.

On boundary-aligned inputs the first and last point of a leg always
survive.  ``f_interior`` counts containment (triple-middle) detections,
``f_total`` additionally counts every other detection, which enters the
index sets only when ``include_boundary`` is set.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .core import (
    LabelSequence,
    ObservationSeries,
    _first_true,
    _frozen_vector,
    _integer,
    blocks,
    clip_ranges,
    overlap_ranges,
    range_blocks,
)
from .errors import EmptyPattern, IndexOutOfRange, ValidationError, ZeroOverlaps
from .estimator import point_coefficients


@dataclass(frozen=True, eq=False)
class NonextantReport:
    """Nonextant point indices per leg plus the counts behind the loss.

    ``nonextant_1`` and ``nonextant_2`` are ascending read-only int64
    arrays of 0-based point indices; compare reports with
    :meth:`same_points`.
    """

    nonextant_1: np.ndarray
    nonextant_2: np.ndarray
    f_interior: int
    f_total: int
    m: int
    method: str

    def __post_init__(self) -> None:
        for name in ("nonextant_1", "nonextant_2"):
            object.__setattr__(self, name, _frozen_vector(getattr(self, name), np.int64, name))

    def same_points(self, other: "NonextantReport") -> bool:
        """True when both reports name identical index sets and counts."""
        return (
            np.array_equal(self.nonextant_1, other.nonextant_1)
            and np.array_equal(self.nonextant_2, other.nonextant_2)
            and self.f_interior == other.f_interior
            and self.f_total == other.f_total
            and self.m == other.m
        )


@dataclass(frozen=True)
class OpenInterval:
    """Open interval ``(lo, hi)``; empty unless lo < hi."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

    def __contains__(self, x: float) -> bool:
        return self.lo < x < self.hi

    @classmethod
    def empty(cls) -> "OpenInterval":
        return cls(math.inf, -math.inf)


def _build_report(leg1: tuple[np.ndarray, np.ndarray], leg2: tuple[np.ndarray, np.ndarray],
                  m: int, method: str, include_boundary: bool) -> NonextantReport:
    """Report of each leg's (containment, other) index arrays, which are
    ascending and disjoint."""

    def indices(leg: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        interior, boundary = leg
        if include_boundary and boundary.size:
            interior = np.insert(interior, np.searchsorted(interior, boundary), boundary)
        if interior.flags.owndata:
            # the report takes a frozen array it owns without a copy
            interior.flags.writeable = False
        return interior

    nonextant_1, nonextant_2 = indices(leg1), indices(leg2)
    return NonextantReport(nonextant_1=nonextant_1, nonextant_2=nonextant_2,
                           f_interior=len(leg1[0]) + len(leg2[0]),
                           f_total=nonextant_1.size + nonextant_2.size, m=m, method=method)


def overlap_count(s1: ObservationSeries, s2: ObservationSeries) -> int:
    """Number of overlapping interval pairs, without materialising them.

    Each interval of one leg overlaps the opposite intervals of its
    clipped range, so ``m`` is the sum of the clipped counts.  They come
    a block at a time, for the shorter leg's intervals, which need the
    fewer lookups in the other leg.
    """
    short, long = sorted((s1, s2), key=lambda s: s.n_points)
    return sum(int(clip_ranges(first, last, long.n_intervals)[1].sum())
               for _, first, last in range_blocks(long.times, short.times))


# a raw range that clips to no interval and contains no span: the range of
# the intervals before a leg's first point and after its last
_NOWHERE = np.array([-1])
_NOWHERE.flags.writeable = False


def _interval_side(series: ObservationSeries, opposite: ObservationSeries):
    """Nonextant points of ``series``: (containment, other) indices.

    Point ``k`` is nonextant when its two adjacent intervals meet the same
    clipped range of opposite intervals (both none counting as the same).
    It is contained when the span of both lies inside one opposite
    interval: the first interval's raw :func:`overlap_ranges` ``first``
    equals the second's ``last`` and is a valid interval index.  The
    ranges come a block at a time; one interval is carried from block to
    block, and each block's indices are kept until they are joined.
    """
    m_opp = opposite.n_intervals
    contained, other = [], []
    k, held = 0, (_NOWHERE, _NOWHERE)
    ranges = range_blocks(opposite.times, series.times)
    for _, first, last in itertools.chain(ranges, [(None, *held)]):
        first, last = (np.concatenate(pair) for pair in zip(held, (first, last)))
        held = first[-1:].copy(), last[-1:].copy()
        inside = first[:-1] == last[1:]
        inside &= first[:-1] >= 1
        inside &= first[:-1] <= m_opp
        lo, count = clip_ranges(first, last, m_opp)
        # no range met is the same range wherever it would start
        lo[count == 0] = 0
        same = lo[:-1] == lo[1:]
        same &= count[:-1] == count[1:]
        same &= ~inside
        contained.append(np.flatnonzero(inside) + k)
        other.append(np.flatnonzero(same) + k)
        k += inside.size
    return np.concatenate(contained), np.concatenate(other)


def detect_interval_rule(
    s1: ObservationSeries,
    s2: ObservationSeries,
    include_boundary: bool = False,
) -> NonextantReport:
    """Detect nonextant points of both legs from their intervals' opposite ranges.

    A point is nonextant when its two adjacent intervals meet the same
    clipped range of opposite-leg intervals; the intervals before a leg's
    first point and after its last meet nothing.  Containment of the two
    intervals' union in one opposite interval is the interior class; the
    other detections enter the index sets only with ``include_boundary``.
    """
    return _build_report(_interval_side(s1, s2), _interval_side(s2, s1),
                         overlap_count(s1, s2), "interval_rule", include_boundary)


def _label_side(is_a: np.ndarray, own: bool, n_own: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonextant points of one leg (leg A's where ``own``) from the labels alone:
    (containment, other) indices, by the conditions in the module docstring.

    A side that is not empty meets only the opposite interval around the
    point when its neighbour is own, or when the one opposite point it
    crosses is the opposite leg's first (last), which clips away.
    """
    n_opp = is_a.size - n_own
    contained, other = [], []
    seen = 0
    for b in blocks(is_a.size):
        # the block with one label of context on each side, none past the ends
        mine = np.zeros(b.stop - b.start + 2, dtype=bool)
        context = is_a[max(b.start - 1, 0):b.stop + 1] == own
        mine[int(b.start == 0):][:context.size] = context
        i = np.flatnonzero(mine[1:-1])
        prev, next_ = mine[i], mine[i + 2]
        # the merge position less the own points before it
        before = i - np.arange(seen - b.start, seen - b.start + i.size)
        after = n_opp - before
        none_before, none_after = before == 0, after == 0
        inside = prev & next_ & ~(none_before | none_after)
        left_none = none_before | (none_after & prev)
        right_none = none_after | (none_before & next_)
        # the leg's first and last point have no interval on one side
        left_none[:1] |= seen == 0
        right_none[-1:] |= seen + i.size == n_own
        same = left_none == right_none
        same &= left_none | ((prev | (before <= 1)) & (next_ | (after <= 1)))
        same &= ~inside
        contained.append(np.flatnonzero(inside) + seen)
        other.append(np.flatnonzero(same) + seen)
        seen += i.size
    return np.concatenate(contained), np.concatenate(other)


def detect_label_rule(
    labels: LabelSequence,
    include_boundary: bool = False,
) -> NonextantReport:
    """Detect nonextant points from the merged label sequence alone.

    Each leg's points are decided by :func:`_label_side`; ``m`` is the
    distance in merge positions from the later leg's first point to the
    earlier leg's last point (0 when they do not overlap).  Runs in O(n).
    """
    is_a = labels.is_a
    n = is_a.size
    n_a = int(np.count_nonzero(is_a))
    # the runs of one label at either end: the entries before the later
    # leg's first point and after the earlier leg's last point
    lead, trail = (_first_true(n, lambda b: x[b] != x[0]) for x in (is_a, is_a[::-1]))
    m = max(0, n - 1 - lead - trail)
    leg_a, leg_b = _label_side(is_a, True, n_a), _label_side(is_a, False, n - n_a)
    return _build_report(leg_a, leg_b, m, "label_rule", include_boundary)


def count_pattern(labels: LabelSequence | str, pattern: str) -> int:
    """Count (overlapping) occurrences of ``pattern`` in the label string.

    Raises :class:`EmptyPattern` for an empty pattern and
    :class:`ValidationError` for a pattern or a label string with a letter
    other than A or B.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one label")
    unknown = set(pattern) - {"A", "B"}
    if unknown:
        raise ValidationError(f"unknown label {min(unknown)!r} in pattern")
    text = labels.as_string if isinstance(labels, LabelSequence) else labels
    unknown = set(text) - {"A", "B"}
    if unknown:
        raise ValidationError(f"unknown label {min(unknown)!r}")
    return len(re.findall(f"(?={re.escape(pattern)})", text))


def _oracle_prices(n: int) -> np.ndarray:
    """The oracle's own prices of ``n`` points, read-only: point ``j`` costs
    the top 50 bits of output ``j`` of splitmix64 from state 0, an integer
    that float64 holds exactly."""
    g = np.empty(n)
    for b in blocks(n):
        z = np.arange(b.start + 1, b.stop + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        g[b] = z >> np.uint64(14)
    g.flags.writeable = False
    return g


def oracle_detect(
    s1: ObservationSeries,
    s2: ObservationSeries,
    include_boundary: bool = True,
) -> NonextantReport:
    """Arbiter detector: report points whose coefficient is zero.

    Cancellation depends on the times alone, so the series' values are
    ignored: each leg's :func:`point_coefficients` are taken against the
    opposite leg priced by :func:`_oracle_prices`, at the top 50 bits of
    splitmix64 output ``j`` for point ``j``.  Every coefficient is then an
    exact integer below ``2**52`` in magnitude, and a point is detected
    when its coefficient is exactly 0; a false zero needs two sums of
    these 50-bit values to collide.  A detected point is contained when
    :func:`overlap_ranges` puts the union of its two adjacent intervals
    inside one opposite interval, so reports compare field for field.
    """
    sides = []
    for series, opposite in ((s1, s2), (s2, s1)):
        coeff = point_coefficients(series, opposite.with_values(_oracle_prices(opposite.n_points)))
        t, end, m_opp = series.times, series.n_intervals, opposite.n_intervals
        contained, other = [], []
        for b in blocks(coeff.size):
            k = np.flatnonzero(coeff[b] == 0) + b.start
            first, last = overlap_ranges(opposite.times, t[np.maximum(k - 1, 0)],
                                         t[np.minimum(k + 1, end)])
            # the first and last point have one adjacent interval only
            inside = (first == last) & (first >= 1) & (first <= m_opp) & (k > 0) & (k < end)
            contained.append(k[inside])
            other.append(k[~inside])
        sides.append((np.concatenate(contained), np.concatenate(other)))
        # the next leg's prices are not made while these coefficients live
        del coeff
    return _build_report(*sides, overlap_count(s1, s2), "oracle", include_boundary)


def nonextant_interval(
    s1: ObservationSeries,
    s2: ObservationSeries,
    i: int,
) -> OpenInterval:
    """Open time window of leg-2 points cancelled against leg-1 interval ``i``.

    For interior ``i`` the window runs from the first leg-2 time after
    ``t1[i-1]`` to the last leg-2 time before ``t1[i]``; at ``i = 1`` the
    left end widens to the earlier of the leg-2 neighbours of ``t1[0]``,
    and symmetrically on the right at ``i = M``.  Strictly interior leg-2
    points of the window are nonextant.  Raises :class:`ValueError` for an
    ``i`` that is not an integer and :class:`IndexOutOfRange` for one
    outside ``1..M``.
    """
    i = _integer(i, "interval index")
    m1 = s1.n_intervals
    if not 1 <= i <= m1:
        raise IndexOutOfRange(f"interval index {i} outside 1..{m1}")
    t1, t2 = s1.times, s2.times
    # degenerate spans (x, x]: after = first leg-2 index past x,
    # before = number of leg-2 times below x
    ends = t1[[i - 1, i]]
    (after_lo, after_hi), (before_lo, before_hi) = overlap_ranges(t2, ends, ends)
    lo = before_lo - 1 if i == 1 and before_lo >= 1 else after_lo
    hi = after_hi if i == m1 and after_hi < t2.size else before_hi - 1
    if lo >= t2.size or hi < 0:
        return OpenInterval.empty()
    return OpenInterval(float(t2[lo]), float(t2[hi]))


def data_loss_ratio(report: NonextantReport) -> float:
    """Nonextant count over overlap count, per the report's boundary mode."""
    if report.m <= 0:
        raise ZeroOverlaps("no overlapping intervals, the ratio f/m is undefined")
    return report.f_total / report.m

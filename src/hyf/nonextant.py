"""Detection of observations that cancel out of the covariance entirely.

A data point is *nonextant* when the estimator's output does not depend
on its value, i.e. its linear coefficient is zero.  Three independent
detectors are provided and cross-checked in the test suite:

* interval rule: a point is cancelled when the union of its two adjacent
  intervals fits inside a single opposite-leg interval; for the second
  and penultimate point of a leg, where that containment test can fail
  for pure edge reasons, the fallback is the exactly-one-overlap
  condition,
* label rule: the same decisions computed purely from the merged A/B
  label sequence (containment = being the middle of a same-label triple),
* coefficient oracle: direct zero test of the analytic coefficients.

The first and last point of a leg always survive.  Detections are
classified by which condition fired: ``f_interior`` counts containment
(triple-middle) detections, ``f_total`` additionally counts the
edge-fallback detections, which enter the index sets only when
``include_boundary`` is set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .core import (
    LabelSequence,
    ObservationSeries,
    _frozen_vector,
    clip_ranges,
    overlap_ranges,
    safe_median,
)
from .errors import EmptyPattern, IndexOutOfRange, ValidationError, ZeroOverlaps
from .estimator import point_coefficients

ORACLE_RELATIVE_TOLERANCE = 1e-12

_METHODS = ("interval_rule", "label_rule", "oracle")


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


def _build_report(
    leg1: tuple[np.ndarray, np.ndarray],
    leg2: tuple[np.ndarray, np.ndarray],
    m: int,
    method: str,
    include_boundary: bool,
) -> NonextantReport:
    """Report of each leg's (containment, edge-fallback) index arrays, which
    are ascending and disjoint."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")

    def indices(leg: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        interior, boundary = leg
        if include_boundary and boundary.size:
            interior = np.insert(interior, np.searchsorted(interior, boundary), boundary)
        if interior.flags.owndata:
            # the report takes a frozen array it owns without a copy
            interior.flags.writeable = False
        return interior

    nonextant_1, nonextant_2 = indices(leg1), indices(leg2)
    return NonextantReport(
        nonextant_1=nonextant_1,
        nonextant_2=nonextant_2,
        f_interior=len(leg1[0]) + len(leg2[0]),
        f_total=nonextant_1.size + nonextant_2.size,
        m=m,
        method=method,
    )


def overlap_count(s1: ObservationSeries, s2: ObservationSeries) -> int:
    """Number of overlapping interval pairs, without materialising them."""
    t2 = s2.times
    first, last = overlap_ranges(s1.times, t2[:-1], t2[1:])
    return int(clip_ranges(first, last, s1.n_intervals)[1].sum())


def _span_ranges(
    series: ObservationSeries, opposite: ObservationSeries
) -> tuple[np.ndarray, np.ndarray]:
    """Opposite intervals met by, and containment of, each candidate span.

    Candidate ``j = 1..M-1`` of ``series`` spans ``(t[j-1], t[j+1]]``;
    returns ``(met, contained)`` with entry ``j - 1`` for candidate ``j``.
    """
    t = series.times
    first, last = overlap_ranges(opposite.times, t[:-2], t[2:])
    met = clip_ranges(first, last, opposite.n_intervals)[1]
    return met, (first == last) & (met == 1)


def _rule_side(met: np.ndarray, contained: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonextant candidates of one leg: (containment, edge-fallback) indices.

    The second and penultimate points that fail containment fall back to
    the exactly-one-overlap test.
    """
    edges = np.array(sorted({1, contained.size}) if contained.size else [], dtype=np.int64)
    at = edges - 1
    boundary = edges[~contained[at] & (met[at] == 1)]
    return np.flatnonzero(contained) + 1, boundary


def detect_interval_rule(
    s1: ObservationSeries,
    s2: ObservationSeries,
    include_boundary: bool = False,
) -> NonextantReport:
    """Detect nonextant points of both legs by interval containment.

    A point is nonextant when the union of its two adjacent intervals
    lies inside a single opposite-leg interval.  With
    ``include_boundary`` the second and penultimate points that fail
    containment are additionally tested with the exactly-one-overlap
    fallback, and those extra detections enter the index sets.
    """
    leg1 = _rule_side(*_span_ranges(s1, s2))
    leg2 = _rule_side(*_span_ranges(s2, s1))
    m = overlap_count(s1, s2)
    return _build_report(leg1, leg2, m, "interval_rule", include_boundary)


def _opposite_before(own: np.ndarray) -> np.ndarray:
    """Number of opposite entries before each own entry of a label mask.

    That is the entry's merge position less the own entries before it;
    with tie-free legs these are exactly the counts :func:`overlap_ranges`
    takes from the times.
    """
    before = np.flatnonzero(own)
    before -= np.arange(before.size)
    return before


def _label_side(before: np.ndarray, m_opp: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rule_side` of one leg from its :func:`_opposite_before` counts."""
    first, last = before[:-2], before[2:]
    # equal counts: the own neighbours are adjacent in the merge
    return _rule_side(clip_ranges(first, last, m_opp)[1], first == last)


def detect_label_rule(
    labels: LabelSequence,
    include_boundary: bool = False,
) -> NonextantReport:
    """Detect nonextant points from the merged label sequence alone.

    A point is nonextant exactly when its merged-sequence neighbours
    carry its own label (middle of a same-label triple); second and
    penultimate points that are not middles fall back to the
    exactly-one-overlap test, evaluated on merge positions.  Runs in
    O(n).
    """
    is_a = labels.is_a
    m_a = int(np.count_nonzero(is_a)) - 1
    m_b = is_a.size - m_a - 2
    # one leg's counts at a time, each freed before the next is made
    b_before_a = _opposite_before(is_a)
    m = int(clip_ranges(b_before_a[:-1], b_before_a[1:], m_b)[1].sum())
    leg_a = _label_side(b_before_a, m_b)
    del b_before_a
    leg_b = _label_side(_opposite_before(~is_a), m_a)
    return _build_report(leg_a, leg_b, m, "label_rule", include_boundary)


def count_pattern(labels: LabelSequence | str, pattern: str) -> int:
    """Count (overlapping) occurrences of ``pattern`` in the label string.

    Raises :class:`EmptyPattern` for an empty pattern and
    :class:`ValidationError` for a pattern with a letter other than A or B.
    """
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one label")
    unknown = set(pattern) - {"A", "B"}
    if unknown:
        raise ValidationError(f"unknown label {min(unknown)!r} in pattern")
    text = labels.as_string if isinstance(labels, LabelSequence) else labels
    return len(re.findall(f"(?={re.escape(pattern)})", text))


def oracle_detect(
    s1: ObservationSeries,
    s2: ObservationSeries,
    include_boundary: bool = True,
) -> NonextantReport:
    """Arbiter detector: report points whose coefficient is (near) zero.

    The coefficients are computed analytically, so only representation
    error remains; a point is flagged when its coefficient is at most
    ``1e-12`` relative to the median absolute opposite-leg increment.
    Detections are classified with the same containment test the other
    detectors use, so reports compare field for field.  Meaningful as
    ground truth only when values are continuously distributed (zero
    increments would mask genuinely extant points).
    """
    sides = []
    for series, opposite in ((s1, s2), (s2, s1)):
        coeff = point_coefficients(series, opposite)
        scale = safe_median(np.abs(opposite.increments))
        detected = np.abs(coeff) <= ORACLE_RELATIVE_TOLERANCE * scale
        interior = np.zeros_like(detected)
        interior[1:-1] = _span_ranges(series, opposite)[1]
        interior &= detected
        boundary = detected & ~interior
        sides.append((np.flatnonzero(interior), np.flatnonzero(boundary)))
    m = overlap_count(s1, s2)
    return _build_report(sides[0], sides[1], m, "oracle", include_boundary)


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
    points of the window are nonextant.
    """
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

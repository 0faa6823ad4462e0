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

from .core import LabelSequence, ObservationSeries, clip_ranges, overlap_ranges, safe_median
from .errors import EmptyPattern, IndexOutOfRange, ZeroOverlaps
from .estimator import point_coefficients

ORACLE_RELATIVE_TOLERANCE = 1e-12

_METHODS = ("interval_rule", "label_rule", "oracle")


@dataclass(frozen=True)
class NonextantReport:
    """Nonextant point indices per leg plus the counts behind the loss."""

    nonextant_1: tuple[int, ...]
    nonextant_2: tuple[int, ...]
    f_interior: int
    f_total: int
    m: int
    method: str

    def same_points(self, other: "NonextantReport") -> bool:
        """True when both reports name identical index sets and counts."""
        return (
            self.nonextant_1 == other.nonextant_1
            and self.nonextant_2 == other.nonextant_2
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
    leg1: tuple[list[int], list[int]],
    leg2: tuple[list[int], list[int]],
    m: int,
    method: str,
    include_boundary: bool,
) -> NonextantReport:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    set1 = sorted(set(leg1[0]) | (set(leg1[1]) if include_boundary else set()))
    set2 = sorted(set(leg2[0]) | (set(leg2[1]) if include_boundary else set()))
    f_interior = len(leg1[0]) + len(leg2[0])
    f_total = len(set1) + len(set2)
    return NonextantReport(
        nonextant_1=tuple(set1),
        nonextant_2=tuple(set2),
        f_interior=f_interior,
        f_total=f_total,
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


def _rule_side(met: np.ndarray, contained: np.ndarray) -> tuple[list[int], list[int]]:
    """Nonextant candidates of one leg: (containment, edge-fallback).

    The second and penultimate points that fail containment fall back to
    the exactly-one-overlap test.
    """
    edges = sorted({1, contained.size}) if contained.size else []
    boundary = [j for j in edges if not contained[j - 1] and met[j - 1] == 1]
    return (np.flatnonzero(contained) + 1).tolist(), boundary


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
    pos_a = np.flatnonzero(is_a)
    pos_b = np.flatnonzero(~is_a)
    # with tie-free legs, the opposite entries before a merge position
    # are exactly the counts overlap_ranges takes from the times
    before_a = np.concatenate([[0], np.cumsum(is_a)])
    before_b = np.concatenate([[0], np.cumsum(~is_a)])
    m_a = pos_a.size - 1
    m_b = pos_b.size - 1

    sides = []
    for pos, before, m_opp in ((pos_a, before_b, m_b), (pos_b, before_a, m_a)):
        first, last = before[pos[:-2]], before[pos[2:]]
        # equal counts: the own neighbours are adjacent in the merge
        sides.append(_rule_side(clip_ranges(first, last, m_opp)[1], first == last))

    m = int(clip_ranges(before_a[pos_b[:-1]], before_a[pos_b[1:]], m_a)[1].sum())
    return _build_report(sides[0], sides[1], m, "label_rule", include_boundary)


def count_pattern(labels: LabelSequence | str, pattern: str) -> int:
    """Count (overlapping) occurrences of ``pattern`` in the label string."""
    if len(pattern) == 0:
        raise EmptyPattern("pattern must contain at least one label")
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
        sides.append((np.flatnonzero(interior).tolist(), np.flatnonzero(boundary).tolist()))
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

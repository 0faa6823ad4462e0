"""Core data model: observation series, label merges, and interval overlaps.

Two price series observed at irregular times are the fundamental input.
Interval ``i`` of a series spans ``(t[i-1], t[i]]`` (left-open,
right-closed) and is indexed from 1, so a series with ``n`` points carries
``n - 1`` intervals.  All overlap logic below uses strict comparisons on
interval endpoints, which is exact for this half-open convention even when
the two series share timestamps; operations that need a total merge order
(labelling) reject cross-series ties instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .errors import (
    CrossSeriesTie,
    IndexOutOfRange,
    LengthMismatch,
    NonMonotoneTimes,
    TooFewPoints,
    ValidationError,
)

Label = Literal["A", "B"]

_LABELS = ("A", "B")


def _frozen_array(data, dtype) -> np.ndarray:
    out = np.array(data, dtype=dtype, copy=True).reshape(-1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ObservationSeries:
    """Strictly increasing observation times with one finite value per time.

    ``label`` identifies which leg of a pair this series plays ("A" or
    "B").  Instances are immutable; the underlying arrays are marked
    read-only so they can be shared freely across threads.
    """

    times: np.ndarray
    values: np.ndarray
    label: Label

    def __post_init__(self) -> None:
        times = _frozen_array(self.times, float)
        values = _frozen_array(self.values, float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if self.label not in _LABELS:
            raise ValidationError(f"label must be 'A' or 'B', got {self.label!r}")
        if times.size < 2:
            raise TooFewPoints(
                f"leg {self.label}: need at least 2 observations, got {times.size}"
            )
        if values.size != times.size:
            raise LengthMismatch(
                f"leg {self.label}: {times.size} times vs {values.size} values"
            )
        # ndarray.all() skips np.all's dispatch, which dominates on short legs
        if not np.isfinite(times).all():
            raise ValidationError(f"leg {self.label}: non-finite observation time")
        # with two or more points a non-finite value makes an adjacent
        # increment non-finite too, so one test covers both
        with np.errstate(over="ignore", invalid="ignore"):
            increments = values[1:] - values[:-1]
            gaps = times[1:] - times[:-1]
        if not np.isfinite(increments).all():
            finite = np.isfinite(values)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValidationError(
                    f"leg {self.label}: non-finite value {float(values[k])!r} at position {k}"
                )
            k = int(np.argmin(np.isfinite(increments))) + 1
            raise ValidationError(
                f"leg {self.label}: increment from {float(values[k - 1])!r} to "
                f"{float(values[k])!r} at position {k} overflows"
            )
        if not np.all(gaps > 0):
            k = int(np.argmax(gaps <= 0)) + 1
            raise NonMonotoneTimes(
                f"leg {self.label}: time {float(times[k])!r} at position {k} does not "
                f"increase past {float(times[k - 1])!r}"
            )

    @property
    def n_points(self) -> int:
        return int(self.times.size)

    @property
    def n_intervals(self) -> int:
        """Index of the last observation; intervals run 1..n_intervals."""
        return int(self.times.size) - 1

    @property
    def increments(self) -> np.ndarray:
        """Value change over each interval, ``values[i] - values[i-1]``."""
        return np.diff(self.values)

    def interval(self, i: int) -> tuple[float, float]:
        """Endpoints of interval ``i`` as ``(t[i-1], t[i]]``."""
        if not 1 <= i <= self.n_intervals:
            raise IndexOutOfRange(
                f"interval index {i} outside 1..{self.n_intervals}"
            )
        return float(self.times[i - 1]), float(self.times[i])

    def with_values(self, values) -> "ObservationSeries":
        """Same observation times, new values."""
        return ObservationSeries(self.times, values, self.label)


def validate_series(times, values, label: Label) -> ObservationSeries:
    """Validate raw arrays and build an :class:`ObservationSeries`.

    Raises :class:`NonMonotoneTimes`, :class:`LengthMismatch` or
    :class:`TooFewPoints` when the data cannot form a usable series.
    """
    return ObservationSeries(times, values, label)


@dataclass(frozen=True, eq=False)
class LabelSequence:
    """Time-ordered merge of two series' observation times, tagged A/B.

    ``is_a`` holds one bool per entry, True for a leg-A point.
    Construction requires a strict total order, so both legs must be
    tie-free against each other, and each must contribute at least two
    points.
    """

    times: np.ndarray
    is_a: np.ndarray

    def __post_init__(self) -> None:
        times = _frozen_array(self.times, float)
        is_a = _frozen_array(self.is_a, bool)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "is_a", is_a)
        if times.size != is_a.size:
            raise LengthMismatch("times and is_a differ in length")
        gaps = np.diff(times)
        if np.any(gaps == 0):
            k = int(np.argmax(gaps == 0))
            raise CrossSeriesTie(f"time {float(times[k])!r} appears in both series")
        if np.any(gaps < 0):
            raise NonMonotoneTimes("merged entries are not sorted by time")
        for lab in _LABELS:
            count = self.leg_count(lab)
            if count < 2:
                raise TooFewPoints(
                    f"both legs must be present with >= 2 points; leg {lab} has {count}"
                )

    @classmethod
    def from_string(cls, pattern: str, times=None) -> "LabelSequence":
        """Build a sequence from a label string like ``"BAAB"``.

        Times default to 0, 1, 2, ...; they only need to be ordered, the
        label-based operations never look at the actual values.
        """
        unknown = set(pattern) - set(_LABELS)
        if unknown:
            raise ValidationError(f"unknown label {min(unknown)!r}")
        if times is None:
            times = np.arange(len(pattern), dtype=float)
        return cls(times, [ch == "A" for ch in pattern])

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def as_string(self) -> str:
        return np.where(self.is_a, b"A", b"B").tobytes().decode("ascii")

    def leg_count(self, label: Label) -> int:
        count_a = int(np.count_nonzero(self.is_a))
        return count_a if label == "A" else self.n - count_a

    @property
    def entries(self) -> Iterator[tuple[float, str, int]]:
        """``(time, label, index within its own leg)`` per entry."""
        is_a = self.is_a
        within = np.where(is_a, np.cumsum(is_a), np.cumsum(~is_a)) - 1
        labels = ("A" if a else "B" for a in is_a.tolist())
        return zip(self.times.tolist(), labels, within.tolist())


def merge_labels(s1: ObservationSeries, s2: ObservationSeries) -> LabelSequence:
    """Merge two series into one ascending, labelled sequence.

    Raises :class:`CrossSeriesTie` if any timestamp occurs in both legs;
    a labelled merge has no well-defined order for tied entries.
    """
    if s1.label == s2.label:
        raise ValidationError("series must carry distinct labels")
    times = np.concatenate([s1.times, s2.times])
    is_a = np.repeat([s1.label == "A", s2.label == "A"], [s1.n_points, s2.n_points])
    order = np.argsort(times, kind="stable")
    return LabelSequence(times[order], is_a[order])


@dataclass(frozen=True, eq=False)
class OverlapSet:
    """All interval index pairs ``(i, j)`` whose intervals intersect.

    Pairs are 1-based and sorted lexicographically; for two partitions of
    the line they always form a monotone staircase, so sorting by ``i``
    and by ``j`` coincide.
    """

    pairs: np.ndarray

    def __post_init__(self) -> None:
        pairs = np.array(self.pairs, dtype=np.int64, copy=True).reshape(-1, 2)
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @property
    def m(self) -> int:
        return int(self.pairs.shape[0])


def overlap_ranges(
    t_opp: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw opposite-interval index range of each span ``(starts[k], ends[k]]``.

    Returns ``first = searchsorted(t_opp, starts, "right")`` and
    ``last = searchsorted(t_opp, ends, "left")``.  With ``M`` opposite
    intervals ``(t_opp[j-1], t_opp[j]]``:

    * span ``k`` meets exactly the opposite intervals
      ``max(1, first[k]) .. min(M, last[k])`` (none when that is empty);
    * span ``k`` lies inside a single opposite interval exactly when
      ``first[k] == last[k]`` and ``1 <= first[k] <= M``.

    These are strict endpoint comparisons, exact for the half-open
    convention even when the legs share timestamps.  Every overlap,
    count, coefficient and containment test in the package derives from
    this one range.
    """
    return (
        np.searchsorted(t_opp, starts, side="right"),
        np.searchsorted(t_opp, ends, side="left"),
    )


def clip_ranges(
    first: np.ndarray, last: np.ndarray, m_opp: int
) -> tuple[np.ndarray, np.ndarray]:
    """First opposite interval met and how many are met, per raw range.

    ``lo = max(1, first)`` and ``count = max(0, min(M, last) - lo + 1)``;
    the met intervals are ``lo .. lo + count - 1``, and ``lo - 1`` is
    always a valid opposite point index.
    """
    lo = np.maximum(1, first)
    return lo, np.maximum(np.minimum(m_opp, last) - lo + 1, 0)


def first_shared_time(sorted_a: np.ndarray, sorted_b: np.ndarray):
    """First value of ascending ``sorted_b`` also in ascending ``sorted_a``, or None."""
    if sorted_a.size == 0:
        return None
    idx = np.minimum(np.searchsorted(sorted_a, sorted_b), sorted_a.size - 1)
    hits = np.flatnonzero(sorted_a[idx] == sorted_b)
    return sorted_b[hits[0]] if hits.size else None


def enumerate_overlaps(s1: ObservationSeries, s2: ObservationSeries) -> OverlapSet:
    """Every pair ``(i, j)`` of intersecting intervals, in staircase order.

    Leg-1 interval ``i`` meets the leg-2 intervals of its
    :func:`overlap_ranges` range, so the pairs are each such range
    repeated out per ``i``.  Runs in O((|s1| + m) + |s1| log |s2|).
    """
    t1 = s1.times
    lo, count = clip_ranges(*overlap_ranges(s2.times, t1[:-1], t1[1:]), s2.n_intervals)
    i = np.repeat(np.arange(1, t1.size), count)
    j = np.arange(i.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    return OverlapSet(np.column_stack([i, j]))

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
from functools import cached_property
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

# points per block of every per-tick kernel: a block's float64 temporary is
# 64 KiB, under glibc's default 128 KiB mmap threshold, so block temporaries
# reuse heap memory instead of growing it.  Apart from its inputs and its
# result, no kernel holds an array larger than one block, except where it
# needs one whole: the oracle's own prices of the opposite leg.
BLOCK_POINTS = 2**13


def blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most :data:`BLOCK_POINTS` that cover ``range(n)``."""
    step = BLOCK_POINTS
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _next(block: slice) -> slice:
    """``block`` moved on by one: the later ends of the intervals it starts."""
    return slice(block.start + 1, block.stop + 1)


def _integer(value, what: str) -> int:
    """``value`` as a Python ``int``.

    Raises :class:`ValueError` naming ``what`` for anything but an integer,
    bools and integral floats included, which ``int()`` would otherwise
    truncate silently.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _first_true(n: int, test) -> int | None:
    """First ``k < n`` that ``test(block)`` marks True, one block at a time, or None."""
    for block in blocks(n):
        hit = test(block)
        if hit.any():
            return block.start + int(np.argmax(hit))
    return None


def _frozen_array(data, dtype) -> np.ndarray:
    """``data`` as a read-only array of ``dtype``.

    An array that is already read-only and owns its memory is taken as it
    is: objects built from one another share it, and a function that has
    just made and frozen an array hands it over without a copy.  Anything
    else is copied first.
    """
    if (type(data) is np.ndarray and data.dtype == dtype
            and data.flags.owndata and not data.flags.writeable):
        return data
    out = np.array(data, dtype=dtype)
    out.flags.writeable = False
    return out


def _frozen_vector(data, dtype, what: str) -> np.ndarray:
    """:func:`_frozen_array` of ``data``, which must be one-dimensional and
    real; anything else is a :class:`ValidationError`."""
    try:
        if np.iscomplexobj(data):
            raise TypeError("complex values are not allowed")
        out = _frozen_array(data, dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if out.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {out.shape}")
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
        times = _frozen_vector(self.times, float, f"leg {self.label}: times")
        values = _frozen_vector(self.values, float, f"leg {self.label}: values")
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
        # three passes in this order, each a block at a time; the first
        # defect of the first pass that finds one is reported
        n = times.size
        if _first_true(n, lambda b: ~np.isfinite(times[b])) is not None:
            raise ValidationError(f"leg {self.label}: non-finite observation time")
        # a non-finite value makes an adjacent increment non-finite too, so
        # one test covers both
        with np.errstate(over="ignore", invalid="ignore"):
            k = _first_true(n - 1, lambda b: ~np.isfinite(values[_next(b)] - values[b]))
        if k is not None:
            j = _first_true(n, lambda b: ~np.isfinite(values[b]))
            if j is not None:
                raise ValidationError(
                    f"leg {self.label}: non-finite value {float(values[j])!r} at position {j}"
                )
            raise ValidationError(
                f"leg {self.label}: increment from {float(values[k])!r} to "
                f"{float(values[k + 1])!r} at position {k + 1} overflows"
            )
        # between finite times, t[k + 1] - t[k] > 0 exactly when t[k + 1] > t[k]
        k = _first_true(n - 1, lambda b: times[_next(b)] <= times[b])
        if k is not None:
            raise NonMonotoneTimes(
                f"leg {self.label}: time {float(times[k + 1])!r} at position {k + 1} does not "
                f"increase past {float(times[k])!r}"
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
        """Endpoints of interval ``i`` as ``(t[i-1], t[i]]``.

        Raises :class:`ValueError` for an ``i`` that is not an integer and
        :class:`IndexOutOfRange` for one outside ``1..n_intervals``.
        """
        i = _integer(i, "interval index")
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

    Items are converted as ``float()`` converts them, so numeric strings
    are read as their numbers.  Raises :class:`NonMonotoneTimes`,
    :class:`LengthMismatch`, :class:`TooFewPoints`, or
    :class:`ValidationError` for arrays that are not one-dimensional, hold
    complex numbers or items ``float()`` cannot convert, or hold
    non-finite data, when the data cannot form a usable series.
    """
    return ObservationSeries(times, values, label)


@dataclass(frozen=True, eq=False, init=False)
class LabelSequence:
    """Time-ordered merge of two series' observation times, tagged A/B.

    ``is_a`` holds one bool per entry, True for a leg-A point, and
    ``times`` the entries' times.  Construction requires a strict total
    order, so both legs must be tie-free against each other, and each
    must contribute at least two points.  A sequence that
    :func:`merge_labels` built fills ``times`` from its legs on first
    access, since the label rule reads only ``is_a``.
    """

    is_a: np.ndarray

    def __init__(self, times, is_a) -> None:
        times = _frozen_vector(times, float, "times")
        is_a = _frozen_vector(is_a, bool, "is_a")
        object.__setattr__(self, "is_a", is_a)
        self.__dict__["times"] = times
        if times.size != is_a.size:
            raise LengthMismatch("times and is_a differ in length")
        # every comparison with nan is false, so nan fails the order test,
        # and an increasing sequence can be infinite only at its two ends
        n = times.size
        ordered = (_first_true(n - 1, lambda b: ~(times[_next(b)] > times[b])) is None
                   and np.isfinite(times[:1]).all() and np.isfinite(times[-1:]).all())
        if not ordered:
            k = _first_true(n, lambda b: ~np.isfinite(times[b]))
            if k is not None:
                raise ValidationError(f"non-finite time {float(times[k])!r} at position {k}")
            k = _first_true(n - 1, lambda b: times[_next(b)] == times[b])
            if k is not None:
                raise CrossSeriesTie(f"time {float(times[k])!r} appears in both series")
            raise NonMonotoneTimes("merged entries are not sorted by time")
        for lab in _LABELS:
            count = self.leg_count(lab)
            if count < 2:
                raise TooFewPoints(
                    f"both legs must be present with >= 2 points; leg {lab} has {count}"
                )

    @classmethod
    def _of_legs(cls, is_a: np.ndarray, times_a: np.ndarray,
                 times_b: np.ndarray) -> "LabelSequence":
        """The sequence of read-only labels ``is_a`` that merge the ordered,
        tie-free legs' times, each leg at least two points; not checked."""
        merged = object.__new__(cls)
        object.__setattr__(merged, "is_a", is_a)
        object.__setattr__(merged, "_legs", (times_a, times_b))
        return merged

    @cached_property
    def times(self) -> np.ndarray:
        times = np.empty(self.is_a.size)
        times[self.is_a], times[~self.is_a] = self._legs
        times.flags.writeable = False
        return times

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
        return int(self.is_a.size)

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
    t1, t2 = s1.times, s2.times
    from_1 = np.ones(t1.size + t2.size, dtype=bool)
    for b in blocks(t2.size):
        # merge position of each leg-2 time: the leg-1 times up to it plus
        # its own index.  The last of those leg-1 times is a tie when it
        # equals it (index -1 where there is none: the last leg-1 time,
        # which is larger)
        at = np.searchsorted(t1, t2[b], side="right")
        tied = t1[at - 1] == t2[b]
        if tied.any():
            raise CrossSeriesTie(f"time {float(t2[b][tied][0])!r} appears in both series")
        at += np.arange(b.start, b.stop)
        from_1[at] = False
    if s1.label == "A":
        is_a, legs = from_1, (t1, t2)
    else:
        is_a, legs = np.logical_not(from_1, out=from_1), (t2, t1)
    is_a.flags.writeable = False
    return LabelSequence._of_legs(is_a, *legs)


@dataclass(frozen=True, eq=False)
class OverlapSet:
    """All interval index pairs ``(i, j)`` whose intervals intersect.

    Pairs are 1-based and sorted lexicographically; for two partitions of
    the line they always form a monotone staircase, so sorting by ``i``
    and by ``j`` coincide.
    """

    pairs: np.ndarray

    def __post_init__(self) -> None:
        pairs = _frozen_array(self.pairs, np.int64).reshape(-1, 2)
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
    this one range, except the label rule's, which reads labels only.
    """
    return (
        np.searchsorted(t_opp, starts, side="right"),
        np.searchsorted(t_opp, ends, side="left"),
    )


def range_blocks(
    t_opp: np.ndarray, t: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """:func:`overlap_ranges` of the intervals ``(t[k], t[k + 1]]``, a block of
    ``k`` at a time: ``(block, first, last)``."""
    for b in blocks(t.size - 1):
        yield b, *overlap_ranges(t_opp, t[b], t[_next(b)])


def clip_ranges(
    first: np.ndarray, last: np.ndarray, m_opp: int
) -> tuple[np.ndarray, np.ndarray]:
    """First opposite interval met and how many are met, per raw range.

    ``lo = max(1, first)`` and ``count = max(0, min(M, last) - lo + 1)``;
    the met intervals are ``lo .. lo + count - 1``, and ``lo - 1`` is
    always a valid opposite point index.  ``lo`` and ``count`` are written
    over ``first`` and ``last``.
    """
    lo = np.maximum(first, 1, out=first)
    count = np.minimum(last, m_opp, out=last)
    count -= lo
    count += 1
    return lo, np.maximum(count, 0, out=count)


def safe_median(x: np.ndarray) -> float:
    """Median of finite, non-empty 1-D ``x``, with no overflow where the middle two add.

    Bit for bit ``2 * np.median(x / 2)``: the halves' middle one or two
    order statistics come from ``np.partition`` and are averaged by
    ``ndarray.mean``, as ``np.median`` does, without ``np.median``'s
    import of ``numpy.ma`` on its first call.
    """
    half = np.asarray(x, dtype=float) / 2
    if half.size == 0:
        raise ValueError("median of an empty array")
    mid, odd = divmod(half.size, 2)
    half.partition(mid if odd else (mid - 1, mid))
    return 2 * float(half[mid - 1 + odd:mid + 1].mean())


def tie_mask(sorted_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which values of ``b`` ascending ``sorted_a`` holds: ``np.isin(b, sorted_a)``
    without its import of ``numpy.ma``."""
    if sorted_a.size == 0:
        return np.zeros(b.shape, dtype=bool)
    return sorted_a[np.minimum(np.searchsorted(sorted_a, b), sorted_a.size - 1)] == b


def first_shared_time(sorted_a: np.ndarray, sorted_b: np.ndarray):
    """First value of ascending ``sorted_b`` also in ascending ``sorted_a``, or None."""
    k = _first_true(sorted_b.size, lambda b: tie_mask(sorted_a, sorted_b[b]))
    return None if k is None else sorted_b[k]


def _met_ranges(
    s1: ObservationSeries, s2: ObservationSeries
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leg-1 intervals (0-based) that meet leg 2 and their :func:`clip_ranges`,
    ``met, lo, count``: the staircase's columns of overlap pairs, in order."""
    t1 = s1.times
    lo, count = clip_ranges(*overlap_ranges(s2.times, t1[:-1], t1[1:]), s2.n_intervals)
    met = np.flatnonzero(count)
    if met.size < count.size:
        lo, count = lo[met], count[met]
    return met, lo, count


def enumerate_overlaps(s1: ObservationSeries, s2: ObservationSeries) -> OverlapSet:
    """Every pair ``(i, j)`` of intersecting intervals, in staircase order.

    Leg-1 interval ``i`` meets the leg-2 intervals of its
    :func:`overlap_ranges` range, so the pairs are each such range
    repeated out per ``i``, written straight into the one array the
    returned set holds.  Runs in O((|s1| + m) + |s1| log |s2|).
    """
    # each met leg-1 interval opens a run of pairs
    met, lo, count = _met_ranges(s1, s2)
    ends = np.cumsum(count)
    pairs = np.empty((int(ends[-1]) if ends.size else 0, 2), dtype=np.int64)
    i, j = pairs.T
    # each column is written as its steps and summed up in place.  Within
    # a run j counts up by one; a run opens at its own lo, a step from the
    # previous run's last j (lo + count - 1), and at its own i, a step of
    # the gap in met from the previous run's
    count += lo
    count -= 1
    lo[1:] -= count[:-1]
    del count
    j.fill(1)
    j[:1] = lo[:1]
    j[ends[:-1]] = lo[1:]
    del lo
    np.cumsum(j, out=j)
    i.fill(0)
    i[:1] = met[:1] + 1
    i[ends[:-1]] = np.diff(met)
    np.cumsum(i, out=i)
    pairs.flags.writeable = False
    return OverlapSet(pairs)

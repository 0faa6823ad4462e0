"""Shared brute-force oracles and instance generators for the tests.

Everything here is deliberately naive: these are the independent
reference implementations the fast code is checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hyf import (
    AdversaryConfig,
    ObservationSeries,
    RejectionBudgetExceeded,
    attach_random_walk,
    data_loss_ratio,
    detect_interval_rule,
    generate_inputs,
    generate_poisson,
    validate_series,
)
from hyf.adversary import MAX_RESAMPLES
from hyf.core import first_shared_time
from hyf.errors import ValidationError


def brute_overlap_pairs(t1, t2) -> list[tuple[int, int]]:
    """All overlapping (i, j) by scanning every combination."""
    out = []
    for i in range(1, len(t1)):
        for j in range(1, len(t2)):
            if t1[i] > t2[j - 1] and t2[j] > t1[i - 1]:
                out.append((i, j))
    return out


def brute_hy(s1: ObservationSeries, s2: ObservationSeries) -> float:
    """Double sum over all interval pairs, no sweep, no telescoping."""
    da = np.diff(s1.values)
    db = np.diff(s2.values)
    total = 0.0
    for i, j in brute_overlap_pairs(s1.times, s2.times):
        total += da[i - 1] * db[j - 1]
    return total


def algorithm1_count(t_self, t_other) -> int:
    """Literal nested-loop containment count over candidates 2..n-2.

    This is the quadratic reference for the detector's containment
    detections away from the second/penultimate positions.
    """
    n = len(t_self) - 1
    m = len(t_other) - 1
    c = 0
    for j in range(2, n - 1):
        lo, hi = t_self[j - 1], t_self[j + 1]
        for i in range(1, m + 1):
            if t_other[i - 1] <= lo and hi <= t_other[i]:
                c += 1
    return c


def naive_pattern_count(text: str, pattern: str) -> int:
    """Overlapping occurrence count by direct slicing."""
    return sum(
        1
        for k in range(len(text) - len(pattern) + 1)
        if text[k : k + len(pattern)] == pattern
    )


def finite_difference_coefficient(s1, s2, leg, index, hy, delta=1.0) -> float:
    """Slope of the estimator in one observation value; exact by affineness."""
    series = s1 if leg == s1.label else s2
    bumped = series.values.copy()
    bumped[index] += delta
    if leg == s1.label:
        return (hy(s1.with_values(bumped), s2) - hy(s1, s2)) / delta
    return (hy(s1, s2.with_values(bumped)) - hy(s1, s2)) / delta


def random_tie_free_pair(rng: np.random.Generator, max_points: int = 14):
    """Small random pair on integer grids; leg A even, leg B odd, so the
    merge order is never ambiguous."""
    na = int(rng.integers(2, max_points))
    nb = int(rng.integers(2, max_points))
    ta = 2 * np.cumsum(rng.integers(1, 6, size=na))
    tb = 2 * np.cumsum(rng.integers(1, 6, size=nb)) + 1
    va = rng.integers(-20, 21, size=na).astype(float)
    vb = rng.integers(-20, 21, size=nb).astype(float)
    return (
        validate_series(ta.astype(float), va, "A"),
        validate_series(tb.astype(float), vb, "B"),
    )


def random_aligned_labels(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Merged integer-grid times and A-labels of a boundary-aligned pair.

    The merge order of :func:`random_tie_free_pair` with its first two and
    last two labels set to one A and one B each, the alignment under which
    the label rule and the interval rule coincide.
    """
    s1, s2 = random_tie_free_pair(rng)
    times = np.concatenate([s1.times, s2.times])
    order = np.argsort(times)
    is_a = (np.arange(times.size) < s1.n_points)[order]
    first, last = rng.random(2) < 0.5
    is_a[:2] = (first, not first)
    is_a[-2:] = (not last, last)
    return times[order], is_a


def split_legs(times: np.ndarray, is_a: np.ndarray) -> tuple[ObservationSeries, ObservationSeries]:
    """Zero-valued legs A and B of a merged, labelled time sequence."""
    ta, tb = times[is_a], times[~is_a]
    return validate_series(ta, np.zeros(ta.size), "A"), validate_series(tb, np.zeros(tb.size), "B")


def random_tied_pair(rng: np.random.Generator, max_points: int = 14):
    """Small random pair on one shared integer grid, so timestamps may
    coincide across legs; one draw in four is fully synchronous."""
    na = int(rng.integers(2, max_points))
    ta = np.cumsum(rng.integers(1, 4, size=na))
    if rng.random() < 0.25:
        tb = ta.copy()
    else:
        tb = np.cumsum(rng.integers(1, 4, size=int(rng.integers(2, max_points))))
    va = rng.integers(-20, 21, size=ta.size).astype(float)
    vb = rng.integers(-20, 21, size=tb.size).astype(float)
    return (
        validate_series(ta.astype(float), va, "A"),
        validate_series(tb.astype(float), vb, "B"),
    )


def _runs(pairs: list[tuple[int, int]], k: int) -> tuple[int, int]:
    """Lengths of the same-j (row) and same-i (column) runs starting at k."""
    i0, j0 = pairs[k]
    r = k + 1
    while r < len(pairs) and pairs[r][1] == j0 and pairs[r][0] == pairs[r - 1][0] + 1:
        r += 1
    c = k + 1
    while c < len(pairs) and pairs[c][0] == i0 and pairs[c][1] == pairs[c - 1][1] + 1:
        c += 1
    return r - k, c - k


def _greedy_groups(pairs: list[tuple[int, int]]) -> list[tuple[str, int, int, int]]:
    """Partition staircase pairs into maximal telescoping runs.

    At each position take the longer of the row run (fixed j) and the
    column run (fixed i); ties go to the row.  Returns
    ``(axis, anchor, lo, hi)`` with lo..hi the swept indices.
    """
    groups: list[tuple[str, int, int, int]] = []
    k = 0
    while k < len(pairs):
        row_len, col_len = _runs(pairs, k)
        i0, j0 = pairs[k]
        if col_len > row_len:
            groups.append(("col", i0, j0, pairs[k + col_len - 1][1]))
            k += col_len
        else:
            groups.append(("row", j0, i0, pairs[k + row_len - 1][0]))
            k += row_len
    return groups


def _first_full_column(pairs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """Slice bounds of the column at the first upward corner, if any."""
    for k in range(len(pairs) - 1):
        if pairs[k + 1][0] == pairs[k][0] and pairs[k + 1][1] == pairs[k][1] + 1:
            i0 = pairs[k][0]
            end = k + 1
            while end + 1 < len(pairs) and pairs[end + 1][0] == i0:
                end += 1
            return k, end + 1
    return None


def loop_groups(pairs: list[tuple[int, int]], anchoring: str) -> list[tuple]:
    """Reference grouping of ``telescope_rows`` by the pair-by-pair loop."""
    extracted: list[tuple[str, int, int, int]] = []
    if anchoring == "alternative":
        bounds = _first_full_column(pairs)
        if bounds is not None:
            a, b = bounds
            extracted.append(("col", pairs[a][0], pairs[a][1], pairs[b - 1][1]))
            pairs = pairs[:a] + pairs[b:]
    groups = _greedy_groups(pairs) + extracted
    groups.sort(key=lambda g: (g[2], g[1]) if g[0] == "row" else (g[1], g[2]))
    return groups


def adversary_instance(trial: int, rate_a=1.0, rate_b=1.0, horizon=50.0, seed=97):
    """Accepted asynchronous pair with random-walk prices attached."""
    config = AdversaryConfig(rate_a=rate_a, rate_b=rate_b, horizon=horizon, seed=seed)
    s1, s2 = generate_inputs(config, trial=trial)
    return attach_random_walk(s1, s2, seed=seed, trial=trial)


def _leg_streams(seed: int, trial: int, attempt: int) -> tuple[np.random.Generator, np.random.Generator]:
    root = np.random.SeedSequence([int(seed), int(trial), int(attempt)])
    child_a, child_b = root.spawn(2)
    return np.random.default_rng(child_a), np.random.default_rng(child_b)


def _strictly_increasing(t: np.ndarray) -> bool:
    return bool(np.all(np.diff(t) > 0))


def boundary_aligned(ta: np.ndarray, tb: np.ndarray) -> bool:
    """Whether the first overlapping pair is (1, 1) and the last (M1, M2)."""
    return bool(
        ta[1] > tb[0]
        and ta[0] < tb[1]
        and ta[-1] > tb[-2]
        and ta[-2] < tb[-1]
    )


def reference_generate_poisson(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """``generate_poisson`` written out with a new array per step: chunks of
    ``reached + cumsum(-log(u) / rate)`` until past the horizon, masked."""
    expected = rate * horizon
    chunk = max(16, int(expected + 10.0 * math.sqrt(expected) + 10.0))
    parts, reached = [], 0.0
    while reached <= horizon:
        u = rng.random(chunk)
        u[u == 0.0] = np.finfo(float).tiny
        parts.append(reached + np.cumsum(-np.log(u) / rate))
        reached = float(parts[-1][-1])
    times = np.concatenate(parts)
    return times[times <= horizon]


def reference_tie_jitter(times_a: np.ndarray, times_b: np.ndarray) -> np.ndarray:
    """The CLI's ``--jitter`` nudge one tied time at a time, with ``np.isin``
    finding the tied times and the least merged time above each one
    bounding its nudge."""
    merged = np.sort(np.concatenate([times_a, times_b]))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(merged)
        gaps = gaps[(gaps > 0) & (gaps < np.inf)]
        if gaps.size == 0:
            return times_b
        eps = 1e-9 * 2 * float(np.median(gaps / 2))
        out = times_b.copy()
        for k in np.flatnonzero(np.isin(out, times_a)):
            t = out[k]
            out[k] = max(t + eps, np.nextafter(t, np.inf))
            above = merged[merged > t]
            if above.size and out[k] >= above.min():
                out[k] = np.nextafter(above.min(), -np.inf)
                if out[k] <= t:
                    raise ValidationError(
                        f"--jitter cannot break the tie at time {float(t)!r}: no float "
                        f"lies between it and the next time {float(above.min())!r}")
    return out


def two_leg_generate_inputs(
    config: AdversaryConfig,
    trial: int = 0,
) -> tuple[ObservationSeries, ObservationSeries]:
    """Reference generator: two independent legs, redrawn until aligned.

    Each attempt draws leg A and leg B from their own spawned stream and
    keeps the pair only when it is tie-free and boundary aligned, which is
    the definition the superposed generator in ``hyf`` must reproduce in
    distribution.
    """
    for attempt in range(MAX_RESAMPLES):
        rng_a, rng_b = _leg_streams(config.seed, trial, attempt)
        ta = generate_poisson(config.rate_a, config.horizon, rng_a)
        tb = generate_poisson(config.rate_b, config.horizon, rng_b)
        if ta.size < 2 or tb.size < 2:
            continue
        if not (_strictly_increasing(ta) and _strictly_increasing(tb)):
            continue
        if first_shared_time(ta, tb) is not None:
            continue
        if not boundary_aligned(ta, tb):
            continue
        return (
            ObservationSeries(ta, np.zeros(ta.size), "A"),
            ObservationSeries(tb, np.zeros(tb.size), "B"),
        )
    raise RejectionBudgetExceeded(
        f"no accepted draw in {MAX_RESAMPLES} resamples "
        f"(rates {config.rate_a}, {config.rate_b}, horizon {config.horizon})"
    )


def exact_interior_loss(rate_a: float, rate_b: float, horizon: float) -> float:
    """Exact finite-horizon mean of ``f_interior / m`` for aligned pairs.

    Given the merged count ``N``, the labels are i.i.d. A with probability
    ``p``; an aligned pair has one A and one B in each end pair, each order
    equally likely, and ``m = N - 3``.  Merged position ``k`` (0-based) is a
    same-label-triple middle only for ``2 <= k <= N - 3``.  Its triple has
    i.i.d. labels away from the ends, giving ``p^3 + q^3``; a neighbour in
    an end pair is a fair coin, giving ``(p^2 + q^2) / 2`` with one such
    neighbour and ``1/4`` with two (only at ``N = 5``).  ``N`` is Poisson
    with mean ``(a + b) T`` conditioned on ``N >= 4``.
    """
    p = rate_a / (rate_a + rate_b)
    q = 1.0 - p
    lam = (rate_a + rate_b) * horizon
    top = int(lam + 15.0 * math.sqrt(lam) + 50.0)
    numerator = denominator = 0.0
    for n in range(4, top + 1):
        weight = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
        mean_f = 0.0
        for k in range(2, n - 2):
            coin_neighbours = (k - 1 <= 1) + (k + 1 >= n - 2)
            if coin_neighbours == 0:
                mean_f += p**3 + q**3
            elif coin_neighbours == 1:
                mean_f += (p**2 + q**2) / 2
            else:
                mean_f += 0.25
        numerator += weight * mean_f / (n - 3)
        denominator += weight
    return numerator / denominator


def expected_label_count(n: int, p: float, boundary_mode: str) -> float:
    """Exact ``E[f | N = n]`` of an aligned label string in either mode.

    Interior mode gives 0, 1/4 and ``(n - 6)(p^3 + q^3) + (p^2 + q^2)`` for
    ``n = 4``, 5 and ``n >= 6`` (see :func:`exact_interior_loss`).  Total
    mode adds the edge fallbacks.  At ``n = 5`` with labels
    ``x, ~x, c, ~y, y`` exactly one of four patterns fires, whichever of
    ``x`` and ``y`` equal ``c``: the first edge, the last edge, the
    alternating string or the interior middle, so ``f = 1``.  For ``n >= 6``
    each edge triple holds one fair coin and two i.i.d. interior labels and
    fires with probability ``(p^2 + q^2) / 2``.
    """
    q = 1.0 - p
    total = boundary_mode == "total"
    if n == 4:
        return 0.0
    if n == 5:
        return 1.0 if total else 0.25
    return (n - 6) * (p**3 + q**3) + (p**2 + q**2) * (2 if total else 1)


def exact_mean_loss(rate_a: float, rate_b: float, horizon: float, boundary_mode: str) -> float:
    """Exact finite-horizon mean of ``f / m`` in either mode, O(1) work per N:
    :func:`expected_label_count` over ``N - 3`` with ``N`` Poisson of mean
    ``(a + b) T`` conditioned on ``N >= 4``."""
    p = rate_a / (rate_a + rate_b)
    lam = (rate_a + rate_b) * horizon
    top = int(lam + 15.0 * math.sqrt(lam) + 50.0)
    numerator = denominator = 0.0
    for n in range(4, top + 1):
        weight = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
        numerator += weight * expected_label_count(n, p, boundary_mode) / (n - 3)
        denominator += weight
    return numerator / denominator


def per_trial_experiment(
    config: AdversaryConfig, runs: int, boundary_mode: str
) -> tuple[float, float]:
    """Reference Monte Carlo, one trial at a time: every trial builds both
    series from its own ``(seed, trial)`` stream and runs the interval rule.

    This reproduces exactly the numbers of the per-trial engine that
    ``run_experiment`` used before it drew trials in blocks.  Returns
    ``(mean_loss, std_loss)`` as ``run_experiment`` reports them.
    """
    include = boundary_mode == "total"
    losses = np.empty(runs, dtype=float)
    for trial in range(runs):
        s1, s2 = generate_inputs(config, trial=trial)
        report = detect_interval_rule(s1, s2, include_boundary=include)
        losses[trial] = data_loss_ratio(report)
    return float(losses.mean()), float(losses.std(ddof=1))


def aligned_label_strings(n_min: int, n_max: int):
    """Every boundary-aligned A/B label string (``True`` = A) of length
    ``n_min..n_max >= 4``: the first two and the last two labels differ,
    the interior is free, so each leg has at least two points."""
    for n in range(n_min, n_max + 1):
        for first, last in itertools.product((False, True), repeat=2):
            for inner in itertools.product((False, True), repeat=n - 4):
                yield np.array([first, not first, *inner, not last, last])


def label_count(is_a: np.ndarray, include_boundary: bool) -> int:
    """Reference label-rule ``f`` of one aligned string, by scalar tests:
    same-label triple middles, plus edge fallbacks where labels 0, 2, 3 (or
    -1, -3, -4) agree or N = 5 labels alternate."""
    same = is_a[1:] == is_a[:-1]
    f = int(np.count_nonzero(same[1:] & same[:-1]))
    if include_boundary:
        f += int(is_a[2] == is_a[0] == is_a[3]) + int(is_a[-3] == is_a[-1] == is_a[-4])
        f += int(is_a.size == 5 and is_a[0] == is_a[2] == is_a[4])
    return f


# The full-array versions of the per-tick kernels, as they were before the
# package ran them a block at a time: each builds its temporaries over a
# whole leg.  The blocked kernels must give the same bits, counts, index
# sets and messages.


def _full_ranges(t_opp, t, m_opp):
    """Clipped ``(lo, count)`` of every interval ``(t[k], t[k + 1]]``."""
    first = np.searchsorted(t_opp, t[:-1], side="right")
    last = np.searchsorted(t_opp, t[1:], side="left")
    lo = np.maximum(first, 1)
    return lo, np.maximum(np.minimum(last, m_opp) - lo + 1, 0)


def full_array_covariance(s1: ObservationSeries, s2: ObservationSeries) -> float:
    """The correctly rounded sum of every per-interval product, from whole-leg arrays."""
    lo, count = _full_ranges(s2.times, s1.times, s2.n_intervals)
    v = s2.values
    with np.errstate(over="ignore", invalid="ignore"):
        return math.fsum((s1.increments * (v[lo + count - 1] - v[lo - 1])).tolist())


def full_array_overlap_count(s1: ObservationSeries, s2: ObservationSeries) -> int:
    return int(_full_ranges(s1.times, s2.times, s1.n_intervals)[1].sum())


def full_array_counts(s1: ObservationSeries, s2: ObservationSeries, anchoring: str) -> tuple[int, int]:
    """``(raw_count, grouped_count)`` of ``telescope_rows`` from whole-staircase
    arrays: the rows, each row's turn, the step runs and the swallowed runs."""
    lo, count = _full_ranges(s2.times, s1.times, s2.n_intervals)
    met = count > 0
    lo, count = lo[met], count[met]
    turn = np.full(lo.size, 2, dtype=np.int8)
    turn[:-1][lo[1:] == lo[:-1] + count[:-1] - 1] = 0
    column = 0
    wide = count > 1
    if anchoring == "alternative" and wide.any():
        r = int(np.argmax(wide))
        turn = np.delete(turn, r)
        turn[r - 1:r] = 2
        rows, column = np.delete(count, r), 1
    else:
        rows = count
    wide = rows > 1
    opens = np.ones(turn.size, dtype=bool)
    opens[1:] = turn[1:] != turn[:-1]
    opens |= wide
    slots = np.full((turn.size, 2), -1, dtype=np.int8)
    slots[wide, 0] = 1
    slots[opens, 1] = turn[opens]
    kind = slots[slots >= 0]
    length = np.empty(kind.size, dtype=np.int64)
    length[kind == 1] = rows[wide] - 1
    length[kind != 1] = np.diff(np.flatnonzero(opens), append=turn.size)
    telescoping = kind < 2
    fixed = np.arange(kind.size)
    fixed[1:][telescoping[:-1] & (length[:-1] == 1)] = 0
    np.maximum.accumulate(fixed, out=fixed)
    swallowed = np.zeros(kind.size, dtype=np.int8)
    swallowed[1:] = telescoping[:-1]
    swallowed = (swallowed[fixed] ^ (fixed & 1) ^ (np.arange(kind.size) & 1)).astype(bool)
    groups = np.count_nonzero(telescoping) - np.count_nonzero(telescoping & swallowed & (length == 1))
    groups += length[~telescoping].sum() - np.count_nonzero(swallowed[~telescoping])
    return int(count.sum()), int(groups) + column


def _full_rule_side(met, contained):
    edges = np.array(sorted({1, contained.size}) if contained.size else [], dtype=np.int64)
    at = edges - 1
    return np.flatnonzero(contained) + 1, edges[~contained[at] & (met[at] == 1)]


def _full_report(leg1, leg2, m, include_boundary):
    """``(nonextant_1, nonextant_2, f_interior, f_total, m)`` with lists for index sets."""
    def indices(leg):
        interior, boundary = leg
        return sorted([*interior.tolist(), *(boundary.tolist() if include_boundary else [])])
    n1, n2 = indices(leg1), indices(leg2)
    return n1, n2, len(leg1[0]) + len(leg2[0]), len(n1) + len(n2), m


def full_array_interval_rule(s1, s2, include_boundary: bool):
    """The interval rule with the second/penultimate exactly-one-overlap fallback,
    from spans ``(t[j-1], t[j+1]]``; it equals the coefficient oracle on
    boundary-aligned pairs only."""
    def side(series, opposite):
        t = series.times
        first = np.searchsorted(opposite.times, t[:-2], side="right")
        last = np.searchsorted(opposite.times, t[2:], side="left")
        met = np.maximum(np.minimum(last, opposite.n_intervals) - np.maximum(first, 1) + 1, 0)
        return _full_rule_side(met, (first == last) & (met == 1))
    return _full_report(side(s1, s2), side(s2, s1), full_array_overlap_count(s1, s2),
                        include_boundary)


def full_array_label_rule(is_a: np.ndarray, include_boundary: bool):
    """The label rule as :func:`full_array_interval_rule`, from merge positions."""
    m_a, m_b = int(np.count_nonzero(is_a)) - 1, int(np.count_nonzero(~is_a)) - 1

    def side(own, m_opp):
        before = np.flatnonzero(own) - np.arange(np.count_nonzero(own))
        first, last = before[:-2], before[2:]
        met = np.maximum(np.minimum(last, m_opp) - np.maximum(first, 1) + 1, 0)
        return _full_rule_side(met, first == last)
    before_a = np.flatnonzero(is_a) - np.arange(m_a + 1)
    lo = np.maximum(before_a[:-1], 1)
    m = int(np.maximum(np.minimum(before_a[1:], m_b) - lo + 1, 0).sum())
    return _full_report(side(is_a, m_b), side(~is_a, m_a), m, include_boundary)


def full_array_merge(s1: ObservationSeries, s2: ObservationSeries) -> tuple[np.ndarray, np.ndarray]:
    """Merged times and leg-1 flags from every leg-2 merge position at once."""
    at = np.searchsorted(s1.times, s2.times, side="right") + np.arange(s2.n_points)
    from_1 = np.ones(s1.n_points + s2.n_points, dtype=bool)
    from_1[at] = False
    times = np.empty(from_1.size)
    times[at] = s2.times
    times[from_1] = s1.times
    return times, from_1


def full_array_series_error(times, values, label: str) -> str | None:
    """The message of the first defect the series checks find, from whole-leg
    increments and gaps (None for a valid leg of two points or more)."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if not np.isfinite(times).all():
        return f"leg {label}: non-finite observation time"
    with np.errstate(over="ignore", invalid="ignore"):
        increments = values[1:] - values[:-1]
        gaps = times[1:] - times[:-1]
    if not np.isfinite(increments).all():
        finite = np.isfinite(values)
        if not finite.all():
            k = int(np.argmin(finite))
            return f"leg {label}: non-finite value {float(values[k])!r} at position {k}"
        k = int(np.argmin(np.isfinite(increments))) + 1
        return (f"leg {label}: increment from {float(values[k - 1])!r} to "
                f"{float(values[k])!r} at position {k} overflows")
    if not np.all(gaps > 0):
        k = int(np.argmax(gaps <= 0)) + 1
        return (f"leg {label}: time {float(times[k])!r} at position {k} does not "
                f"increase past {float(times[k - 1])!r}")
    return None


def full_array_aligned_labels(rng: np.random.Generator, sizes: np.ndarray, p: float) -> np.ndarray:
    """The aligned label strings with every label's uniform drawn in one call."""
    is_a = rng.random(int(sizes.sum())) < p
    ends = np.cumsum(sizes)
    starts = ends - sizes
    first_a, last_a = rng.random((2, sizes.size)) < 0.5
    is_a[starts] = first_a
    is_a[starts + 1] = ~first_a
    is_a[ends - 2] = ~last_a
    is_a[ends - 1] = last_a
    return is_a

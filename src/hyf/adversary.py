"""Asynchronous input generation from two independent Poisson processes.

Two independent homogeneous Poisson legs with rates ``a`` and ``b`` on
``(0, T]`` are one rate-``(a+b)`` process whose points are labelled A
independently with probability ``a/(a+b)``.  The generator draws that
superposed process once, marks its labels, and makes the first two and
the last two merged points one A and one B, which is the boundary
alignment: the first overlapping interval pair is (1, 1) and the last is
(M1, M2).  Accepted pairs therefore satisfy ``m = n_points_total - 3``.

Every random draw of one trial comes from one stream keyed by ``(seed,
trial, attempt)``, and every draw of a block of label strings from one
stream keyed by ``(seed, block)``, so results do not depend on the order
in which trials or blocks run.  ``loss-table`` draws trials 0 and 1 of a
cell once each, as series, and every other trial in label blocks.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ObservationSeries, _first_true, _integer, _next, blocks
from .errors import NonPositiveRate, RejectionBudgetExceeded

DEFAULT_SEED = 1729

# substream key for price attachment, clear of any attempt index
_VALUE_STREAM_KEY = 1 << 32

# substream key of draw_label_block, clear of every trial index (below
# 2**32, as _index checks) and of _VALUE_STREAM_KEY
_BATCH_STREAM_KEY = 1 << 33

# largest expected point count (a+b)·T one draw may ask for; a draw of
# 1e8 points holds several 800 MB float64 arrays at once
MAX_EXPECTED_POINTS = 1e8

# draws per trial before RejectionBudgetExceeded
MAX_RESAMPLES = 1000

_TINY = np.finfo(float).tiny  # keeps a uniform draw inside (0, 1)


def _index(value, what: str, bits: int = 32) -> int:
    """``value`` as a stream-key integer in ``[0, 2**bits)``; anything else
    is a :class:`ValueError` (see :func:`hyf.core._integer`)."""
    value = _integer(value, what)
    if not 0 <= value < 2**bits:
        raise ValueError(f"{what} must be in [0, 2**{bits}), got {value}")
    return value


def _real(value, what: str) -> None:
    """Raise :class:`ValueError` naming ``what`` unless ``value`` is a real
    number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")


@dataclass(frozen=True)
class AdversaryConfig:
    """Rates, horizon and seed of the (a, b)-adversary, checked here alone.

    Parameters
    ----------
    rate_a, rate_b : float
        Events per time unit for legs A and B; positive, with a finite sum.
    horizon : float
        Length of the observation window ``(0, T]``; positive, with
        ``(a+b)·T`` at most :data:`MAX_EXPECTED_POINTS`.
    seed : int
        Master seed, a 64-bit unsigned integer.

    Raises :class:`NonPositiveRate` for a rate that is not positive and
    finite, and :class:`ValueError` for any other field out of range or of
    the wrong type: the rates and horizon must be real numbers, not bools,
    and the rates' sum must not overflow.
    """

    rate_a: float
    rate_b: float
    horizon: float
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("rate_a", "rate_b", "horizon"):
            _real(getattr(self, name), name)
        if self.rate_a <= 0 or self.rate_b <= 0:
            raise NonPositiveRate(
                f"rates must be positive, got ({self.rate_a}, {self.rate_b})"
            )
        if not (math.isfinite(self.rate_a) and math.isfinite(self.rate_b)):
            raise NonPositiveRate(
                f"rates must be positive and finite, got ({self.rate_a}, {self.rate_b})"
            )
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        total = self.rate_a + self.rate_b
        if not math.isfinite(total):
            raise ValueError(f"rate_a + rate_b must be finite, got {total}")
        if not total * self.horizon <= MAX_EXPECTED_POINTS:
            raise ValueError(
                f"expected point count (rate_a + rate_b) * horizon = {total * self.horizon:g} "
                f"exceeds the generator cap of {MAX_EXPECTED_POINTS:g}"
            )
        _index(self.seed, "seed", 64)


def generate_poisson(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """First ``horizon`` time units of a homogeneous Poisson process.

    Inter-arrival times are inverse-CDF exponentials ``-ln(u)/rate`` with
    ``u`` uniform on the open unit interval; arrivals past the horizon
    are dropped.  May return an empty array when ``rate * horizon`` is
    tiny.

    Raises :class:`NonPositiveRate` unless ``rate`` is positive and
    finite, and :class:`ValueError` unless ``horizon`` is, or when the
    expected count ``rate * horizon`` exceeds :data:`MAX_EXPECTED_POINTS`.
    """
    if not 0 < rate < math.inf:
        raise NonPositiveRate(f"rate must be positive and finite, got {rate}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    expected = rate * horizon
    if not expected <= MAX_EXPECTED_POINTS:
        raise ValueError(
            f"expected point count rate * horizon = {expected:g} "
            f"exceeds the generator cap of {MAX_EXPECTED_POINTS:g}"
        )
    chunk = max(16, int(expected + 10.0 * math.sqrt(expected) + 10.0))
    parts: list[np.ndarray] = []
    reached = 0.0
    # below a rate of about 1e-306 a gap overflows to inf, past any horizon
    with np.errstate(over="ignore"):
        while True:
            # reached + cumsum(-log(u) / rate), computed in the draw's array;
            # a uniform is 0 or at least 2**-53, so the maximum moves only
            # zeros, and takes no mask the size of the draw
            arrivals = rng.random(chunk)
            np.maximum(arrivals, _TINY, out=arrivals)
            np.log(arrivals, out=arrivals)
            np.negative(arrivals, out=arrivals)
            arrivals /= rate
            np.cumsum(arrivals, out=arrivals)
            arrivals += reached
            parts.append(arrivals)
            reached = float(arrivals[-1])
            if reached > horizon:
                break
    times = np.concatenate(parts) if len(parts) > 1 else parts[0]
    # arrivals never decrease, so those within the horizon are a prefix
    return times[:np.searchsorted(times, horizon, side="right")]


def draw_labels(config: AdversaryConfig, trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Merged times and A-labels ``(times, is_a)`` of one accepted pair.

    The superposed draw is exact for the boundary-aligned pairs of two
    independent legs: for every merged count ``N >= 4`` the alignment
    event (first two and last two labels differ) has probability
    ``(2pq)^2``, ``p = a/(a+b)``, and involves only the four end labels.
    Conditioning on it therefore leaves ``N`` Poisson given ``N >= 4``,
    the interior labels i.i.d., and each end pair AB or BA with
    probability ``pq / 2pq = 1/2``.  Only ``N < 4`` and float ties in the
    times lead to a redraw; ``N >= 4`` gives each leg two points or more.

    Raises :class:`ValueError` unless ``trial`` is an integer in
    ``[0, 2**32)``, and :class:`RejectionBudgetExceeded` when none of
    :data:`MAX_RESAMPLES` draws has four merged points (typically a sign
    that ``rate * horizon`` is too small).
    """
    trial = _index(trial, "trial")
    p = config.rate_a / (config.rate_a + config.rate_b)
    for attempt in range(MAX_RESAMPLES):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), trial, attempt])
        )
        times = generate_poisson(config.rate_a + config.rate_b, config.horizon, rng)
        # the tie check a block at a time: a freed mask the size of the
        # draw would raise glibc's mmap threshold, and the labels would
        # then leave a hole of their size in the heap
        if times.size < 4 or _first_true(times.size - 1,
                                         lambda b: times[_next(b)] <= times[b]) is not None:
            continue
        return times, _aligned_labels(rng, np.array([times.size]), p)
    raise _budget_exceeded(config)


def draw_label_block(
    config: AdversaryConfig, block: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """A-labels of ``size`` accepted pairs, concatenated, and each pair's count N.

    The label distribution of :func:`draw_labels` without the times: N is
    Poisson((a+b)T) redrawn while below 4, the labels are i.i.d. A with
    probability ``p``, and each end pair is AB or BA by a fair coin.  Given
    N the times play no part in any label count, and ties among them have
    probability zero, so they are not drawn.  Every draw comes from one
    stream keyed by ``(seed, block)``.

    Raises :class:`ValueError` unless ``block`` is an integer in
    ``[0, 2**32)``, and :class:`RejectionBudgetExceeded` when some pair has
    no count of four or more in :data:`MAX_RESAMPLES` draws.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed), _BATCH_STREAM_KEY, _index(block, "block")])
    )
    expected = (config.rate_a + config.rate_b) * config.horizon
    sizes = rng.poisson(expected, size)
    short = np.flatnonzero(sizes < 4)
    for _ in range(MAX_RESAMPLES - 1):
        if not short.size:
            break
        sizes[short] = rng.poisson(expected, short.size)
        short = short[sizes[short] < 4]
    if short.size:
        raise _budget_exceeded(config)
    return _aligned_labels(rng, sizes, config.rate_a / (config.rate_a + config.rate_b)), sizes


def _aligned_labels(rng: np.random.Generator, sizes: np.ndarray, p: float) -> np.ndarray:
    """Concatenated A-labels of aligned strings of lengths ``sizes`` (each 4 or more):
    each label A with probability ``p``, then each string's first and last pair
    AB or BA by fair coins, all first coins before all last ones.  The labels'
    uniforms are drawn a block at a time, which gives the same doubles."""
    is_a = np.empty(int(sizes.sum()), dtype=bool)
    for b in blocks(is_a.size):
        np.less(rng.random(b.stop - b.start), p, out=is_a[b])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    first_a, last_a = rng.random((2, sizes.size)) < 0.5
    is_a[starts] = first_a
    is_a[starts + 1] = ~first_a
    is_a[ends - 2] = ~last_a
    is_a[ends - 1] = last_a
    return is_a


def _budget_exceeded(config: AdversaryConfig) -> RejectionBudgetExceeded:
    return RejectionBudgetExceeded(
        f"no accepted draw in {MAX_RESAMPLES} resamples "
        f"(rates {config.rate_a}, {config.rate_b}, horizon {config.horizon})"
    )


def generate_inputs(
    config: AdversaryConfig, trial: int = 0
) -> tuple[ObservationSeries, ObservationSeries]:
    """One accepted input pair: :func:`draw_labels` split by label.

    Leg B's times are copied out of the merged draw; leg A's are moved to
    the front of the draw's own buffer, a block at a time, and the buffer
    is shrunk to them, so the draw and both legs are never held at once.
    Values are zero, as the cancellation structure depends on the times
    only; :func:`attach_random_walk` fills in continuous prices.  They are
    allocated after the split, and never written.  Raises what
    :func:`draw_labels` raises.
    """
    times, is_a = draw_labels(config, trial)
    is_b = np.logical_not(is_a, out=is_a)
    leg_b = times[is_b]
    # generate_poisson's times are a prefix of the array it drew, which
    # owns its memory
    leg_a = times.base
    n_a = 0
    for block in blocks(times.size):
        # a copy, so the block is read before any of it is overwritten
        part = times[block][~is_b[block]]
        leg_a[n_a:n_a + part.size] = part
        n_a += part.size
    del times, is_a, is_b
    # the view of the buffer is gone, and the buffer stays owned
    leg_a.resize(n_a, refcheck=False)
    legs = []
    for label, leg in (("A", leg_a), ("B", leg_b)):
        # frozen here, the new arrays are handed over without a copy
        values = np.zeros(leg.size)
        leg.flags.writeable = values.flags.writeable = False
        legs.append(ObservationSeries(leg, values, label))
    return legs[0], legs[1]


def attach_random_walk(
    s1: ObservationSeries | None,
    s2: ObservationSeries | None,
    seed: int,
    trial: int = 0,
) -> tuple[ObservationSeries | None, ObservationSeries | None]:
    """Fill both legs with standard-normal random-walk prices.

    A leg given as None is not drawn and comes back as None.  Each leg
    draws from a stream of its own, so the other leg's walk is bit-equal
    to its walk in the pair, and the process that writes a leg can draw
    that leg's walk alone.  Raises :class:`ValueError` unless ``seed`` is a 64-bit unsigned
    integer and ``trial`` an integer in ``[0, 2**32)``.
    """
    root = np.random.SeedSequence(
        [_index(seed, "seed", 64), _index(trial, "trial"), _VALUE_STREAM_KEY])
    child_a, child_b = root.spawn(2)
    legs = []
    for series, child in ((s1, child_a), (s2, child_b)):
        if series is None:
            legs.append(None)
            continue
        values = np.random.default_rng(child).standard_normal(series.n_points)
        np.cumsum(values, out=values)
        # frozen here, the walk is handed over without a copy; the times
        # are shared with ``series``
        values.flags.writeable = False
        legs.append(series.with_values(values))
    return legs[0], legs[1]


def theoretical_loss(a: float, b: float) -> float:
    """Expected long-run nonextant fraction ``(a/(a+b))^3 + (b/(a+b))^3``.

    Symmetric, scale invariant, and minimised at 1/4 exactly when the
    rates are equal.  The shares are formed from rate ratios, never from
    ``a + b``, which overflows for rates near the float maximum.  Raises
    :class:`ValueError` for a rate that is a bool or not a real number, and
    :class:`NonPositiveRate` for one that is not positive and finite.
    """
    _real(a, "a")
    _real(b, "b")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise NonPositiveRate(f"rates must be positive and finite, got ({a}, {b})")
    p = 1.0 / (1.0 + b / a)
    q = 1.0 / (1.0 + a / b)
    return p**3 + q**3

"""Asynchronous input generation from two independent Poisson processes.

Two independent homogeneous Poisson legs with rates ``a`` and ``b`` on
``(0, T]`` are one rate-``(a+b)`` process whose points are labelled A
independently with probability ``a/(a+b)``.  The generator draws that
superposed process once, marks its labels, and makes the first two and
the last two merged points one A and one B, which is the boundary
alignment: the first overlapping interval pair is (1, 1) and the last is
(M1, M2).  Accepted pairs therefore satisfy ``m = n_points_total - 3``.

Every random draw comes from one stream keyed by ``(seed, trial,
attempt)``, so concurrent trials reproduce bit-identical results
regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObservationSeries
from .errors import NonPositiveRate, RejectionBudgetExceeded

DEFAULT_SEED = 1729

# substream key for price attachment, clear of any attempt index
_VALUE_STREAM_KEY = 1 << 32

# largest expected point count (a+b)·T one draw may ask for; a draw of
# 1e8 points holds several 800 MB float64 arrays at once
MAX_EXPECTED_POINTS = 1e8


def check_generator_load(rate_a: float, rate_b: float, horizon: float) -> None:
    """Reject rates and a horizon whose draw cannot be made.

    Raises ``ValueError`` when ``rate_a + rate_b`` is not finite or the
    expected point count ``(rate_a + rate_b) * horizon`` exceeds
    :data:`MAX_EXPECTED_POINTS`.
    """
    total = rate_a + rate_b
    if not math.isfinite(total):
        raise ValueError(f"rate_a + rate_b must be finite, got {total}")
    if not total * horizon <= MAX_EXPECTED_POINTS:
        raise ValueError(
            f"expected point count (rate_a + rate_b) * horizon = {total * horizon:g} "
            f"exceeds the generator cap of {MAX_EXPECTED_POINTS:g}"
        )


@dataclass(frozen=True)
class AdversaryConfig:
    """Rates, horizon and seeding for the two-leg Poisson generator.

    Parameters
    ----------
    rate_a, rate_b : float
        Events per time unit for legs A and B; strictly positive.
    horizon : float
        Length of the observation window ``(0, T]``; see
        :func:`check_generator_load` for the cap on ``(a+b)·T``.
    seed : int
        Master seed, a 64-bit unsigned integer.
    min_points : int
        Minimum accepted number of observations per leg (>= 2).
    max_resamples : int
        Rejection budget per trial before giving up.
    """

    rate_a: float
    rate_b: float
    horizon: float
    seed: int = DEFAULT_SEED
    min_points: int = 2
    max_resamples: int = 1000

    def __post_init__(self) -> None:
        if self.rate_a <= 0 or self.rate_b <= 0:
            raise NonPositiveRate(
                f"rates must be positive, got ({self.rate_a}, {self.rate_b})"
            )
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        check_generator_load(self.rate_a, self.rate_b, self.horizon)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.min_points < 2:
            raise ValueError("min_points must be at least 2")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be at least 1")


def generate_poisson(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """First ``horizon`` time units of a homogeneous Poisson process.

    Inter-arrival times are inverse-CDF exponentials ``-ln(u)/rate`` with
    ``u`` uniform on the open unit interval; arrivals past the horizon
    are dropped.  May return an empty array when ``rate * horizon`` is
    tiny.
    """
    if rate <= 0:
        raise NonPositiveRate(f"rate must be positive, got {rate}")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    expected = rate * horizon
    chunk = max(16, int(expected + 10.0 * math.sqrt(expected) + 10.0))
    parts: list[np.ndarray] = []
    reached = 0.0
    while True:
        u = rng.random(chunk)
        u[u == 0.0] = np.finfo(float).tiny  # keep u inside (0, 1)
        arrivals = reached + np.cumsum(-np.log(u) / rate)
        parts.append(arrivals)
        reached = float(arrivals[-1])
        if reached > horizon:
            break
    times = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return times[times <= horizon]


def draw_labels(config: AdversaryConfig, trial: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Merged times and A-labels ``(times, is_a)`` of one accepted pair.

    The superposed draw is exact for the boundary-aligned pairs of two
    independent legs: for every merged count ``N >= 4`` the alignment
    event (first two and last two labels differ) has probability
    ``(2pq)^2``, ``p = a/(a+b)``, and involves only the four end labels.
    Conditioning on it therefore leaves ``N`` Poisson given ``N >= 4``,
    the interior labels i.i.d., and each end pair AB or BA with
    probability ``pq / 2pq = 1/2``.  Only ``N < 4``, float ties in the
    times and ``min_points > 2`` lead to a redraw.

    Raises :class:`RejectionBudgetExceeded` when no draw within the
    budget has four merged points and ``min_points`` on both legs
    (typically a sign that ``rate * horizon`` is too small).
    """
    p = config.rate_a / (config.rate_a + config.rate_b)
    for attempt in range(config.max_resamples):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.seed), int(trial), int(attempt)])
        )
        times = generate_poisson(config.rate_a + config.rate_b, config.horizon, rng)
        if times.size < 4 or not np.all(np.diff(times) > 0):
            continue
        is_a = rng.random(times.size) < p
        first_a, last_a = rng.random(2) < 0.5
        is_a[:2] = (first_a, not first_a)
        is_a[-2:] = (not last_a, last_a)
        n_a = int(np.count_nonzero(is_a))
        if min(n_a, times.size - n_a) < config.min_points:
            continue
        return times, is_a
    raise RejectionBudgetExceeded(
        f"no accepted draw in {config.max_resamples} resamples "
        f"(rates {config.rate_a}, {config.rate_b}, horizon {config.horizon})"
    )


def generate_inputs(
    config: AdversaryConfig, trial: int = 0
) -> tuple[ObservationSeries, ObservationSeries]:
    """One accepted input pair: :func:`draw_labels` split by label.

    Values are zero, as the cancellation structure depends on the times
    only; :func:`attach_random_walk` fills in continuous prices.
    """
    times, is_a = draw_labels(config, trial)
    ta, tb = times[is_a], times[~is_a]
    return (ObservationSeries(ta, np.zeros_like(ta), "A"),
            ObservationSeries(tb, np.zeros_like(tb), "B"))


def attach_random_walk(
    s1: ObservationSeries,
    s2: ObservationSeries,
    seed: int,
    trial: int = 0,
) -> tuple[ObservationSeries, ObservationSeries]:
    """Fill both legs with standard-normal random-walk prices."""
    root = np.random.SeedSequence([int(seed), int(trial), _VALUE_STREAM_KEY])
    child_a, child_b = root.spawn(2)
    rng_a = np.random.default_rng(child_a)
    rng_b = np.random.default_rng(child_b)
    return (
        s1.with_values(np.cumsum(rng_a.standard_normal(s1.n_points))),
        s2.with_values(np.cumsum(rng_b.standard_normal(s2.n_points))),
    )


def theoretical_loss(a: float, b: float) -> float:
    """Expected long-run nonextant fraction ``(a/(a+b))^3 + (b/(a+b))^3``.

    Symmetric, scale invariant, and minimised at 1/4 exactly when the
    rates are equal.
    """
    if a <= 0 or b <= 0:
        raise NonPositiveRate(f"rates must be positive, got ({a}, {b})")
    p = a / (a + b)
    q = b / (a + b)
    return p**3 + q**3

"""Asynchronous input generation from two independent Poisson processes.

Observation times for each leg are homogeneous Poisson arrivals on
``(0, T]``, sampled through cumulative exponential inter-arrivals.  A
generated pair is accepted only when the first overlapping interval pair
is (1, 1) and the last is (M1, M2); rejected draws are regenerated from
the next substream.  Accepted pairs therefore satisfy
``m = n_points_total - 3``.

Every random draw is keyed by ``(seed, trial, attempt)`` with one spawned
child stream per leg, so concurrent trials reproduce bit-identical
results regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ObservationSeries, first_shared_time
from .errors import NonPositiveRate, RejectionBudgetExceeded

DEFAULT_SEED = 1729

# substream key for price attachment, clear of any attempt index
_VALUE_STREAM_KEY = 1 << 32


@dataclass(frozen=True)
class AdversaryConfig:
    """Rates, horizon and seeding for the two-leg Poisson generator.

    Parameters
    ----------
    rate_a, rate_b : float
        Events per time unit for legs A and B; strictly positive.
    horizon : float
        Length of the observation window ``(0, T]``.
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
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
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


def _leg_streams(seed: int, trial: int, attempt: int) -> tuple[np.random.Generator, np.random.Generator]:
    root = np.random.SeedSequence([int(seed), int(trial), int(attempt)])
    child_a, child_b = root.spawn(2)
    return np.random.default_rng(child_a), np.random.default_rng(child_b)


def _strictly_increasing(t: np.ndarray) -> bool:
    return bool(np.all(np.diff(t) > 0))


def _boundary_aligned(ta: np.ndarray, tb: np.ndarray) -> bool:
    # first overlap must be (1, 1), last must be (M1, M2)
    return bool(
        ta[1] > tb[0]
        and ta[0] < tb[1]
        and ta[-1] > tb[-2]
        and ta[-2] < tb[-1]
    )


def generate_inputs(
    config: AdversaryConfig,
    trial: int = 0,
) -> tuple[ObservationSeries, ObservationSeries]:
    """One accepted asynchronous input pair for the given trial index.

    Values are left at zero: the cancellation structure depends on the
    observation times only.  Use :func:`attach_random_walk` when a
    value-based check needs continuously distributed prices.

    Raises :class:`RejectionBudgetExceeded` when no draw within the
    budget meets the acceptance conditions (typically a sign that
    ``rate * horizon`` is too small for ``min_points``).
    """
    want = max(2, config.min_points)
    for attempt in range(config.max_resamples):
        rng_a, rng_b = _leg_streams(config.seed, trial, attempt)
        ta = generate_poisson(config.rate_a, config.horizon, rng_a)
        tb = generate_poisson(config.rate_b, config.horizon, rng_b)
        if ta.size < want or tb.size < want:
            continue
        if not (_strictly_increasing(ta) and _strictly_increasing(tb)):
            continue
        if first_shared_time(ta, tb) is not None:
            continue
        if not _boundary_aligned(ta, tb):
            continue
        return (
            ObservationSeries(ta, np.zeros(ta.size), "A"),
            ObservationSeries(tb, np.zeros(tb.size), "B"),
        )
    raise RejectionBudgetExceeded(
        f"no accepted draw in {config.max_resamples} resamples "
        f"(rates {config.rate_a}, {config.rate_b}, horizon {config.horizon})"
    )


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

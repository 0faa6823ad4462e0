"""Seeded tick-file pairs for the benchmark, drawn without hyf's generator.

Each leg is a homogeneous Poisson process on ``(0, T]``: a Poisson count
followed by sorted uniform times.  Draws that share a timestamp or are not
boundary-aligned (first two and last two merged labels differ) are
redrawn, so every accepted pair has ``m = N_total - 3`` overlaps.  Prices
are correlated random walks: leg A follows a latent Brownian motion W at
its tick times, leg B follows ``0.5 W + sqrt(0.75) V`` with V independent,
so the covariance is far from zero and every price is continuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Pair:
    ta: np.ndarray
    pa: np.ndarray
    tb: np.ndarray
    pb: np.ndarray
    draws: int


def _leg(rng: np.random.Generator, rate: float, horizon: float) -> np.ndarray:
    return np.sort(horizon * (1.0 - rng.random(rng.poisson(rate * horizon))))


def _accepted(ta: np.ndarray, tb: np.ndarray) -> bool:
    if ta.size < 2 or tb.size < 2:
        return False
    merged = np.concatenate([ta, tb])
    order = np.argsort(merged, kind="stable")
    if not np.all(np.diff(merged[order]) > 0):
        return False
    is_a = order < ta.size
    return bool(is_a[0] != is_a[1] and is_a[-1] != is_a[-2])


def draw_pair(seed: int, stream: int, rate_a: float, rate_b: float, horizon: float) -> Pair:
    """First accepted pair from the substream ``(seed, stream)``."""
    rng = np.random.default_rng([seed, stream])
    for draw in range(1, MAX_DRAWS + 1):
        ta = _leg(rng, rate_a, horizon)
        tb = _leg(rng, rate_b, horizon)
        if _accepted(ta, tb):
            break
    else:
        raise RuntimeError(f"no accepted pair in {MAX_DRAWS} draws")
    merged = np.concatenate([ta, tb])
    order = np.argsort(merged)
    steps = np.sqrt(np.diff(merged[order], prepend=0.0))
    w = np.empty(merged.size)
    v = np.empty(merged.size)
    w[order] = np.cumsum(steps * rng.standard_normal(merged.size))
    v[order] = np.cumsum(steps * rng.standard_normal(merged.size))
    pa = 100.0 + w[: ta.size]
    pb = 100.0 + 0.5 * w[ta.size:] + np.sqrt(0.75) * v[ta.size:]
    return Pair(ta, pa, tb, pb, draw)


def write_ticks(path, times: np.ndarray, prices: np.ndarray) -> None:
    """``time,price`` CSV with ``repr`` floats, which round-trip exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,price\n")
        fh.writelines(f"{t!r},{p!r}\n" for t, p in zip(times.tolist(), prices.tolist()))

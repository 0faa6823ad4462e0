"""Repeated adversary trials and the empirical loss grid.

Each trial counts ``f/m`` from the merged labels of an accepted input pair
alone (label rule, ``m = N - 3``), and :func:`label_counts` counts every
trial.  Trials 0 and 1 of a cell are drawn once each, as series, by
:func:`~hyf.adversary.generate_inputs` on the stream keyed by ``(seed,
trial)``, and the interval rule recounts both as a cross-check.  The other
trials are drawn in blocks of about :data:`BLOCK_LABELS` labels, block
``k`` from the stream keyed by ``(seed, k)``
(:func:`~hyf.adversary.draw_label_block`).  The block layout depends on
``(a+b)T`` alone, so the aggregate depends on the seed and the cell, not
on the machine or on execution order.  The default boundary mode is
``"interior"``: only detections at indices 2..M-2 of each leg enter the
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .adversary import AdversaryConfig, draw_label_block, generate_inputs, theoretical_loss
from .core import _integer, merge_labels
from .errors import DetectorDisagreement
from .nonextant import detect_interval_rule

BoundaryMode = Literal["interior", "total"]

_MODES = ("interior", "total")

# run_experiment holds one 8-byte loss per run, so the cap keeps that array
# at 80 MB; the time a cell takes is not capped
MAX_RUNS = 10**7

# labels drawn at once per block of trials (one trial per block once (a+b)T
# exceeds it): 2**14 float64 uniforms take 128 KiB, where 2**22 would add
# 32 MiB to peak memory
BLOCK_LABELS = 2**14


def check_runs(runs: int) -> None:
    """Reject a run count that is not an integer, or is below 2 or above
    :data:`MAX_RUNS`, with ``ValueError``."""
    runs = _integer(runs, "runs")
    if runs < 2:
        raise ValueError(f"need at least 2 runs for a deviation estimate, got {runs}")
    if runs > MAX_RUNS:
        raise ValueError(
            f"runs = {runs} exceeds the cap of {MAX_RUNS:g} (one 8-byte loss is kept per run)"
        )


@dataclass(frozen=True)
class TrialSummary:
    """Mean and sample deviation of the loss ratio over repeated trials."""

    config: AdversaryConfig
    runs: int
    mean_loss: float
    std_loss: float
    theoretical: float
    boundary_mode: str


@dataclass(frozen=True)
class LossTable:
    """Grid of summaries by horizon and rate pair, plus the exact row."""

    horizons: tuple[float, ...]
    rate_pairs: tuple[tuple[float, float], ...]
    rows: tuple[tuple[TrialSummary, ...], ...]
    theoretical: tuple[float, ...]

    def cells(self) -> list[TrialSummary]:
        return [summary for row in self.rows for summary in row]


def label_counts(is_a: np.ndarray, sizes: np.ndarray, include_boundary: bool) -> np.ndarray:
    """Label-rule ``f`` of each aligned string in the concatenation ``is_a``,
    whose strings have lengths ``sizes`` (each at least 4).

    ``f`` counts same-label triple middles, plus edge fallbacks where labels
    0, 2, 3 (or -1, -3, -4) agree or N = 5 labels alternate.  Every string
    starts and ends with a mixed pair, so no same-label triple spans two
    strings and the triple middles need no masking.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    same = is_a[1:] == is_a[:-1]
    # middle[j]: label j + 1 is a triple middle
    middle = same[1:] & same[:-1]
    f = np.add.reduceat(middle, starts, dtype=np.intp)
    if include_boundary:
        f += (is_a[starts + 2] == is_a[starts]) & (is_a[starts] == is_a[starts + 3])
        f += (is_a[ends - 3] == is_a[ends - 1]) & (is_a[ends - 1] == is_a[ends - 4])
        five = sizes == 5
        first = starts[five]
        f[five] += (is_a[first] == is_a[first + 2]) & (is_a[first + 2] == is_a[first + 4])
    return f


def run_experiment(
    config: AdversaryConfig,
    runs: int,
    boundary_mode: BoundaryMode = "interior",
) -> TrialSummary:
    """Aggregate the loss ratio over ``runs`` independent trials.

    Trial ``f/m`` is the :func:`label_counts` count over ``N - 3``.  Trials
    0 and 1 are the merged labels of :func:`generate_inputs`, recounted by
    the interval rule (:class:`DetectorDisagreement` on a difference); the
    rest are :func:`draw_label_block` blocks.  The sample deviation uses
    n-1, so ``runs >= 2``; :func:`check_runs` caps it.
    """
    check_runs(runs)
    if boundary_mode not in _MODES:
        raise ValueError(f"boundary_mode must be one of {_MODES}, got {boundary_mode!r}")
    include = boundary_mode == "total"
    losses = np.empty(runs, dtype=float)
    for trial in range(2):
        s1, s2 = generate_inputs(config, trial)
        is_a = merge_labels(s1, s2).is_a
        f, m = int(label_counts(is_a, np.array([is_a.size]), include)[0]), is_a.size - 3
        report = detect_interval_rule(s1, s2, include_boundary=include)
        if (report.f_total, report.m) != (f, m):
            raise DetectorDisagreement(f"label count != interval rule: trial {trial}, {config}")
        losses[trial] = f / m
    expected = (config.rate_a + config.rate_b) * config.horizon
    per_block = max(1, BLOCK_LABELS // math.ceil(max(4.0, expected)))
    for block, start in enumerate(range(2, runs, per_block)):
        stop = min(start + per_block, runs)
        is_a, sizes = draw_label_block(config, block, stop - start)
        losses[start:stop] = label_counts(is_a, sizes, include) / (sizes - 3)
    return TrialSummary(
        config=config,
        runs=runs,
        mean_loss=float(losses.mean()),
        std_loss=float(losses.std(ddof=1)),
        theoretical=theoretical_loss(config.rate_a, config.rate_b),
        boundary_mode=boundary_mode,
    )


def loss_table(
    rate_pairs: Sequence[tuple[float, float]],
    horizons: Sequence[float],
    runs: int,
    seed: int,
    boundary_mode: BoundaryMode = "interior",
) -> LossTable:
    """Empirical loss grid over all (horizon, rate pair) combinations."""
    if not rate_pairs:
        raise ValueError("need at least one rate pair")
    if not horizons:
        raise ValueError("need at least one horizon")
    # build every config first, so a bad cell fails before any trial runs
    configs = [
        [AdversaryConfig(rate_a, rate_b, horizon, seed) for rate_a, rate_b in rate_pairs]
        for horizon in horizons
    ]
    rows = tuple(
        tuple(run_experiment(config, runs, boundary_mode) for config in row)
        for row in configs
    )
    return LossTable(
        horizons=tuple(horizons),
        rate_pairs=tuple(map(tuple, rate_pairs)),
        rows=rows,
        theoretical=tuple(theoretical_loss(a, b) for a, b in rate_pairs),
    )

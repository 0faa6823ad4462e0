"""The benchmark's workloads: seeded inputs, hyf commands and their checks.

* ``pair_1m`` -- one 1:1 pair with horizon 500000 (about 1M ticks): the
  write path (``simulate``), ``estimate`` and the two O(n) detectors.  The
  per-tick layers do all the work; ``montecarlo`` does none.
* ``crosscheck_50k`` -- one 1:1/4 pair with horizon 40000 (about 40k + 10k
  ticks) under ``detect --method all --include-boundary``: the only
  workload that runs ``oracle_detect``, ``point_coefficients`` and the edge
  fallback.  At this ratio about 64% of the dense leg is nonextant, and the
  oracle's classification cost grows with that count.
* ``loss_grid`` -- the default ``loss-table``: 8000 small rejection-sampled
  trials, dominated by the generator and per-call overhead; no file I/O
  and no estimator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

NAMES = ("pair_1m", "crosscheck_50k", "loss_grid")

PAIRS = {
    "pair_1m": (1.0, 1.0, 500_000.0),
    "crosscheck_50k": (1.0, 0.25, 40_000.0),
}

LOSS_RATES = ((1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (1.0, 0.1))
LOSS_HORIZONS = (100.0, 1000.0)
LOSS_RUNS = 1000

# span names each workload must fire when traced
SPANS = {
    "pair_1m": (
        "cli.main", "cli.read_tick_file", "cli.write_tick_file", "core.validate_series",
        "core.merge_labels", "core.enumerate_overlaps", "estimator.hy_covariance",
        "estimator.telescope_rows", "nonextant.detect_interval_rule",
        "nonextant.detect_label_rule", "nonextant.overlap_count",
        "adversary.generate_inputs", "adversary.generate_poisson",
        "adversary.attach_random_walk",
    ),
    "crosscheck_50k": (
        "cli.main", "cli.read_tick_file", "core.validate_series", "core.merge_labels",
        "estimator.point_coefficients", "nonextant.detect_interval_rule",
        "nonextant.detect_label_rule", "nonextant.oracle_detect",
        "nonextant.overlap_count",
    ),
    "loss_grid": (
        "cli.main", "nonextant.detect_interval_rule", "nonextant.overlap_count",
        "adversary.generate_inputs", "adversary.generate_poisson",
        "montecarlo.loss_table", "montecarlo.run_experiment",
    ),
}


@dataclass
class Command:
    """One ``hyf`` invocation; ``check`` maps its parsed JSON to problems."""

    metric: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass
class Prepared:
    properties: dict
    commands: list[Command]


def asymptotic_loss(rate_a: float, rate_b: float) -> float:
    p = rate_a / (rate_a + rate_b)
    return p**3 + (1.0 - p) ** 3


def _pair_files(name: str, seed: int, workdir: Path, scale: float):
    rate_a, rate_b, horizon = PAIRS[name]
    horizon *= scale
    pair = gen.draw_pair(seed, NAMES.index(name), rate_a, rate_b, horizon)
    path_a, path_b = str(workdir / f"{name}_a.csv"), str(workdir / f"{name}_b.csv")
    gen.write_ticks(path_a, pair.ta, pair.pa)
    gen.write_ticks(path_b, pair.tb, pair.pb)
    n_total = pair.ta.size + pair.tb.size
    f_interior = checks.triple_middles(checks.merged_labels(pair.ta, pair.tb)).size
    properties = {
        "rate_a": rate_a, "rate_b": rate_b, "horizon": horizon,
        "ticks_a": int(pair.ta.size), "ticks_b": int(pair.tb.size),
        "rate_ratio": rate_b / rate_a, "draws": pair.draws,
        "expected_interior_loss": checks.exact_interior_loss(rate_a, rate_b, horizon),
        "asymptotic_interior_loss": asymptotic_loss(rate_a, rate_b),
        "interior_loss": f_interior / (n_total - 3),
    }
    return pair, path_a, path_b, properties


def _pair_1m(seed: int, workdir: Path, scale: float) -> Prepared:
    pair, path_a, path_b, properties = _pair_files("pair_1m", seed, workdir, scale)
    rate_a, rate_b, horizon = properties["rate_a"], properties["rate_b"], properties["horizon"]
    expected = checks.expected_nonextant(pair.ta, pair.tb, include_boundary=False)
    digests: dict[str, str] = {}
    files = [path_a, path_b]
    return Prepared(properties, [
        Command("simulate_s",
                ["simulate", "--horizon", f"{horizon:g}", "--seed", str(seed),
                 "--out-prefix", str(workdir / "simulated"), "--json"],
                lambda p: checks.check_simulate(p, rate_a, rate_b, horizon, digests)),
        Command("estimate_s", ["estimate", *files, "--json"],
                lambda p: checks.check_estimate(p, pair.ta, pair.pa, pair.tb, pair.pb)),
        Command("detect_interval_s", ["detect", *files, "--method", "interval", "--json"],
                lambda p: checks.check_detect(p, pair.ta, pair.tb, expected, ("interval_rule",))),
        Command("detect_label_s", ["detect", *files, "--method", "label", "--json"],
                lambda p: checks.check_detect(p, pair.ta, pair.tb, expected, ("label_rule",))),
    ])


def _crosscheck_50k(seed: int, workdir: Path, scale: float) -> Prepared:
    pair, path_a, path_b, properties = _pair_files("crosscheck_50k", seed, workdir, scale)
    expected = checks.expected_nonextant(pair.ta, pair.tb, include_boundary=True)
    methods = ("interval_rule", "label_rule", "oracle")
    return Prepared(properties, [
        Command("detect_all_s",
                ["detect", path_a, path_b, "--method", "all", "--include-boundary", "--json"],
                lambda p: checks.check_detect(p, pair.ta, pair.tb, expected, methods)),
    ])


def _loss_grid(seed: int, workdir: Path, scale: float) -> Prepared:
    runs = max(10, round(LOSS_RUNS * scale))
    cells = [
        {"rate_a": a, "rate_b": b, "horizon": t,
         "expected_ticks": (a + b) * t,
         "exact_loss": checks.exact_interior_loss(a, b, t),
         "asymptotic_loss": asymptotic_loss(a, b)}
        for t in LOSS_HORIZONS for a, b in LOSS_RATES
    ]
    argv = ["loss-table", "--seed", str(seed), "--json"]
    if runs != LOSS_RUNS:
        argv[1:1] = ["--runs", str(runs)]
    return Prepared({"runs": runs, "trials": runs * len(cells), "cells": cells}, [
        Command("loss_table_s", argv, lambda p: checks.check_loss_table(p, cells, runs)),
    ])


_BUILDERS = {"pair_1m": _pair_1m, "crosscheck_50k": _crosscheck_50k, "loss_grid": _loss_grid}


def prepare(name: str, seed: int, workdir: Path, scale: float = 1.0) -> Prepared:
    """Write the workload's inputs into ``workdir`` and list its commands.

    ``scale`` shrinks horizons and Monte Carlo runs for quick tests; the
    benchmark itself always runs at scale 1.
    """
    return _BUILDERS[name](seed, workdir, scale)


def run_check(command: Command, code: int, stdout: str) -> list[str]:
    """Problems with one command's outcome: exit status, JSON and its content."""
    if code != 0:
        return [f"{command.argv[0]}: exit code {code}"]
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"{command.argv[0]}: stdout is not JSON"]
    try:
        return command.check(payload)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return [f"{command.argv[0]}: malformed output ({type(exc).__name__}: {exc})"]


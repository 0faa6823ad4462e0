"""The bodies of the four commands: estimate, detect, simulate, loss-table.

:mod:`hyf.entry` owns the parser, the exit codes and :func:`main`, and
imports this module, with numpy and the compute modules, only once argparse
has chosen a command.  ``main`` and ``build_parser`` stay importable from
here.  Each body looks up the functions it calls in this module's namespace
at each call, so a function bound here (a spy, a tracer) takes their place.
"""

from __future__ import annotations

import contextlib
import os
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from . import __version__, ticks
from ._output import _Gathered, _json_chunks, _scalar_blocks
from .adversary import DEFAULT_SEED, AdversaryConfig, attach_random_walk, generate_inputs
from .core import (
    ObservationSeries,
    first_shared_time,
    merge_labels,
    safe_median,
    tie_mask,
    validate_series,
)
# build_parser and main stay importable from here
from .entry import EXIT_OK, _OutputError, _UsageError, _write_stdout, build_parser, main
from .errors import DetectorDisagreement, ValidationError
from .estimator import hy_covariance, telescope_rows
from .montecarlo import check_runs, loss_table
from .nonextant import (
    NonextantReport,
    detect_interval_rule,
    detect_label_rule,
    oracle_detect,
)
from .ticks import read_tick_file, write_tick_file


def _raise_first(outcomes: list) -> list:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def _tie_jitter(times_a: np.ndarray, times_b: np.ndarray) -> np.ndarray:
    """Deterministically nudge leg-B timestamps that collide with leg A.

    Each tied time moves up by ``1e-9`` of the median finite merged gap, or
    by one ulp where that step is too small to change it (epoch seconds),
    and stays below the next merged time: a step that reaches it stops at
    the float just below it.  So leg B keeps its order and no new tie is
    made.  Where no float lies between a tied time and the next merged
    time, raises :class:`ValidationError`.
    """
    sorted_a = np.sort(times_a)
    merged = np.sort(np.concatenate([sorted_a, times_b]))
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(merged)
        gaps = gaps[(gaps > 0) & (gaps < np.inf)]
        if gaps.size == 0 or sorted_a.size == 0:
            return times_b
        eps = 1e-9 * safe_median(gaps)
        out = times_b.copy()
        tied = tie_mask(sorted_a, out)
        t = out[tied]
        nudged = np.maximum(t + eps, np.nextafter(t, np.inf))
        # the next merged time above each tied one, nan where there is
        # none; nan sorts last, and a nan above holds nothing back either
        nxt = np.searchsorted(merged, t, side="right")
        above = np.where(nxt < merged.size, merged[np.minimum(nxt, merged.size - 1)], np.nan)
        held = nudged >= above
        below = np.nextafter(above, -np.inf)
        stuck = held & (below <= t)
        if stuck.any():
            k = int(np.argmax(stuck))
            raise ValidationError(
                f"--jitter cannot break the tie at time {float(t[k])!r}: no float lies "
                f"between it and the next time {float(above[k])!r}"
            )
        out[tied] = np.where(held, below, nudged)
    return out


def _load_pair(args) -> tuple[ObservationSeries, ObservationSeries]:
    # the reader is this module's name, looked up at each call, so that a
    # function bound to it here (a spy, a tracer) reads both legs
    (times_a, prices_a), (times_b, prices_b) = _raise_first(
        ticks.read_legs(read_tick_file, args.file_a, args.file_b))
    if getattr(args, "jitter", False):
        times_b = _tie_jitter(times_a, times_b)
    # a fully synchronous pair is well defined for the interval algebra;
    # a partial timestamp collision is ambiguous data and gets rejected
    shared = first_shared_time(times_a, times_b)
    if shared is not None and not np.array_equal(times_a, times_b):
        raise ValidationError(
            f"time {float(shared)!r} appears in both files; asynchronous inputs "
            "must not share timestamps (rerun with --jitter to break ties)"
        )
    s1 = validate_series(times_a, prices_a, "A")
    s2 = validate_series(times_b, prices_b, "B")
    return s1, s2


def _unwritten_zeros(n: int) -> np.ndarray:
    # frozen here, so a series takes the zeros without a copy
    values = np.zeros(n)
    values.flags.writeable = False
    return values


def _resolve_seed(args) -> int:
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None:
        env = os.environ.get("HYF_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "HYF_SEED"
        except ValueError:
            raise _UsageError(f"HYF_SEED must be an integer, got {env!r}") from None
    if not 0 <= seed < 2**64:
        raise _UsageError(f"{source} must be a 64-bit unsigned integer, got {seed}")
    return seed


def _parse_rate(token: str) -> float:
    token = token.strip()
    try:
        if "/" in token:
            return float(Fraction(token))
        return float(token)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse rate {token!r}") from None


def _parse_rate_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise _UsageError(f"rate pair must look like 'a,b', got {chunk!r}")
        a, b = (_parse_rate(p) for p in parts)
        pairs.append((a, b))
    if not pairs:
        raise _UsageError("need at least one rate pair")
    return pairs


def _parse_horizons(text: str) -> list[float]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(float(chunk))
        except ValueError:
            raise _UsageError(f"cannot parse horizon {chunk!r}") from None
    if not out:
        raise _UsageError("need at least one horizon")
    return out


def _emit(args, payload: dict, text: Iterable[str]) -> None:
    """Write ``payload`` as JSON, or else ``text``, built only here; both
    piece by piece."""
    _write_stdout(_json_chunks(payload) if args.json else text)
    if args.json:
        _write_stdout(("\n",))


def _legs_payload(report: NonextantReport, s1: ObservationSeries, s2: ObservationSeries) -> dict:
    # the writers gather the times and turn both lists into Python scalars
    # a block at a time
    return {
        "A": {"indices": report.nonextant_1, "times": _Gathered(s1.times, report.nonextant_1)},
        "B": {"indices": report.nonextant_2, "times": _Gathered(s2.times, report.nonextant_2)},
    }


def _report_payload(report: NonextantReport, legs: dict) -> dict:
    loss = report.f_total / report.m if report.m > 0 else None
    return {
        "method": report.method,
        "legs": legs,
        "f_interior": report.f_interior,
        "f_total": report.f_total,
        "m": report.m,
        "loss": loss,
    }


def _leg_lines(legs: dict) -> Iterator[str]:
    """The ``nonextant_<leg>`` lines in pieces; a finite float's JSON is its repr."""
    for leg in ("A", "B"):
        yield f"nonextant_{leg} indices="
        yield from _scalar_blocks(legs[leg]["indices"], ",")
        yield " times="
        yield from _scalar_blocks(legs[leg]["times"], ",")
        yield "\n"


def _report_lines(payload: dict, leg_lines: Iterable[str]) -> Iterator[str]:
    loss = "undefined" if payload["loss"] is None else repr(payload["loss"])
    yield f"method {payload['method']}\n"
    yield from leg_lines
    yield f"f_interior {payload['f_interior']}\nf_total {payload['f_total']}\n"
    yield f"overlaps {payload['m']}\nloss {loss}\n"


def _cmd_estimate(args) -> int:
    s1, s2 = _load_pair(args)
    covariance = hy_covariance(s1, s2)
    terms = telescope_rows(s1, s2)
    results = {
        "covariance": covariance,
        "overlaps": terms.raw_count,
        "raw_terms": terms.raw_count,
        "grouped_terms": terms.grouped_count,
    }
    payload = {
        "command": "estimate",
        "inputs": {"file_a": args.file_a, "file_b": args.file_b},
        "results": results,
        "seed": None,
        "version": __version__,
    }
    _emit(args, payload, [
        f"covariance {covariance!r}\n",
        f"overlaps {results['overlaps']}\n",
        f"raw_terms {results['raw_terms']}\n",
        f"grouped_terms {results['grouped_terms']}\n",
    ])
    return EXIT_OK


def _cmd_detect(args) -> int:
    # the detectors and reports read times only: once checked, each leg's
    # prices give way to frozen zeros that are never written, as in
    # generate_inputs, and so take no resident memory
    s1, s2 = (s.with_values(_unwritten_zeros(s.n_points)) for s in _load_pair(args))
    reports: list[NonextantReport] = []
    if args.method in ("interval", "all"):
        reports.append(detect_interval_rule(s1, s2, include_boundary=args.include_boundary))
    if args.method in ("label", "all"):
        reports.append(detect_label_rule(merge_labels(s1, s2), include_boundary=args.include_boundary))
    if args.method in ("oracle", "all"):
        reports.append(oracle_detect(s1, s2, include_boundary=args.include_boundary))

    agree = all(reports[0].same_points(r) for r in reports[1:])
    # agreeing reports name the same points: one legs dict serves all, and
    # _json_chunks encodes it once
    shared = _legs_payload(reports[0], s1, s2) if agree else None
    payloads = [_report_payload(r, shared or _legs_payload(r, s1, s2)) for r in reports]
    payload = {
        "command": "detect",
        "inputs": {
            "file_a": args.file_a,
            "file_b": args.file_b,
            "method": args.method,
            "include_boundary": args.include_boundary,
        },
        "results": {"reports": payloads, "agree": agree if args.method == "all" else None},
        "seed": None,
        "version": __version__,
    }

    def lines():
        # formats a legs dict that several reports share once, like
        # _json_chunks encodes it once
        shared_lines = list(_leg_lines(shared)) if agree and len(payloads) > 1 else None
        for p in payloads:
            yield from _report_lines(p, shared_lines or _leg_lines(p["legs"]))
        if args.method == "all":
            yield f"agreement {'ok' if agree else 'FAILED'}\n"

    _emit(args, payload, lines())
    if not agree:
        raise DetectorDisagreement("detectors disagree; this indicates a bug")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    try:
        config = AdversaryConfig(args.rate_a, args.rate_b, args.horizon, seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    s1, s2 = generate_inputs(config)
    path_a = f"{args.out_prefix}_a.csv"
    path_b = f"{args.out_prefix}_b.csv"

    def write_walked(path: str, series: ObservationSeries) -> None:
        # the process that writes a leg draws that leg's walk alone, so the
        # walks of both legs are never held at once; both names are this
        # module's, looked up at each call, like the reader in _load_pair
        leg = "AB".index(series.label)
        legs = (series, None) if leg == 0 else (None, series)
        write_tick_file(path, attach_random_walk(*legs, seed=seed)[leg])

    outcomes = list(zip((path_a, path_b),
                        ticks.write_legs(write_walked, path_a, s1, path_b, s2)))
    failed = [(path, outcome) for path, outcome in outcomes if isinstance(outcome, Exception)]
    if failed:
        # no half pair stays behind; an error that names its path came
        # from open(), so that file was never touched
        for path, outcome in outcomes:
            if not (isinstance(outcome, OSError) and outcome.filename == path):
                with contextlib.suppress(OSError):
                    os.remove(path)
        path, exc = failed[0]
        if isinstance(exc, OSError):
            raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise exc
    results = {
        "file_a": path_a,
        "file_b": path_b,
        "points_a": s1.n_points,
        "points_b": s2.n_points,
    }
    payload = {
        "command": "simulate",
        "inputs": {
            "rate_a": args.rate_a,
            "rate_b": args.rate_b,
            "horizon": args.horizon,
            "out_prefix": args.out_prefix,
        },
        "results": results,
        "seed": seed,
        "version": __version__,
    }
    _emit(args, payload, [
        f"wrote {path_a} ({s1.n_points} points)\n",
        f"wrote {path_b} ({s2.n_points} points)\n",
    ])
    return EXIT_OK


def _cmd_loss_table(args) -> int:
    rate_pairs = _parse_rate_pairs(args.rates)
    horizons = _parse_horizons(args.horizons)
    seed = _resolve_seed(args)
    try:
        for rate_a, rate_b in rate_pairs:
            for horizon in horizons:
                AdversaryConfig(rate_a, rate_b, horizon, seed)
        check_runs(args.runs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    mode = "total" if args.include_boundary else "interior"
    table = loss_table(rate_pairs, horizons, args.runs, seed, boundary_mode=mode)

    cells = [
        {
            "rate_a": s.config.rate_a,
            "rate_b": s.config.rate_b,
            "horizon": s.config.horizon,
            "runs": s.runs,
            "boundary_mode": s.boundary_mode,
            "mean_loss": s.mean_loss,
            "std_loss": s.std_loss,
            "theoretical": s.theoretical,
        }
        for s in table.cells()
    ]
    payload = {
        "command": "loss-table",
        "inputs": {
            "rates": args.rates,
            "horizons": args.horizons,
            "runs": args.runs,
            "boundary_mode": mode,
        },
        "results": {"cells": cells, "theoretical": list(table.theoretical)},
        "seed": seed,
        "version": __version__,
    }

    header = ["horizon".ljust(10)] + [
        f"r={a:g},{b:g}".ljust(16) for a, b in table.rate_pairs
    ]
    lines = [
        f"loss f/m (mean ± sample std, boundary={mode}, runs={args.runs}, seed={seed})",
        "".join(header).rstrip(),
    ]
    for horizon, row in zip(table.horizons, table.rows):
        cells_txt = [f"{s.mean_loss:.3f} ± {s.std_loss:.3f}".ljust(16) for s in row]
        lines.append("".join([f"{horizon:g}".ljust(10)] + cells_txt).rstrip())
    exact = [f"{v:.6g}".ljust(16) for v in table.theoretical]
    lines.append("".join(["exact".ljust(10)] + exact).rstrip())
    _emit(args, payload, (line + "\n" for line in lines))
    return EXIT_OK
